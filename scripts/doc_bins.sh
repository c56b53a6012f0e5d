#!/usr/bin/env bash
# Fail when the docs name a binary that does not exist.
#
# Every `--bin NAME` in README.md, DESIGN.md, EXPERIMENTS.md and .claude/
# must name a `src/bin/NAME.rs` somewhere in the workspace (the root
# package or any crate under crates/). Figures run through
# `repro --only NAME`, so a doc pointing at a per-figure binary is stale.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=0
for name in $(grep -rhoE -- '--bin[ =][A-Za-z0-9_-]+' README.md DESIGN.md EXPERIMENTS.md .claude/ \
                | sed -E 's/^--bin[ =]//' | sort -u); do
    if [ ! -f "src/bin/$name.rs" ] && ! compgen -G "crates/*/src/bin/$name.rs" >/dev/null; then
        echo "error: docs name '--bin $name', but no src/bin/$name.rs exists in the workspace" >&2
        bad=1
    fi
done
if [ "$bad" -eq 0 ]; then
    echo "doc lint: every documented --bin names a workspace binary"
fi
exit "$bad"
