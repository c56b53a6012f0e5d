//! Indexed-pick bit-exactness ladder.
//!
//! The WG-family pick paths (`select_group`, `merb_gate`,
//! `pick_unit_group`, `pick_bypass`) resolve their decisions through
//! incremental seq/row indexes (DESIGN.md §13). The original scan-based
//! implementations are kept behind `SimConfig::with_reference_picks(true)`,
//! and this suite demands the *identical* [`RunResult`] — every counter
//! (including the WG-M cap counter, which makes the scored candidate set
//! observable), histogram moment and latency statistic — and the identical
//! FNV-1a trace hash from both routes, for every scheduler in the audited
//! ladder on the full irregular suite. Indexing is a pure wall-clock
//! optimisation; any divergence here is a scheduling-correctness bug.
//!
//! Baseline (non-WG) schedulers ride along: the flag is a no-op for them,
//! which doubles as a regression check that the plumbing never leaks into
//! other policies.

use ldsim::prelude::*;
use ldsim::util::parallel_map;

/// Same ladder as the conformance and fast-forward suites.
const LADDER: &[SchedulerKind] = &[
    SchedulerKind::Gmc,
    SchedulerKind::Wg,
    SchedulerKind::WgM,
    SchedulerKind::WgBw,
    SchedulerKind::WgW,
    SchedulerKind::Wafcfs,
    SchedulerKind::Sbwas { alpha_q: 2 },
];

/// Run one benchmark × scheduler pair at `scale` with indexed and
/// reference picks, and demand bit-exact results and traces.
fn assert_bitexact(bench: &str, kind: SchedulerKind, scale: Scale, seed: u64) {
    let kernel = benchmark(bench, scale, seed).generate();
    let cfg = SimConfig::default()
        .with_scheduler(kind)
        .with_trace()
        .with_hist();
    let (indexed, indexed_trace) = Simulator::new(cfg.clone(), &kernel).run_traced();
    let (reference, reference_trace) =
        Simulator::new(cfg.with_reference_picks(true), &kernel).run_traced();
    assert!(indexed.finished, "{bench}/{kind:?} did not finish");
    assert_eq!(
        indexed, reference,
        "{bench}/{kind:?} at {scale:?}: indexed picks diverged from the reference scans"
    );
    assert_eq!(
        indexed_trace.as_ref().map(|t| t.stable_hash()),
        reference_trace.as_ref().map(|t| t.stable_hash()),
        "{bench}/{kind:?} at {scale:?}: trace hash diverged"
    );
}

fn ladder_pairs() -> Vec<(&'static str, SchedulerKind)> {
    let mut pairs = Vec::new();
    for bench in ldsim::system::runner::irregular_names() {
        for &kind in LADDER {
            pairs.push((bench, kind));
        }
    }
    pairs
}

#[test]
fn indexed_picks_bitexact_tiny() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_bitexact(bench, kind, Scale::Tiny, 11);
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Small-scale ladder is slow without optimisation; run under --release"
)]
fn indexed_picks_bitexact_small() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_bitexact(bench, kind, Scale::Small, 11);
    });
}

/// Tiny and Small grids are nearly contention-free, so the blocked-bypass
/// regime (most picks find every bank's command queue full) barely shows
/// there. Three contended Full cells pin it: the non-coordinating WG,
/// and the two coordinating kinds whose cap counter the bypass must keep
/// exact.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Full-scale cells are slow without optimisation; run under --release"
)]
fn indexed_picks_bitexact_full_contended() {
    parallel_map(
        vec![
            ("sp", SchedulerKind::WgW),
            ("spmv", SchedulerKind::WgM),
            ("sp", SchedulerKind::Wg),
        ],
        |(bench, kind)| assert_bitexact(bench, kind, Scale::Full, 1),
    );
}

/// The WG-S (shared-aware) future-work scheme is outside the audited ladder
/// but exercises the `shared` tie-break inside `select_group`; pin it too.
#[test]
fn indexed_picks_bitexact_wgshared_tiny() {
    parallel_map(
        ldsim::system::runner::irregular_names()
            .iter()
            .map(|b| (*b, SchedulerKind::WgShared))
            .collect::<Vec<_>>(),
        |(bench, kind)| assert_bitexact(bench, kind, Scale::Tiny, 11),
    );
}
