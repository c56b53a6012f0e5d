//! The sharded cell log: the on-disk half of the content-addressed cell
//! cache — N append-only shard files plus a crash-safe compaction pass.
//!
//! ## Layout
//!
//! A shard map is a directory:
//!
//! ```text
//! <dir>/shards.meta                 "shards=8\n" — the layout contract
//! <dir>/shard-0000-of-0008.jsonl    rows whose cellkey % 8 == 0
//! <dir>/shard-0001-of-0008.jsonl    ...
//! ```
//!
//! Every row is one self-describing JSONL line (see
//! [`crate::sweep::cache_row`]): FNV-1a cellkey, engine salt,
//! config fingerprint, full [`RunResult`](crate::RunResult). The shard of
//! a row is `cellkey % shards` — the FNV keyspace is uniform, so shards
//! stay balanced without any placement logic. The shard count is fixed at
//! creation and recorded in `shards.meta`; opening an existing map with a
//! different requested count keeps the on-disk layout (the meta file wins)
//! so a misconfigured client cannot scatter rows across two geometries.
//!
//! ## Compaction & eviction
//!
//! Shard files are append-only: re-running a sweep after a salt bump, a
//! crash mid-append, or years of churn leaves stale, torn, and superseded
//! rows behind. [`ShardMap::compact`] rewrites each shard keeping only the
//! *newest* (last-appended) row per cellkey, dropping:
//!
//! * **torn** rows — unparsable lines (crash mid-append) or rows missing
//!   the `cellkey`/`engine` envelope;
//! * **stale** rows — engine salt more than one generation behind the
//!   current [`ENGINE_SALT`](crate::sweep::ENGINE_SALT) (per the history
//!   passed in, normally
//!   [`ENGINE_SALT_HISTORY`](crate::sweep::ENGINE_SALT_HISTORY)). Rows
//!   exactly one generation old are *kept* — they are dead weight for this
//!   binary but a rollback or a mixed-version farm can still serve them —
//!   and anything older is evicted;
//! * **misplaced** rows — rows whose cellkey does not map to the shard
//!   they sit in (a foreign tool or a re-sharded copy). Dropping a valid
//!   row costs a re-simulation, never a wrong answer, so eviction is
//!   always safe;
//! * **superseded** rows — older appends for a key that appears again
//!   later in the same shard.
//!
//! Crash safety: each shard is rewritten to `<shard>.tmp`, synced, then
//! atomically renamed over the original. A crash at any point leaves
//! either the old shard or the new one — never a torn mix — and the loader
//! skips whatever half-written `.tmp` files remain.

use ldsim_util::FnvHashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Name of the layout-contract file inside a shard directory.
pub const META_FILE: &str = "shards.meta";

/// Hard ceiling on the shard count — far above any sensible layout, low
/// enough that a typo'd `--shards 99999999` cannot create a directory with
/// millions of files.
pub const MAX_SHARDS: usize = 4096;

/// What one [`ShardMap::compact`] pass did, per the whole map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Rows surviving compaction (newest valid row per key).
    pub rows_kept: usize,
    /// Rows dropped: salt more than one generation old (or unknown).
    pub rows_stale: usize,
    /// Rows dropped: unparsable line or missing cellkey/engine envelope.
    pub rows_torn: usize,
    /// Rows dropped: an append for the same key appears later.
    pub rows_superseded: usize,
    /// Rows dropped: cellkey does not map to the shard holding the row.
    pub rows_misplaced: usize,
    /// Total shard bytes before and after the pass.
    pub bytes_before: u64,
    pub bytes_after: u64,
}

impl CompactStats {
    /// Total rows dropped by the pass.
    pub fn rows_dropped(&self) -> usize {
        self.rows_stale + self.rows_torn + self.rows_superseded + self.rows_misplaced
    }
}

/// A sharded append-only cell log rooted at one directory.
#[derive(Debug, Clone)]
pub struct ShardMap {
    dir: PathBuf,
    shards: usize,
}

impl ShardMap {
    /// Open (creating if necessary) the shard map at `dir`. A fresh
    /// directory is laid out with `shards` shard files; an existing one
    /// keeps its recorded count — the on-disk layout is the contract, and
    /// a caller asking for a different count gets the real one back via
    /// [`Self::shards`].
    pub fn open(dir: &Path, shards: usize) -> ShardMap {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create shard dir {}: {e}", dir.display()));
        let meta = dir.join(META_FILE);
        let shards = match std::fs::read_to_string(&meta) {
            Ok(text) => {
                let n = text
                    .trim()
                    .strip_prefix("shards=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| (1..=MAX_SHARDS).contains(n))
                    .unwrap_or_else(|| {
                        panic!(
                            "corrupt shard meta {}: {text:?} (want \"shards=N\")",
                            meta.display()
                        )
                    });
                n
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Write-temp-then-rename, like everything else in the map:
                // two racing creators converge on a whole meta file.
                let tmp = dir.join(format!("{META_FILE}.tmp.{}", std::process::id()));
                std::fs::write(&tmp, format!("shards={shards}\n"))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
                std::fs::rename(&tmp, &meta)
                    .unwrap_or_else(|e| panic!("cannot commit {}: {e}", meta.display()));
                shards
            }
            Err(e) => panic!("cannot read {}: {e}", meta.display()),
        };
        ShardMap {
            dir: dir.to_path_buf(),
            shards,
        }
    }

    /// The recorded shard count (may differ from the one requested at
    /// [`Self::open`] when the directory already existed).
    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Which shard a cellkey lives in. FNV-1a keys are uniform over `u64`,
    /// so a plain modulus balances the shards.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards as u64) as usize
    }

    /// Path of shard `i` (`shard-0003-of-0008.jsonl`).
    pub fn shard_path(&self, i: usize) -> PathBuf {
        assert!(i < self.shards);
        self.dir
            .join(format!("shard-{i:04}-of-{:04}.jsonl", self.shards))
    }

    /// Every shard path in index order (whether or not the file exists yet
    /// — shards are created lazily on first append).
    pub fn shard_paths(&self) -> Vec<PathBuf> {
        (0..self.shards).map(|i| self.shard_path(i)).collect()
    }

    /// Append one serialized row (must be newline-terminated) under `key`.
    /// Single `write_all`, so a crash tears at most the final line of one
    /// shard — which the loader and compactor both skip.
    pub fn append(&self, key: u64, row: &str) {
        debug_assert!(row.ends_with('\n'), "cache rows are newline-framed");
        let path = self.shard_path(self.shard_of(key));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open shard {}: {e}", path.display()));
        f.write_all(row.as_bytes())
            .unwrap_or_else(|e| panic!("shard append failed ({}): {e}", path.display()));
    }

    /// Total bytes across all shard files (missing shards count zero).
    pub fn total_bytes(&self) -> u64 {
        self.shard_paths()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Rewrite every shard keeping only the newest valid row per cellkey,
    /// evicting rows whose engine salt is more than one generation behind
    /// `history[0]` (see the module docs for the full policy). Crash-safe:
    /// write-temp-then-rename per shard.
    pub fn compact(&self, history: &[&str]) -> CompactStats {
        assert!(!history.is_empty(), "salt history cannot be empty");
        let mut stats = CompactStats::default();
        for i in 0..self.shards {
            compact_shard(self, i, history, &mut stats);
        }
        stats
    }
}

/// Compaction body: rewrite shard `shard` of `map` keeping the newest
/// valid row per key that belongs in it. A missing shard file is a no-op.
fn compact_shard(map: &ShardMap, shard: usize, history: &[&str], stats: &mut CompactStats) {
    let path = map.shard_path(shard);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
        Err(e) => panic!("cannot read cell log {}: {e}", path.display()),
    };
    stats.bytes_before += text.len() as u64;
    // First pass: decide, per key, which line index survives (the last
    // valid append wins).
    let mut keep: FnvHashMap<u64, usize> = FnvHashMap::default();
    let mut verdicts: Vec<Option<u64>> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        match classify(line, history) {
            RowVerdict::Keep(key) => {
                if map.shard_of(key) != shard {
                    stats.rows_misplaced += 1;
                    verdicts.push(None);
                    continue;
                }
                if keep.insert(key, idx).is_some() {
                    stats.rows_superseded += 1;
                }
                verdicts.push(Some(key));
            }
            RowVerdict::Torn => {
                stats.rows_torn += 1;
                verdicts.push(None);
            }
            RowVerdict::Stale => {
                stats.rows_stale += 1;
                verdicts.push(None);
            }
        }
    }
    // Second pass: emit surviving lines in their original order.
    let mut out = String::with_capacity(text.len());
    for (idx, line) in text.lines().enumerate() {
        if let Some(key) = verdicts[idx] {
            if keep.get(&key) == Some(&idx) {
                out.push_str(line);
                out.push('\n');
                stats.rows_kept += 1;
            }
        }
    }
    stats.bytes_after += out.len() as u64;
    let tmp = path.with_extension(format!("jsonl.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", tmp.display()));
        f.write_all(out.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
        f.sync_all()
            .unwrap_or_else(|e| panic!("cannot sync {}: {e}", tmp.display()));
    }
    std::fs::rename(&tmp, &path)
        .unwrap_or_else(|e| panic!("cannot commit compacted log {}: {e}", path.display()));
}

enum RowVerdict {
    Keep(u64),
    Torn,
    Stale,
}

/// Classify one log line under the compaction policy. Only the envelope
/// (cellkey + engine salt) is inspected — full result validation stays
/// where it always was, at load time against the requested cell set.
fn classify(line: &str, history: &[&str]) -> RowVerdict {
    let Ok(obj) = ldsim_util::parse_object(line) else {
        return RowVerdict::Torn;
    };
    let Some((key, salt)) = envelope(&obj) else {
        return RowVerdict::Torn;
    };
    match history.iter().position(|s| *s == salt) {
        Some(generation) if generation <= 1 => RowVerdict::Keep(key),
        _ => RowVerdict::Stale,
    }
}

/// A parsed row's envelope — its cellkey and engine salt — or `None` when
/// either is missing or malformed (a torn row).
pub(crate) fn envelope(row: &ldsim_util::ParsedObject) -> Option<(u64, &str)> {
    let key = u64::from_str_radix(row.req_str("cellkey").ok()?, 16).ok()?;
    Some((key, row.req_str("engine").ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldsim-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn row(key: u64, salt: &str, payload: u64) -> String {
        format!("{{\"cellkey\":\"{key:016x}\",\"engine\":\"{salt}\",\"payload\":{payload}}}\n")
    }

    #[test]
    fn keys_route_to_their_shard_and_meta_pins_the_layout() {
        let dir = tmp("route");
        let map = ShardMap::open(&dir, 4);
        assert_eq!(map.shards(), 4);
        for key in [0u64, 1, 5, 7, 1 << 60] {
            map.append(key, &row(key, "s", 1));
        }
        // Every row landed in the file its key maps to.
        for i in 0..4 {
            let text = std::fs::read_to_string(map.shard_path(i)).unwrap_or_default();
            for line in text.lines() {
                let obj = ldsim_util::parse_object(line).unwrap();
                let key = u64::from_str_radix(obj.req_str("cellkey").unwrap(), 16).unwrap();
                assert_eq!(map.shard_of(key), i);
            }
        }
        // Re-opening with a different requested count keeps the layout.
        let reopened = ShardMap::open(&dir, 16);
        assert_eq!(reopened.shards(), 4, "shards.meta must win over the caller");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_newest_drops_torn_stale_misplaced() {
        let dir = tmp("compact");
        let map = ShardMap::open(&dir, 2);
        let history = ["salt-new", "salt-prev", "salt-ancient"];
        // Superseded: two appends for key 2 — the later payload survives.
        map.append(2, &row(2, "salt-new", 1));
        map.append(2, &row(2, "salt-new", 2));
        // One-generation-old salt: kept (rollback grace).
        map.append(4, &row(4, "salt-prev", 3));
        // Two generations old and unknown: evicted.
        map.append(6, &row(6, "salt-ancient", 4));
        map.append(8, &row(8, "salt-from-mars", 5));
        // Torn final line (crash mid-append) in shard 1.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(map.shard_path(1))
                .unwrap();
            write!(f, "{{\"cellkey\":\"0000000000000003\",\"eng").unwrap();
        }
        // Misplaced: a key-5 row hand-placed in shard 0.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(map.shard_path(0))
                .unwrap();
            f.write_all(row(5, "salt-new", 6).as_bytes()).unwrap();
        }

        let before = map.total_bytes();
        let stats = map.compact(&history);
        assert_eq!(stats.rows_kept, 2, "{stats:?}");
        assert_eq!(stats.rows_superseded, 1, "{stats:?}");
        assert_eq!(stats.rows_stale, 2, "{stats:?}");
        assert_eq!(stats.rows_torn, 1, "{stats:?}");
        assert_eq!(stats.rows_misplaced, 1, "{stats:?}");
        assert_eq!(stats.bytes_before, before);
        assert_eq!(stats.bytes_after, map.total_bytes());
        assert!(stats.bytes_after < stats.bytes_before);

        // The survivors: newest key-2 row and the grace-generation key-4.
        let all: String = map
            .shard_paths()
            .iter()
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .collect();
        assert!(all.contains("\"payload\":2"), "{all}");
        assert!(all.contains("\"payload\":3"), "{all}");
        for gone in [
            "\"payload\":1",
            "\"payload\":4",
            "\"payload\":5",
            "\"payload\":6",
        ] {
            assert!(!all.contains(gone), "{gone} survived compaction: {all}");
        }
        // Compaction is idempotent: a second pass changes nothing.
        let stats2 = map.compact(&history);
        assert_eq!(stats2.rows_kept, 2);
        assert_eq!(stats2.rows_dropped(), 0);
        assert_eq!(stats2.bytes_before, stats2.bytes_after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "corrupt shard meta")]
    fn corrupt_meta_is_refused() {
        let dir = tmp("badmeta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), "shards=zero\n").unwrap();
        ShardMap::open(&dir, 8);
    }
}
