//! Threaded-vs-serial determinism ladder for the intra-run partition pool.
//!
//! The pool (DESIGN.md §17) stripes the memory partitions over worker
//! threads between deterministic epoch barriers at crossbar hand-off. It is
//! an execution strategy, not a model change, so a threaded run must
//! produce the *identical* [`RunResult`] — every counter, histogram bucket,
//! and audit tally — and the identical FNV-1a trace hash as the serial
//! loop, for every scheduler in the audited ladder on the full irregular
//! suite. Histograms and the timing auditor stay armed: both observe
//! per-partition event order, so they would catch a reordered merge that
//! the aggregate counters might mask.
//!
//! The same property is what licenses `sim_threads`' exemption from the
//! sweep cache's `config_fingerprint` — the cache tests at the bottom pin
//! the exemption itself.

use ldsim::prelude::*;
use ldsim::system::sweep::{config_fingerprint, run_sweep, Cell, SweepConfig};
use ldsim::util::parallel_map;

/// Same ladder as the conformance/fastforward suites: every scheduler the
/// paper evaluates, plus the baselines it compares against.
const LADDER: &[SchedulerKind] = &[
    SchedulerKind::Gmc,
    SchedulerKind::Wg,
    SchedulerKind::WgM,
    SchedulerKind::WgBw,
    SchedulerKind::WgW,
    SchedulerKind::Wafcfs,
    SchedulerKind::Sbwas { alpha_q: 2 },
];

/// Thread counts under test: serial, a 2-wide pool (partitions split
/// between the caller and one worker), and a 6-wide pool (one worker per
/// partition — the widest the simulator will actually use).
const THREADS: &[usize] = &[1, 2, 6];

/// Run one benchmark × scheduler pair at `scale` across every thread count
/// and demand bit-exact results and traces against the serial run.
fn assert_threads_bitexact(bench: &str, kind: SchedulerKind, scale: Scale, seed: u64) {
    let kernel = benchmark(bench, scale, seed).generate();
    let cfg = SimConfig::default()
        .with_scheduler(kind)
        .with_audit()
        .with_trace()
        .with_hist();
    let (serial, serial_trace) =
        Simulator::new(cfg.clone().with_sim_threads(1), &kernel).run_traced();
    assert!(serial.finished, "{bench}/{kind:?} did not finish");
    assert_eq!(serial.audit_violations, 0, "{bench}/{kind:?}: serial audit");
    for &threads in &THREADS[1..] {
        let (threaded, threaded_trace) =
            Simulator::new(cfg.clone().with_sim_threads(threads), &kernel).run_traced();
        assert_eq!(
            threaded, serial,
            "{bench}/{kind:?} at {scale:?} with {threads} threads: RunResult diverged from serial"
        );
        assert_eq!(
            threaded_trace.as_ref().map(|t| t.stable_hash()),
            serial_trace.as_ref().map(|t| t.stable_hash()),
            "{bench}/{kind:?} at {scale:?} with {threads} threads: trace hash diverged"
        );
    }
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
fn threaded_ladder_tiny() {
    parallel_map(ladder_pairs(), |(bench, kind)| {
        assert_threads_bitexact(bench, kind, Scale::Tiny, 11);
    });
}

/// Small spot-check: the contention-heavy end, where partitions are busy
/// most cycles and any merge-order bug would have the most chances to
/// fire. One benchmark per step topology (WG-W coordinates, GMC does not).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Small-scale runs are slow without optimisation; run under --release"
)]
fn threaded_spot_check_small() {
    parallel_map(
        vec![("sp", SchedulerKind::WgW), ("spmv", SchedulerKind::Gmc)],
        |(bench, kind)| {
            assert_threads_bitexact(bench, kind, Scale::Small, 11);
        },
    );
}

/// Every epoch cadence is the same simulation: the auto crossbar-lookahead
/// window (the threaded default, what the ladder above runs), a forced
/// per-cycle cadence (`epoch_max = 1`, the pre-epoch behaviour), and an
/// intermediate cap must all reproduce the serial run bit for bit — same
/// `RunResult`, same trace hash — at every pool width.
#[test]
fn epoch_cadences_are_bit_exact_tiny() {
    parallel_map(
        vec![
            ("bfs", SchedulerKind::Gmc),
            ("spmv", SchedulerKind::WgW),
            ("sssp", SchedulerKind::WgBw),
        ],
        |(bench, kind)| {
            let kernel = benchmark(bench, Scale::Tiny, 11).generate();
            let cfg = SimConfig::default()
                .with_scheduler(kind)
                .with_audit()
                .with_trace()
                .with_hist();
            let (serial, serial_trace) =
                Simulator::new(cfg.clone().with_sim_threads(1), &kernel).run_traced();
            assert!(serial.finished, "{bench}/{kind:?} did not finish");
            for &threads in &THREADS[1..] {
                for cap in [0, 1, 4] {
                    let (run, trace) = Simulator::new(
                        cfg.clone().with_sim_threads(threads).with_epoch_max(cap),
                        &kernel,
                    )
                    .run_traced();
                    assert_eq!(
                        run, serial,
                        "{bench}/{kind:?} threads={threads} epoch_max={cap}: diverged"
                    );
                    assert_eq!(
                        trace.as_ref().map(|t| t.stable_hash()),
                        serial_trace.as_ref().map(|t| t.stable_hash()),
                        "{bench}/{kind:?} threads={threads} epoch_max={cap}: trace hash"
                    );
                }
            }
        },
    );
}

/// The busy irregular benchmarks: long enough at Tiny for the epoch
/// windows and the instruction budget to both come into play.
const BUSY: &[&str] = &["sp", "kmeans", "spmv", "sssp", "bfs"];

/// The point of the epochs, pinned end to end on real workloads: against
/// the forced per-cycle cadence, the auto window must cut barrier count by
/// an order of magnitude for a non-coordinating scheduler (40-cycle
/// crossbar lookahead) and by at least 4x for a coordinating one (whose
/// window is clamped to the 4-cycle coordination latency, against a
/// per-cycle cost of two barriers per cycle). Barrier counts are
/// deterministic, so these are hard per-benchmark floors on every busy
/// irregular benchmark, not wall-clock bands.
#[test]
fn epoch_windows_reduce_barriers_on_real_workloads() {
    let mut cases = vec![("bfs", 11)];
    cases.extend(BUSY.iter().map(|&b| (b, 1)));
    let cuts = parallel_map(cases, |(bench, seed)| {
        let kernel = benchmark(bench, Scale::Tiny, seed).generate();
        let mut lines = Vec::new();
        for (kind, factor) in [(SchedulerKind::Gmc, 10), (SchedulerKind::WgW, 4)] {
            let cfg = SimConfig::default()
                .with_scheduler(kind)
                .with_sim_threads(2);
            let (r_epoch, epoch) = Simulator::new(cfg.clone(), &kernel).run_with_sync_stats();
            let (r_cycle, cycle) =
                Simulator::new(cfg.clone().with_epoch_max(1), &kernel).run_with_sync_stats();
            let at = format!("{bench}/{kind:?} seed {seed}");
            assert_eq!(r_epoch, r_cycle, "{at}: cadences must agree exactly");
            assert!(epoch.windows > 0, "{at}: epochs never engaged");
            assert_eq!(cycle.windows, 0, "{at}: epoch_max=1 must stay per-cycle");
            assert!(
                cycle.barriers >= factor * epoch.barriers,
                "{at}: expected a {factor}x barrier cut, got {} vs {}",
                cycle.barriers,
                epoch.barriers
            );
            lines.push(format!(
                "{at}: {:.2}x barrier cut, mean window {:.1} cycles",
                cycle.barriers as f64 / epoch.barriers as f64,
                epoch.epoch_cycles as f64 / epoch.windows as f64
            ));
        }
        lines
    });
    for line in cuts.concat() {
        println!("{line}");
    }
}

/// The epoch window's instruction-budget lookahead must stop a threaded
/// run exactly where the serial loop stops: under the 70% budget the
/// sweeps use, a 2-thread pool with the auto window reproduces the serial
/// `RunResult` on every busy benchmark, for a non-coordinating (GMC) and a
/// coordinating (WG-W) scheduler. The budget must bind before the kernel
/// ends and the epochs must engage, or the test would check neither.
#[test]
fn budgeted_threaded_runs_match_serial() {
    parallel_map(BUSY.to_vec(), |bench| {
        let kernel = benchmark(bench, Scale::Tiny, 1).generate();
        let limit = kernel.total_instructions() * 7 / 10;
        for kind in [SchedulerKind::Gmc, SchedulerKind::WgW] {
            let mut cfg = SimConfig::default().with_scheduler(kind);
            cfg.instruction_limit = Some(limit);
            let serial = Simulator::new(cfg.clone().with_sim_threads(1), &kernel).run();
            let (threaded, sync) =
                Simulator::new(cfg.with_sim_threads(2), &kernel).run_with_sync_stats();
            let at = format!("{bench}/{kind:?} budget {limit}");
            assert!(serial.finished, "{at}: serial run did not finish");
            assert!(
                serial.instructions < kernel.total_instructions(),
                "{at}: the budget never bound"
            );
            assert!(sync.windows > 0, "{at}: epochs never engaged");
            assert_eq!(threaded, serial, "{at}: threaded run diverged from serial");
        }
    });
}

/// `sim_threads` must not enter the cell fingerprint: it changes how a
/// cell is executed, not what it computes (the ladder above is the proof),
/// so a cached cell is valid at any thread count.
#[test]
fn sim_threads_is_fingerprint_exempt() {
    let base = config_fingerprint(&SimConfig::default());
    for threads in [1, 2, 6, 64] {
        assert_eq!(
            base,
            config_fingerprint(&SimConfig::default().with_sim_threads(threads)),
            "sim_threads={threads} must not change the config fingerprint"
        );
    }
    // The exemption is deliberate, not an accident of a `..` pattern: a
    // *semantic* knob still moves the fingerprint.
    assert_ne!(
        base,
        config_fingerprint(&SimConfig::default().with_fast_forward(false))
    );
}

/// `epoch_max` earns the same exemption for the same reason: the cadence
/// tests above prove every window length computes the identical cell, so a
/// cached result is valid under any epoch cap.
#[test]
fn epoch_max_is_fingerprint_exempt() {
    let base = config_fingerprint(&SimConfig::default());
    for cap in [0, 1, 4, 40] {
        assert_eq!(
            base,
            config_fingerprint(&SimConfig::default().with_epoch_max(cap)),
            "epoch_max={cap} must not change the config fingerprint"
        );
    }
}

/// End to end through the sweep: a cell simulated serially and reloaded
/// from the warm cache at a different thread count is the same cell —
/// same key, zero re-simulation, byte-exact shard files.
#[test]
fn warm_cache_reload_ignores_thread_count() {
    let dir = std::env::temp_dir().join(format!("ldsim-threaded-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cellcache");
    let shard_bytes = || -> Vec<Vec<u8>> {
        let map = ldsim::system::ShardMap::open(&cache, ldsim::system::DEFAULT_SHARDS);
        map.shard_paths()
            .iter()
            .map(|p| std::fs::read(p).unwrap_or_default())
            .collect()
    };

    let cells = [
        Cell::new("bfs", Scale::Tiny, 11, SchedulerKind::Gmc),
        Cell::new("spmv", Scale::Tiny, 11, SchedulerKind::WgW),
    ];
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        ..SweepConfig::default()
    };

    // Cold pass, serial (the process default).
    let (cold_store, cold) = run_sweep(&cells, &cfg);
    assert_eq!(cold.simulated, 2);
    let cache_bytes = shard_bytes();
    assert!(
        cache_bytes.iter().any(|b| !b.is_empty()),
        "cold pass wrote no rows"
    );

    // Warm pass with the process-wide thread count forced to 6: every cell
    // must come from the cache (same key), the file must not change, and
    // the results must match the cold pass bit for bit.
    ldsim::util::set_sim_threads(Some(6));
    let (warm_store, warm) = run_sweep(&cells, &cfg);
    ldsim::util::set_sim_threads(None);
    assert_eq!(
        warm.from_cache, 2,
        "thread count must not change cell keys: {warm:?}"
    );
    assert_eq!(warm.simulated, 0);
    assert_eq!(
        shard_bytes(),
        cache_bytes,
        "warm reload must leave the cache byte-identical"
    );
    for cell in &cells {
        assert_eq!(
            cold_store.get(cell),
            warm_store.get(cell),
            "{cell:?}: warm reload diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
