//! `sweep-small-warm`: the warm reload — `run_sweep` over every cell of
//! `registry(Small, seed)` against a completed shard store, then every
//! figure rendered. Nothing is simulated in the timed rounds; they load,
//! validate and render 211 cached cells, as a rerun of `repro` does.
//!
//! Set-up builds the store with a cold sweep, several times over; their
//! median is `setup_s`. The whole workload runs on one worker: the reload
//! simulates nothing, and a one-worker build leaves the same heap behind
//! on every run, so `peak_rss_mb` does not depend on how two workers'
//! allocations interleaved. A round takes about 10 ms, so a busy
//! neighbour on the host can slow a whole run's median by a quarter; the
//! timings are the median of the fastest round of each of `PARTS` parts
//! of the run instead. Traced rounds drive the reload
//! through `Cell::key`, `ShardMap::open` + `parse_cache_line` and
//! `FigureSpec::render`, with a span around each.

use crate::harness::{dir_files, reset_dir, rounds, since, Args, Outcome, RoundLog};
use crate::metrics::{model_counts, Checker};
use crate::stats::median_of_part_minima;
use crate::sweep::{cells, render_all, traced_render};
use crate::trace::Tracer;
use ldsim_bench::figures::registry;
use ldsim_system::shard::ShardMap;
use ldsim_system::sweep::{parse_cache_line, Cell, CellStore, FigureSpec};
use ldsim_system::{run_opts, run_sweep, RunResult, SweepConfig, DEFAULT_SHARDS, ENGINE_SALT};
use ldsim_util::FnvHashMap;
use ldsim_workloads::Scale;
use std::path::Path;
use std::time::Instant;

pub const NAME: &str = "sweep-small-warm";
pub const SCALE: Scale = Scale::Small;

/// Cold builds of the store per run (their median is `setup_s`).
const SETUP_REPS: usize = 3;
/// Consecutive parts of the untraced rounds whose fastest rounds give the
/// timings.
const PARTS: usize = 8;

/// The cells whose results `digests.tsv` pins for this workload.
pub fn pinned_cells(seed: u64) -> Vec<Cell> {
    cells(&registry(SCALE, seed)).1
}

/// The valid rows of a shard store: what `ShardMap::open` and
/// `parse_cache_line` accept for the `requested` cells.
pub struct Loaded {
    pub rows: Vec<(Cell, RunResult)>,
    /// `ShardMap::total_bytes` of the store.
    pub bytes: u64,
}

pub fn load_rows(dir: &Path, requested: &FnvHashMap<u64, Cell>) -> Loaded {
    let opts = run_opts();
    let map = ShardMap::open(dir, DEFAULT_SHARDS);
    let mut rows = Vec::new();
    for path in map.shard_paths() {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        rows.extend(
            text.lines()
                .filter_map(|l| parse_cache_line(l, ENGINE_SALT, requested, opts)),
        );
    }
    Loaded {
        rows,
        bytes: map.total_bytes(),
    }
}

pub fn run(args: &Args) -> Outcome {
    ldsim_util::set_jobs(Some(1));
    ldsim_util::set_sim_threads(Some(1));
    let mut out = Outcome::default();
    out.meta("scale", "small");
    out.meta("jobs", 1);
    out.meta("sim_threads", 1);

    let specs = registry(SCALE, args.seed);
    let (declared, unique) = cells(&specs);
    out.meta("cells_declared", declared.len());
    out.meta("cells_unique", unique.len());
    let store_dir = args.work.join("warm-store");
    let (cold_dir, warm_dir) = (args.work.join("warm-cold"), args.work.join("warm-reload"));
    let cfg = SweepConfig {
        cache_path: Some(&store_dir),
        ..Default::default()
    };

    // Set-up: the cold sweep that completes the store.
    let mut ck = Checker::new();
    let mut setup = Vec::new();
    let mut cold = None;
    for _ in 0..SETUP_REPS {
        reset_dir(&store_dir);
        let t = Instant::now();
        let (store, st) = run_sweep(&declared, &cfg);
        setup.push(since(t));
        ck.check(st.simulated == unique.len(), || {
            format!(
                "cold build simulated {} of {} cells",
                st.simulated,
                unique.len()
            )
        });
        cold = Some(store);
    }
    out.set_median("setup_s", &setup);
    let cold = cold.expect("at least one build");
    let results: Vec<(Cell, &RunResult)> = unique.iter().map(|c| (*c, cold.get(c))).collect();
    ck.pinned(NAME, args.seed, &results);
    for (c, r) in &results {
        ck.cell(c, r);
    }
    let insns: u64 = results.iter().map(|(_, r)| r.instructions).sum();
    let model = model_counts(&results.iter().map(|(_, r)| *r).collect::<Vec<_>>());
    render_all(&specs, &cold, &cold_dir);
    let cold_files = dir_files(&cold_dir);

    let mut log = RoundLog::default();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    rounds(args.seconds, 3, |i| {
        let use_trace = args.trace && i % 2 == 1;
        let tr = Tracer::new(use_trace);
        let cpu0 = crate::host::cpu_s();
        let t0 = Instant::now();
        let (store, loaded) = if use_trace {
            traced_warm(&tr, &specs, &declared, &store_dir, &warm_dir)
        } else {
            let (store, st) = run_sweep(&declared, &cfg);
            ck.check(st.simulated == 0 && st.from_cache == unique.len(), || {
                format!("warm reload simulated {} cells", st.simulated)
            });
            render_all(&specs, &store, &warm_dir);
            (store, None)
        };
        let wall = since(t0);
        let cpu = crate::host::cpu_s() - cpu0;
        for c in &unique {
            ck.cell(c, store.get(c));
        }
        ck.check(dir_files(&warm_dir) == cold_files, || {
            "warm render differs from the cold render".to_string()
        });
        if let Some((parsed, bytes)) = loaded {
            log.push(
                true,
                wall,
                vec![
                    ("sweep.key_s", tr.total("sweep.key")),
                    ("shard.load_s", tr.total("shard.load")),
                    ("shard.rows_parsed", parsed as f64),
                    ("shard.bytes", bytes as f64),
                    ("render.s", tr.total("render")),
                ],
            );
            out.spans.extend(tr.into_spans());
        } else {
            walls.push(wall);
            cpus.push(cpu);
            log.push(false, wall, Vec::new());
        }
    });
    log.finish(&mut out);
    let wall = median_of_part_minima(&walls, PARTS);
    out.set("wall_s", wall);
    out.set("warm_reload_s", wall);
    out.set("cpu_s", median_of_part_minima(&cpus, PARTS));
    out.set("sim_minsn_per_s", insns as f64 / wall / 1e6);
    if args.trace {
        for (name, v) in model {
            out.set(name, v);
        }
    }
    out.check = ck;
    let _ = std::fs::remove_dir_all(&store_dir);
    out
}

/// The warm pass through the sweep's public building blocks: key the
/// declared cells, load and validate the store's rows, render. Also gives
/// the rows parsed and the store's bytes.
fn traced_warm(
    tr: &Tracer,
    specs: &[FigureSpec],
    declared: &[Cell],
    store_dir: &Path,
    out_dir: &Path,
) -> (CellStore, Option<(usize, u64)>) {
    let opts = run_opts();
    let warm = tr.span("sweep.warm", None);
    let requested: FnvHashMap<u64, Cell> = tr.time("sweep.key", warm.id(), || {
        declared.iter().map(|&c| (c.key(opts), c)).collect()
    });
    let loaded = tr.time("shard.load", warm.id(), || load_rows(store_dir, &requested));
    let parsed = loaded.rows.len();
    let mut store = CellStore::new(opts);
    for (cell, result) in loaded.rows {
        store.insert(&cell, result);
    }
    traced_render(tr, warm.id(), specs, &store, out_dir);
    (store, Some((parsed, loaded.bytes)))
}
