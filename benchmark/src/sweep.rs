//! `sweep-full-cold`: a cold Full-scale `run_sweep` into a fresh shard
//! store with `jobs` = `nproc` and one simulation thread per cell, then
//! every figure rendered. (The warm reload of a completed store is the
//! `sweep-small-warm` workload.)
//!
//! Untraced rounds call `run_sweep` itself. Traced rounds drive the same
//! phases through the public calls it is built from (`Cell::key`,
//! `BenchmarkGen::generate`, `run_one_kernel` on `parallel_map`,
//! `cache_row` + `ShardMap::append`, `FigureSpec::render`) with a span
//! around each.

use crate::harness::{reset_dir, rounds, since, Args, Outcome, RoundLog};
use crate::metrics::{family, model_counts, Checker, FAMILIES};
use crate::stats::median;
use crate::trace::Tracer;
use ldsim_bench::figures::registry;
use ldsim_system::shard::ShardMap;
use ldsim_system::sweep::{cache_row, Cell, CellStore, FigureSpec};
use ldsim_system::{run_one_kernel, run_opts, run_sweep, SweepConfig, DEFAULT_SHARDS, ENGINE_SALT};
use ldsim_util::{parallel_map, FnvHashMap};
use ldsim_workloads::Scale;
use std::path::Path;
use std::time::Instant;

pub const NAME: &str = "sweep-full-cold";
pub const SCALE: Scale = Scale::Full;

/// The figures of `registry(Full, seed)` the sweep runs. The whole
/// registry is 211 unique cells and about 52 s of wall time on two cores —
/// too long to repeat within one run — so the sweep takes the paper's
/// headline figure: 55 cells over the irregular suite under GMC and the
/// four WG schedulers.
pub const FIGURES: &[&str] = &["fig08"];

/// Set-up repetitions per run (their median is `setup_s`).
const SETUP_REPS: usize = 5;

pub fn specs(seed: u64) -> Vec<FigureSpec> {
    registry(SCALE, seed)
        .into_iter()
        .filter(|s| FIGURES.contains(&s.name))
        .collect()
}

/// The cells whose results `digests.tsv` pins for this workload.
pub fn pinned_cells(seed: u64) -> Vec<Cell> {
    cells(&specs(seed)).1
}

/// Declared cells (with duplicates) and the unique ones, in declaration
/// order, exactly as `run_sweep` dedupes them.
pub fn cells(specs: &[FigureSpec]) -> (Vec<Cell>, Vec<Cell>) {
    let declared: Vec<Cell> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let opts = run_opts();
    let mut seen = std::collections::HashSet::new();
    let unique = declared
        .iter()
        .copied()
        .filter(|c| seen.insert(c.key(opts)))
        .collect();
    (declared, unique)
}

fn kernel_ids(cells: &[Cell]) -> Vec<(&'static str, Scale, u64)> {
    let mut ids = Vec::new();
    for c in cells {
        if !ids.contains(&(c.bench, c.scale, c.seed)) {
            ids.push((c.bench, c.scale, c.seed));
        }
    }
    ids
}

pub fn render_all(specs: &[FigureSpec], store: &CellStore, dir: &Path) {
    reset_dir(dir);
    for s in specs {
        (s.render)(store, dir);
    }
}

pub fn run(args: &Args) -> Outcome {
    let jobs = crate::host::host_threads();
    ldsim_util::set_jobs(Some(jobs));
    ldsim_util::set_sim_threads(Some(1));
    let mut out = Outcome::default();
    out.meta("scale", "full");
    out.meta("figures", FIGURES.join(","));
    out.meta("jobs", jobs);
    out.meta("sim_threads", 1);

    // Set-up: build the registry and generate every distinct kernel the
    // sweep declares — the part of a cold sweep that precedes simulation.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let specs = specs(args.seed);
        let (_, unique) = cells(&specs);
        let kernels = parallel_map(kernel_ids(&unique), |(b, s, seed)| {
            ldsim_workloads::benchmark(b, s, seed).generate()
        });
        setup.push(since(t));
        drop(kernels);
    }
    out.set_median("setup_s", &setup);

    let specs = specs(args.seed);
    let (declared, unique) = cells(&specs);
    out.meta("cells_declared", declared.len());
    out.meta("cells_unique", unique.len());
    let store_dir = args.work.join("sweep-store");
    let cold_dir = args.work.join("sweep-cold");

    let mut log = RoundLog::default();
    let mut model = Vec::new();
    let mut ck = Checker::new();
    // Two rounds at least: a median of one is no median.
    rounds(args.seconds, 2, |i| {
        reset_dir(&store_dir);
        let use_trace = args.trace && i % 2 == 1;
        let tr = Tracer::new(use_trace);
        let cpu0 = crate::host::cpu_s();
        let t0 = Instant::now();
        let store = if use_trace {
            traced_cold(&tr, &specs, &store_dir, &cold_dir)
        } else {
            let cfg = SweepConfig {
                cache_path: Some(&store_dir),
                ..Default::default()
            };
            let (store, st) = run_sweep(&declared, &cfg);
            ck.check(st.simulated == unique.len() && st.from_cache == 0, || {
                format!(
                    "cold sweep simulated {} of {} cells",
                    st.simulated,
                    unique.len()
                )
            });
            render_all(&specs, &store, &cold_dir);
            store
        };
        let wall = since(t0);
        let cpu = crate::host::cpu_s() - cpu0;
        let results: Vec<(Cell, &_)> = unique.iter().map(|c| (*c, store.get(c))).collect();
        ck.pinned(NAME, args.seed, &results);
        for (c, r) in &results {
            ck.cell(c, r);
        }
        let insns: u64 = results.iter().map(|(_, r)| r.instructions).sum();
        model = model_counts(&results.iter().map(|(_, r)| *r).collect::<Vec<_>>());

        if use_trace {
            log.push(true, wall, layer_metrics(&tr, &store, &unique, jobs));
            out.spans.extend(tr.into_spans());
        } else {
            log.push(
                false,
                wall,
                vec![
                    ("wall_s", wall),
                    ("cpu_s", cpu),
                    ("sim_minsn_per_s", insns as f64 / wall / 1e6),
                ],
            );
        }
    });
    log.finish(&mut out);
    if args.trace {
        for (name, v) in model {
            out.set(name, v);
        }
    }
    out.check = ck;
    let _ = std::fs::remove_dir_all(&store_dir);
    out
}

/// The cold pass through the sweep's public building blocks, one span per
/// call.
fn traced_cold(tr: &Tracer, specs: &[FigureSpec], store_dir: &Path, out_dir: &Path) -> CellStore {
    let opts = run_opts();
    let round = tr.span("sweep.round", None);
    let (_, unique) = tr.time("sweep.key", round.id(), || cells(specs));
    let ids = kernel_ids(&unique);
    let kernels: FnvHashMap<(&'static str, u64), _> = ids
        .iter()
        .map(|&(b, _, seed)| (b, seed))
        .zip(parallel_map(ids.clone(), |(b, s, seed)| {
            tr.time("workloads.gen", round.id(), || {
                ldsim_workloads::benchmark(b, s, seed).generate()
            })
        }))
        .collect();
    let map = ShardMap::open(store_dir, DEFAULT_SHARDS);
    let sim = tr.span("sweep.simulate", round.id());
    let sim_id = sim.id();
    let fresh = parallel_map(unique, |cell| {
        let kernel = &kernels[&(cell.bench, cell.seed)];
        let result = tr.time(fam_span(family(cell.kind)), sim_id, || {
            run_one_kernel(
                kernel,
                cell.bench,
                cell.scale,
                cell.seed,
                cell.kind,
                |cfg| cell.tweak.apply(cfg),
            )
        });
        tr.time("shard.append", sim_id, || {
            let row = cache_row(&cell, opts, ENGINE_SALT, &result);
            map.append(cell.key(opts), &row);
        });
        (cell, result)
    });
    drop(sim);
    let mut store = CellStore::new(opts);
    for (cell, result) in fresh {
        store.insert(&cell, result);
    }
    traced_render(tr, round.id(), specs, &store, out_dir);
    store
}

pub fn traced_render(
    tr: &Tracer,
    parent: Option<u64>,
    specs: &[FigureSpec],
    store: &CellStore,
    dir: &Path,
) {
    reset_dir(dir);
    for s in specs {
        tr.time("render", parent, || (s.render)(store, dir));
    }
}

/// Per-layer metrics of one traced round.
fn layer_metrics(
    tr: &Tracer,
    store: &CellStore,
    unique: &[Cell],
    jobs: usize,
) -> Vec<(&'static str, f64)> {
    let mut m = vec![("workloads.gen_s", tr.total("workloads.gen"))];
    m.extend(family_metrics(tr, |fam| {
        unique
            .iter()
            .filter(|c| family(c.kind) == fam)
            .map(|c| store.get(c).cycles)
            .sum()
    }));
    let busy: f64 =
        FAMILIES.iter().map(|f| tr.total(fam_span(f))).sum::<f64>() + tr.total("shard.append");
    m.extend([
        ("sweep.key_s", tr.total("sweep.key")),
        (
            "sweep.idle_core_s",
            jobs as f64 * tr.total("sweep.simulate") - busy,
        ),
        ("shard.append_s", tr.total("shard.append")),
        (
            "shard.rows_appended",
            tr.durations("shard.append").len() as f64,
        ),
        ("render.s", tr.total("render")),
    ]);
    m
}

/// Span name of one simulation, split by scheduler family.
pub fn fam_span(fam: &str) -> &'static str {
    match fam {
        "gmc" => "sim.run.gmc",
        "sbwas" => "sim.run.sbwas",
        "wg" => "sim.run.wg",
        _ => "sim.run.other",
    }
}

/// `sim.run_s.*`, `sim.kcycles_per_s.*` and the per-cell p50/max from the
/// `sim.run.*` spans; `cycles(fam)` gives the simulated cycles per family.
/// Families without a span are left out (n/a).
pub fn family_metrics(tr: &Tracer, cycles: impl Fn(&str) -> u64) -> Vec<(&'static str, f64)> {
    const RUN: [&str; 4] = [
        "sim.run_s.gmc",
        "sim.run_s.sbwas",
        "sim.run_s.wg",
        "sim.run_s.other",
    ];
    const RATE: [&str; 4] = [
        "sim.kcycles_per_s.gmc",
        "sim.kcycles_per_s.sbwas",
        "sim.kcycles_per_s.wg",
        "sim.kcycles_per_s.other",
    ];
    let mut m = Vec::new();
    let mut cells = Vec::new();
    for (i, fam) in FAMILIES.iter().enumerate() {
        let spans = tr.durations(fam_span(fam));
        if spans.is_empty() {
            continue;
        }
        let run: f64 = spans.iter().sum();
        cells.extend(spans);
        m.push((RUN[i], run));
        m.push((RATE[i], cycles(fam) as f64 / run / 1e3));
    }
    m.push(("sim.cell_s.p50", median(&cells)));
    m.push(("sim.cell_s.max", cells.iter().copied().fold(0.0, f64::max)));
    m
}
