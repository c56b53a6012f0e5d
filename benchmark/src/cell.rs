//! `cell-full-threaded`: three long Full cells, one at a time, each with
//! `sim_threads` = `nproc` — one per pick-path family: scan-heavy SBWAS
//! (cfd), coordinating WG-W whose epoch window is clamped to the 4-cycle
//! coordination lookahead (sp), and non-coordinating GMC with the full
//! 40-cycle crossbar window (spmv).
//!
//! Set-up per cell is `BenchmarkGen::generate` plus `Simulator::new`; the
//! timed part is `Simulator::run`. Traced rounds run the threaded cell
//! through `run_with_sync_stats` and then a serial (`sim_threads` = 1) run
//! of the same cell, whose result must match bit for bit.

use crate::harness::{rounds, since, Args, Outcome, RoundLog};
use crate::metrics::{family, model_counts, Checker};
use crate::sweep::{fam_span, family_metrics};
use crate::trace::Tracer;
use ldsim_system::sweep::Cell;
use ldsim_system::{run_opts, RunResult, Simulator, SyncStats};
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::kernel::KernelProgram;
use ldsim_workloads::Scale;
use std::time::Instant;

pub const NAME: &str = "cell-full-threaded";
pub const SCALE: Scale = Scale::Full;

pub fn cells(seed: u64) -> [Cell; 3] {
    [
        Cell::new("cfd", SCALE, seed, SchedulerKind::Sbwas { alpha_q: 1 }),
        Cell::new("sp", SCALE, seed, SchedulerKind::WgW),
        Cell::new("spmv", SCALE, seed, SchedulerKind::Gmc),
    ]
}

/// The configuration `run_one_kernel` would build for this cell, with the
/// simulation thread count set explicitly.
pub fn config(cell: &Cell, kernel: &KernelProgram, threads: usize) -> SimConfig {
    let mut cfg = cell.config(run_opts());
    cfg.instruction_limit = Some(kernel.total_instructions() * 7 / 10);
    cfg.sim_threads = threads;
    cfg
}

pub fn run(args: &Args) -> Outcome {
    let threads = crate::host::host_threads();
    let mut out = Outcome::default();
    out.meta("scale", "full");
    out.meta("jobs", 1);
    out.meta("sim_threads", threads);
    let cells = cells(args.seed);
    let mut ck = Checker::new();

    let mut log = RoundLog::default();
    let mut model = Vec::new();
    let min_rounds = if args.trace { 2 } else { 1 };
    rounds(args.seconds, min_rounds, |i| {
        let use_trace = args.trace && i % 2 == 1;
        let tr = Tracer::new(use_trace);
        let (mut setup, mut wall, mut cpu, mut longest) = (0.0, 0.0, 0.0, 0.0f64);
        let (mut insns, mut sync) = (0u64, SyncStats::default());
        let mut serial_s = 0.0;
        let mut results: Vec<RunResult> = Vec::new();
        for cell in &cells {
            let t = Instant::now();
            let kernel = tr.time("workloads.gen", None, || {
                ldsim_workloads::benchmark(cell.bench, cell.scale, cell.seed).generate()
            });
            let sim = tr.time("sim.build", None, || {
                Simulator::new(config(cell, &kernel, threads), &kernel)
            });
            setup += since(t);

            let cpu0 = crate::host::cpu_s();
            let t = Instant::now();
            let result = tr.time(fam_span(family(cell.kind)), None, || {
                if use_trace {
                    let (r, s) = sim.run_with_sync_stats();
                    sync.barriers += s.barriers;
                    sync.windows += s.windows;
                    sync.epoch_cycles += s.epoch_cycles;
                    r
                } else {
                    sim.run()
                }
            });
            let took = since(t);
            cpu += crate::host::cpu_s() - cpu0;
            wall += took;
            longest = longest.max(took);
            insns += result.instructions;
            ck.cell(cell, &result);

            if use_trace {
                let t = Instant::now();
                let serial = tr.time("sim.serial_run", None, || {
                    Simulator::new(config(cell, &kernel, 1), &kernel).run()
                });
                serial_s += since(t);
                ck.check(
                    crate::metrics::digest(&serial) == crate::metrics::digest(&result),
                    || {
                        format!(
                            "{}: threaded result differs from the serial run",
                            crate::metrics::label(cell)
                        )
                    },
                );
            }
            results.push(result);
        }
        let pinned: Vec<(Cell, &RunResult)> = cells.iter().copied().zip(&results).collect();
        ck.pinned(NAME, args.seed, &pinned);
        model = model_counts(&results.iter().collect::<Vec<_>>());
        if use_trace {
            let mut m = vec![
                ("workloads.gen_s", tr.total("workloads.gen")),
                ("sim.build_s", tr.total("sim.build")),
            ];
            m.extend(family_metrics(&tr, |fam| {
                cells
                    .iter()
                    .zip(&results)
                    .filter(|(c, _)| family(c.kind) == fam)
                    .map(|(_, r)| r.cycles)
                    .sum()
            }));
            let cycles: u64 = results.iter().map(|r| r.cycles).sum();
            m.extend([
                (
                    "partition.barriers_per_kcycle",
                    sync.barriers as f64 / (cycles as f64 / 1e3),
                ),
                (
                    "partition.mean_window_cycles",
                    sync.epoch_cycles as f64 / sync.windows.max(1) as f64,
                ),
                ("partition.pool_speedup", serial_s / wall),
            ]);
            log.push(true, wall, m);
            out.spans.extend(tr.into_spans());
        } else {
            log.push(
                false,
                wall,
                vec![
                    ("wall_s", wall),
                    ("cpu_s", cpu),
                    ("setup_s", setup),
                    ("sim_minsn_per_s", insns as f64 / wall / 1e6),
                    ("longest_cell_s", longest),
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
    out
}
