//! Operating-point sweep — the analysis behind EXPERIMENTS.md's Fig. 8
//! discussion.
//!
//! Scales every phase-boundary `Delay` of one benchmark by a factor f
//! (lower f = higher DRAM demand) and reports, per scheduler, how IPC,
//! effective latency and the divergence gap respond. Shows the closed-loop
//! equilibrium: at high utilisation the system pins to DRAM goodput (WG ~=
//! GMC in IPC but lower latency), at low utilisation queues vanish and all
//! schedulers converge.

use ldsim_bench::cli_fail;
use ldsim_system::table::{f2, f3, pct, Table};
use ldsim_system::Simulator;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_types::kernel::Instruction;
use ldsim_workloads::{benchmark, is_benchmark, Scale};

const USAGE: &str = "opsweep [bench]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match args.as_slice() {
        [] => "spmv",
        [name] if !name.starts_with('-') => name.as_str(),
        [.., other] => cli_fail(USAGE, &format!("unknown argument '{other}'")),
    };
    if !is_benchmark(bench) {
        cli_fail(USAGE, &format!("unknown benchmark '{bench}'"));
    }
    println!("operating-point sweep for '{bench}' (Full scale)\n");
    let mut t = Table::new(&[
        "demand factor",
        "GMC bus util",
        "GMC eff",
        "WG ipc",
        "WG-M ipc",
        "WG-W ipc",
        "ZeroDiv ipc",
    ]);
    for f in [0.4f64, 0.7, 1.0, 1.5, 2.5] {
        let mut kernel = benchmark(bench, Scale::Full, 1).generate();
        for sm in &mut kernel.programs {
            for w in sm {
                for i in &mut w.insns {
                    if let Instruction::Delay(n) = i {
                        *n = (*n as f64 * f) as u32 + 1;
                    }
                }
            }
        }
        let budget = kernel.total_instructions() * 7 / 10;
        let run = |k: SchedulerKind| {
            let cfg = SimConfig {
                instruction_limit: Some(budget),
                ..SimConfig::default()
            }
            .with_scheduler(k);
            Simulator::new(cfg, &kernel).run()
        };
        let gmc = run(SchedulerKind::Gmc);
        let base = gmc.ipc();
        t.row(vec![
            format!("{f:.2} (1/f demand)"),
            pct(gmc.bw_utilization),
            f2(gmc.avg_effective_latency),
            f3(run(SchedulerKind::Wg).ipc() / base),
            f3(run(SchedulerKind::WgM).ipc() / base),
            f3(run(SchedulerKind::WgW).ipc() / base),
            f3(run(SchedulerKind::ZeroDivergence).ipc() / base),
        ]);
    }
    t.print();
}
