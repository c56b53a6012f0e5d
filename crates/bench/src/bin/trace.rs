//! Capture a full audited event trace of one run as JSONL.
//!
//! ```text
//! cargo run --release --bin trace -- bfs tiny --seed 1 --scheduler wgw
//! ```
//!
//! writes `results/trace_<bench>_<scheduler>.jsonl`: one meta line (with
//! the stable trace hash), then one line per DRAM command, warp-group
//! lifecycle event, and per-load latency/divergence record. The run
//! executes with the protocol auditor armed and fails loudly on any
//! timing violation.

use ldsim_bench::{cli_fail, cli_parse, cli_pos, cli_value};
use ldsim_system::Simulator;
use ldsim_types::config::{SchedulerKind, SimConfig};
use ldsim_workloads::{benchmark, is_benchmark, Scale};

const USAGE: &str = "trace [bench] [tiny|small|full] [--seed N] [--scheduler NAME] [--threads N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = "bfs".to_string();
    let mut scale = Scale::Tiny;
    let mut seed = 1u64;
    let mut kind = SchedulerKind::Gmc;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = cli_value(&args, i, "--seed", USAGE);
                seed = cli_parse(v, "--seed", "a number", USAGE);
                i += 1;
            }
            "--scheduler" => {
                let v = cli_value(&args, i, "--scheduler", USAGE);
                kind = SchedulerKind::from_name(v).unwrap_or_else(|| {
                    cli_fail(USAGE, &format!("--scheduler does not know '{v}'"))
                });
                i += 1;
            }
            "--threads" => {
                let v = cli_value(&args, i, "--threads", USAGE);
                ldsim_util::set_sim_threads(Some(cli_pos(v, "--threads", USAGE)));
                i += 1;
            }
            name if !name.starts_with('-') => match Scale::from_name(name) {
                Some(s) => scale = s,
                None => bench = name.to_string(),
            },
            other => cli_fail(USAGE, &format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if !is_benchmark(&bench) {
        cli_fail(USAGE, &format!("unknown benchmark '{bench}'"));
    }

    let kernel = benchmark(&bench, scale, seed).generate();
    let cfg = SimConfig::default()
        .with_scheduler(kind)
        .with_audit()
        .with_trace();
    let (result, trace) = Simulator::new(cfg, &kernel).run_traced();
    assert_eq!(
        result.audit_violations, 0,
        "protocol violations during traced run"
    );
    let trace = trace.expect("tracing was enabled");

    std::fs::create_dir_all("results").expect("cannot create results/");
    let path = format!(
        "results/trace_{bench}_{}.jsonl",
        result.scheduler.replace('/', "_")
    );
    let mut f = std::fs::File::create(&path).expect("cannot create trace file");
    trace.write_jsonl(&mut f).expect("trace write failed");

    println!(
        "{path}: {} events, trace hash {:016x}",
        trace.len(),
        trace.stable_hash()
    );
    println!(
        "audited {} commands, 0 violations; {} cycles, IPC {:.3}",
        result.audit_commands,
        result.cycles,
        result.ipc()
    );
}
