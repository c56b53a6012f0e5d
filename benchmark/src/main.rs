//! `ldsim-benchmark`: the repository's end-to-end and per-layer benchmark.
//! See README.md beside this crate for the workloads, the metrics and how
//! to read a comparison.
//!
//! A run supervises a child copy of itself: simulator figure renders print
//! their tables to stdout, so the child's stdout is filtered down to the
//! lines it marks, the last of which is the result. The supervisor also
//! stops a child that outlives its time limit.

mod cell;
mod farm;
mod harness;
mod host;
mod metrics;
mod report;
mod stats;
mod sweep;
mod trace;
mod warm;

use harness::{Args, Outcome};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [sweep::NAME, warm::NAME, cell::NAME, farm::NAME];

/// The seed used unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, so a later speed claim can be re-checked on
/// inputs nobody looked at while making it.
pub const HELD_OUT_SEED: u64 = 9973;

pub fn seed_role(seed: u64) -> &'static str {
    match seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    }
}

const USAGE: &str = "usage:
  ldsim-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
  ldsim-benchmark compare <results-A> <results-B>
  ldsim-benchmark pin --seeds <from>-<to>
workloads: sweep-full-cold, sweep-small-warm, cell-full-threaded, farm-small-mixed";

/// Marks the child's lines the supervisor passes on.
const MARK: &str = "@@ldsim-benchmark ";
const CHILD_ENV: &str = "LDSIM_BENCHMARK_CHILD";
/// A single workload must finish within this long.
const WORKLOAD_LIMIT: Duration = Duration::from_secs(170);
/// Scratch space, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                r.workloads = match v.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?],
                };
            }
            "--seed" => r.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(r.seconds > 0.0 && r.seconds <= 150.0) {
                    return Err("--seconds must be in (0, 150]".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if r.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail_usage("compare takes two result files or directories");
            };
            match report::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Some("serve") => farm::serve(&args[1..]),
        Some("pin") => match args.get(1..) {
            Some([flag, range]) if flag == "--seeds" => match parse_range(range) {
                Some((lo, hi)) => pin(lo, hi),
                None => fail_usage("--seeds takes <from>-<to>"),
            },
            _ => fail_usage("pin takes --seeds <from>-<to>"),
        },
        _ => match parse_run(&args) {
            Err(e) => fail_usage(&e),
            Ok(run) if std::env::var_os(CHILD_ENV).is_some() => run_workloads(&run),
            Ok(run) => supervise(&args, run.workloads.len() as u32 * WORKLOAD_LIMIT),
        },
    }
}

fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once('-')?;
    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
    (lo <= hi).then_some((lo, hi))
}

/// Run this program again as a child, pass on its marked stdout lines, and
/// stop it if it outlives `limit`.
fn supervise(args: &[String], limit: Duration) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this program: {e}");
            return ExitCode::from(1);
        }
    };
    let mut child = match Command::new(exe)
        .args(args)
        .env(CHILD_ENV, "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot start the benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let pass_on = std::thread::spawn(move || {
        let mut out = std::io::stdout().lock();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix(MARK) {
                let _ = writeln!(out, "{rest}");
                let _ = out.flush();
            }
        }
    });
    let deadline = Instant::now() + limit;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() >= deadline => {
                eprintln!(
                    "error: benchmark exceeded {} s; stopping it",
                    limit.as_secs()
                );
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => {
                eprintln!("error: lost the benchmark process: {e}");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let _ = pass_on.join();
    match status.and_then(|s| s.code()) {
        Some(0) => ExitCode::SUCCESS,
        Some(c) => ExitCode::from(c.clamp(1, 255) as u8),
        None => ExitCode::from(1),
    }
}

fn emit(line: &str) {
    println!("{MARK}{line}");
}

/// The child: run each workload, report it, print the result line.
fn run_workloads(run: &RunArgs) -> ExitCode {
    let work = PathBuf::from(WORK_DIR);
    // The farm renders into the temp dir; keep it inside the working tree.
    let tmp = work.join("tmp");
    harness::reset_dir(&tmp);
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp).expect("temp dir"));
    let commit = host::commit();

    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for &w in &run.workloads {
        let args = Args {
            seed: run.seed,
            seconds: run.seconds,
            trace: run.trace,
            work: work.join(w),
        };
        harness::reset_dir(&args.work);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w {
            sweep::NAME => sweep::run(&args),
            warm::NAME => warm::run(&args),
            cell::NAME => cell::run(&args),
            _ => farm::run(&args),
        }));
        let mut o = ran.unwrap_or_else(|p| {
            let mut o = Outcome::default();
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            o.check.fail(format!("panic: {msg}"));
            o
        });
        let _ = std::fs::remove_dir_all(&args.work);
        if o.get("peak_rss_mb").is_none() {
            o.set("peak_rss_mb", host::peak_rss_mb());
        }
        o.set("failed_frac", o.check.failed_frac());
        let info = report::RunInfo {
            workload: w,
            seed: run.seed,
            seconds: run.seconds,
            trace: run.trace,
            commit: &commit,
        };
        report::print_report(&info, &o);
        emit(&report::record(&info, &o));
        if run.trace {
            write_spans(&work, &info, &o);
        }
        outcomes.push((w, o));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    // Removed only when empty: traced runs leave their span files.
    let _ = std::fs::remove_dir(&work);

    let line = match outcomes.as_slice() {
        [(_, o)] => report::result_line(o, run.trace),
        all => Some(summary_line(all)),
    };
    match line {
        Some(l) => {
            emit(&l);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: the run measured nothing usable; no result");
            ExitCode::from(1)
        }
    }
}

fn write_spans(work: &Path, info: &report::RunInfo, o: &Outcome) {
    let dir = work.join("traces");
    let _ = std::fs::create_dir_all(&dir);
    let run_id = format!("{}-seed{}", info.workload, info.seed);
    let text: String = o
        .spans
        .iter()
        .map(|s| trace::span_json(&run_id, s) + "\n")
        .collect();
    let path = dir.join(format!("{run_id}.jsonl"));
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("   spans: {}", path.display()),
        Err(e) => eprintln!("   cannot write {}: {e}", path.display()),
    }
}

/// `--workload all`: the twelve end-to-end metrics, each from the workload
/// that defines it (`wall_s`, `cpu_s`, `setup_s` summed over all four;
/// `sim_minsn_per_s` over the sweep and the cell workload, the two that
/// simulate in their timed phase).
fn summary_line(all: &[(&str, Outcome)]) -> String {
    let get = |w: &str, m: &str| {
        all.iter()
            .find(|(n, _)| *n == w)
            .and_then(|(_, o)| o.get(m))
            .unwrap_or(f64::NAN)
    };
    let sum = |m: &str| WORKLOADS.iter().map(|w| get(w, m)).sum::<f64>();
    let simulating = [sweep::NAME, cell::NAME];
    let sim_wall: f64 = simulating.iter().map(|w| get(w, "wall_s")).sum();
    let minsn: f64 = simulating
        .iter()
        .map(|w| get(w, "sim_minsn_per_s") * get(w, "wall_s"))
        .sum();
    let (attempted, failed) = all.iter().fold((0, 0), |(a, f), (_, o)| {
        (a + o.check.attempted, f + o.check.failed)
    });
    let rows = [
        ("wall_s", sum("wall_s")),
        ("sim_minsn_per_s", minsn / sim_wall),
        ("cpu_s", sum("cpu_s")),
        (
            "peak_rss_mb",
            WORKLOADS
                .iter()
                .map(|w| get(w, "peak_rss_mb"))
                .fold(0.0, f64::max),
        ),
        ("setup_s", sum("setup_s")),
        ("longest_cell_s", get(cell::NAME, "longest_cell_s")),
        ("warm_reload_s", get(warm::NAME, "warm_reload_s")),
        ("job_p50_s", get(farm::NAME, "job_p50_s")),
        ("job_tail_s", get(farm::NAME, "job_tail_s")),
        ("first_row_p50_s", get(farm::NAME, "first_row_p50_s")),
        ("jobs_per_s", get(farm::NAME, "jobs_per_s")),
        ("failed_frac", failed as f64 / attempted.max(1) as f64),
    ];
    eprintln!("== all workloads: the twelve end-to-end metrics");
    let mut fields = Vec::new();
    for (name, v) in rows {
        let unit = metrics::def(name).unit;
        eprintln!("   {name:<18} {v:>14.6}  {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        fields.join(", ")
    )
}

/// Path of the pinned digest table, beside this crate's manifest.
const PINNED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.tsv");

/// Compute and pin the digest of every workload's cells for seeds
/// `lo..=hi` under the current engine salt. Rows of other seeds and of the
/// current salt are kept; rows of other salts are dropped.
fn pin(lo: u64, hi: u64) -> ExitCode {
    use ldsim_system::{run_sweep, sweep::Cell, SweepConfig, ENGINE_SALT};
    ldsim_util::set_jobs(Some(host::host_threads()));
    ldsim_util::set_sim_threads(Some(1));
    let pinned_cells = |w: &str, seed: u64| -> Vec<Cell> {
        match w {
            sweep::NAME => sweep::pinned_cells(seed),
            warm::NAME => warm::pinned_cells(seed),
            cell::NAME => cell::cells(seed).to_vec(),
            _ => farm::pinned_cells(seed),
        }
    };
    let old = std::fs::read_to_string(PINNED_PATH).unwrap_or_default();
    let mut rows: std::collections::BTreeMap<(String, u64), String> = old
        .lines()
        .filter_map(|line| {
            let mut f = line.split('\t');
            (f.next()? == ENGINE_SALT).then_some(())?;
            let (w, seed) = (f.next()?.to_string(), f.next()?.parse().ok()?);
            Some(((w, seed), line.to_string()))
        })
        .collect();
    for seed in lo..=hi {
        let sets: Vec<(&str, Vec<Cell>)> = WORKLOADS
            .iter()
            .map(|w| (*w, pinned_cells(w, seed)))
            .collect();
        let all: Vec<Cell> = sets.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        let (store, st) = run_sweep(&all, &SweepConfig::default());
        for (w, cells) in &sets {
            let results: Vec<_> = cells.iter().map(|c| (*c, store.get(c))).collect();
            rows.insert(
                (w.to_string(), seed),
                metrics::pinned_row(w, seed, &results),
            );
        }
        eprintln!("seed {seed}: {} cells", st.unique);
    }
    let text: String = rows.values().map(|l| format!("{l}\n")).collect();
    match std::fs::write(PINNED_PATH, text) {
        Ok(()) => {
            eprintln!("pinned {} workload digests in {PINNED_PATH}", rows.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {PINNED_PATH}: {e}");
            ExitCode::from(1)
        }
    }
}
