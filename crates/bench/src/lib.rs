//! Shared harness code for the experiment binaries and the microbenches.
//!
//! Every paper figure and table is a [`figures::registry`] entry run by the
//! one `repro` binary (`repro [tiny|small|full] --only fig08`); the other
//! binaries are tools around it (`histreport`, `opsweep`, `trace`,
//! `validate`); speed is measured by the stand-alone `benchmark/` crate.
//! Results print as text tables (the same rows/series the paper plots)
//! and are also written as JSON lines to
//! `results/<figure>.jsonl` — one file per figure, rewritten on every
//! invocation and stamped with the scale and seed — for EXPERIMENTS.md
//! provenance. When histograms are armed (`--hist`), the full bucket
//! arrays go to a companion `results/<figure>.hist.jsonl`.

#![forbid(unsafe_code)]

pub mod figures;
pub mod validate;

use ldsim_system::{RunOpts, RunResult};
use ldsim_util::json::JsonObject;
use ldsim_workloads::Scale;
use std::io::Write;

/// One-line CLI failure: a named error to stderr, the usage line, and a
/// nonzero exit. Every hand-rolled parser in the workspace binaries routes
/// bad input here — a typo'd flag must produce a readable diagnostic, not a
/// raw `expect` backtrace.
pub fn cli_fail(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

/// The value following flag `args[i]`, or a named failure when the flag is
/// the last argument.
pub fn cli_value<'a>(args: &'a [String], i: usize, flag: &str, usage: &str) -> &'a str {
    match args.get(i + 1) {
        Some(v) => v.as_str(),
        None => cli_fail(usage, &format!("{flag} needs a value but none followed")),
    }
}

/// Parse a flag's value with [`FromStr`](std::str::FromStr), naming the
/// flag and the offending text on failure.
pub fn cli_parse<T: std::str::FromStr>(raw: &str, flag: &str, what: &str, usage: &str) -> T {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| cli_fail(usage, &format!("{flag} needs {what}, got '{raw}'")))
}

/// Parse a flag's value as a positive integer (worker/thread counts).
pub fn cli_pos(raw: &str, flag: &str, usage: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => cli_fail(
            usage,
            &format!("{flag} needs a positive integer, got '{raw}'"),
        ),
    }
}

/// The shared harness usage line (see [`cli`]).
pub const CLI_USAGE: &str =
    "<binary> [tiny|small|full] [--seed N] [--jobs N] [--threads N] [--audit] [--trace] [--hist]";

/// Parse `[tiny|small|full]`, `--seed N`, `--jobs N`, `--threads N`,
/// `--audit`, `--trace`, and `--hist` from argv. The switches are applied
/// process-wide (run options via [`ldsim_system::set_run_opts`], cell
/// worker count via [`ldsim_util::set_jobs`], intra-run partition threads
/// via [`ldsim_util::set_sim_threads`]) before returning. Bad input —
/// missing or malformed values, unknown flags — prints a named error plus
/// the usage line and exits nonzero.
pub fn cli() -> (Scale, u64) {
    let mut scale = Scale::Small;
    let mut seed = 1u64;
    let mut opts = RunOpts::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = cli_value(&args, i, "--seed", CLI_USAGE);
                seed = cli_parse(v, "--seed", "a number", CLI_USAGE);
                i += 1;
            }
            "--jobs" => {
                let v = cli_value(&args, i, "--jobs", CLI_USAGE);
                ldsim_util::set_jobs(Some(cli_pos(v, "--jobs", CLI_USAGE)));
                i += 1;
            }
            "--threads" => {
                let v = cli_value(&args, i, "--threads", CLI_USAGE);
                ldsim_util::set_sim_threads(Some(cli_pos(v, "--threads", CLI_USAGE)));
                i += 1;
            }
            "--audit" => opts.audit = true,
            "--trace" => opts.trace = true,
            "--hist" => opts.hist = true,
            other => match Scale::from_name(other) {
                Some(s) => scale = s,
                None => cli_fail(CLI_USAGE, &format!("unknown argument '{other}'")),
            },
        }
        i += 1;
    }
    ldsim_system::set_run_opts(opts);
    (scale, seed)
}

/// Write run results as JSON lines to `results/<figure>.jsonl`.
///
/// The file is rewritten (not appended) on every invocation, so the rows
/// always describe exactly one run of the binary, and every row is stamped
/// with the figure name, scale, and seed that produced it — without the
/// stamp, mixed-scale rows from successive invocations are
/// indistinguishable. I/O failures panic with the offending path: silently
/// dropping provenance is worse than aborting a finished experiment.
pub fn dump_json(figure: &str, scale: Scale, seed: u64, results: &[&RunResult]) {
    dump_json_to(
        std::path::Path::new("results"),
        figure,
        scale,
        seed,
        results,
    );
}

/// Splice the figure/scale/seed provenance stamp into a serialized JSON
/// object. The row must be a non-empty flat object — splicing into anything
/// else (or into `{}`, which would leave a trailing comma) produces a file
/// every downstream consumer mis-parses, so the check is a hard `assert!`:
/// the release binaries are exactly the ones producing the real experiment
/// data, and a `debug_assert!` compiles away there.
pub fn stamp_row(figure: &str, scale: Scale, seed: u64, row: &str) -> String {
    assert!(
        row.starts_with('{') && row.len() > 2 && row.ends_with('}'),
        "stamp_row: malformed JSON row for '{figure}': {row:?}"
    );
    format!(
        "{{\"figure\":\"{figure}\",\"scale\":\"{scale:?}\",\"seed\":{seed},{}",
        &row[1..]
    )
}

/// [`dump_json`] with an explicit output directory (separated for tests).
///
/// If any result carries armed histograms (`RunResult::hists`), their full
/// bucket arrays are written alongside as `<figure>.hist.jsonl` — one row
/// per (run, histogram) with parallel `bucket_lo` / `bucket_hi` / `count`
/// arrays. Otherwise any stale `.hist.jsonl` from a previous armed
/// invocation is deleted, for the same reason the main file is rewritten:
/// leftovers would masquerade as this run's output.
pub fn dump_json_to(
    dir: &std::path::Path,
    figure: &str,
    scale: Scale,
    seed: u64,
    results: &[&RunResult],
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        panic!("cannot create {}: {e}", dir.display());
    }
    let path = dir.join(format!("{figure}.jsonl"));
    let mut f = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    for r in results {
        let stamped = stamp_row(figure, scale, seed, &r.to_json());
        writeln!(f, "{stamped}").unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let hist_path = dir.join(format!("{figure}.hist.jsonl"));
    if results.iter().any(|r| r.hists.is_some()) {
        let mut hf = std::fs::File::create(&hist_path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", hist_path.display()));
        for r in results {
            let Some(hists) = r.hists.as_deref() else {
                continue;
            };
            for (name, h) in hists.iter_named() {
                let (mut lo, mut hi, mut count) = (Vec::new(), Vec::new(), Vec::new());
                for (l, u, c) in h.nonzero_buckets() {
                    lo.push(l);
                    hi.push(u);
                    count.push(c);
                }
                let row = JsonObject::new()
                    .str("benchmark", &r.benchmark)
                    .str("scheduler", &r.scheduler)
                    .str("hist", name)
                    .u64("total", h.total())
                    .u64("min", h.min())
                    .u64("max", h.max())
                    .u64("p50", h.quantile(0.5))
                    .u64("p90", h.quantile(0.9))
                    .u64("p99", h.quantile(0.99))
                    .f64("mean", h.mean())
                    .u64_array("bucket_lo", &lo)
                    .u64_array("bucket_hi", &hi)
                    .u64_array("count", &count)
                    .build();
                writeln!(hf, "{}", stamp_row(figure, scale, seed, &row))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", hist_path.display()));
            }
        }
    } else if let Err(e) = std::fs::remove_file(&hist_path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            panic!("cannot remove stale {}: {e}", hist_path.display());
        }
    }
}

/// A dependency-free micro-benchmark harness for the `benches/` targets
/// (run with `cargo bench`): warm up, calibrate the iteration count to a
/// fixed wall-clock budget, then report ns/iter.
pub mod microbench {
    use std::hint::black_box;
    use std::time::Instant;

    /// Seconds of measured work per benchmark.
    const BUDGET: f64 = 0.25;

    /// Time `f`, print a `name  iters  ns/iter` line, and return ns/iter.
    /// Calibration uses the median of three timed calls, so one
    /// scheduling-noise outlier cannot blow the iteration count (and the
    /// measurement budget) up or down by orders of magnitude.
    pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
        for _ in 0..3 {
            black_box(f());
        }
        let mut samples = [0.0f64; 3];
        for s in &mut samples {
            let t0 = Instant::now();
            black_box(f());
            *s = t0.elapsed().as_secs_f64().max(1e-9);
        }
        samples.sort_by(f64::total_cmp);
        let per = samples[1];
        let iters = ((BUDGET / per).ceil() as u64).clamp(5, 5_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_secs_f64() / iters as f64 * 1e9;
        println!("{name:<44} {iters:>9} iters {ns:>14.1} ns/iter");
        ns
    }
}

/// The validated speedup ratio `x / base`, attributed to `name`: panics
/// naming the offending benchmark if either side is non-positive or
/// non-finite. A zero-IPC baseline (e.g. a run cut off before retiring
/// anything) would otherwise produce an infinite ratio that poisons every
/// geometric mean downstream with no hint of which benchmark broke.
pub fn speedup(name: &str, x: f64, base: f64) -> f64 {
    assert!(
        base.is_finite() && base > 0.0,
        "speedup: benchmark '{name}' has invalid baseline {base}"
    );
    assert!(
        x.is_finite() && x > 0.0,
        "speedup: benchmark '{name}' has invalid value {x}"
    );
    x / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cfd")]
    fn zero_baseline_names_the_benchmark() {
        speedup("cfd", 2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "spmv")]
    fn non_finite_value_names_the_benchmark() {
        speedup("spmv", f64::NAN, 1.0);
    }

    #[test]
    fn dump_json_rewrites_and_stamps() {
        let dir = std::env::temp_dir().join(format!("ldsim-dump-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r1 = RunResult {
            benchmark: "bfs".into(),
            cycles: 10,
            ..Default::default()
        };
        let r2 = RunResult {
            benchmark: "spmv".into(),
            cycles: 20,
            ..Default::default()
        };
        dump_json_to(&dir, "figX", Scale::Tiny, 3, &[&r1, &r2]);
        // A second invocation must replace the file, not append to it.
        dump_json_to(&dir, "figX", Scale::Small, 9, &[&r2]);
        let text = std::fs::read_to_string(dir.join("figX.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "stale rows survived: {text}");
        assert!(lines[0].starts_with("{\"figure\":\"figX\",\"scale\":\"Small\",\"seed\":9,"));
        assert!(lines[0].contains("\"benchmark\":\"spmv\""));
        assert!(lines[0].ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "malformed JSON row")]
    fn stamping_a_non_object_row_panics_in_release_builds_too() {
        // Hard assert, not debug_assert: the release binaries are the
        // ones whose output actually gets consumed.
        stamp_row("figX", Scale::Tiny, 1, "not an object");
    }

    #[test]
    #[should_panic(expected = "malformed JSON row")]
    fn stamping_an_empty_object_panics() {
        // Splicing into `{}` would emit `{...,}` — a trailing comma.
        stamp_row("figX", Scale::Tiny, 1, "{}");
    }

    #[test]
    fn hist_dump_writes_and_removes_companion_file() {
        let dir = std::env::temp_dir().join(format!("ldsim-hist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hists = ldsim_system::metrics::RunHists::new();
        hists.dram_gap.add(100);
        hists.dram_gap.add(300);
        let armed = RunResult {
            benchmark: "bfs".into(),
            scheduler: "Gmc".into(),
            hists: Some(Box::new(hists)),
            ..Default::default()
        };
        dump_json_to(&dir, "figH", Scale::Tiny, 3, &[&armed]);
        let text = std::fs::read_to_string(dir.join("figH.hist.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "one row per named histogram: {text}");
        let gap = lines
            .iter()
            .find(|l| l.contains("\"hist\":\"dram_gap\""))
            .unwrap();
        assert!(gap.starts_with("{\"figure\":\"figH\",\"scale\":\"Tiny\",\"seed\":3,"));
        assert!(gap.contains("\"total\":2"));
        assert!(gap.contains("\"min\":100"));
        assert!(gap.contains("\"bucket_lo\":["));
        // An unarmed re-dump must clear the stale companion file.
        let plain = RunResult::default();
        dump_json_to(&dir, "figH", Scale::Tiny, 3, &[&plain]);
        assert!(
            !dir.join("figH.hist.jsonl").exists(),
            "stale hist file survived an unarmed dump"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
