//! The one way to run the paper's figures and tables: every registered
//! figure (or the `--only` selection) through the global sweep
//! orchestrator.
//!
//! All selected figure grids are deduped into one unique-cell work list,
//! simulated in a single work-stealing pass, and rendered from the shared
//! store. Completed cells persist in a content-addressed sharded cache
//! (`<out>/cellcache/`), so an interrupted run resumes where it died and a
//! warm rerun re-renders everything without simulating at all. The same
//! store backs the long-running `ldsim-server` farm, so farm rows and
//! local rows are interchangeable.
//!
//! ```text
//! repro [tiny|small|full] [--seed N] [--jobs N] [--threads N]
//!       [--only fig08,fig11] [--out DIR] [--cold] [--resume]
//!       [--audit] [--trace] [--hist]
//! ```
//!
//! `--cold` deletes the cell cache first; `--resume` is the default warm
//! behaviour, spelled out (kept as an explicit flag so crash-recovery
//! runbooks read naturally). The two contradict each other, so passing
//! both is an error. `--hist` arms the distribution histograms and writes
//! `<figure>.hist.jsonl` beside each figure's rows; histograms do not
//! round-trip through the cell cache, so a `--hist` run simulates every
//! selected cell afresh and neither reads nor writes the cache.

use ldsim_bench::figures::registry;
use ldsim_bench::{cli_fail, cli_parse, cli_pos, cli_value};
use ldsim_system::sweep::{run_sweep, SweepConfig, ENGINE_SALT};
use ldsim_system::RunOpts;
use ldsim_workloads::Scale;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "repro [tiny|small|full] [--seed N] [--jobs N] [--threads N] \
     [--only fig08,fig11] [--out DIR] [--cold] [--resume] [--audit] [--trace] [--hist]";

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 1u64;
    let mut opts = RunOpts::default();
    let mut out = PathBuf::from("results");
    let mut cold = false;
    let mut resume = false;
    let mut only: Option<Vec<String>> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "tiny" => scale = Scale::Tiny,
            "small" => scale = Scale::Small,
            "full" => scale = Scale::Full,
            "--seed" => {
                let v = cli_value(&args, i, "--seed", USAGE);
                seed = cli_parse(v, "--seed", "a number", USAGE);
                i += 1;
            }
            "--jobs" => {
                let v = cli_value(&args, i, "--jobs", USAGE);
                ldsim_util::set_jobs(Some(cli_pos(v, "--jobs", USAGE)));
                i += 1;
            }
            "--threads" => {
                let v = cli_value(&args, i, "--threads", USAGE);
                ldsim_util::set_sim_threads(Some(cli_pos(v, "--threads", USAGE)));
                i += 1;
            }
            "--out" => {
                out = PathBuf::from(cli_value(&args, i, "--out", USAGE));
                i += 1;
            }
            "--only" => {
                let v = cli_value(&args, i, "--only", USAGE);
                let names: Vec<String> = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    cli_fail(
                        USAGE,
                        &format!("--only needs at least one figure name, got '{v}'"),
                    );
                }
                only = Some(names);
                i += 1;
            }
            "--cold" => cold = true,
            // Warm start is the default; the flag documents intent.
            "--resume" => resume = true,
            "--audit" => opts.audit = true,
            "--trace" => opts.trace = true,
            "--hist" => opts.hist = true,
            other => cli_fail(USAGE, &format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if cold && resume {
        cli_fail(
            USAGE,
            "--cold and --resume contradict each other: --cold deletes the cell \
             cache, --resume asks to warm-start from it — pass one or the other",
        );
    }
    ldsim_system::set_run_opts(opts);

    let mut specs = registry(scale, seed);
    if let Some(names) = &only {
        let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
        for n in names {
            if !known.contains(&n.as_str()) {
                cli_fail(
                    USAGE,
                    &format!("--only: unknown figure '{n}' (known: {})", known.join(", ")),
                );
            }
        }
        specs.retain(|s| names.iter().any(|n| n == s.name));
    }

    // Armed histograms do not round-trip through the cache: a --hist run
    // simulates every cell afresh and leaves the cache untouched.
    let cache = (!opts.hist).then(|| out.join("cellcache"));
    if let Some(cache) = cache.as_deref().filter(|_| cold) {
        match std::fs::remove_dir_all(cache) {
            Ok(()) => println!("cold start: removed {}", cache.display()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot remove {}: {e}", cache.display()),
        }
    }

    // Hidden test hook: stop after N simulated cells to exercise
    // crash-resume against the real binary (cache rows for completed cells
    // are already on disk when we stop).
    let max_simulated = std::env::var("LDSIM_REPRO_MAX_SIM")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());

    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let cfg = SweepConfig {
        cache_path: cache.as_deref(),
        salt: ENGINE_SALT,
        max_simulated,
        shards: ldsim_system::DEFAULT_SHARDS,
    };
    println!(
        "repro: {} figure(s) at {scale:?}, seed {seed}, {} worker(s) x {} sim thread(s), cache {}",
        specs.len(),
        ldsim_util::jobs(),
        ldsim_util::sim_threads(),
        cache
            .as_deref()
            .map_or("off (--hist)".into(), |c| c.display().to_string())
    );
    let t0 = Instant::now();
    let (store, stats) = run_sweep(&cells, &cfg);
    let sweep_s = t0.elapsed().as_secs_f64();
    println!(
        "sweep: {} declared -> {} unique; {} from cache, {} simulated \
         ({} stale/foreign cache line(s) skipped) in {sweep_s:.2}s",
        stats.declared, stats.unique, stats.from_cache, stats.simulated, stats.skipped_lines
    );
    if max_simulated.is_some() && stats.from_cache + stats.simulated < stats.unique {
        println!(
            "LDSIM_REPRO_MAX_SIM: stopping after {} simulated cell(s); \
             rerun to resume from the cache",
            stats.simulated
        );
        return;
    }

    let t1 = Instant::now();
    for spec in &specs {
        println!("\n----- {} -----\n", spec.name);
        (spec.render)(&store, &out);
    }
    let render_s = t1.elapsed().as_secs_f64();
    println!(
        "\nrepro complete: sweep {sweep_s:.2}s + render {render_s:.2}s = {:.2}s total \
         ({} simulated, {} cached)",
        sweep_s + render_s,
        stats.simulated,
        stats.from_cache
    );
}
