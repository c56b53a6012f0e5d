//! `farm-small-mixed`: a farm process (`serve`: `Exec::start` +
//! `spawn_server`, what the `ldsim-server` binary runs) on a fresh copy of
//! a shard store pre-warmed for a four-seed Small pool except a few cells,
//! driven over loopback HTTP by two closed-loop clients. Each client holds
//! at most one connection at a time and streams every job to its trailer
//! before it submits the next. Every round starts a new farm process and
//! stops it.
//!
//! The job plan covers every (pool seed, registry figure) pair exactly
//! once per round, grouped into jobs of one to four figures of one seed;
//! the seed fixes the grouping and the order. Every round therefore does
//! the same work — it simulates the same few cold cells and renders every
//! figure once — whatever the seed. Simulation is a minor share: the
//! round mostly loads HTTP, `Exec` dedupe, store reads and rendering.

use crate::harness::{copy_dir, rounds, since, Args, Outcome, RoundLog};
use crate::metrics::{model_counts, Checker};
use crate::stats::{median, tail};
use crate::sweep::cells;
use crate::trace::Tracer;
use ldsim_bench::figures::registry;
use ldsim_server::{spawn_server, wire, Exec, ExecConfig};
use ldsim_system::sweep::{Cell, CellStore, FigureSpec};
use ldsim_system::{run_opts, run_sweep, RunResult, SweepConfig};
use ldsim_util::{FnvHashMap, StdRng};
use ldsim_workloads::Scale;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

pub const NAME: &str = "farm-small-mixed";
pub const SCALE: Scale = Scale::Small;
/// Seeds in the pool.
pub const POOL: usize = 4;
/// The pre-warmed store lacks the first this many unique cells of the last
/// pool seed (bfs under GMC, which many figures share), so every round
/// simulates them and jobs of that seed see queued and shared cells as
/// well as cached ones. More would make simulation most of a round.
const COLD_CELLS: usize = 1;
pub const CLIENTS: usize = 2;
const HOST: &str = "127.0.0.1";
/// `GET /v1/health` round trips timed per round after the first.
const HEALTH_PROBES: usize = 5;
/// The tail percentile keeps at least this many jobs beyond it.
const TAIL_BEYOND: usize = 10;

pub fn pool(seed: u64) -> Vec<u64> {
    (0..POOL as u64)
        .map(|i| seed.wrapping_add(i * 7919))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub seed: u64,
    pub figures: Vec<&'static str>,
}

/// The per-client job sequences for `seed`.
pub fn plan(seed: u64, pool: &[u64], menu: &[&'static str]) -> Vec<Vec<Job>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_726d);
    let mut jobs = Vec::new();
    for &s in pool {
        let mut figs = menu.to_vec();
        shuffle(&mut figs, &mut rng);
        // Job sizes cycle 1, 2, 3, 4 so every seed gives the same number
        // of jobs; which figures land together is seeded.
        for size in [1usize, 2, 3, 4].into_iter().cycle() {
            if figs.is_empty() {
                break;
            }
            let k = size.min(figs.len());
            jobs.push(Job {
                seed: s,
                figures: figs.drain(..k).collect(),
            });
        }
    }
    shuffle(&mut jobs, &mut rng);
    let mut clients = vec![Vec::new(); CLIENTS];
    for (i, job) in jobs.into_iter().enumerate() {
        clients[i % CLIENTS].push(job);
    }
    clients
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// The cells whose results `digests.tsv` pins for this workload: every
/// unique cell of the pool.
pub fn pinned_cells(seed: u64) -> Vec<Cell> {
    pool(seed)
        .into_iter()
        .flat_map(|s| cells(&registry(SCALE, s)).1)
        .collect()
}

/// In-process results for the whole pool: the expected bytes of every
/// figure, the stores they were rendered from, and the pre-warmed store.
struct Reference {
    /// (seed, figure) → the figure's JSONL bytes, `None` if it writes none.
    outputs: HashMap<(u64, &'static str), Option<String>>,
    specs: Vec<(u64, Vec<FigureSpec>, CellStore)>,
    /// Instructions of the cells a round simulates (the cold cells).
    cold_insns: u64,
    /// Every unique cell of the pool, by key (what the store's rows
    /// validate against).
    cells: FnvHashMap<u64, Cell>,
    model: Vec<(&'static str, f64)>,
}

/// Simulate the pool in process, write every cell but the cold ones to the
/// store at `base`, and render every figure.
fn build_reference(args: &Args, pool: &[u64], base: &Path, ck: &mut Checker) -> Reference {
    let opts = run_opts();
    let mut r = Reference {
        outputs: HashMap::new(),
        specs: Vec::new(),
        cold_insns: 0,
        cells: FnvHashMap::default(),
        model: Vec::new(),
    };
    for (i, &seed) in pool.iter().enumerate() {
        let specs = registry(SCALE, seed);
        let (declared, unique) = cells(&specs);
        let cold: &[Cell] = if i + 1 == pool.len() {
            &unique[..COLD_CELLS]
        } else {
            &[]
        };
        // By key: a cell of another tweak may share the cold cell's key.
        let cold_keys: Vec<u64> = cold.iter().map(|c| c.key(opts)).collect();
        let warm: Vec<Cell> = declared
            .into_iter()
            .filter(|c| !cold_keys.contains(&c.key(opts)))
            .collect();
        let cfg = SweepConfig {
            cache_path: Some(base),
            ..Default::default()
        };
        let (mut store, _) = run_sweep(&warm, &cfg);
        let (cold_store, _) = run_sweep(cold, &SweepConfig::default());
        for c in cold {
            r.cold_insns += cold_store.get(c).instructions;
            store.insert(c, cold_store.get(c).clone());
        }
        r.cells.extend(unique.iter().map(|c| (c.key(opts), *c)));
        for spec in &specs {
            let dir = args.fresh_dir("farm-ref");
            (spec.render)(&store, &dir);
            let file = std::fs::read_to_string(dir.join(format!("{}.jsonl", spec.name))).ok();
            r.outputs.insert((seed, spec.name), file);
        }
        r.specs.push((seed, specs, store));
    }
    let results: Vec<(Cell, &RunResult)> = r
        .specs
        .iter()
        .flat_map(|(_, specs, store)| cells(specs).1.into_iter().map(move |c| (c, store.get(&c))))
        .collect();
    ck.pinned(NAME, args.seed, &results);
    r.model = model_counts(&results.iter().map(|(_, x)| *x).collect::<Vec<_>>());
    r
}

/// One job as a client saw it.
#[derive(Default)]
struct JobOut {
    latency: f64,
    first_row: Option<f64>,
    submit: f64,
    /// (unique, cached, shared, queued) from the submit reply.
    counts: [u64; 4],
    rejected: bool,
    error: Option<String>,
    figures_checked: u64,
    figures_failed: Vec<String>,
}

fn run_job(
    port: u16,
    client: usize,
    job_id: u64,
    job: &Job,
    reference: &Reference,
    tr: &Tracer,
) -> JobOut {
    let mut out = JobOut::default();
    let span = tr.job_span("farm.job", None, Some(job_id));
    let t = Instant::now();
    let body = format!(
        "{{\"client\":\"c{client}\",\"scale\":\"small\",\"seed\":{},\"figures\":\"{}\"}}",
        job.seed,
        job.figures.join(",")
    );
    let submitted = {
        let _s = tr.job_span("exec.submit", span.id(), Some(job_id));
        wire::request(HOST, port, "POST", "/v1/jobs", &body)
    };
    out.submit = since(t);
    let reply = match submitted {
        Ok((200, reply)) => reply,
        Ok((status, reply)) => {
            out.rejected = status == 429;
            out.error = Some(format!("submit answered {status}: {}", reply.trim()));
            return out;
        }
        Err(e) => {
            out.error = Some(format!("submit failed: {e}"));
            return out;
        }
    };
    let Ok(p) = ldsim_util::parse_object(&reply) else {
        out.error = Some(format!("submit reply is not JSON: {reply}"));
        return out;
    };
    let field = |k: &str| p.req_u64(k).unwrap_or(0);
    out.counts = [
        field("unique"),
        field("cached"),
        field("shared"),
        field("queued"),
    ];
    let _s = tr.job_span("farm.stream", span.id(), Some(job_id));
    if let Err(e) = stream_job(port, field("job"), job, reference, t, &mut out) {
        out.error = Some(e);
    }
    out.latency = since(t);
    out
}

/// Read a job's stream to its trailer, comparing every figure's bytes with
/// the in-process render.
fn stream_job(
    port: u16,
    id: u64,
    job: &Job,
    reference: &Reference,
    t: Instant,
    out: &mut JobOut,
) -> Result<(), String> {
    let (status, mut reader) = wire::open_stream(HOST, port, &format!("/v1/jobs/{id}/stream"))?;
    if status != 200 {
        return Err(format!("stream answered {status}"));
    }
    let mut line = String::new();
    let mut next = |line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("stream ended before its trailer (truncated)".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("stream read failed: {e}")),
        }
    };
    next(&mut line)?; // header
    let mut seen: Vec<String> = Vec::new();
    loop {
        next(&mut line)?;
        let rec = ldsim_util::parse_object(line.trim_end())
            .map_err(|e| format!("bad stream record {line:?}: {e}"))?;
        if rec.get("done").is_some() {
            break;
        }
        if let Ok(err) = rec.req_str("error") {
            return Err(format!("stream reported {err}: {}", line.trim()));
        }
        out.first_row.get_or_insert_with(|| since(t));
        let (name, got) = if let Ok(file) = rec.req_str("file") {
            let name = file.strip_suffix(".jsonl").unwrap_or(file).to_string();
            let rows = rec
                .req_u64("rows")
                .map_err(|e| format!("file record: {e}"))?;
            let mut content = String::new();
            for _ in 0..rows {
                next(&mut line)?;
                content.push_str(&line);
            }
            (name, Some(content))
        } else {
            let name = rec
                .req_str("figure")
                .map_err(|e| format!("figure record: {e}"))?;
            (name.to_string(), None)
        };
        out.figures_checked += 1;
        let want = job
            .figures
            .iter()
            .find(|f| **f == name)
            .and_then(|f| reference.outputs.get(&(job.seed, *f)));
        if want != Some(&got) {
            out.figures_failed.push(format!(
                "{name} (seed {}): streamed bytes differ from the in-process render",
                job.seed
            ));
        }
        seen.push(name);
    }
    seen.sort();
    let mut want: Vec<&str> = job.figures.clone();
    want.sort_unstable();
    if seen != want {
        return Err(format!("streamed figures {seen:?}, requested {want:?}"));
    }
    Ok(())
}

/// A farm process for one round: this program run as `serve`.
struct Server {
    child: Child,
    port: u16,
    /// `Exec::start` as the farm process timed it.
    start_s: f64,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(store: &Path, workers: usize) -> Result<Server, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--cache")
            .arg(store)
            .args(["--jobs", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the farm process: {e}"))?;
        // The farm announces itself on stderr; pass the rest of its stderr on.
        let (tx, rx) = std::sync::mpsc::channel();
        let err = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(err).lines().map_while(Result::ok) {
                match line.strip_prefix(READY) {
                    Some(rest) => {
                        let _ = tx.send(rest.to_string());
                    }
                    None => eprintln!("   farm: {line}"),
                }
            }
        });
        let mut server = Server {
            child,
            port: 0,
            start_s: 0.0,
            stderr: Some(stderr),
        };
        let ready = rx.recv_timeout(std::time::Duration::from_secs(60));
        let parsed = ready.ok().and_then(|r| {
            let (port, start) = r.split_once(' ')?;
            Some((port.parse().ok()?, start.parse().ok()?))
        });
        match parsed {
            Some((port, start_s)) => {
                server.port = port;
                server.start_s = start_s;
                Ok(server)
            }
            None => Err("the farm process did not announce its port".into()),
        }
    }

    /// Peak RSS (MB) of the farm process so far.
    fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb_of(&self.child.id().to_string())
    }

    /// Close the farm's stdin (its signal to exit) and wait for it.
    fn stop(&mut self) {
        drop(self.child.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    /// A round that panics must not leave its farm process behind.
    fn drop(&mut self) {
        self.stop();
    }
}

/// The line prefix a farm process announces itself with.
const READY: &str = "farm ready on port ";

/// `ldsim-benchmark serve --cache DIR --jobs N`: the farm process. Starts
/// the `Exec` and the HTTP listener on an ephemeral port, prints
/// `farm ready on port <port> <Exec::start seconds>` on stderr, and serves
/// until its stdin closes.
pub fn serve(args: &[String]) -> ExitCode {
    let (Some(cache), Some(jobs)) = (
        args.windows(2)
            .find(|w| w[0] == "--cache")
            .map(|w| PathBuf::from(&w[1])),
        args.windows(2)
            .find(|w| w[0] == "--jobs")
            .and_then(|w| w[1].parse::<usize>().ok())
            .filter(|&n| n > 0),
    ) else {
        eprintln!("error: serve takes --cache DIR --jobs N");
        return ExitCode::from(2);
    };
    ldsim_util::set_sim_threads(Some(1));
    let t = Instant::now();
    let exec = Exec::start(ExecConfig {
        cache_dir: cache,
        workers: jobs,
        ..Default::default()
    });
    let start_s = since(t);
    let handle = match spawn_server(exec, 0) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind the farm: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("{READY}{} {start_s}", handle.port);
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    ExitCode::SUCCESS
}

/// Poll `GET /v1/health` until it answers 200.
fn wait_healthy(port: u16) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..500 {
        match wire::request(HOST, port, "GET", "/v1/health", "") {
            Ok((200, _)) => return Ok(()),
            Ok((status, body)) => last = format!("health answered {status}: {body}"),
            Err(e) => last = e,
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Err(format!("farm never became healthy: {last}"))
}

pub fn run(args: &Args) -> Outcome {
    let workers = crate::host::host_threads();
    ldsim_util::set_jobs(Some(workers));
    ldsim_util::set_sim_threads(Some(1));
    let mut out = Outcome::default();
    out.meta("scale", "small");
    out.meta("jobs", workers);
    out.meta("sim_threads", 1);
    out.meta("clients", CLIENTS);
    let pool = pool(args.seed);
    out.meta(
        "pool",
        pool.iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );

    // Outside the timed rounds: the pre-warmed store and the expected bytes.
    let base = args.fresh_dir("farm-base");
    let mut ck = Checker::new();
    let reference = build_reference(args, &pool, &base, &mut ck);
    let menu: Vec<&'static str> = reference.specs[0].1.iter().map(|s| s.name).collect();
    let plan = plan(args.seed, &pool, &menu);
    out.meta("jobs_per_round", plan.iter().map(Vec::len).sum::<usize>());
    let store_dir = args.work.join("farm-store");

    let mut log = RoundLog::default();
    let (mut latencies, mut first_rows) = (Vec::new(), Vec::new());
    let min_rounds = if args.trace { 2 } else { 3 };
    rounds(args.seconds, min_rounds, |i| {
        let use_trace = args.trace && i % 2 == 1;
        let tr = Tracer::new(use_trace);
        copy_dir(&base, &store_dir);
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        if use_trace {
            m.extend(load_store(&tr, &store_dir, &reference.cells));
        }

        let cpu0 = crate::host::cpu_s();
        let t0 = Instant::now();
        let server = {
            let _s = tr.span("farm.start", None);
            Server::start(&store_dir, workers)
        };
        let mut server = match server {
            Ok(s) => s,
            Err(e) => {
                ck.fail(e);
                return;
            }
        };
        let port = server.port;
        if let Err(e) = wait_healthy(port) {
            ck.fail(e);
            return;
        }
        let setup = since(t0);
        let rtts: Vec<f64> = (0..HEALTH_PROBES)
            .map(|_| {
                let t = Instant::now();
                let _s = tr.span("http.health", None);
                let ok = matches!(
                    wire::request(HOST, port, "GET", "/v1/health", ""),
                    Ok((200, _))
                );
                ck.check(ok, || "health probe failed".into());
                since(t)
            })
            .collect();

        let t1 = Instant::now();
        let jobs: Vec<JobOut> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(c, seq)| {
                    let (reference, tr) = (&reference, &tr);
                    s.spawn(move || {
                        seq.iter()
                            .enumerate()
                            .map(|(j, job)| {
                                let id = (j * CLIENTS + c) as u64;
                                run_job(port, c, id, job, reference, tr)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = since(t1);
        let server_rss = server.peak_rss_mb();
        server.stop();
        // The farm process has been waited for, so its CPU is counted.
        let cpu = crate::host::cpu_s() - cpu0;
        let start_s = server.start_s;

        let mut sums = [0u64; 4];
        let mut rejected = 0u64;
        for j in &jobs {
            for (s, c) in sums.iter_mut().zip(j.counts) {
                *s += c;
            }
            rejected += j.rejected as u64;
            ck.check(j.error.is_none(), || j.error.clone().unwrap_or_default());
            ck.attempted += j.figures_checked;
            for f in &j.figures_failed {
                ck.fail(f.clone());
            }
        }
        let unique = sums[0].max(1) as f64;
        if use_trace {
            m.extend([
                ("exec.start_s", start_s),
                (
                    "exec.submit_s",
                    median(&jobs.iter().map(|j| j.submit).collect::<Vec<_>>()),
                ),
                ("exec.cached_frac", sums[1] as f64 / unique),
                ("exec.shared_frac", sums[2] as f64 / unique),
                ("exec.queued_frac", sums[3] as f64 / unique),
                ("exec.rejected", rejected as f64),
                ("http.health_rtt_s", median(&rtts)),
                ("render.s", time_renders(&tr, &reference, &plan)),
            ]);
            log.push(true, wall, m);
            out.spans.extend(tr.into_spans());
        } else {
            latencies.extend(jobs.iter().map(|j| j.latency));
            first_rows.extend(jobs.iter().filter_map(|j| j.first_row));
            log.push(
                false,
                wall,
                vec![
                    ("wall_s", wall),
                    ("cpu_s", cpu),
                    ("setup_s", setup),
                    ("peak_rss_mb", server_rss),
                    ("sim_minsn_per_s", reference.cold_insns as f64 / wall / 1e6),
                    ("jobs_per_s", jobs.len() as f64 / wall),
                ],
            );
        }
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    log.finish(&mut out);
    out.set_median("job_p50_s", &latencies);
    out.set_median("first_row_p50_s", &first_rows);
    if let Some(t) = tail(&latencies, TAIL_BEYOND) {
        out.set("job_tail_s", t.value);
        out.meta("job_tail_pct", t.pct);
        out.meta("job_tail_beyond", t.beyond);
    }
    if args.trace {
        for &(name, v) in &reference.model {
            out.set(name, v);
        }
    }
    out.check = ck;
    out
}

/// `ShardMap::open` + `parse_cache_line` over the fresh store copy — the
/// store reads the farm makes on start-up.
fn load_store(
    tr: &Tracer,
    dir: &Path,
    requested: &FnvHashMap<u64, Cell>,
) -> Vec<(&'static str, f64)> {
    let t = Instant::now();
    let loaded = tr.time("shard.load", None, || {
        crate::warm::load_rows(dir, requested)
    });
    vec![
        ("shard.load_s", since(t)),
        ("shard.rows_parsed", loaded.rows.len() as f64),
        ("shard.bytes", loaded.bytes as f64),
    ]
}

/// `FigureSpec::render` of every figure the round streamed, in process.
fn time_renders(tr: &Tracer, reference: &Reference, plan: &[Vec<Job>]) -> f64 {
    let dir = std::env::temp_dir().join("ldsim-benchmark-render");
    let mut total = 0.0;
    for job in plan.iter().flatten() {
        let (_, specs, store) = reference
            .specs
            .iter()
            .find(|(s, _, _)| *s == job.seed)
            .expect("pool seed");
        for name in &job.figures {
            let spec = specs.iter().find(|s| s.name == *name).expect("menu figure");
            crate::harness::reset_dir(&dir);
            let t = Instant::now();
            tr.time("render", None, || (spec.render)(store, &dir));
            total += since(t);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_pair_once_and_is_seeded() {
        let menu = ["a", "b", "c", "d", "e", "f", "g"];
        let pool = pool(3);
        let p = plan(3, &pool, &menu);
        assert_eq!(p.len(), CLIENTS);
        let mut pairs: Vec<(u64, &str)> = p
            .iter()
            .flatten()
            .flat_map(|j| j.figures.iter().map(move |f| (j.seed, *f)))
            .collect();
        assert!(p
            .iter()
            .flatten()
            .all(|j| (1..=4).contains(&j.figures.len())));
        pairs.sort_unstable();
        let mut want: Vec<(u64, &str)> = pool
            .iter()
            .flat_map(|&s| menu.iter().map(move |f| (s, *f)))
            .collect();
        want.sort_unstable();
        assert_eq!(pairs, want);
        assert_eq!(plan(3, &pool, &menu), p);
        assert_ne!(plan(4, &pool, &menu), p);
    }
}
