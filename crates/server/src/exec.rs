//! The farm's job and figure layer over the shared cell executor.
//!
//! Cell execution — per-client round-robin queues, cross-client dedupe,
//! kernel sharing, per-cell failure capture and the shard-store row index
//! — is [`ldsim_system::Executor`], the same executor `run_sweep` drives.
//! [`Exec`] adds what only a farm needs: the registry lookup, atomic
//! admission, the job table, and per-figure waits and renders.
//!
//! ## Dedupe order
//!
//! A submitted cell is resolved against, in order: results already in
//! memory (`cached`), cells another job is currently queueing or running
//! (`shared` — the submitter simply waits on the same completion), and the
//! sharded disk store (validated through the same checks as
//! [`ldsim_system::sweep::parse_cache_line`]). Only cells that survive all
//! three go to the submitter's queue. Two clients asking for overlapping
//! grids therefore cost one simulation per unique cell, which is the
//! entire point of running a farm.
//!
//! ## Fairness & backpressure
//!
//! Each client name owns a bounded FIFO queue; workers drain the queues
//! round-robin, so a client submitting the Full grid cannot starve one
//! asking for a single figure. Two hard caps reject work *atomically* at
//! submit time (nothing is enqueued on rejection): a global in-flight cell
//! cap ([`Rejection::OverCapacity`]) and a per-client queue bound
//! ([`Rejection::ClientQueueFull`]) — the wire layer maps both to named
//! `429` replies.
//!
//! ## Instruction counts
//!
//! Before a figure renders, its cells go through the same cross-scheduler
//! instruction-count check `run_sweep` applies
//! ([`verify_instruction_consistency`]); a job's status applies it to all
//! of the job's cells once they have resolved. A mismatch fails the figure
//! and the job instead of streaming rows that disagree.

use ldsim_bench::figures::registry;
use ldsim_system::executor::panic_message;
use ldsim_system::sweep::FigureSpec;
use ldsim_system::{
    verify_instruction_consistency, Cell, CellStore, CompactStats, Executor, ShardMap, Submitted,
    ENGINE_SALT,
};
use ldsim_workloads::Scale;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How an [`Exec`] runs: where the shard store lives and the pool bounds.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Shard-directory root of the cell store.
    pub cache_dir: PathBuf,
    /// Shard count for a fresh store (an existing `shards.meta` wins).
    pub shards: usize,
    /// Worker threads simulating cells (spawned as work arrives).
    pub workers: usize,
    /// Hard cap on cells queued-or-running across all clients.
    pub max_inflight: usize,
    /// Bound on any one client's queue.
    pub queue_cap: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            cache_dir: PathBuf::from("results/cellcache"),
            shards: ldsim_system::DEFAULT_SHARDS,
            workers: ldsim_util::jobs(),
            max_inflight: 4096,
            queue_cap: 1024,
        }
    }
}

/// One job submission, already parsed off the wire.
#[derive(Debug, Clone)]
pub struct JobRequest {
    pub client: String,
    pub scale: Scale,
    pub seed: u64,
    /// `None` = the full registry (every figure).
    pub figures: Option<Vec<String>>,
}

/// What [`Exec::submit`] accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReply {
    pub job: u64,
    /// Cells declared across the job's figures (with duplicates).
    pub declared: usize,
    /// Unique cells after dedupe within the job.
    pub unique: usize,
    /// How those unique cells resolved: cached, shared or queued.
    pub cells: Submitted,
}

/// Why a submission was refused. Nothing is enqueued on rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// A requested figure name is not in the registry → `400`.
    UnknownFigure(String),
    /// Accepting the job would exceed the global in-flight cap → `429`.
    OverCapacity {
        inflight: usize,
        adding: usize,
        cap: usize,
    },
    /// The client's own queue cannot hold the job → `429`.
    ClientQueueFull {
        client: String,
        queued: usize,
        adding: usize,
        cap: usize,
    },
}

impl Rejection {
    /// The wire-protocol error name (DESIGN.md §19).
    pub fn name(&self) -> &'static str {
        match self {
            Rejection::UnknownFigure(_) => "unknown_figure",
            Rejection::OverCapacity { .. } => "over_capacity",
            Rejection::ClientQueueFull { .. } => "client_queue_full",
        }
    }

    pub fn detail(&self) -> String {
        match self {
            Rejection::UnknownFigure(name) => format!("no figure named '{name}' in the registry"),
            Rejection::OverCapacity {
                inflight,
                adding,
                cap,
            } => format!(
                "{inflight} cell(s) in flight + {adding} new would exceed the \
                 max-inflight cap of {cap} — retry when the farm drains"
            ),
            Rejection::ClientQueueFull {
                client,
                queued,
                adding,
                cap,
            } => format!(
                "client '{client}' has {queued} cell(s) queued + {adding} new \
                 would exceed the per-client queue cap of {cap}"
            ),
        }
    }
}

/// A job's point-in-time progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// `"running"`, `"done"`, or `"failed"`.
    pub state: &'static str,
    /// Unique cells the job needs.
    pub total: usize,
    /// Of those, how many are resolved (succeeded or failed).
    pub done: usize,
    /// First failure message, if any cell failed.
    pub error: Option<String>,
}

/// One figure's rendered output, for streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureOutput {
    /// The figure wrote `<file>` — `content` is its exact bytes.
    File { file: String, content: String },
    /// The figure renders tables to stdout only (fig05, the tables…).
    NoFile,
    /// A cell the figure needs failed, or the render itself panicked.
    Failed { error: String },
}

struct Job {
    specs: Arc<Vec<FigureSpec>>,
    /// Unique cells the job resolves against (status accounting).
    cells: Vec<Cell>,
}

/// The farm core. Create with [`Exec::start`]; share via `Arc`.
pub struct Exec {
    cfg: ExecConfig,
    core: Arc<Executor>,
    /// Indexed by job id.
    jobs: Mutex<Vec<Job>>,
    render_seq: AtomicU64,
}

impl Exec {
    /// Open the shard store, index its rows, and start the executor.
    pub fn start(cfg: ExecConfig) -> Arc<Exec> {
        assert!(cfg.workers > 0, "worker pool cannot be empty");
        assert!(cfg.max_inflight > 0 && cfg.queue_cap > 0);
        let store = Some(ShardMap::open(&cfg.cache_dir, cfg.shards));
        Arc::new(Exec {
            core: Executor::start(store, ENGINE_SALT, cfg.workers),
            cfg,
            jobs: Mutex::new(Vec::new()),
            render_seq: AtomicU64::new(0),
        })
    }

    /// Nothing panics while holding the job table.
    fn job_table(&self) -> std::sync::MutexGuard<'_, Vec<Job>> {
        self.jobs.lock().expect("job table lock poisoned")
    }

    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Rows indexed from the current-salt disk store at start or at the
    /// last compaction.
    pub fn indexed_rows(&self) -> usize {
        self.core.store_rows().0
    }

    /// Accept or reject one job. On acceptance the job's new cells are
    /// enqueued and workers woken; on rejection *nothing* changes.
    pub fn submit(&self, req: &JobRequest) -> Result<SubmitReply, Rejection> {
        let mut specs = registry(req.scale, req.seed);
        if let Some(names) = &req.figures {
            if let Some(n) = names.iter().find(|n| !specs.iter().any(|s| s.name == *n)) {
                return Err(Rejection::UnknownFigure(n.clone()));
            }
            specs.retain(|s| names.iter().any(|n| n == s.name));
        }
        let declared: usize = specs.iter().map(|s| s.cells.len()).sum();
        // Admission: the global in-flight cap, then the client's queue
        // bound, both checked before the executor commits anything.
        let cfg = &self.cfg;
        let admit = |inflight, queued, adding: &mut Vec<Cell>| {
            let adding = adding.len();
            if inflight + adding > cfg.max_inflight {
                return Err(Rejection::OverCapacity {
                    inflight,
                    adding,
                    cap: cfg.max_inflight,
                });
            }
            if queued + adding > cfg.queue_cap {
                return Err(Rejection::ClientQueueFull {
                    client: req.client.clone(),
                    queued,
                    adding,
                    cap: cfg.queue_cap,
                });
            }
            Ok(())
        };
        let declared_cells = specs.iter().flat_map(|s| &s.cells);
        let (cells, submitted) = self.core.submit(&req.client, declared_cells, admit)?;
        let unique = cells.len();
        let mut jobs = self.job_table();
        jobs.push(Job {
            specs: Arc::new(specs),
            cells,
        });
        Ok(SubmitReply {
            job: jobs.len() as u64 - 1,
            declared,
            unique,
            cells: submitted,
        })
    }

    pub fn status(&self, job: u64) -> Option<JobStatus> {
        let cells = self.job_table().get(job as usize)?.cells.clone();
        let (done, mut error) = self.core.progress(&cells);
        if error.is_none() && done == cells.len() {
            error = self.checked(&cells).err();
        }
        let state = match (&error, done == cells.len()) {
            (Some(_), _) => "failed",
            (None, true) => "done",
            (None, false) => "running",
        };
        Some(JobStatus {
            state,
            total: cells.len(),
            done,
            error,
        })
    }

    /// How many figures a job declares (`None` = unknown job).
    pub fn figure_count(&self, job: u64) -> Option<usize> {
        Some(self.job_table().get(job as usize)?.specs.len())
    }

    /// Block until figure `idx` of `job` can render, render it into a
    /// private scratch directory, and return its name plus output bytes.
    /// `None` = unknown job or figure index.
    pub fn wait_figure(&self, job: u64, idx: usize) -> Option<(&'static str, FigureOutput)> {
        let specs = self.job_table().get(job as usize)?.specs.clone();
        let spec = specs.get(idx)?;
        let name = spec.name;
        let store = match self.checked(&spec.cells) {
            Ok(store) => store,
            Err(error) => return Some((name, FigureOutput::Failed { error })),
        };

        // Render into a fresh scratch dir so concurrent streams of the
        // same figure never race on one file.
        let dir = std::env::temp_dir().join(format!(
            "ldsim-server-render-{}-{}",
            std::process::id(),
            self.render_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let rendered = std::panic::catch_unwind(AssertUnwindSafe(|| (spec.render)(&store, &dir)));
        let output = match rendered {
            Err(p) => FigureOutput::Failed {
                error: format!("render of '{name}' panicked: {}", panic_message(p)),
            },
            Ok(()) => {
                let file = format!("{name}.jsonl");
                match std::fs::read_to_string(dir.join(&file)) {
                    Ok(content) => FigureOutput::File { file, content },
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => FigureOutput::NoFile,
                    Err(e) => panic!("cannot read rendered {file}: {e}"),
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        Some((name, output))
    }

    /// Wait for `cells`, then hold them to the cross-scheduler
    /// instruction-count check `run_sweep` applies.
    fn checked(&self, cells: &[Cell]) -> Result<CellStore, String> {
        let store = self.core.wait(cells)?;
        verify_instruction_consistency(cells, &store)?;
        Ok(store)
    }

    /// Compact the shard store (newest valid row per key, stale-salt
    /// eviction) and re-index the surviving rows.
    pub fn compact(&self) -> CompactStats {
        self.core.compact()
    }

    /// Point-in-time (pending, completed, failed, jobs) counters for
    /// `/v1/health`.
    pub fn health(&self) -> (usize, usize, usize, usize) {
        let (pending, completed, failed) = self.core.health();
        (pending, completed, failed, self.job_table().len())
    }

    /// Stop the worker pool and join it (used by tests; the server runs
    /// forever).
    pub fn shutdown(&self) {
        self.core.shutdown();
    }
}

/// Parse a wire scale name (`tiny|small|full`).
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejections_carry_wire_names() {
        assert_eq!(
            Rejection::UnknownFigure("x".into()).name(),
            "unknown_figure"
        );
        let r = Rejection::OverCapacity {
            inflight: 9,
            adding: 5,
            cap: 10,
        };
        assert_eq!(r.name(), "over_capacity");
        assert!(r.detail().contains("cap of 10"));
        let r = Rejection::ClientQueueFull {
            client: "ci".into(),
            queued: 3,
            adding: 4,
            cap: 5,
        };
        assert_eq!(r.name(), "client_queue_full");
        assert!(r.detail().contains("'ci'"));
    }

    #[test]
    fn parse_scale_is_the_wire_grammar() {
        assert_eq!(parse_scale("tiny"), Some(Scale::Tiny));
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("Tiny"), None, "the wire is lowercase-only");
        assert_eq!(parse_scale(""), None);
    }
}
