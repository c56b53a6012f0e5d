//! The cell executor: the one code path that turns a sweep [`Cell`] into a
//! [`RunResult`]. [`crate::sweep::run_sweep`] drives it as one batch;
//! `ldsim-server` keeps one alive as the farm's execution core.
//!
//! An [`Executor`] owns:
//!
//! * the worker pool, grown on demand up to its width (with width 0, the
//!   thread waiting for cells runs them), draining per-client FIFO queues
//!   round-robin so a bulk submitter cannot starve a one-figure client;
//! * the `pending` / `results` / `failed` maps every submitted cell
//!   resolves through, so a cell is queued at most once;
//! * one generated kernel per [`Cell::kernel_id`], built by the first
//!   worker that needs it while any other waits for it;
//! * per-cell failure capture: a panic while generating the kernel,
//!   simulating or appending the row fails *that cell*, named;
//! * the shard-store row index: every row carrying the executor's salt,
//!   by cellkey, as text (last append wins, as in compaction). A row is
//!   parsed when indexed and once more when a submission serves it,
//!   through [`crate::sweep::parse_cache_line`]. A fresh cell's row is
//!   appended to the store; its result serves the key from then on.
//!
//! [`Executor::start`] snapshots [`run_opts`] once: that one [`RunOpts`]
//! keys every cell and is what every cell runs under, so a key always
//! fingerprints exactly what was simulated.

use crate::metrics::RunResult;
use crate::runner::{run_one_kernel, run_opts, RunOpts};
use crate::shard::{envelope, CompactStats, ShardMap};
use crate::sweep::{cache_row, parse_cache_line, Cell, CellStore, KernelId, ENGINE_SALT_HISTORY};
use ldsim_types::config::SimConfig;
use ldsim_types::kernel::KernelProgram;
use ldsim_util::{FnvHashMap, FnvHashSet};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How an accepted submission resolved its cells: already resolved (in
/// memory, or a valid store row), shared with an earlier submission still
/// in flight, or newly queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    pub cached: usize,
    pub shared: usize,
    pub queued: usize,
}

#[derive(Default)]
struct State {
    /// One FIFO per client name, drained round-robin from `rr`.
    queues: Vec<(String, VecDeque<Cell>)>,
    rr: usize,
    /// Keys queued or running.
    pending: FnvHashSet<u64>,
    results: FnvHashMap<u64, RunResult>,
    failed: FnvHashMap<u64, String>,
    shutdown: bool,
}

impl State {
    /// Pop the next cell, visiting client queues round-robin so no client
    /// starves another.
    fn next_cell(&mut self) -> Option<Cell> {
        let n = self.queues.len();
        for off in 0..n {
            let i = (self.rr + off) % n;
            if let Some(cell) = self.queues[i].1.pop_front() {
                self.rr = (i + 1) % n;
                return Some(cell);
            }
        }
        None
    }
}

/// The shard map plus its rows carrying one salt, by cellkey.
struct RowIndex {
    map: ShardMap,
    rows: FnvHashMap<u64, String>,
    /// Non-blank lines read, indexed or not.
    lines: usize,
}

impl RowIndex {
    fn load(map: ShardMap, salt: &str) -> RowIndex {
        let (mut rows, mut lines) = (FnvHashMap::default(), 0);
        for path in map.shard_paths() {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => panic!("cannot read shard {}: {e}", path.display()),
            };
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                lines += 1;
                let p = ldsim_util::parse_object(line).ok();
                if let Some((key, _)) = p.as_ref().and_then(envelope).filter(|r| r.1 == salt) {
                    rows.insert(key, line.to_string());
                }
            }
        }
        RowIndex { map, rows, lines }
    }
}

/// No cell runs under an executor lock: one poisoned by a panic in the
/// executor's own bookkeeping or store I/O leaves nothing to trust.
const POISONED: &str = "executor lock poisoned";

/// The message a caught panic carries.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// The cell executor. Create with [`Executor::start`]; stop with
/// [`Executor::shutdown`], which joins the workers.
pub struct Executor {
    opts: RunOpts,
    salt: String,
    width: usize,
    state: Mutex<State>,
    /// Signalled when cells are enqueued (workers wait here).
    work: Condvar,
    /// Signalled when a cell resolves (waiters wait here).
    done: Condvar,
    /// `None` runs without a store. Lock order: `state` before `index`
    /// and before `workers`.
    index: Option<Mutex<RowIndex>>,
    kernels: Mutex<FnvHashMap<KernelId, Arc<OnceLock<KernelProgram>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// An executor that serves and appends rows tagged `salt` in `store`
    /// (`None` = no store) and spawns up to `workers` threads as work
    /// arrives. With no workers, [`Self::wait`] runs queued cells on the
    /// waiting thread.
    pub fn start(store: Option<ShardMap>, salt: &str, workers: usize) -> Arc<Executor> {
        Arc::new(Executor {
            opts: run_opts(),
            salt: salt.to_string(),
            width: workers,
            state: Mutex::default(),
            work: Condvar::new(),
            done: Condvar::new(),
            index: store.map(|map| Mutex::new(RowIndex::load(map, salt))),
            kernels: Mutex::default(),
            workers: Mutex::default(),
        })
    }

    /// (rows indexed, non-blank lines read) of the store; zeros without
    /// one.
    pub fn store_rows(&self) -> (usize, usize) {
        self.index.as_ref().map_or((0, 0), |i| {
            let i = i.lock().expect(POISONED);
            (i.rows.len(), i.lines)
        })
    }

    /// Dedupe `cells` by key (first declaration wins) and resolve each
    /// unique cell for `client`: cached, shared with an earlier
    /// submission, served from a valid store row, or enqueued. Before
    /// anything is committed, `admit(inflight, client_queued, queue)` sees
    /// the cells queued or running across all clients, those waiting in
    /// `client`'s queue, and the cells this submission would enqueue, in
    /// order (it may truncate them); if it refuses, nothing changes.
    /// Returns the unique cells and how they resolved.
    pub fn submit<'a, E>(
        self: &Arc<Self>,
        client: &str,
        cells: impl IntoIterator<Item = &'a Cell>,
        admit: impl FnOnce(usize, usize, &mut Vec<Cell>) -> Result<(), E>,
    ) -> Result<(Vec<Cell>, Submitted), E> {
        let mut state = self.state.lock().expect(POISONED);
        let (mut cached, mut shared, mut seen) = (0, 0, FnvHashSet::default());
        let (mut unique, mut hits, mut queue) = (Vec::new(), Vec::new(), Vec::new());
        let index = self.index.as_ref().map(|i| i.lock().expect(POISONED));
        for &cell in cells {
            let key = cell.key(self.opts);
            if !seen.insert(key) {
                continue;
            }
            unique.push(cell);
            let row = || index.as_ref()?.rows.get(&key);
            if state.results.contains_key(&key) || state.failed.contains_key(&key) {
                cached += 1;
            } else if state.pending.contains(&key) {
                shared += 1;
            } else if let Some((_, result)) = row().and_then(|row| {
                let requested = FnvHashMap::from_iter([(key, cell)]);
                parse_cache_line(row, &self.salt, &requested, self.opts)
            }) {
                cached += 1;
                hits.push((key, result));
            } else {
                queue.push(cell);
            }
        }
        drop(index);
        let qi = state.queues.iter().position(|q| q.0 == client);
        let client_queued = qi.map_or(0, |i| state.queues[i].1.len());
        admit(state.pending.len(), client_queued, &mut queue)?;
        state.results.extend(hits);
        let qi = qi.unwrap_or_else(|| {
            state.queues.push((client.to_string(), VecDeque::new()));
            state.queues.len() - 1
        });
        state.queues[qi].1.extend(&queue);
        state.pending.extend(queue.iter().map(|c| c.key(self.opts)));
        let mut workers = self.workers.lock().expect(POISONED);
        while workers.len() < self.width.min(state.pending.len()) {
            let exec = self.clone();
            workers.push(std::thread::spawn(move || exec.work_loop()));
        }
        drop((state, workers));
        self.work.notify_all();
        let queued = queue.len();
        let submitted = Submitted {
            cached,
            shared,
            queued,
        };
        Ok((unique, submitted))
    }

    /// Block until none of `cells` is queued or running (running queued
    /// cells here if the executor has no workers). `Err` is the
    /// first failure in `cells` order, as soon as it happens; otherwise a
    /// store of every resolved cell (a cell never submitted is absent).
    pub fn wait(&self, cells: &[Cell]) -> Result<CellStore, String> {
        let keys: Vec<u64> = cells.iter().map(|c| c.key(self.opts)).collect();
        let mut state = self.state.lock().expect(POISONED);
        loop {
            if let Some(e) = keys.iter().find_map(|k| state.failed.get(k)) {
                return Err(e.clone());
            }
            if !keys.iter().any(|k| state.pending.contains(k)) {
                break;
            }
            if self.width == 0 {
                if let Some(cell) = state.next_cell() {
                    drop(state);
                    self.execute(cell);
                    state = self.state.lock().expect(POISONED);
                    continue;
                }
            }
            state = self.done.wait(state).expect(POISONED);
        }
        let mut store = CellStore::new(self.opts);
        for (cell, key) in cells.iter().zip(&keys) {
            if let Some(r) = state.results.get(key) {
                store.insert(cell, r.clone());
            }
        }
        Ok(store)
    }

    /// How many of `cells` have resolved (succeeded or failed), and the
    /// first failure in `cells` order.
    pub fn progress(&self, cells: &[Cell]) -> (usize, Option<String>) {
        let state = self.state.lock().expect(POISONED);
        let (mut done, mut error) = (0, None);
        for key in cells.iter().map(|c| c.key(self.opts)) {
            done += state.results.contains_key(&key) as usize;
            if let Some(e) = state.failed.get(&key) {
                done += 1;
                error = error.or_else(|| Some(e.clone()));
            }
        }
        (done, error)
    }

    /// Point-in-time (pending, completed, failed) cell counts.
    pub fn health(&self) -> (usize, usize, usize) {
        let state = self.state.lock().expect(POISONED);
        (state.pending.len(), state.results.len(), state.failed.len())
    }

    /// Compact the store (newest valid row per key, stale-salt eviction)
    /// and re-index the surviving rows; a no-op without a store.
    pub fn compact(&self) -> CompactStats {
        let Some(index) = &self.index else {
            return CompactStats::default();
        };
        let mut index = index.lock().expect(POISONED);
        let stats = index.map.compact(ENGINE_SALT_HISTORY);
        *index = RowIndex::load(index.map.clone(), &self.salt);
        stats
    }

    /// Stop the pool and join its workers: each finishes its running cell;
    /// queued cells are dropped.
    pub fn shutdown(&self) {
        self.state.lock().expect(POISONED).shutdown = true;
        self.work.notify_all();
        for w in std::mem::take(&mut *self.workers.lock().expect(POISONED)) {
            w.join()
                .expect("an executor worker panicked outside a cell");
        }
    }

    fn work_loop(&self) {
        loop {
            let cell = {
                let mut state = self.state.lock().expect(POISONED);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(c) = state.next_cell() {
                        break c;
                    }
                    state = self.work.wait(state).expect(POISONED);
                }
            };
            self.execute(cell);
        }
    }

    /// Run one cell and resolve it: its result, or its failure named.
    fn execute(&self, cell: Cell) {
        let key = cell.key(self.opts);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.run(&cell, key)));
        let mut state = self.state.lock().expect(POISONED);
        state.pending.remove(&key);
        match outcome {
            Ok(result) => {
                state.results.insert(key, result);
            }
            Err(p) => {
                let msg = format!("{cell} failed: {}", panic_message(p));
                state.failed.insert(key, msg);
            }
        }
        drop(state);
        self.done.notify_all();
    }

    /// Generate (or share) the cell's kernel, simulate the cell under the
    /// executor's options, and append its row to the store.
    fn run(&self, cell: &Cell, key: u64) -> RunResult {
        let mut kernels = self.kernels.lock().expect(POISONED);
        let slot = Arc::clone(kernels.entry(cell.kernel_id()).or_default());
        drop(kernels);
        let kernel = slot.get_or_init(|| {
            ldsim_workloads::benchmark(cell.bench, cell.scale, cell.seed).generate()
        });
        let result = run_one_kernel(kernel, cell.bench, cell.scale, cell.seed, cell.kind, |c| {
            *c = SimConfig {
                instruction_limit: c.instruction_limit,
                ..cell.config(self.opts)
            }
        });
        if let Some(index) = &self.index {
            assert!(
                result.hists.is_none(),
                "refusing to cache an armed-histogram run ({}/{:?}): \
                 distributions do not round-trip through the cell cache — \
                 run without a cache (repro --hist) instead",
                cell.bench,
                cell.kind
            );
            // Appended, not indexed: the result itself now serves the key.
            let row = cache_row(cell, self.opts, &self.salt, &result);
            index.lock().expect(POISONED).map.append(key, &row);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepConfig, ENGINE_SALT};
    use ldsim_types::config::SchedulerKind;
    use ldsim_workloads::Scale;

    fn cell(bench: &'static str) -> Cell {
        Cell::new(bench, Scale::Tiny, 7, SchedulerKind::Gmc)
    }

    #[test]
    fn queues_drain_round_robin_across_clients() {
        // Fairness is a scheduling property of `State`, pinned directly:
        // with two clients holding queued work, draining must alternate —
        // a bulk submitter cannot starve a one-figure client.
        let mut state = State::default();
        state.queues.push(("alice".into(), [cell("bfs"); 3].into()));
        state.queues.push(("bob".into(), [cell("spmv"); 2].into()));
        let order: Vec<&str> = std::iter::from_fn(|| state.next_cell())
            .map(|c| c.bench)
            .collect();
        assert_eq!(order, ["bfs", "spmv", "bfs", "spmv", "bfs"]);
        assert!(state.next_cell().is_none());
    }

    #[test]
    fn generation_failure_fails_only_that_cell() {
        // On a pool, and with no workers (the waiting thread runs cells).
        let _guard = crate::runner::test_opts_lock();
        for workers in [2, 0] {
            let exec = Executor::start(None, ENGINE_SALT, workers);
            let (bad, good) = (cell("not-a-benchmark"), cell("bfs"));
            let (_, s) = exec
                .submit("t", &[bad, good], |_, _, _| Ok::<(), ()>(()))
                .unwrap();
            assert_eq!(s.queued, 2);
            let err = exec.wait(&[bad]).unwrap_err();
            assert!(
                err.contains(
                    "not-a-benchmark/Gmc at Tiny seed 7 failed: unknown benchmark 'not-a-benchmark'"
                ),
                "{err}"
            );
            assert_eq!(exec.wait(&[good]).unwrap().len(), 1);
            assert_eq!(exec.progress(&[bad, good]), (2, Some(err)));
            // The executor keeps serving after the failure.
            let later = cell("spmv");
            exec.submit("t", &[later], |_, _, _| Ok::<(), ()>(()))
                .unwrap();
            assert_eq!(exec.wait(&[later]).unwrap().len(), 1);
            assert_eq!(exec.health(), (0, 2, 1));
            exec.shutdown();
        }
    }

    #[test]
    #[should_panic(expected = "not-a-benchmark/Gmc at Tiny seed 7 failed: unknown benchmark")]
    fn run_sweep_panics_naming_a_cell_whose_kernel_fails() {
        let _guard = crate::runner::test_opts_lock();
        run_sweep(
            &[cell("not-a-benchmark"), cell("bfs")],
            &SweepConfig::default(),
        );
    }
}
