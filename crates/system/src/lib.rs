//! Full-system simulator: SMs ↔ crossbar ↔ memory partitions (L2 slice +
//! GDDR5 controller), plus the metric collectors and the experiment runner
//! that regenerate the paper's tables and figures.
//!
//! The cycle loop (all components share the GDDR5 command clock):
//!
//! 1. each memory controller advances one cycle (command issue, drains,
//!    completions) and its responses flow back into the partition's L2;
//! 2. coordination messages travel on the [`ldsim_warpsched::CoordNetwork`];
//! 3. partitions process crossbar arrivals through the L2 (hits absorbed,
//!    misses forwarded, write-backs generated) and push SM-bound responses
//!    into the response crossbar;
//! 4. SMs wake warps, issue instructions, and inject new warp-groups into
//!    the request crossbar.
//!
//! [`Simulator::run`] returns a [`RunResult`] carrying every statistic the
//! paper's evaluation plots: IPC, effective memory latency, DRAM latency
//! divergence, bandwidth utilisation, row-hit rate, write intensity,
//! drain-stall classification and the DRAM power estimate.

#![forbid(unsafe_code)]

pub mod diff;
pub mod metrics;
pub mod partition;
#[cfg(test)]
mod partition_tests;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod sweep;
pub mod table;
pub mod trace;

pub use diff::{differential_check, DiffCell, DiffReport};
pub use metrics::{RunHists, RunResult};
pub use runner::{run_grid, run_one, run_one_kernel, run_opts, set_run_opts, GridCell, RunOpts};
pub use shard::{CompactStats, ShardMap};
pub use sim::{Simulator, SyncStats};
pub use sweep::{
    config_fingerprint, run_sweep, salt_generation, Cell, CellStore, CfgTweak, FigureSpec,
    SweepConfig, SweepStats, DEFAULT_SHARDS, ENGINE_SALT, ENGINE_SALT_HISTORY,
};
pub use table::Table;
pub use trace::{Trace, WgEvent, WgStage};
