//! SIMT GPU core model.
//!
//! The GPU side of the simulator (Section II-A/II-B of the paper): each SM
//! runs up to 48 resident warps in lockstep over the kernel IR, with a
//! greedy-then-oldest warp scheduler issuing one warp-instruction per
//! cycle. A vector load's 32 lane addresses pass through the
//! [`coalescer`], then the per-SM L1 ([`cache`]) with MSHR merging; the
//! surviving misses become the warp-group of DRAM-bound requests whose
//! latency divergence the paper studies. The warp blocks until every lane
//! is satisfied.
//!
//! Stores are fire-and-forget write-throughs to the L2 (writes are not on
//! the critical path; Section II-C) — they become DRAM traffic later, as
//! L2 write-back evictions.
//!
//! The [`xbar`] crossbar preserves per-source ordering (required by the
//! warp-group transfer-complete detection; Section IV-B.2) and arbitrates
//! one flit per destination per cycle.

#![forbid(unsafe_code)]

pub mod cache;
pub mod coalescer;
pub mod sm;
pub mod xbar;

pub use cache::{Cache, Mshr, MshrOutcome};
pub use coalescer::coalesce;
pub use sm::{LoadRecord, Sm, SmResponse};
pub use xbar::Crossbar;
