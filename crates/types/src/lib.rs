//! Shared types for the `ldsim` warp-aware DRAM scheduling simulator.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`ids`] — strongly-typed identifiers for SMs, warps, channels, banks
//!   and warp-groups,
//! * [`clock`] — the simulation clock (GDDR5 command-clock domain),
//! * [`config`] — the full system configuration, whose defaults reproduce
//!   Table II of the paper (GTX-480-class GPU, Hynix GDDR5),
//! * [`addr`] — the GPU address mapping with the XOR channel hash and the
//!   permutation-based bank hash described in Section II-C,
//! * [`req`] — memory request/response records flowing between the SMs and
//!   the memory partitions,
//! * [`kernel`] — the tiny instruction IR executed by the SIMT core model,
//! * [`stats`] — counters, histograms and running means used by every
//!   component's statistics.

#![forbid(unsafe_code)]

pub mod addr;
pub mod analytic;
pub mod clock;
pub mod config;
pub mod ids;
pub mod kernel;
pub mod req;
pub mod stats;

pub use addr::{AddressMapper, DecodedAddr};
pub use analytic::AnalyticLatency;
pub use clock::Cycle;
pub use config::{CacheConfig, GpuConfig, MemConfig, SchedulerKind, SimConfig, TimingParams};
pub use ids::{BankId, ChannelId, GlobalWarpId, LaneMask, RequestId, SmId, WarpGroupId, WarpId};
pub use kernel::{Instruction, KernelProgram, WarpProgram};
pub use req::{MemRequest, MemResponse, ReqKind};
