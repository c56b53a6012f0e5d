//! # ldsim — warp-aware DRAM scheduling for irregular GPGPU applications
//!
//! A full-system reproduction of *Chatterjee, O'Connor, Loh, Jayasena,
//! Balasubramonian — "Managing DRAM Latency Divergence in Irregular GPGPU
//! Applications", SC 2014*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — configuration (Table II defaults), addresses, requests,
//!   the kernel IR and statistics primitives,
//! * [`gddr5`] — the cycle-level GDDR5 device model (timing legality,
//!   bank groups, data bus, MERB table, power model),
//! * [`memctrl`] — the memory controller framework and the baseline
//!   schedulers (GMC, FCFS, FR-FCFS, WAFCFS, SBWAS, ideal models),
//! * [`warpsched`] — the paper's contribution: WG / WG-M / WG-Bw / WG-W,
//! * [`gpu`] — the SIMT core model, coalescer, caches and interconnect,
//! * [`workloads`] — synthetic benchmark generators calibrated to the
//!   paper's workload characteristics,
//! * [`system`] — the full-system simulator and the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use ldsim::prelude::*;
//!
//! // A small irregular kernel on a scaled-down machine, GMC vs WG-W.
//! let scale = ldsim::workloads::Scale::Tiny;
//! let kernel = ldsim::workloads::benchmark("bfs", scale, 7).generate();
//! let mut cfg = SimConfig::default();
//! cfg.gpu.num_sms = kernel.programs.len();
//!
//! let base = Simulator::new(cfg.clone().with_scheduler(SchedulerKind::Gmc), &kernel).run();
//! let wgw = Simulator::new(cfg.with_scheduler(SchedulerKind::WgW), &kernel).run();
//! assert!(base.finished && wgw.finished);
//! ```

#![forbid(unsafe_code)]

pub use ldsim_gddr5 as gddr5;
pub use ldsim_gpu as gpu;
pub use ldsim_memctrl as memctrl;
pub use ldsim_system as system;
pub use ldsim_types as types;
pub use ldsim_util as util;
pub use ldsim_warpsched as warpsched;
pub use ldsim_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use ldsim_system::{RunResult, Simulator};
    pub use ldsim_types::{
        GpuConfig, Instruction, KernelProgram, MemConfig, SchedulerKind, SimConfig, WarpProgram,
    };
    pub use ldsim_workloads::{benchmark, Scale};
}
