//! Synthetic GPGPU workload generators.
//!
//! The paper evaluates eleven irregular benchmarks (Table III: Rodinia,
//! MARS, LonestarGPU, Parboil) and six regular ones (Section VI-A). The
//! original CUDA binaries cannot run here, so each benchmark is modelled by
//! a generator that produces the *memory behaviour* the paper reports for
//! it (DESIGN.md substitution #2):
//!
//! * the fraction of divergent loads and their post-coalescing fan-out
//!   (Fig. 2: 56% divergent, ~5.9 requests per load on average),
//! * intra-warp row locality (~30% of a warp's requests share a DRAM row)
//!   and bank/channel spread (~2 banks, ~2.5 channels per warp; Fig. 3),
//! * write intensity (Fig. 12: high for nw, SS, sad; low for graph codes),
//! * a hot working subset that gives the caches their (poor) hit rates.
//!
//! Profiles ([`profile::BenchProfile`]) hold these targets per benchmark;
//! [`gen`] turns a profile into a [`KernelProgram`] via seeded RNG, and the
//! `calibration` experiment binary asserts the suite's aggregate statistics
//! stay inside the paper's reported ranges.

#![forbid(unsafe_code)]

pub mod gen;
pub mod microbench;
pub mod profile;

pub use gen::{benchmark, benchmark_with_mem, BenchmarkGen, Scale};
pub use microbench::{Microbench, MICROBENCHES};
pub use profile::{BenchProfile, IRREGULAR, REGULAR};
