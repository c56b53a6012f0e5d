//! Fig. 8 — Performance normalised to the GMC baseline.
//!
//! IPC of WG / WG-M / WG-Bw / WG-W relative to GMC for every irregular
//! benchmark, with the geometric mean. Paper: +3.4% / +6.2% / +8.4% /
//! +10.1%. This reproduction does not preserve that ladder: at Full scale,
//! seed 1, the WG, WG-M and WG-W gmeans sit below GMC and WG-Bw at parity,
//! all within single-seed noise. EXPERIMENTS.md §Fig. 8 discusses why;
//! ROADMAP item 4 holds the oracle-bound experiment meant to settle it.

fn main() {
    ldsim_bench::figures::standalone_main("fig08");
}
