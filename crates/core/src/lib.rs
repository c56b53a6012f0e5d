//! Warp-aware DRAM scheduling — the contribution of *Chatterjee et al.,
//! "Managing DRAM Latency Divergence in Irregular GPGPU Applications",
//! SC 2014* (Section IV).
//!
//! The four schemes are one policy ([`WarpGroupPolicy`]) with three
//! composable features, mirroring how the paper builds them up:
//!
//! | scheme  | batching + SJF | coordination | MERB | write-aware |
//! |---------|:--:|:--:|:--:|:--:|
//! | `WG`    | x  |    |    |    |
//! | `WG-M`  | x  | x  |    |    |
//! | `WG-Bw` | x  | x  | x  |    |
//! | `WG-W`  | x  | x  | x  | x  |
//!
//! * **Warp-group batching + bank-aware shortest-job-first** (Section IV-B):
//!   requests of one dynamic load form a warp-group; the Bank-Table scoring
//!   of [`score`] estimates each complete group's drain time (row-hit = 1,
//!   row-miss = 3, plus the queued score of every bank it touches, maxed
//!   over banks); the group with the lowest score is serviced as a unit.
//! * **Multi-controller coordination** (Section IV-C): on selection, a
//!   controller broadcasts `(warp-group, local score)` on a narrow
//!   all-to-all network ([`coord::CoordNetwork`]); receivers cap the
//!   matching group's local score at the remote value, prioritising warps
//!   already receiving service elsewhere.
//! * **MERB bandwidth recovery** (Section IV-D): a row-miss from the
//!   selected group is postponed while the target bank's row-hit counter is
//!   below the boot-time MERB threshold and other groups still have row
//!   hits for that bank — plus the orphan-control rule that never leaves
//!   one or two stranded hits behind.
//! * **Warp-aware write draining** (Section IV-E): when the write queue is
//!   within `wgw_margin` entries of its high watermark, warp-groups with a
//!   single outstanding request are serviced first, regardless of score, so
//!   the imminent drain strands no nearly-complete warp.

#![forbid(unsafe_code)]

pub mod coord;
pub mod score;
pub mod wg;

pub use coord::CoordNetwork;
pub use wg::{make_policy, WarpGroupPolicy, WgFlags};
