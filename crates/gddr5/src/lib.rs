//! Cycle-level GDDR5 device model.
//!
//! Models one GDDR5 channel as the paper configures it (Table II): two x32
//! chips operated in tandem as a single rank of 16 banks organised into 4
//! bank groups, a 64-bit data bus at 6 Gb/s/pin, and the full command timing
//! protocol (ACT / PRE / RD / WR with tRC, tRCD, tRP, tCAS, tRAS, tRRD,
//! tFAW, tWTR, tRTP, tCCDL/tCCDS, tRTRS, tWR, tBURST).
//!
//! The controller (in `ldsim-memctrl`) asks [`Channel::can_act`] /
//! [`Channel::can_read`] / … every cycle and issues at most one command per
//! cycle on the shared command bus; the device enforces every datasheet
//! constraint and tracks data-bus occupancy, which is also the source of the
//! bandwidth-utilisation statistic of Fig. 11.
//!
//! The crate also hosts:
//! * [`merb`] — the Minimum Efficient Row Burst table of Section IV-D
//!   (Table I), derived from the timing parameters at construction time;
//! * [`power`] — a Micron-power-calculator-style GDDR5 power model used for
//!   the Section VI-B energy analysis.

#![forbid(unsafe_code)]

pub mod audit;
pub mod bank;
pub mod channel;
pub mod merb;
pub mod power;

pub use audit::{CmdEvent, CmdKind, Rule, TimingAuditor, Violation};
pub use bank::{Bank, BankState};
pub use channel::{Channel, ChannelStats, Command};
pub use merb::MerbTable;
pub use power::{PowerModel, PowerParams};
