//! Paper reproduction harness for `replidedup`.
//!
//! * [`workloads`] — checkpoint-content generators (real mini-app runs),
//! * [`experiments`] — one function per table/figure of the paper,
//! * [`drill`] — scripted recovery drills (fail → heal under live
//!   traffic → verify) behind `repro --drill`,
//! * [`report`] — text-table and CSV rendering.
//!
//! The `repro` binary regenerates everything:
//! `cargo run -p replidedup-bench --release --bin repro -- all`.
//! Performance is measured by the standalone `benchmark/` package, not
//! here.

pub mod drill;
pub mod experiments;
pub mod report;
pub mod workloads;
