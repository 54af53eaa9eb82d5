//! Paper reproduction harness for `replidedup`.
//!
//! * [`workloads`] — checkpoint-content generators (real mini-app runs),
//! * [`experiments`] — one function per table/figure of the paper,
//! * [`report`] — text-table and CSV rendering.
//!
//! The `repro` binary regenerates everything:
//! `cargo run -p replidedup-bench --release --bin repro -- all`.
//! Performance is measured by the standalone `benchmark/` package, not
//! here; recovery correctness (node loss, healer and dump crashes,
//! corruption, gc) by the root package's `tests/healing.rs`.

pub mod experiments;
pub mod report;
pub mod workloads;
