//! AC-FTE-style checkpoint/restart runtime for `replidedup`.
//!
//! The paper demonstrates its collective replication library inside the
//! AC-FTE fault-tolerance runtime, which transparently captures all memory
//! pages an application allocated and hands them to `DUMP_OUTPUT` at
//! checkpoint time. This crate reproduces that integration:
//!
//! * [`TrackedHeap`] — a page-granular arena standing in for the
//!   jemalloc-based transparent capture (chunk == 4 KiB page),
//! * [`CheckpointRuntime`] — drives collective checkpoints and restarts
//!   against a [`replidedup_storage::Cluster`],
//! * [`CheckpointSchedule`] — when to checkpoint (the paper's experiments
//!   use fixed iteration counts).

// The panic-lint inventory of this crate: none is allowed outside tests.
// A snapshot read back from storage is input, so a malformed one is a
// `RestartError::Corrupt`, never a panic; every other restart failure is
// another `RestartError`. The heap's invariant `assert!`s (zero page size,
// double free, use after free, a write past its region) flag caller bugs
// and are not linted. `clippy.toml` still lets test code unwrap/expect.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod heap;
pub mod runtime;

pub use heap::{RegionId, TrackedHeap, PAGE_SIZE};
pub use runtime::{CheckpointRuntime, CheckpointSchedule, RestartError};
