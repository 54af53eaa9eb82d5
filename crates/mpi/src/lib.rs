//! In-process message-passing runtime with MPI-style semantics.
//!
//! `replidedup` reproduces the IPDPS'15 collective-replication paper on a
//! single machine: each MPI rank becomes an OS thread, point-to-point
//! messaging uses matched `(source, tag)` channels with an
//! unexpected-message queue, and the three collectives the paper's
//! Algorithm 1 needs (`barrier`, `allreduce` with a user operator,
//! `allgather`) use the textbook algorithms a real MPI library would pick;
//! a flat gather-scatter lets the recovery collectives plan once at a
//! root rank.
//! One-sided communication is provided through [`Window`]s mirroring
//! `MPI_Win_create` / `MPI_Put` / `MPI_Win_fence`, which is what the
//! paper's single-sided exchange phase uses. Each rank owns one mailbox;
//! window creation sends no messages of its own, because ranks trade
//! window handles through a world-shared table read after the opening
//! fence.
//!
//! Library code uses the fallible `try_*` operations, which surface a dead
//! peer as a [`CommError`]; ranks sleep through [`Comm::sleep`], the one
//! sanctioned sleep.
//!
//! Every transfer is byte-accounted per rank ([`stats`]); the evaluation
//! harness feeds these exact counts to `replidedup-sim` to recover
//! cluster-scale timings.
//!
//! # Example
//!
//! ```
//! use replidedup_mpi::WorldConfig;
//!
//! let out = WorldConfig::default().launch(4, |comm| {
//!     let sum = comm.allreduce(u64::from(comm.rank()), |a, b| a + b);
//!     let all = comm.allgather(comm.rank());
//!     assert_eq!(all, vec![0, 1, 2, 3]);
//!     sum
//! }).expect_all();
//! assert!(out.results.iter().all(|&s| s == 6));
//! ```

// The panic-lint inventory of this crate. Every module sits under
// dump's typed-error contract: a dead peer, an undecodable block or
// frame, a misordered create, a failed thread spawn or a poisoned lock is
// a `CommError`, a `WireError`, an `Err` result or a recovered guard,
// never a panic. Allowed where they stand: `comm`'s panics (an injected
// crash fault unwinds its rank, and `Launch::expect_all` panics by
// contract), the benchmark seam's six panicking twins (`barrier`,
// `allreduce`, `allgather`, `win_create`, `put_chunk`, `fence`) and
// `sched::spawn`'s one `expect`. Invariant `assert!`s, such as the
// window overrun check, are not linted. `clippy.toml` still lets test
// code unwrap/expect.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod collectives;
#[allow(clippy::panic, clippy::unreachable, reason = "crash faults unwind")]
pub mod comm;
pub mod fault;
pub mod sched;
pub mod stats;
pub mod window;
pub mod wire;

pub use comm::{Comm, Launch, Rank, RankOutcome, RunOutput, Tag, WorldConfig};
pub use fault::{
    CommError, CrashHook, Fault, FaultAction, FaultPlan, FaultSpecError, FaultTrigger,
    TransientHook,
};
pub use replidedup_trace::{Event, EventKind, PhaseAgg, RankTrace, Tracer, WorldTrace};
pub use stats::{RankTraffic, TrafficReport, Transport};
pub use window::Window;
pub use wire::{Chunk, Frame, FrameReader, FrameWriter, Wire, WireError, WireResult};
