//! In-process message-passing runtime with MPI-style semantics.
//!
//! `replidedup` reproduces the IPDPS'15 collective-replication paper on a
//! single machine: each MPI rank becomes an OS thread, point-to-point
//! messaging uses matched `(source, tag)` channels with an
//! unexpected-message queue, and the three collectives the paper's
//! Algorithm 1 needs (`barrier`, `allreduce` with a user operator,
//! `allgather`) use the textbook algorithms a real MPI library would pick.
//! One-sided communication is provided through [`Window`]s mirroring
//! `MPI_Win_create` / `MPI_Put` / `MPI_Win_fence`, which is what the
//! paper's single-sided exchange phase uses.
//!
//! Library code uses the fallible `try_*` operations, which surface a dead
//! peer as a [`CommError`]; ranks sleep through [`Comm::sleep`], which
//! releases their worker slot in a pooled world.
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

pub mod collectives;
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
pub use sched::SchedSlot;
pub use stats::{RankTraffic, TrafficReport, Transport};
pub use window::Window;
pub use wire::{Chunk, Frame, FrameReader, FrameWriter, Wire, WireError, WireResult};
