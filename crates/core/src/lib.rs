//! `replidedup-core` — dedup-aware collective replication.
//!
//! Rust reproduction of Bogdan Nicolae, *"Leveraging Naturally Distributed
//! Data Redundancy to Reduce Collective I/O Replication Overhead"*
//! (IPDPS 2015). The library exposes the paper's collective I/O write
//! primitive `DUMP_OUTPUT(buffer, K)` plus the restore collective (both
//! driven through the [`Replicator`] session) and implements all four
//! design principles of Section III:
//!
//! 1. collective interprocess deduplication ([`local`], [`global`]),
//! 2. load balancing via uniform rank assignment (inside
//!    [`GlobalView::merge`]),
//! 3. load-aware partner selection ([`shuffle`], Algorithm 2),
//! 4. single-sided communication planning ([`offsets`], Algorithm 3).
//!
//! The three evaluation settings (`no-dedup`, `local-dedup`, `coll-dedup`)
//! are selected by [`Strategy`]; the `coll-no-shuffle` ablation is
//! [`ReplicatorBuilder::shuffle`]`(false)`.
//!
//! # Example
//!
//! The public entry point is the [`Replicator`] session: build it once
//! (validation happens at [`ReplicatorBuilder::build`]), then drive any
//! number of dump/restore collectives:
//!
//! ```
//! use replidedup_core::{Replicator, Strategy};
//! use replidedup_mpi::WorldConfig;
//! use replidedup_storage::{Cluster, Placement};
//!
//! let cluster = Cluster::new(Placement::one_per_node(4));
//! let repl = Replicator::builder(Strategy::CollDedup)
//!     .cluster(&cluster)
//!     .replication(3)
//!     .chunk_size(64)
//!     .build()
//!     .expect("valid config");
//! let out = WorldConfig::default().launch(4, |comm| {
//!     let buf = vec![comm.rank() as u8; 256];
//!     let stats = repl.dump(comm, 1, &buf).unwrap();
//!     let restored = repl.restore(comm, 1).unwrap();
//!     assert_eq!(restored, buf);
//!     stats
//! }).expect_all();
//! assert!(out.results.iter().all(|s| s.k == 3));
//! ```

pub mod config;
pub mod dump;
pub mod exchange;
pub mod global;
pub mod heal;
pub mod local;
pub mod offsets;
pub mod plan;
pub mod repair;
pub mod restore;
pub mod retry;
pub mod session;
pub mod shuffle;
pub mod stats;

pub use config::{ConfigError, DumpConfig, RedundancyPolicy, Strategy};
pub use dump::{DumpContext, DumpError, DUMP_PHASES};
pub use global::{reduce_global_view, try_reduce_global_view, GlobalEntry, GlobalView};
pub use heal::{
    HealCursor, HealOptions, HealReport, HealStage, RateLimit, TokenBucket, HEAL_PHASES,
};
pub use local::LocalIndex;
pub use offsets::{window_plan, WindowPlan};
pub use plan::{plan_chunks, ChunkPlan};
pub use repair::RepairError;
pub use replidedup_hash::{ChunkerKind, GearParams, RabinParams};
pub use replidedup_storage::SessionId;
pub use restore::RestoreError;
pub use retry::{Backoff, RetryPolicy};
pub use session::{ReplError, Replicator, ReplicatorBuilder};
pub use shuffle::{identity_shuffle, rank_shuffle};
pub use stats::{DumpStats, ReductionStats, WorldDumpStats};
