//! Node-local storage substrate for `replidedup`.
//!
//! Models the paper's storage layer: every compute node has a local device
//! (1 TB HDD on the Shamrock testbed) that holds chunks and manifests, is
//! shared by the ranks placed on that node, and can fail — losing its
//! contents. The collective replication scheme in `replidedup-core` writes
//! into this layer; restore reads back from surviving nodes.
//!
//! * [`ChunkStore`] — content-addressed, refcounted chunk storage,
//! * [`Manifest`] — the ordered fingerprint recipe of one rank's buffer,
//!   and [`Recipe`] — what a rank restarts from: its manifest, or its raw
//!   buffer under `no-dedup`,
//! * [`Cluster`] / [`Placement`] — node topology, failure injection,
//!   cluster-wide accounting (unique bytes, physical copy counts),
//! * [`StripeKey`] / [`ShardMeta`] — erasure-coded shards at rest, with
//!   cluster-wide stripe reconstruction from any `k` survivors,
//! * [`ScrubReport`] / [`Cluster::scrub`] — integrity scrubbing: re-hash
//!   every chunk against its key, cross-check manifests vs. presence.

// The panic-lint inventory of this crate: none is allowed outside tests.
// Storage failures are `StorageError`, `ManifestError` or `SessionError`
// values, and a poisoned lock is recovered (`cluster::lock`). Invariant
// `assert!`s are not linted. `clippy.toml` still lets test code
// unwrap/expect.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod cluster;
pub mod manifest;
pub mod scrub;
pub mod shard;
pub mod store;

pub use cluster::{
    Cluster, GcStats, NodeId, NodeState, Placement, SessionError, SessionId, StorageError,
    StorageResult,
};
pub use manifest::{DumpId, Manifest, ManifestError, Recipe};
pub use scrub::ScrubReport;
pub use shard::{ShardMeta, StoredShard, StripeKey};
pub use store::ChunkStore;
