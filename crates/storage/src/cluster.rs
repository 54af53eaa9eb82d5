//! Simulated cluster of compute nodes with local storage.
//!
//! The paper's testbed is 34 nodes with one HDD each and 12 ranks per node.
//! This module models that topology: a [`Cluster`] owns one
//! [`NodeState`] per node (chunk store + manifest directory + liveness),
//! and a [`Placement`] maps ranks to nodes. Node failures wipe the local
//! device — exactly the fault the paper replicates against ("local storage
//! devices are prone to failures and as such the data they hold is
//! volatile").
//!
//! Ranks (threads) share the cluster through `Arc<Cluster>`; per-node locks
//! keep access races out while still letting different nodes proceed in
//! parallel, mirroring per-device independence.

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use replidedup_hash::Fingerprint;
use std::sync::Mutex;

use crate::manifest::{DumpId, Manifest, ManifestError};
use crate::shard::{ShardMeta, StoredShard, StripeKey};
use crate::store::ChunkStore;

/// Node index within a cluster.
pub type NodeId = u32;

/// Identifies one live replication session against a cluster. Sessions
/// partition the dump-generation space: a scoped [`DumpId`] carries its
/// session in the high 16 bits ([`SessionId::scope`]), so two overlapping
/// sessions — two concurrent dumps, a heal racing a dump — can use the
/// same caller-visible generation numbers without colliding in manifests,
/// blobs, stripes, or GC. Session 0 is the default (unlabeled) session;
/// unscoped generations are exactly the historical behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SessionId(u16);

impl SessionId {
    /// The default (unlabeled) session.
    pub const DEFAULT: SessionId = SessionId(0);

    /// Bits of a [`DumpId`] left to the caller's generation counter.
    pub const GENERATION_BITS: u32 = 48;

    /// Raw numeric id (also the session's tag namespace on the wire).
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Scope a caller-visible dump generation into this session's slice of
    /// the generation space. The default session scopes to the identity.
    pub fn scope(self, dump_id: DumpId) -> DumpId {
        debug_assert_eq!(
            dump_id >> Self::GENERATION_BITS,
            0,
            "dump id {dump_id:#x} already carries session bits"
        );
        (u64::from(self.0) << Self::GENERATION_BITS) | dump_id
    }

    /// The session a scoped generation belongs to.
    pub fn of(dump_id: DumpId) -> SessionId {
        SessionId((dump_id >> Self::GENERATION_BITS) as u16)
    }

    /// The caller-visible generation within its session.
    pub fn local_generation(dump_id: DumpId) -> DumpId {
        dump_id & ((1 << Self::GENERATION_BITS) - 1)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Active-session registry of one cluster: label → id for every session
/// currently open. Ids are handed out monotonically and never reused, so a
/// generation scoped by a finished session can never be confused with a
/// later session's.
#[derive(Debug, Default)]
struct SessionRegistry {
    active: HashMap<String, SessionId>,
    last: u16,
}

/// Storage-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The node's device is unavailable (node failed).
    NodeDown(NodeId),
    /// A referenced chunk is not present on the node.
    MissingChunk(Fingerprint),
    /// A requested manifest is not present on the node.
    MissingManifest {
        /// Rank whose manifest was requested.
        rank: u32,
        /// Dump generation requested.
        dump_id: DumpId,
    },
    /// A stored chunk's bytes no longer hash to its fingerprint key
    /// (bit-rot detected by the scrubber).
    CorruptChunk {
        /// The fingerprint whose bytes are wrong.
        fp: Fingerprint,
        /// The node holding the corrupt copy.
        node: NodeId,
    },
    /// A read failed transiently (injected via
    /// [`Cluster::inject_transient`]); retrying the same operation may
    /// succeed. Models recoverable device hiccups, as opposed to the
    /// permanent [`StorageError::NodeDown`].
    Transient {
        /// The node whose read hiccuped.
        node: NodeId,
    },
    /// A requested erasure-coded shard is not present on the node.
    MissingShard {
        /// The stripe whose shard was requested.
        key: StripeKey,
        /// Shard index within the stripe.
        index: u8,
    },
    /// Manifest ingest rejected an internally inconsistent recipe.
    InvalidManifest(ManifestError),
}

impl StorageError {
    /// Is this failure worth retrying? Only [`StorageError::Transient`] is:
    /// every other variant is a stable fact about the cluster that a retry
    /// cannot change.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NodeDown(n) => write!(f, "node {n} is down"),
            StorageError::MissingChunk(fp) => write!(f, "chunk {fp} not on node"),
            StorageError::MissingManifest { rank, dump_id } => {
                write!(f, "manifest of rank {rank} dump {dump_id} not on node")
            }
            StorageError::CorruptChunk { fp, node } => {
                write!(
                    f,
                    "chunk {fp} on node {node} is corrupt (bytes do not match key)"
                )
            }
            StorageError::Transient { node } => {
                write!(
                    f,
                    "transient read failure on node {node} (retry may succeed)"
                )
            }
            StorageError::MissingShard { key, index } => {
                write!(f, "shard {index} of stripe {key:?} not on node")
            }
            StorageError::InvalidManifest(e) => write!(f, "invalid manifest rejected: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::InvalidManifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManifestError> for StorageError {
    fn from(e: ManifestError) -> Self {
        StorageError::InvalidManifest(e)
    }
}

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Maps ranks onto nodes (block placement: ranks `[i*ppn, (i+1)*ppn)` share
/// node `i`, as MPI rank files normally lay processes out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Ranks hosted per node (the paper uses 12: 6 cores × 2 threads).
    pub ranks_per_node: u32,
}

impl Placement {
    /// Placement that packs `world_size` ranks `ranks_per_node` to a node.
    ///
    /// # Panics
    /// If either argument is zero.
    pub fn pack(world_size: u32, ranks_per_node: u32) -> Self {
        assert!(world_size > 0, "world_size must be positive");
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        Self {
            nodes: world_size.div_ceil(ranks_per_node),
            ranks_per_node,
        }
    }

    /// One rank per node.
    pub fn one_per_node(world_size: u32) -> Self {
        Self::pack(world_size, 1)
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> NodeId {
        rank / self.ranks_per_node
    }

    /// Ranks hosted on `node` given a world of `world_size`.
    pub fn ranks_on(&self, node: NodeId, world_size: u32) -> std::ops::Range<u32> {
        let start = node * self.ranks_per_node;
        start..((node + 1) * self.ranks_per_node).min(world_size)
    }
}

/// Mutable state of one node.
#[derive(Debug, Default)]
pub struct NodeState {
    /// The node-local content-addressed chunk store.
    pub store: ChunkStore,
    pub(crate) manifests: HashMap<(u32, DumpId), Manifest>,
    /// Raw dump blobs keyed by `(owner_rank, dump_id)`: the storage format
    /// of the `no-dedup` baseline, which writes buffers verbatim without
    /// content addressing (duplicates and all).
    pub(crate) blobs: HashMap<(u32, DumpId), Bytes>,
    blob_bytes: u64,
    /// Erasure-coded shards keyed by `(stripe, shard index)`: each entry is
    /// self-describing (geometry + role in [`ShardMeta`]), so any `k`
    /// survivors of a stripe reconstruct the payload without a manifest.
    pub(crate) shards: HashMap<(StripeKey, u8), StoredShard>,
    shard_bytes: u64,
    /// Remaining injected transient read failures: while positive, each
    /// read (chunk/manifest/blob fetch) consumes one and fails with
    /// [`StorageError::Transient`]. Test/fault-injection state.
    transient_reads: u32,
    /// Absent-at-dump-time tombstones: `(rank, dump_id)` pairs recorded by
    /// a degraded dump when `rank` died before contributing its data to
    /// generation `dump_id`. Restore reports these as a distinct loss class
    /// (the data never existed) instead of a replica-holder failure.
    absent: HashMap<DumpId, Vec<u32>>,
    alive: bool,
}

/// What one [`Cluster::gc_superseded`] sweep reclaimed.
///
/// `generations_collected` counts the distinct superseded dump ids that
/// still had any on-device footprint (manifests, blobs, blob stripes or
/// tombstones) when the sweep ran — the long-drill health metric: a
/// healthy steady state collects every generation it supersedes, so the
/// count stays bounded by the dump rate instead of growing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Distinct superseded dump generations that had surviving state.
    pub generations_collected: u64,
    /// Manifests dropped across live nodes.
    pub manifests_removed: u64,
    /// Raw `no-dedup` blobs dropped across live nodes.
    pub blobs_removed: u64,
    /// Chunks no longer referenced by any surviving manifest, dropped.
    pub chunks_removed: u64,
    /// Erasure-coded shards dropped (superseded blob stripes plus stripes
    /// of unreferenced chunks).
    pub shards_removed: u64,
    /// Absent-at-dump-time tombstone entries dropped.
    pub tombstones_removed: u64,
    /// Device bytes freed by the sweep.
    pub bytes_reclaimed: u64,
}

impl GcStats {
    /// Fold another sweep's counters into this one (heal aggregates the
    /// per-step sweeps it ran).
    pub fn merge(&mut self, other: &GcStats) {
        self.generations_collected += other.generations_collected;
        self.manifests_removed += other.manifests_removed;
        self.blobs_removed += other.blobs_removed;
        self.chunks_removed += other.chunks_removed;
        self.shards_removed += other.shards_removed;
        self.tombstones_removed += other.tombstones_removed;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// The cluster: shared by all rank threads.
pub struct Cluster {
    nodes: Vec<Mutex<NodeState>>,
    placement: Placement,
    sessions: Mutex<SessionRegistry>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("placement", &self.placement)
            .finish()
    }
}

impl Cluster {
    /// Build a cluster for the given placement; all nodes start alive and
    /// empty.
    pub fn new(placement: Placement) -> Self {
        let nodes = (0..placement.nodes)
            .map(|_| {
                Mutex::new(NodeState {
                    alive: true,
                    ..NodeState::default()
                })
            })
            .collect();
        Self {
            nodes,
            placement,
            sessions: Mutex::new(SessionRegistry::default()),
        }
    }

    /// The rank-to-node placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    // ---- session registry ----

    /// Open a replication session named `label` against this cluster.
    /// Returns `None` while a session with the same label is still active
    /// (the caller surfaces that as a typed duplicate-session error).
    /// Session ids are monotonic and never reused, so generations scoped
    /// by distinct sessions never collide — even across reopenings of the
    /// same label.
    pub fn begin_session(&self, label: &str) -> Option<SessionId> {
        let mut reg = self.sessions.lock().unwrap();
        if reg.active.contains_key(label) {
            return None;
        }
        reg.last = reg.last.checked_add(1).expect("session ids exhausted");
        let id = SessionId(reg.last);
        reg.active.insert(label.to_string(), id);
        Some(id)
    }

    /// Close a session, freeing its label for reuse. Returns whether the
    /// id named an active session. Stored data is untouched: generations
    /// the session wrote remain addressable by their scoped ids.
    pub fn end_session(&self, id: SessionId) -> bool {
        let mut reg = self.sessions.lock().unwrap();
        let label = reg
            .active
            .iter()
            .find_map(|(l, s)| (*s == id).then(|| l.clone()));
        match label {
            Some(l) => reg.active.remove(&l).is_some(),
            None => false,
        }
    }

    /// Currently active sessions as `(label, id)`, sorted by id.
    pub fn active_sessions(&self) -> Vec<(String, SessionId)> {
        let reg = self.sessions.lock().unwrap();
        let mut out: Vec<_> = reg.active.iter().map(|(l, s)| (l.clone(), *s)).collect();
        out.sort_by_key(|(_, s)| *s);
        out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> NodeId {
        self.placement.node_of(rank)
    }

    fn check(&self, node: NodeId) -> &Mutex<NodeState> {
        &self.nodes[node as usize]
    }

    /// Run `f` against a live node's state.
    pub fn with_node<R>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut NodeState) -> R,
    ) -> StorageResult<R> {
        let mut state = self.check(node).lock().unwrap();
        if !state.alive {
            return Err(StorageError::NodeDown(node));
        }
        Ok(f(&mut state))
    }

    /// Consume one injected transient read failure, if any are pending.
    fn take_transient(n: &mut NodeState, node: NodeId) -> StorageResult<()> {
        if n.transient_reads > 0 {
            n.transient_reads -= 1;
            return Err(StorageError::Transient { node });
        }
        Ok(())
    }

    /// Arm `node` to fail its next `ops` reads (chunk/manifest/blob
    /// fetches) with [`StorageError::Transient`]. Fault-injection hook:
    /// models a device hiccup that a bounded retry rides out. Liveness
    /// probes ([`Cluster::has_chunk`] and friends) are unaffected.
    pub fn inject_transient(&self, node: NodeId, ops: u32) -> StorageResult<()> {
        self.with_node(node, |n| n.transient_reads += ops)
    }

    /// Store a chunk on `node`. Returns `true` when the bytes were new.
    /// Accepts anything that freezes into [`Bytes`] (zero-copy for `Bytes`
    /// and `Chunk` payloads).
    pub fn put_chunk(
        &self,
        node: NodeId,
        fp: Fingerprint,
        data: impl Into<Bytes>,
    ) -> StorageResult<bool> {
        let data = data.into();
        self.with_node(node, |n| n.store.put(fp, data))
    }

    /// Fetch a chunk from `node`.
    pub fn get_chunk(&self, node: NodeId, fp: &Fingerprint) -> StorageResult<Bytes> {
        self.with_node(node, |n| {
            Self::take_transient(n, node)?;
            n.store.get(fp).ok_or(StorageError::MissingChunk(*fp))
        })?
    }

    /// Does a **live** `node` hold the chunk?
    ///
    /// Contract: a `true` answer means the node is alive and its store
    /// contains the fingerprint right now. A `false` answer means only
    /// that the chunk is not *reachable* on that node — the node may be
    /// alive without the chunk, or down while its (wiped) device held the
    /// only copy. Callers that must distinguish "absent" from "node down"
    /// (e.g. to report the loss class) use [`Cluster::get_chunk`], whose
    /// typed error keeps the two apart. Injected transient failures do not
    /// affect this probe: it is a presence check, not a device read.
    pub fn has_chunk(&self, node: NodeId, fp: &Fingerprint) -> bool {
        // A down node's contents are wiped: nothing is reachable there, so
        // "not held" is the truthful answer — but only get_chunk can tell
        // the caller *why*.
        self.with_node(node, |n| n.store.contains(fp))
            .unwrap_or_default()
    }

    /// Fingerprints of every chunk stored on `node`, sorted. The repair
    /// collective's inventory read: leaders list their node's holdings
    /// once and plan transfers from the allgathered lists. Presence
    /// listing, not a device read — injected transient failures do not
    /// affect it.
    pub fn chunk_fps(&self, node: NodeId) -> StorageResult<Vec<Fingerprint>> {
        self.with_node(node, |n| {
            let mut fps: Vec<Fingerprint> = n.store.entries().map(|(fp, _)| *fp).collect();
            fps.sort_unstable();
            fps
        })
    }

    /// Every fingerprint referenced by any manifest on `node`, across all
    /// dump generations, sorted and deduplicated. The collective scrub
    /// resolves node-local findings (dangling references, orphans) against
    /// the union of these lists: a reference is only broken, and a chunk
    /// only garbage, relative to the whole cluster.
    pub fn referenced_fps(&self, node: NodeId) -> StorageResult<Vec<Fingerprint>> {
        self.with_node(node, |n| {
            let mut fps: Vec<Fingerprint> = n
                .manifests
                .values()
                .flat_map(|m| m.chunks.iter().copied())
                .collect();
            fps.sort_unstable();
            fps.dedup();
            fps
        })
    }

    /// All manifests for `dump_id` held on `node`, sorted by owner rank.
    /// Repair walks these to find which chunks the surviving recipes still
    /// reference and which recipes need re-materialization.
    pub fn manifests_for(&self, node: NodeId, dump_id: DumpId) -> StorageResult<Vec<Manifest>> {
        self.with_node(node, |n| {
            let mut ms: Vec<Manifest> = n
                .manifests
                .values()
                .filter(|m| m.dump_id == dump_id)
                .cloned()
                .collect();
            ms.sort_unstable_by_key(|m| m.owner_rank);
            ms
        })
    }

    /// Corrupt a stored chunk's bytes in place — **test-only** bit-rot
    /// injection for exercising [`Cluster::scrub`]. The fingerprint key is
    /// untouched, so subsequent reads return bytes that no longer hash to
    /// their key. Returns `true` if a chunk was corrupted.
    pub fn corrupt_chunk(&self, node: NodeId, fp: &Fingerprint) -> StorageResult<bool> {
        self.with_node(node, |n| n.store.corrupt(fp))
    }

    /// Corrupt a stored shard's bytes in place — **test-only** bit-rot
    /// injection for exercising the parity-consistency scrub. Returns
    /// `true` if a shard was corrupted.
    pub fn corrupt_shard(&self, node: NodeId, key: StripeKey, index: u8) -> StorageResult<bool> {
        self.with_node(node, |n| match n.shards.get_mut(&(key, index)) {
            Some(s) if !s.data.is_empty() => {
                let mut bytes = s.data.to_vec();
                bytes[0] ^= 0xFF;
                s.data = Bytes::from(bytes);
                true
            }
            _ => false,
        })
    }

    /// Evict a chunk from `node` regardless of its reference count.
    /// Repair quarantines scrub-detected corrupt chunks this way before
    /// re-replicating a good copy, so [`Cluster::copies_of`] only ever
    /// counts intact replicas. Returns `true` if the chunk was present.
    pub fn quarantine_chunk(&self, node: NodeId, fp: &Fingerprint) -> StorageResult<bool> {
        self.with_node(node, |n| n.store.remove(fp))
    }

    /// Store a manifest on `node`. The manifest is validated on ingest:
    /// an internally inconsistent recipe is rejected with
    /// [`StorageError::InvalidManifest`] instead of silently breaking a
    /// future restart.
    pub fn put_manifest(&self, node: NodeId, manifest: Manifest) -> StorageResult<()> {
        manifest.validate()?;
        self.with_node(node, |n| {
            n.manifests
                .insert((manifest.owner_rank, manifest.dump_id), manifest);
        })
    }

    /// Fetch the manifest of `rank`'s dump `dump_id` from `node`.
    pub fn get_manifest(
        &self,
        node: NodeId,
        rank: u32,
        dump_id: DumpId,
    ) -> StorageResult<Manifest> {
        self.with_node(node, |n| {
            Self::take_transient(n, node)?;
            n.manifests
                .get(&(rank, dump_id))
                .cloned()
                .ok_or(StorageError::MissingManifest { rank, dump_id })
        })?
    }

    /// Owner ranks whose manifests for `dump_id` are held on `node`
    /// (sorted). Used by the restore protocol to advertise recipes.
    pub fn manifest_owners(&self, node: NodeId, dump_id: DumpId) -> StorageResult<Vec<u32>> {
        self.with_node(node, |n| {
            let mut owners: Vec<u32> = n
                .manifests
                .keys()
                .filter(|(_, d)| *d == dump_id)
                .map(|(r, _)| *r)
                .collect();
            owners.sort_unstable();
            owners
        })
    }

    /// Owner ranks whose raw blobs for `dump_id` are held on `node` (sorted).
    pub fn blob_owners(&self, node: NodeId, dump_id: DumpId) -> StorageResult<Vec<u32>> {
        self.with_node(node, |n| {
            let mut owners: Vec<u32> = n
                .blobs
                .keys()
                .filter(|(_, d)| *d == dump_id)
                .map(|(r, _)| *r)
                .collect();
            owners.sort_unstable();
            owners
        })
    }

    /// Store a raw dump blob on `node` (the `no-dedup` storage format).
    /// Overwriting the same `(owner, dump)` replaces the previous blob.
    /// Accepts anything that freezes into [`Bytes`] without copying.
    pub fn put_blob(
        &self,
        node: NodeId,
        owner: u32,
        dump_id: DumpId,
        data: impl Into<Bytes>,
    ) -> StorageResult<()> {
        let data = data.into();
        self.with_node(node, |n| {
            if let Some(old) = n.blobs.insert((owner, dump_id), data.clone()) {
                n.blob_bytes -= old.len() as u64;
            }
            n.blob_bytes += data.len() as u64;
        })
    }

    /// Fetch a raw dump blob from `node`.
    pub fn get_blob(&self, node: NodeId, owner: u32, dump_id: DumpId) -> StorageResult<Bytes> {
        self.with_node(node, |n| {
            Self::take_transient(n, node)?;
            n.blobs
                .get(&(owner, dump_id))
                .cloned()
                .ok_or(StorageError::MissingManifest {
                    rank: owner,
                    dump_id,
                })
        })?
    }

    /// Does `node` hold the blob? (`false` also when the node is down.)
    pub fn has_blob(&self, node: NodeId, owner: u32, dump_id: DumpId) -> bool {
        self.with_node(node, |n| n.blobs.contains_key(&(owner, dump_id)))
            .unwrap_or(false)
    }

    /// Store an erasure-coded shard on `node`. Content-addressed by
    /// `(key, meta.index)`: re-putting the same shard is idempotent (the
    /// bytes are replaced and the accounting adjusted), which lets every
    /// holder of an uncovered chunk stripe it independently. Returns `true`
    /// when the slot was new.
    pub fn put_shard(
        &self,
        node: NodeId,
        key: StripeKey,
        meta: ShardMeta,
        data: impl Into<Bytes>,
    ) -> StorageResult<bool> {
        let data = data.into();
        self.with_node(node, |n| {
            let len = data.len() as u64;
            let old = n
                .shards
                .insert((key, meta.index), StoredShard { meta, data });
            let was_new = old.is_none();
            if let Some(old) = old {
                n.shard_bytes -= old.data.len() as u64;
            }
            n.shard_bytes += len;
            was_new
        })
    }

    /// Fetch one shard of a stripe from `node`.
    pub fn get_shard(&self, node: NodeId, key: StripeKey, index: u8) -> StorageResult<StoredShard> {
        self.with_node(node, |n| {
            Self::take_transient(n, node)?;
            n.shards
                .get(&(key, index))
                .cloned()
                .ok_or(StorageError::MissingShard { key, index })
        })?
    }

    /// Does a live `node` hold shard `index` of the stripe? Same contract
    /// as [`Cluster::has_chunk`]: a presence probe, not a device read.
    pub fn has_shard(&self, node: NodeId, key: StripeKey, index: u8) -> bool {
        self.with_node(node, |n| n.shards.contains_key(&(key, index)))
            .unwrap_or_default()
    }

    /// Every shard held on `node`, as `(stripe, meta)` pairs sorted by
    /// stripe then shard index. The repair collective's stripe inventory,
    /// analogous to [`Cluster::chunk_fps`].
    pub fn shard_inventory(&self, node: NodeId) -> StorageResult<Vec<(StripeKey, ShardMeta)>> {
        self.with_node(node, |n| {
            let mut inv: Vec<(StripeKey, ShardMeta)> = n
                .shards
                .iter()
                .map(|((key, _), s)| (*key, s.meta))
                .collect();
            inv.sort_unstable_by_key(|(key, meta)| (*key, meta.index));
            inv
        })
    }

    /// Evict one shard from `node` regardless of stripe health — the scrub
    /// quarantine for shards whose bytes no longer match the stripe's
    /// parity. Returns `true` if the shard was present.
    pub fn quarantine_shard(&self, node: NodeId, key: StripeKey, index: u8) -> StorageResult<bool> {
        self.with_node(node, |n| match n.shards.remove(&(key, index)) {
            Some(old) => {
                n.shard_bytes -= old.data.len() as u64;
                true
            }
            None => false,
        })
    }

    /// All live copies of the stripe's shards across the cluster, one per
    /// shard index (lowest node wins on duplicates), sorted by index.
    ///
    /// This is the shared-storage escape hatch: the distributed protocols
    /// locate shards via messages first, and reconstruction consults the
    /// cluster directly only as the last-resort repair index.
    pub fn gather_shards(&self, key: StripeKey) -> Vec<StoredShard> {
        let mut found: HashMap<u8, StoredShard> = HashMap::new();
        for node in 0..self.node_count() {
            let shards = self
                .with_node(node, |n| {
                    n.shards
                        .iter()
                        .filter(|((k, _), _)| *k == key)
                        .map(|(_, s)| s.clone())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            for s in shards {
                found.entry(s.meta.index).or_insert(s);
            }
        }
        let mut out: Vec<StoredShard> = found.into_values().collect();
        out.sort_unstable_by_key(|s| s.meta.index);
        out
    }

    /// Reconstruct a stripe's payload from any `k` surviving shards across
    /// live nodes. `None` when fewer than `k` shards survive, when the
    /// survivors disagree on geometry, or when decode fails — the caller
    /// maps that to its own loss class (restore's `ChunkLost`/`BlobLost`).
    pub fn reconstruct_payload(&self, key: StripeKey) -> Option<Bytes> {
        let shards = self.gather_shards(key);
        let first = shards.first()?;
        let (k, m, total_len) = (first.meta.k, first.meta.m, first.meta.total_len);
        let total_len = usize::try_from(total_len).ok()?;
        let consistent: Vec<(u8, &[u8])> = shards
            .iter()
            .filter(|s| s.meta.k == k && s.meta.m == m)
            .map(|s| (s.meta.index, s.data.as_ref()))
            .collect();
        let code = replidedup_ec::RsCode::new(k, m).ok()?;
        code.decode(&consistent, total_len).ok().map(Bytes::from)
    }

    /// Rebuild one shard of a stripe from any `k` surviving shards across
    /// live nodes, returned ready to store (the caller decides which node
    /// re-homes it). `None` when fewer than `k` consistent shards survive,
    /// when the survivors disagree on geometry, or when decode fails.
    pub fn rebuild_shard(&self, key: StripeKey, index: u8) -> Option<StoredShard> {
        let shards = self.gather_shards(key);
        let first = shards.first()?;
        let (k, m, total_len) = (first.meta.k, first.meta.m, first.meta.total_len);
        let len = usize::try_from(total_len).ok()?;
        let consistent: Vec<(u8, &[u8])> = shards
            .iter()
            .filter(|s| s.meta.k == k && s.meta.m == m)
            .map(|s| (s.meta.index, s.data.as_ref()))
            .collect();
        let code = replidedup_ec::RsCode::new(k, m).ok()?;
        let data = code.reconstruct_shard(&consistent, index, len).ok()?;
        Some(StoredShard {
            meta: ShardMeta {
                k,
                m,
                index,
                total_len,
            },
            data: Bytes::from(data),
        })
    }

    /// Record that `rank`'s contribution to dump `dump_id` was absent when
    /// the (degraded) dump committed on `node` — the rank died before its
    /// data reached any device. Idempotent.
    pub fn mark_absent(&self, node: NodeId, rank: u32, dump_id: DumpId) -> StorageResult<()> {
        self.with_node(node, |n| {
            let ranks = n.absent.entry(dump_id).or_default();
            if let Err(i) = ranks.binary_search(&rank) {
                ranks.insert(i, rank);
            }
        })
    }

    /// Ranks tombstoned as absent at dump time for `dump_id` on `node`
    /// (sorted). Like the device contents, tombstones die with the node.
    pub fn absent_ranks(&self, node: NodeId, dump_id: DumpId) -> StorageResult<Vec<u32>> {
        self.with_node(node, |n| {
            n.absent.get(&dump_id).cloned().unwrap_or_default()
        })
    }

    /// Raw device usage of a node in bytes: chunk store plus blobs plus
    /// erasure-coded shards.
    pub fn device_bytes(&self, node: NodeId) -> u64 {
        let s = self.check(node).lock().unwrap();
        if s.alive {
            s.store.bytes_stored() + s.blob_bytes + s.shard_bytes
        } else {
            0
        }
    }

    /// Parity bytes stored across live nodes: the redundancy the coded
    /// policies *add* (data shards are slices of the payload, so only
    /// parity is overhead). The bench's dedup-credit metric: chunks whose
    /// natural copies were credited never generated parity.
    pub fn total_parity_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let s = n.lock().unwrap();
                if s.alive {
                    s.shards
                        .values()
                        .filter(|sh| sh.meta.is_parity())
                        .map(|sh| sh.data.len() as u64)
                        .sum()
                } else {
                    0
                }
            })
            .sum()
    }

    /// Total device usage across live nodes (what Figures 4(b)/5(b)'s
    /// storage-cost discussion is about when multiplied out by K).
    pub fn total_device_bytes(&self) -> u64 {
        (0..self.node_count()).map(|n| self.device_bytes(n)).sum()
    }

    /// Is the node alive?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.check(node).lock().unwrap().alive
    }

    /// Fail a node: the device contents are lost.
    pub fn fail_node(&self, node: NodeId) {
        let mut state = self.check(node).lock().unwrap();
        state.alive = false;
        state.store.wipe();
        state.manifests.clear();
        state.blobs.clear();
        state.blob_bytes = 0;
        state.shards.clear();
        state.shard_bytes = 0;
        state.absent.clear();
        state.transient_reads = 0;
    }

    /// Bring a replacement node online (empty device, same identity).
    pub fn revive_node(&self, node: NodeId) {
        self.check(node).lock().unwrap().alive = true;
    }

    /// Total unique bytes stored across live nodes (Figure 3(a)'s metric
    /// when summed right after a dump).
    pub fn total_unique_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let s = n.lock().unwrap();
                if s.alive {
                    s.store.bytes_stored()
                } else {
                    0
                }
            })
            .sum()
    }

    /// Cluster-wide physical copy count of a chunk across live nodes.
    pub fn copies_of(&self, fp: &Fingerprint) -> u32 {
        self.nodes
            .iter()
            .map(|n| {
                let s = n.lock().unwrap();
                u32::from(s.alive && s.store.contains(fp))
            })
            .sum()
    }

    /// Every dump generation with any footprint on a live node (manifests,
    /// blobs, blob stripes or absence tombstones), sorted ascending. The
    /// background healer schedules from this list: generations currently
    /// being written are skipped by the caller, superseded ones are handed
    /// to [`Cluster::gc_superseded`].
    pub fn generations(&self) -> Vec<DumpId> {
        let mut gens: Vec<DumpId> = Vec::new();
        for node in 0..self.node_count() {
            let s = self.check(node).lock().unwrap();
            if !s.alive {
                continue;
            }
            gens.extend(s.manifests.keys().map(|(_, d)| *d));
            gens.extend(s.blobs.keys().map(|(_, d)| *d));
            gens.extend(s.shards.keys().filter_map(|(key, _)| match key {
                StripeKey::Blob { dump_id, .. } => Some(*dump_id),
                StripeKey::Chunk(_) => None,
            }));
            gens.extend(s.absent.keys().copied());
        }
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Collect every dump generation older than `before`: drop its
    /// manifests, raw blobs, blob stripes and absence tombstones, then drop
    /// any chunk (and chunk stripe) no surviving manifest references. A
    /// chunk shared with a surviving generation keeps its copies — GC is
    /// reference-driven, never generation-tagged, because content
    /// addressing deliberately shares chunk bytes across generations.
    ///
    /// Must not run concurrently with an in-flight dump of a *surviving*
    /// generation: dumps store chunks before committing the manifests that
    /// reference them, so a concurrent sweep would see those chunks as
    /// garbage. The healing engine runs the sweep as its own step between
    /// collectives, which serializes it against dump traffic.
    pub fn gc_superseded(&self, before: DumpId) -> GcStats {
        // Generations are scoped per session: the sweep only ever collects
        // within `before`'s own session, so a heal GC-ing session A can
        // never reap a concurrent session B's generations.
        let superseded = |d: DumpId| SessionId::of(d) == SessionId::of(before) && d < before;
        let mut stats = GcStats::default();
        let mut collected: Vec<DumpId> = Vec::new();
        // Pass 1: drop everything tagged with a superseded generation.
        for node in 0..self.node_count() {
            let mut s = self.check(node).lock().unwrap();
            if !s.alive {
                continue;
            }
            let victims: Vec<(u32, DumpId)> = s
                .manifests
                .keys()
                .filter(|(_, d)| superseded(*d))
                .copied()
                .collect();
            for key in victims {
                s.manifests.remove(&key);
                stats.manifests_removed += 1;
                collected.push(key.1);
            }
            let victims: Vec<(u32, DumpId)> = s
                .blobs
                .keys()
                .filter(|(_, d)| superseded(*d))
                .copied()
                .collect();
            for key in victims {
                if let Some(old) = s.blobs.remove(&key) {
                    s.blob_bytes -= old.len() as u64;
                    stats.blobs_removed += 1;
                    stats.bytes_reclaimed += old.len() as u64;
                    collected.push(key.1);
                }
            }
            let victims: Vec<(StripeKey, u8)> = s
                .shards
                .keys()
                .filter(
                    |(key, _)| matches!(key, StripeKey::Blob { dump_id, .. } if superseded(*dump_id)),
                )
                .copied()
                .collect();
            for key in victims {
                if let Some(old) = s.shards.remove(&key) {
                    s.shard_bytes -= old.data.len() as u64;
                    stats.shards_removed += 1;
                    stats.bytes_reclaimed += old.data.len() as u64;
                    if let StripeKey::Blob { dump_id, .. } = key.0 {
                        collected.push(dump_id);
                    }
                }
            }
            let victims: Vec<DumpId> = s
                .absent
                .keys()
                .filter(|d| superseded(**d))
                .copied()
                .collect();
            for d in victims {
                if let Some(ranks) = s.absent.remove(&d) {
                    stats.tombstones_removed += ranks.len() as u64;
                    collected.push(d);
                }
            }
        }
        // Pass 2: with the superseded recipes gone, compute the set of
        // fingerprints any surviving manifest still references, cluster
        // wide, and drop the rest (plus their chunk stripes).
        let mut referenced: Vec<Fingerprint> = Vec::new();
        for node in 0..self.node_count() {
            let s = self.check(node).lock().unwrap();
            if s.alive {
                referenced.extend(s.manifests.values().flat_map(|m| m.chunks.iter().copied()));
            }
        }
        referenced.sort_unstable();
        referenced.dedup();
        for node in 0..self.node_count() {
            let mut s = self.check(node).lock().unwrap();
            if !s.alive {
                continue;
            }
            let victims: Vec<(Fingerprint, u64)> = s
                .store
                .entries()
                .filter(|(fp, _)| referenced.binary_search(fp).is_err())
                .map(|(fp, data)| (*fp, data.len() as u64))
                .collect();
            for (fp, len) in victims {
                if s.store.remove(&fp) {
                    stats.chunks_removed += 1;
                    stats.bytes_reclaimed += len;
                }
            }
            let victims: Vec<(StripeKey, u8)> = s
                .shards
                .keys()
                .filter(
                    |(key, _)| matches!(key, StripeKey::Chunk(fp) if referenced.binary_search(fp).is_err()),
                )
                .copied()
                .collect();
            for key in victims {
                if let Some(old) = s.shards.remove(&key) {
                    s.shard_bytes -= old.data.len() as u64;
                    stats.shards_removed += 1;
                    stats.bytes_reclaimed += old.data.len() as u64;
                }
            }
        }
        collected.sort_unstable();
        collected.dedup();
        stats.generations_collected = collected.len() as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    #[test]
    fn placement_packs_ranks() {
        let p = Placement::pack(408, 12);
        assert_eq!(p.nodes, 34);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(11), 0);
        assert_eq!(p.node_of(12), 1);
        assert_eq!(p.node_of(407), 33);
        assert_eq!(p.ranks_on(33, 408), 396..408);
    }

    #[test]
    fn placement_handles_partial_last_node() {
        let p = Placement::pack(10, 4);
        assert_eq!(p.nodes, 3);
        assert_eq!(p.ranks_on(2, 10), 8..10);
    }

    #[test]
    fn chunk_roundtrip() {
        let c = Cluster::new(Placement::one_per_node(2));
        assert!(c.put_chunk(0, fp(1), Bytes::from_static(b"abc")).unwrap());
        assert_eq!(c.get_chunk(0, &fp(1)).unwrap(), Bytes::from_static(b"abc"));
        assert!(c.has_chunk(0, &fp(1)));
        assert!(!c.has_chunk(1, &fp(1)));
        assert_eq!(
            c.get_chunk(1, &fp(1)),
            Err(StorageError::MissingChunk(fp(1)))
        );
    }

    #[test]
    fn failed_node_loses_data_and_rejects_io() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_chunk(0, fp(1), Bytes::from_static(b"abc")).unwrap();
        c.fail_node(0);
        assert!(!c.is_alive(0));
        assert_eq!(
            c.put_chunk(0, fp(2), Bytes::new()),
            Err(StorageError::NodeDown(0))
        );
        assert_eq!(c.get_chunk(0, &fp(1)), Err(StorageError::NodeDown(0)));
        c.revive_node(0);
        assert!(c.is_alive(0));
        // Replacement hardware comes up empty.
        assert_eq!(
            c.get_chunk(0, &fp(1)),
            Err(StorageError::MissingChunk(fp(1)))
        );
    }

    #[test]
    fn manifests_roundtrip_and_die_with_node() {
        let c = Cluster::new(Placement::one_per_node(2));
        let m = Manifest::fixed_stride(1, 5, 4, 4, vec![fp(9)]);
        c.put_manifest(0, m.clone()).unwrap();
        assert_eq!(c.get_manifest(0, 1, 5).unwrap(), m);
        assert_eq!(
            c.get_manifest(0, 1, 6),
            Err(StorageError::MissingManifest {
                rank: 1,
                dump_id: 6
            })
        );
        c.fail_node(0);
        c.revive_node(0);
        assert!(c.get_manifest(0, 1, 5).is_err());
    }

    #[test]
    fn copy_counting_across_nodes() {
        let c = Cluster::new(Placement::one_per_node(3));
        c.put_chunk(0, fp(1), Bytes::from_static(b"zz")).unwrap();
        c.put_chunk(2, fp(1), Bytes::from_static(b"zz")).unwrap();
        assert_eq!(c.copies_of(&fp(1)), 2);
        assert!(c.has_chunk(0, &fp(1)) && !c.has_chunk(1, &fp(1)));
        c.fail_node(0);
        assert_eq!(c.copies_of(&fp(1)), 1);
        assert!(!c.has_chunk(0, &fp(1)) && c.has_chunk(2, &fp(1)));
    }

    #[test]
    fn unique_bytes_aggregate() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_chunk(0, fp(1), Bytes::from_static(b"aaaa")).unwrap();
        c.put_chunk(0, fp(1), Bytes::from_static(b"aaaa")).unwrap(); // dedup hit
        c.put_chunk(1, fp(2), Bytes::from_static(b"bb")).unwrap();
        assert_eq!(c.total_unique_bytes(), 6);
        assert_eq!((c.device_bytes(0), c.device_bytes(1)), (4, 2));
    }

    #[test]
    fn blobs_roundtrip_and_account() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_blob(0, 1, 7, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(c.get_blob(0, 1, 7).unwrap(), Bytes::from_static(b"hello"));
        assert!(c.has_blob(0, 1, 7));
        assert!(!c.has_blob(1, 1, 7));
        assert_eq!(c.device_bytes(0), 5);
        // Overwrite replaces, not accumulates.
        c.put_blob(0, 1, 7, Bytes::from_static(b"hi")).unwrap();
        assert_eq!(c.device_bytes(0), 2);
        assert_eq!(c.total_device_bytes(), 2);
    }

    #[test]
    fn blobs_die_with_node() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.put_blob(0, 0, 1, Bytes::from_static(b"x")).unwrap();
        c.fail_node(0);
        c.revive_node(0);
        assert!(!c.has_blob(0, 0, 1));
        assert_eq!(c.device_bytes(0), 0);
    }

    #[test]
    fn device_bytes_combines_chunks_and_blobs() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.put_chunk(0, fp(1), Bytes::from_static(b"abcd")).unwrap();
        c.put_blob(0, 0, 1, Bytes::from_static(b"xyz")).unwrap();
        assert_eq!(c.device_bytes(0), 7);
    }

    #[test]
    fn absent_tombstones_roundtrip_and_die_with_node() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.mark_absent(0, 3, 7).unwrap();
        c.mark_absent(0, 1, 7).unwrap();
        c.mark_absent(0, 3, 7).unwrap(); // idempotent
        assert_eq!(c.absent_ranks(0, 7).unwrap(), vec![1, 3]);
        assert_eq!(c.absent_ranks(0, 8).unwrap(), Vec::<u32>::new());
        assert_eq!(c.absent_ranks(1, 7).unwrap(), Vec::<u32>::new());
        c.fail_node(0);
        assert_eq!(c.absent_ranks(0, 7), Err(StorageError::NodeDown(0)));
        c.revive_node(0);
        assert_eq!(c.absent_ranks(0, 7).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn inconsistent_manifest_rejected_with_typed_error() {
        let c = Cluster::new(Placement::one_per_node(1));
        let bad = Manifest {
            owner_rank: 0,
            dump_id: 0,
            total_len: 100,
            chunks: vec![],
            chunk_lens: vec![],
            rs: None,
            coded: vec![],
        };
        match c.put_manifest(0, bad) {
            Err(StorageError::InvalidManifest(ManifestError::LengthSumMismatch {
                sum,
                total_len,
                ..
            })) => {
                assert_eq!(sum, 0);
                assert_eq!(total_len, 100);
            }
            other => panic!("expected InvalidManifest, got {other:?}"),
        }
        // Nothing was stored.
        assert!(c.get_manifest(0, 0, 0).is_err());
    }

    #[test]
    fn storage_error_source_chains_to_manifest_error() {
        use std::error::Error as _;
        let e = StorageError::InvalidManifest(ManifestError::ZeroLengthChunk {
            owner_rank: 1,
            dump_id: 2,
            index: 0,
        });
        assert!(e.to_string().contains("invalid manifest"));
        assert!(e
            .source()
            .unwrap()
            .downcast_ref::<ManifestError>()
            .is_some());
    }

    /// Regression test for the `has_chunk` / `copies_of` contract: a dead
    /// node holding the only copy reads as "not held" from the probes,
    /// while `get_chunk` keeps the NodeDown / MissingChunk distinction.
    #[test]
    fn dead_node_with_only_copy_is_unreachable_not_missing() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_chunk(1, fp(7), Bytes::from_static(b"only")).unwrap();
        c.fail_node(1);
        assert!(!c.has_chunk(1, &fp(7)), "dead node holds nothing reachable");
        assert_eq!(c.copies_of(&fp(7)), 0, "no live holder exists");
        // The typed read API still tells the caller *why*.
        assert_eq!(c.get_chunk(1, &fp(7)), Err(StorageError::NodeDown(1)));
        assert_eq!(
            c.get_chunk(0, &fp(7)),
            Err(StorageError::MissingChunk(fp(7)))
        );
    }

    #[test]
    fn injected_transient_failures_are_consumed_by_reads() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.put_chunk(0, fp(1), Bytes::from_static(b"data")).unwrap();
        c.inject_transient(0, 2).unwrap();
        assert_eq!(
            c.get_chunk(0, &fp(1)),
            Err(StorageError::Transient { node: 0 })
        );
        assert!(c.has_chunk(0, &fp(1)), "probes are not device reads");
        assert_eq!(
            c.get_chunk(0, &fp(1)),
            Err(StorageError::Transient { node: 0 })
        );
        // Third read succeeds: the injected budget is spent.
        assert_eq!(c.get_chunk(0, &fp(1)).unwrap(), Bytes::from_static(b"data"));
        assert!(StorageError::Transient { node: 0 }.is_transient());
        assert!(!StorageError::NodeDown(0).is_transient());
    }

    fn encode_stripe(
        c: &Cluster,
        key: StripeKey,
        k: u8,
        m: u8,
        payload: &Bytes,
    ) -> Vec<StoredShard> {
        let code = replidedup_ec::RsCode::new(k, m).unwrap();
        let shards = code.encode(payload);
        let nodes = replidedup_ec::shard_nodes(key.seed(), code.shards(), c.node_count());
        shards
            .iter()
            .enumerate()
            .map(|(i, data)| {
                let meta = ShardMeta {
                    k,
                    m,
                    index: i as u8,
                    total_len: payload.len() as u64,
                };
                c.put_shard(nodes[i], key, meta, data.clone()).unwrap();
                StoredShard {
                    meta,
                    data: data.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn shards_roundtrip_and_account() {
        let c = Cluster::new(Placement::one_per_node(8));
        let key = StripeKey::Chunk(fp(9));
        let payload = Bytes::from(vec![7u8; 400]);
        let shards = encode_stripe(&c, key, 4, 2, &payload);
        let nodes = replidedup_ec::shard_nodes(key.seed(), 6, 8);
        for (i, node) in nodes.iter().enumerate() {
            assert!(c.has_shard(*node, key, i as u8));
            assert_eq!(c.get_shard(*node, key, i as u8).unwrap(), shards[i]);
        }
        // 4 data shards of 100 bytes + 2 parity of 100: 600 device bytes,
        // of which 200 are parity overhead.
        assert_eq!(c.total_device_bytes(), 600);
        assert_eq!(c.total_parity_bytes(), 200);
        // Re-put is idempotent on the accounting.
        assert!(!c
            .put_shard(nodes[0], key, shards[0].meta, shards[0].data.clone())
            .unwrap());
        assert_eq!(c.total_device_bytes(), 600);
        // Inventory lists every shard with its stripe.
        let inv = c.shard_inventory(nodes[0]).unwrap();
        assert_eq!(inv, vec![(key, shards[0].meta)]);
        // Quarantine evicts and un-accounts.
        assert!(c.quarantine_shard(nodes[0], key, 0).unwrap());
        assert!(!c.quarantine_shard(nodes[0], key, 0).unwrap());
        assert_eq!(c.total_device_bytes(), 500);
        assert_eq!(
            c.get_shard(nodes[0], key, 0),
            Err(StorageError::MissingShard { key, index: 0 })
        );
    }

    #[test]
    fn stripe_reconstructs_after_m_node_losses() {
        let c = Cluster::new(Placement::one_per_node(8));
        let key = StripeKey::Chunk(fp(3));
        let payload = Bytes::from((0..997u32).map(|i| i as u8).collect::<Vec<u8>>());
        encode_stripe(&c, key, 4, 2, &payload);
        let nodes = replidedup_ec::shard_nodes(key.seed(), 6, 8);
        // Any 2 of the stripe's nodes can die; 4 survivors suffice.
        c.fail_node(nodes[0]);
        c.fail_node(nodes[5]);
        assert_eq!(c.reconstruct_payload(key).unwrap(), payload);
        // A third loss leaves only 3 shards: unrecoverable.
        c.fail_node(nodes[1]);
        assert_eq!(c.reconstruct_payload(key), None);
        // An unknown stripe is simply absent.
        assert_eq!(c.reconstruct_payload(StripeKey::Chunk(fp(999))), None);
    }

    #[test]
    fn shards_die_with_node() {
        let c = Cluster::new(Placement::one_per_node(2));
        let key = StripeKey::Blob {
            owner: 0,
            dump_id: 1,
        };
        let meta = ShardMeta {
            k: 1,
            m: 1,
            index: 0,
            total_len: 4,
        };
        c.put_shard(0, key, meta, Bytes::from_static(b"abcd"))
            .unwrap();
        assert_eq!(c.device_bytes(0), 4);
        c.fail_node(0);
        c.revive_node(0);
        assert!(!c.has_shard(0, key, 0));
        assert_eq!(c.device_bytes(0), 0);
        assert!(c.shard_inventory(0).unwrap().is_empty());
    }

    #[test]
    fn gc_superseded_reclaims_old_generations_but_keeps_shared_chunks() {
        let c = Cluster::new(Placement::one_per_node(2));
        // Generation 1 and generation 2 share fp(1); fp(2) is gen-1-only
        // and fp(3) is gen-2-only.
        c.put_chunk(0, fp(1), Bytes::from_static(b"shared"))
            .unwrap();
        c.put_chunk(0, fp(2), Bytes::from_static(b"old")).unwrap();
        c.put_chunk(1, fp(3), Bytes::from_static(b"new")).unwrap();
        c.put_manifest(0, Manifest::fixed_stride(0, 1, 6, 9, vec![fp(1), fp(2)]))
            .unwrap();
        c.put_manifest(0, Manifest::fixed_stride(0, 2, 6, 12, vec![fp(1), fp(3)]))
            .unwrap();
        c.put_blob(1, 1, 1, Bytes::from_static(b"blob1")).unwrap();
        c.mark_absent(1, 3, 1).unwrap();
        assert_eq!(c.generations(), vec![1, 2]);

        let stats = c.gc_superseded(2);
        assert_eq!(stats.generations_collected, 1);
        assert_eq!(stats.manifests_removed, 1);
        assert_eq!(stats.blobs_removed, 1);
        assert_eq!(stats.chunks_removed, 1, "only the gen-1-only chunk goes");
        assert_eq!(stats.tombstones_removed, 1);
        // "old" (3) + "blob1" (5) reclaimed.
        assert_eq!(stats.bytes_reclaimed, 8);
        assert!(c.has_chunk(0, &fp(1)), "shared chunk survives");
        assert!(!c.has_chunk(0, &fp(2)));
        assert!(c.has_chunk(1, &fp(3)));
        assert!(!c.has_blob(1, 1, 1));
        assert_eq!(c.generations(), vec![2]);
        assert_eq!(c.absent_ranks(1, 1).unwrap(), Vec::<u32>::new());

        // Idempotent: a second sweep finds nothing.
        assert_eq!(c.gc_superseded(2), GcStats::default());
    }

    #[test]
    fn gc_superseded_drops_blob_stripes_and_orphan_chunk_stripes() {
        let c = Cluster::new(Placement::one_per_node(8));
        let old_blob = StripeKey::Blob {
            owner: 0,
            dump_id: 1,
        };
        let live_blob = StripeKey::Blob {
            owner: 0,
            dump_id: 2,
        };
        let payload = Bytes::from(vec![5u8; 400]);
        encode_stripe(&c, old_blob, 4, 2, &payload);
        encode_stripe(&c, live_blob, 4, 2, &payload);
        // A chunk stripe whose fingerprint no manifest references.
        encode_stripe(&c, StripeKey::Chunk(fp(77)), 4, 2, &payload);
        let stats = c.gc_superseded(2);
        // 6 shards of the superseded blob stripe + 6 of the orphan chunk
        // stripe; the live blob stripe survives untouched.
        assert_eq!(stats.shards_removed, 12);
        assert_eq!(stats.generations_collected, 1);
        assert!(c.reconstruct_payload(live_blob).is_some());
        assert!(c.reconstruct_payload(old_blob).is_none());
        assert_eq!(c.generations(), vec![2]);
    }

    #[test]
    fn gc_superseded_skips_dead_nodes() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_blob(0, 0, 1, Bytes::from_static(b"x")).unwrap();
        c.put_blob(1, 1, 1, Bytes::from_static(b"y")).unwrap();
        c.fail_node(1);
        let stats = c.gc_superseded(5);
        assert_eq!(stats.blobs_removed, 1, "only the live node is swept");
        assert_eq!(c.generations(), Vec::<DumpId>::new());
    }

    #[test]
    fn session_registry_rejects_duplicate_labels_and_never_reuses_ids() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = c.begin_session("nightly").unwrap();
        assert!(a > SessionId::DEFAULT);
        assert_eq!(c.begin_session("nightly"), None, "label is active");
        let b = c.begin_session("hourly").unwrap();
        assert_ne!(a, b);
        assert_eq!(
            c.active_sessions(),
            vec![("nightly".to_string(), a), ("hourly".to_string(), b)]
        );
        assert!(c.end_session(a));
        assert!(!c.end_session(a), "already closed");
        // Reopening the label hands out a fresh id.
        let a2 = c.begin_session("nightly").unwrap();
        assert_ne!(a2, a);
        assert_ne!(a2, b);
    }

    #[test]
    fn session_scoped_generations_partition_the_dump_space() {
        let s1 = SessionId::of(1u64 << SessionId::GENERATION_BITS);
        let gen = s1.scope(7);
        assert_eq!(SessionId::of(gen), s1);
        assert_eq!(SessionId::local_generation(gen), 7);
        assert_eq!(
            SessionId::DEFAULT.scope(7),
            7,
            "default session is identity"
        );
        assert_ne!(gen, 7);
    }

    #[test]
    fn gc_superseded_never_crosses_sessions() {
        let c = Cluster::new(Placement::one_per_node(2));
        let a = c.begin_session("a").unwrap();
        let b = c.begin_session("b").unwrap();
        // Session A writes generations 1 and 2; session B writes 1. B's
        // scoped generation is numerically *between* A's two.
        c.put_chunk(0, fp(10), Bytes::from_static(b"a-old"))
            .unwrap();
        c.put_manifest(0, Manifest::fixed_stride(0, a.scope(1), 5, 5, vec![fp(10)]))
            .unwrap();
        c.put_chunk(0, fp(11), Bytes::from_static(b"a-new"))
            .unwrap();
        c.put_manifest(0, Manifest::fixed_stride(0, a.scope(2), 5, 5, vec![fp(11)]))
            .unwrap();
        c.put_chunk(1, fp(12), Bytes::from_static(b"b-one"))
            .unwrap();
        c.put_manifest(1, Manifest::fixed_stride(1, b.scope(1), 5, 5, vec![fp(12)]))
            .unwrap();
        assert!(b.scope(1) > a.scope(2));

        // GC session A up to generation 2: A's gen 1 goes, B untouched.
        let stats = c.gc_superseded(a.scope(2));
        assert_eq!(stats.generations_collected, 1);
        assert!(!c.has_chunk(0, &fp(10)));
        assert!(c.has_chunk(0, &fp(11)));
        assert!(c.has_chunk(1, &fp(12)), "session B must survive A's GC");
        assert_eq!(c.generations(), vec![a.scope(2), b.scope(1)]);
    }

    #[test]
    fn gc_stats_merge_accumulates() {
        let mut a = GcStats {
            generations_collected: 1,
            manifests_removed: 2,
            bytes_reclaimed: 10,
            ..GcStats::default()
        };
        a.merge(&GcStats {
            generations_collected: 2,
            chunks_removed: 3,
            bytes_reclaimed: 5,
            ..GcStats::default()
        });
        assert_eq!(a.generations_collected, 3);
        assert_eq!(a.manifests_removed, 2);
        assert_eq!(a.chunks_removed, 3);
        assert_eq!(a.bytes_reclaimed, 15);
    }

    #[test]
    fn corrupt_and_quarantine_roundtrip() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_chunk(0, fp(3), Bytes::from_static(b"abcd")).unwrap();
        c.put_chunk(1, fp(3), Bytes::from_static(b"abcd")).unwrap();
        assert!(c.corrupt_chunk(0, &fp(3)).unwrap());
        assert_ne!(c.get_chunk(0, &fp(3)).unwrap(), Bytes::from_static(b"abcd"));
        // Quarantine drops the bad copy; the good replica survives.
        assert!(c.quarantine_chunk(0, &fp(3)).unwrap());
        assert_eq!(c.copies_of(&fp(3)), 1);
        assert!(!c.has_chunk(0, &fp(3)) && c.has_chunk(1, &fp(3)));
    }
}
