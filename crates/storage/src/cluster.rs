//! Simulated cluster of compute nodes with local storage.
//!
//! The paper's testbed is 34 nodes with one HDD each and 12 ranks per node.
//! This module models that topology: a [`Cluster`] owns one
//! [`NodeState`] per node (chunk store + recipe directory + liveness),
//! and a [`Placement`] maps ranks to nodes. Node failures wipe the local
//! device — exactly the fault the paper replicates against ("local storage
//! devices are prone to failures and as such the data they hold is
//! volatile").
//!
//! Ranks (threads) share the cluster through `Arc<Cluster>`; per-node locks
//! keep access races out while still letting different nodes proceed in
//! parallel, mirroring per-device independence.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::{Bound, RangeBounds};

use bytes::Bytes;
use replidedup_hash::Fingerprint;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::manifest::{DumpId, ManifestError, Recipe};
use crate::shard::{ShardMeta, StoredShard, StripeKey};
use crate::store::ChunkStore;

/// Node index within a cluster.
pub type NodeId = u32;

/// Identifies one live replication session against a cluster. Sessions
/// partition the dump-generation space: a scoped [`DumpId`] carries its
/// session in the high 16 bits ([`SessionId::scope`]), so two overlapping
/// sessions — two concurrent dumps, a heal racing a dump — can use the
/// same caller-visible generation numbers without colliding in recipes,
/// stripes, or GC. Session 0 is the default (unlabeled) session;
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

/// Take a cluster lock, recovering it if a holder panicked. The
/// cluster's own updates under a lock cannot panic (the crate denies the
/// panic lints), so a poisoned lock means a caller's [`Cluster::with_node`]
/// closure unwound — say a rank's crash — and the node keeps serving
/// whatever that closure left, as a device keeps what was written before
/// its writer died. Refusing the lock instead would turn one dead rank
/// into a panic in every rank that touches that node.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why [`Cluster::begin_session`] opened no session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// A session with this label is still active.
    Duplicate,
    /// Every session id has been handed out: ids are never reused, so a
    /// cluster opens at most `u16::MAX` labeled sessions in its lifetime.
    Exhausted,
}

/// Storage-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The node's device is unavailable (node failed).
    NodeDown(NodeId),
    /// A referenced chunk is not present on the node.
    MissingChunk(Fingerprint),
    /// A requested recipe (manifest or blob) is not present on the node.
    MissingRecipe {
        /// Rank whose recipe was requested.
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
            StorageError::MissingRecipe { rank, dump_id } => {
                write!(f, "recipe of rank {rank} dump {dump_id} not on node")
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
    /// Restart recipes keyed by `(owner_rank, dump_id)`: manifests, or raw
    /// `no-dedup` blobs (duplicates and all).
    pub(crate) recipes: HashMap<(u32, DumpId), Recipe>,
    /// [`Recipe::device_bytes`] summed over `recipes`.
    recipe_bytes: u64,
    /// Erasure-coded shards keyed by `(stripe, shard index)`: each entry is
    /// self-describing (geometry + role in [`ShardMeta`]), so any `k`
    /// survivors of a stripe reconstruct the payload without a manifest.
    /// Ordered, so one stripe's shards are one contiguous range.
    pub(crate) shards: BTreeMap<(StripeKey, u8), StoredShard>,
    shard_bytes: u64,
    /// Remaining injected transient read failures: while positive, each
    /// read (chunk/recipe fetch) consumes one and fails with
    /// [`StorageError::Transient`]. Test/fault-injection state.
    transient_reads: u32,
    alive: bool,
}

/// What a collection reclaimed ([`Cluster::collect_superseded`],
/// [`Cluster::collect_orphans`], or a heal's GC summed over its nodes).
///
/// `generations_collected` counts the distinct superseded dump ids that
/// still had any on-device footprint (recipes or blob stripes) when the
/// collection ran — a steady-state health metric: a
/// healthy cluster collects every generation it supersedes, so the
/// count stays bounded by the dump rate instead of growing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Distinct superseded dump generations that had surviving state.
    pub generations_collected: u64,
    /// Recipes (manifests or `no-dedup` blobs) dropped across live nodes.
    pub recipes_removed: u64,
    /// Chunks no longer referenced by any surviving manifest, dropped.
    pub chunks_removed: u64,
    /// Erasure-coded shards dropped (superseded blob stripes plus stripes
    /// of unreferenced chunks).
    pub shards_removed: u64,
    /// Device bytes freed.
    pub bytes_reclaimed: u64,
}

impl GcStats {
    /// Fold another collection's counters into this one (heal sums its
    /// nodes' and its steps').
    pub fn merge(&mut self, other: &GcStats) {
        self.generations_collected += other.generations_collected;
        self.recipes_removed += other.recipes_removed;
        self.chunks_removed += other.chunks_removed;
        self.shards_removed += other.shards_removed;
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
    /// Fails with [`SessionError::Duplicate`] while a session with the
    /// same label is still active, and with [`SessionError::Exhausted`]
    /// once every id has been handed out. Session ids are monotonic and
    /// never reused, so generations scoped by distinct sessions never
    /// collide — even across reopenings of the same label.
    pub fn begin_session(&self, label: &str) -> Result<SessionId, SessionError> {
        let mut reg = lock(&self.sessions);
        if reg.active.contains_key(label) {
            return Err(SessionError::Duplicate);
        }
        reg.last = reg.last.checked_add(1).ok_or(SessionError::Exhausted)?;
        let id = SessionId(reg.last);
        reg.active.insert(label.to_string(), id);
        Ok(id)
    }

    /// Close a session, freeing its label for reuse. Returns whether the
    /// id named an active session. Stored data is untouched: generations
    /// the session wrote remain addressable by their scoped ids.
    pub fn end_session(&self, id: SessionId) -> bool {
        let mut reg = lock(&self.sessions);
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
        let reg = lock(&self.sessions);
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
        let mut state = lock(self.check(node));
        if !state.alive {
            return Err(StorageError::NodeDown(node));
        }
        Ok(f(&mut state))
    }

    /// Run `f` against every live node's state at once, in node order, all
    /// their locks held. Locks are taken in ascending node order, and no
    /// other code holds one node's lock while it takes another's, so this
    /// cannot deadlock; it blocks every node while `f` runs.
    pub(crate) fn with_live_nodes<R>(&self, f: impl FnOnce(&[(NodeId, &NodeState)]) -> R) -> R {
        let guards: Vec<(NodeId, MutexGuard<'_, NodeState>)> = (0..self.node_count())
            .map(|node| (node, lock(self.check(node))))
            .filter(|(_, state)| state.alive)
            .collect();
        let states: Vec<(NodeId, &NodeState)> = guards
            .iter()
            .map(|(node, state)| (*node, &**state))
            .collect();
        f(&states)
    }

    /// Consume one injected transient read failure, if any are pending.
    fn take_transient(n: &mut NodeState, node: NodeId) -> StorageResult<()> {
        if n.transient_reads > 0 {
            n.transient_reads -= 1;
            return Err(StorageError::Transient { node });
        }
        Ok(())
    }

    /// Arm `node` to fail its next `ops` reads (chunk/recipe/shard
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

    /// The `len` smallest fingerprints held on `node` strictly past
    /// `after`, ascending (`None, usize::MAX`: every one). The inventory
    /// read of the scrub and of each heal window: one pass over the store
    /// under the node lock, with no full sort for a bounded window.
    /// Presence listing, not a device read — injected transient failures
    /// do not affect it.
    pub fn chunk_fps(
        &self,
        node: NodeId,
        after: Option<Fingerprint>,
        len: usize,
    ) -> StorageResult<Vec<Fingerprint>> {
        self.with_node(node, |n| {
            smallest_past(n.store.fingerprints().copied(), after, len)
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
                .recipes
                .values()
                .filter_map(Recipe::manifest)
                .flat_map(|m| m.chunks.iter().copied())
                .collect();
            fps.sort_unstable();
            fps.dedup();
            fps
        })
    }

    /// The `len` smallest distinct fingerprints that `node`'s manifests for
    /// `dump_id` reference, strictly past `after`, ascending. The healer's
    /// bounded window over the chunks a generation's surviving recipes
    /// still need: built under the node lock in one pass over the
    /// references, with no copy of the manifests and no full sort.
    pub fn referenced_window(
        &self,
        node: NodeId,
        dump_id: DumpId,
        after: Option<Fingerprint>,
        len: usize,
    ) -> StorageResult<Vec<Fingerprint>> {
        self.with_node(node, |n| {
            let refs = n
                .recipes
                .iter()
                .filter(|((_, d), _)| *d == dump_id)
                .filter_map(|(_, r)| r.manifest())
                .flat_map(|m| m.chunks.iter().copied());
            smallest_past(refs, after, len)
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

    /// Store `owner`'s recipe for `dump_id` on `node`, replacing any
    /// previous one. A manifest is validated on ingest: an internally
    /// inconsistent recipe is rejected with [`StorageError::InvalidManifest`]
    /// instead of silently breaking a future restart. Returns the device
    /// bytes the recipe occupies ([`Recipe::device_bytes`]).
    pub fn put_recipe(
        &self,
        node: NodeId,
        owner: u32,
        dump_id: DumpId,
        recipe: Recipe,
    ) -> StorageResult<u64> {
        if let Recipe::Manifest(m) = &recipe {
            m.validate()?;
            debug_assert_eq!((m.owner_rank, m.dump_id), (owner, dump_id));
        }
        let len = recipe.device_bytes();
        self.with_node(node, |n| {
            if let Some(old) = n.recipes.insert((owner, dump_id), recipe) {
                n.recipe_bytes -= old.device_bytes();
            }
            n.recipe_bytes += len;
            len
        })
    }

    /// Fetch `rank`'s recipe for `dump_id` from `node`.
    pub fn get_recipe(&self, node: NodeId, rank: u32, dump_id: DumpId) -> StorageResult<Recipe> {
        self.with_node(node, |n| {
            Self::take_transient(n, node)?;
            n.recipes
                .get(&(rank, dump_id))
                .cloned()
                .ok_or(StorageError::MissingRecipe { rank, dump_id })
        })?
    }

    /// Owner ranks whose recipes for `dump_id` are held on `node`
    /// (sorted). Used by restore and heal to advertise recipes.
    pub fn recipe_owners(&self, node: NodeId, dump_id: DumpId) -> StorageResult<Vec<u32>> {
        self.with_node(node, |n| {
            let mut owners: Vec<u32> = n
                .recipes
                .keys()
                .filter(|(_, d)| *d == dump_id)
                .map(|(r, _)| *r)
                .collect();
            owners.sort_unstable();
            owners
        })
    }

    /// `node`'s recipes in `session`'s generations, as `(generation,
    /// owner)` pairs sorted ascending.
    pub fn session_recipes(
        &self,
        node: NodeId,
        session: SessionId,
    ) -> StorageResult<Vec<(DumpId, u32)>> {
        self.with_node(node, |n| {
            let in_session = |d: &DumpId| SessionId::of(*d) == session;
            let mut keys: Vec<(DumpId, u32)> = n
                .recipes
                .keys()
                .filter(|(_, d)| in_session(d))
                .map(|&(owner, d)| (d, owner))
                .collect();
            keys.sort_unstable();
            keys
        })
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

    /// `node`'s shards as `(stripe, meta)` pairs sorted by stripe then
    /// shard index: those of the first `len` distinct stripes in `stripes`
    /// that `keep` accepts (`.., |_| true, usize::MAX`: every shard). One
    /// ordered range walk under the node lock that stops at the first
    /// stripe past the window.
    pub fn shard_inventory(
        &self,
        node: NodeId,
        stripes: impl RangeBounds<StripeKey>,
        keep: impl Fn(&StripeKey) -> bool,
        len: usize,
    ) -> StorageResult<Vec<(StripeKey, ShardMeta)>> {
        let from = match stripes.start_bound() {
            Bound::Included(key) => Bound::Included((*key, 0)),
            Bound::Excluded(key) => Bound::Excluded((*key, u8::MAX)),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.with_node(node, |n| {
            let mut out: Vec<(StripeKey, ShardMeta)> = Vec::new();
            let mut distinct = 0;
            for ((key, _), s) in n.shards.range((from, Bound::Unbounded)) {
                if !stripes.contains(key) {
                    break; // the walk started inside, so this is past the end
                }
                if !keep(key) {
                    continue;
                }
                if out.last().is_none_or(|(last, _)| last != key) {
                    if distinct == len {
                        break;
                    }
                    distinct += 1;
                }
                out.push((*key, s.meta));
            }
            out
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
    /// shard index (lowest node wins on duplicates), sorted by index. A
    /// direct read of every node's device: only the stripe decoders below
    /// call it.
    fn gather_shards(&self, key: StripeKey) -> Vec<StoredShard> {
        let mut found: BTreeMap<u8, StoredShard> = BTreeMap::new();
        for node in 0..self.node_count() {
            // A down node contributes nothing.
            self.with_node(node, |n| {
                for ((_, index), s) in n.shards.range((key, 0)..=(key, u8::MAX)) {
                    found.entry(*index).or_insert_with(|| s.clone());
                }
            })
            .ok();
        }
        found.into_values().collect()
    }

    /// The stripe decoders' shared prelude: gather the surviving shards,
    /// take the geometry from the first, and hand `decode` the code, that
    /// geometry, the payload length and the `(index, bytes)` of every
    /// shard that agrees with it. `None` when no shard survives.
    fn decode_stripe<T>(
        &self,
        key: StripeKey,
        decode: impl FnOnce(&replidedup_ec::RsCode, ShardMeta, usize, &[(u8, &[u8])]) -> Option<T>,
    ) -> Option<T> {
        let shards = self.gather_shards(key);
        let first = shards.first()?.meta;
        let len = usize::try_from(first.total_len).ok()?;
        let consistent: Vec<(u8, &[u8])> = shards
            .iter()
            .filter(|s| s.meta.k == first.k && s.meta.m == first.m)
            .map(|s| (s.meta.index, s.data.as_ref()))
            .collect();
        let code = replidedup_ec::RsCode::new(first.k, first.m).ok()?;
        decode(&code, first, len, &consistent)
    }

    /// Reconstruct a stripe's payload from any `k` surviving shards across
    /// live nodes. `None` when fewer than `k` shards survive, when the
    /// survivors disagree on geometry, or when decode fails — the caller
    /// maps that to its own loss class (restore's `ChunkLost`/`RecipeLost`).
    pub fn reconstruct_payload(&self, key: StripeKey) -> Option<Bytes> {
        self.decode_stripe(key, |code, _, len, shards| {
            code.decode(shards, len).ok().map(Bytes::from)
        })
    }

    /// Rebuild one shard of a stripe from any `k` surviving shards across
    /// live nodes, returned ready to store (the caller decides which node
    /// re-homes it). `None` when fewer than `k` consistent shards survive,
    /// when the survivors disagree on geometry, or when decode fails.
    pub fn rebuild_shard(&self, key: StripeKey, index: u8) -> Option<StoredShard> {
        self.decode_stripe(key, |code, first, len, shards| {
            let data = code.reconstruct_shard(shards, index, len).ok()?;
            Some(StoredShard {
                meta: ShardMeta { index, ..first },
                data: Bytes::from(data),
            })
        })
    }

    /// Raw device usage of a node in bytes: chunk store plus blob recipes
    /// plus erasure-coded shards (manifests are metadata and count 0).
    pub fn device_bytes(&self, node: NodeId) -> u64 {
        let s = lock(self.check(node));
        if s.alive {
            s.store.bytes_stored() + s.recipe_bytes + s.shard_bytes
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
                let s = lock(n);
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
        lock(self.check(node)).alive
    }

    /// Fail a node: the device contents are lost.
    pub fn fail_node(&self, node: NodeId) {
        let mut state = lock(self.check(node));
        state.alive = false;
        state.store.wipe();
        state.recipes.clear();
        state.recipe_bytes = 0;
        state.shards.clear();
        state.shard_bytes = 0;
        state.transient_reads = 0;
    }

    /// Bring a replacement node online (empty device, same identity).
    pub fn revive_node(&self, node: NodeId) {
        lock(self.check(node)).alive = true;
    }

    /// Total unique bytes stored across live nodes (Figure 3(a)'s metric
    /// when summed right after a dump).
    pub fn total_unique_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let s = lock(n);
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
                let s = lock(n);
                u32::from(s.alive && s.store.contains(fp))
            })
            .sum()
    }

    /// Every dump generation with any footprint on a live node (recipes or
    /// blob stripes), sorted ascending, complete or not. It reads every
    /// node, so it is a test oracle: a restart learns which generations
    /// exist from the collective that has each node's leader read only its
    /// own node (`Replicator::generations` in `replidedup-core`), and the
    /// heal learns what it collected from each node's
    /// [`Cluster::collect_superseded`].
    pub fn generations(&self) -> Vec<DumpId> {
        let mut gens: Vec<DumpId> = Vec::new();
        for node in 0..self.node_count() {
            let s = lock(self.check(node));
            if !s.alive {
                continue;
            }
            gens.extend(s.recipes.keys().map(|(_, d)| *d));
            gens.extend(s.shards.keys().filter_map(|(key, _)| match key {
                StripeKey::Blob { dump_id, .. } => Some(*dump_id),
                StripeKey::Chunk(_) => None,
            }));
        }
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Collect `node`'s share of every dump generation older than `before`
    /// in `before`'s session: drop its recipes and blob stripes. Returns what it reclaimed and the generations it found
    /// any of those for, sorted (`generations_collected` counts them).
    /// Chunks stay: whether one is still referenced is a cluster-wide
    /// fact, which the collective scrub resolves into the orphans that
    /// [`Cluster::collect_orphans`] drops. Generations are scoped per
    /// session, so collecting session A never reaps session B's.
    pub fn collect_superseded(
        &self,
        node: NodeId,
        before: DumpId,
    ) -> StorageResult<(GcStats, Vec<DumpId>)> {
        let superseded = |d: DumpId| SessionId::of(d) == SessionId::of(before) && d < before;
        self.with_node(node, |s| {
            let mut stats = GcStats::default();
            let mut collected = Vec::new();
            s.recipes.retain(|&(_, d), recipe| {
                if !superseded(d) {
                    return true;
                }
                s.recipe_bytes -= recipe.device_bytes();
                stats.recipes_removed += 1;
                stats.bytes_reclaimed += recipe.device_bytes();
                collected.push(d);
                false
            });
            s.shards.retain(|(key, _), shard| match key {
                StripeKey::Blob { dump_id, .. } if superseded(*dump_id) => {
                    s.shard_bytes -= shard.data.len() as u64;
                    stats.shards_removed += 1;
                    stats.bytes_reclaimed += shard.data.len() as u64;
                    collected.push(*dump_id);
                    false
                }
                _ => true,
            });
            collected.sort_unstable();
            collected.dedup();
            stats.generations_collected = collected.len() as u64;
            (stats, collected)
        })
    }

    /// Drop `fps` (sorted) from `node`: each chunk and every shard of its
    /// chunk stripe. The caller vouches that no live manifest anywhere
    /// references them (the heal passes its node's orphans from the
    /// collective scrub): GC is reference-driven, never generation-tagged,
    /// because content addressing shares chunk bytes across generations.
    ///
    /// Must not run concurrently with an in-flight dump: dumps store
    /// chunks before committing the manifests that reference them, so those
    /// chunks look unreferenced until the commit. The healing engine
    /// collects inside its own collective step, which serializes it
    /// against dump traffic.
    pub fn collect_orphans(&self, node: NodeId, fps: &[Fingerprint]) -> StorageResult<GcStats> {
        self.with_node(node, |s| {
            let mut stats = GcStats::default();
            for fp in fps {
                if let Some(data) = s.store.get(fp) {
                    s.store.remove(fp);
                    stats.chunks_removed += 1;
                    stats.bytes_reclaimed += data.len() as u64;
                }
            }
            s.shards.retain(|(key, _), shard| match key {
                StripeKey::Chunk(fp) if fps.binary_search(fp).is_ok() => {
                    s.shard_bytes -= shard.data.len() as u64;
                    stats.shards_removed += 1;
                    stats.bytes_reclaimed += shard.data.len() as u64;
                    false
                }
                _ => true,
            });
            stats
        })
    }
}

/// The `len` smallest distinct keys strictly past `after`, ascending. One
/// pass: candidates collect in a buffer of at most `2 * len`; whenever it
/// fills it is cut back to its `len` smallest distinct keys, and from the
/// first full cut on, every key above the largest kept one is dropped on
/// sight. With `len = usize::MAX` this is the whole sorted, deduplicated
/// listing.
fn smallest_past<K: Ord + Copy>(
    keys: impl Iterator<Item = K>,
    after: Option<K>,
    len: usize,
) -> Vec<K> {
    let cut = |buf: &mut Vec<K>| {
        buf.sort_unstable();
        buf.dedup();
        buf.truncate(len);
    };
    let mut buf = Vec::new();
    let mut ceiling: Option<K> = None;
    for key in keys {
        if after.is_some_and(|a| key <= a) || ceiling.is_some_and(|c| key > c) {
            continue;
        }
        buf.push(key);
        if buf.len() >= len.saturating_mul(2).max(1) {
            cut(&mut buf);
            if buf.len() == len {
                ceiling = buf.last().copied();
            }
        }
    }
    cut(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    fn blob(data: &'static [u8]) -> Recipe {
        Recipe::Blob(Bytes::from_static(data))
    }

    fn put_manifest(c: &Cluster, node: NodeId, m: Manifest) {
        c.put_recipe(node, m.owner_rank, m.dump_id, Recipe::Manifest(m))
            .unwrap();
    }

    #[test]
    fn smallest_past_counts_distinct_keys_through_duplicates() {
        // The first full buffer is one key four times: the cut keeps one
        // distinct key, which must not yet cap the keys still to come.
        let keys = [1, 1, 1, 1, 7, 3, 9, 2];
        assert_eq!(smallest_past(keys.into_iter(), None, 2), vec![1, 2]);
        assert_eq!(smallest_past(keys.into_iter(), Some(1), 2), vec![2, 3]);
        assert_eq!(smallest_past(keys.into_iter(), Some(7), 5), vec![9]);
        assert_eq!(
            smallest_past(keys.into_iter(), None, usize::MAX),
            vec![1, 2, 3, 7, 9],
            "an unbounded window is the whole sorted listing"
        );
    }

    #[test]
    fn shard_inventory_walks_one_stripe_range_and_counts_stripes() {
        let c = Cluster::new(Placement::one_per_node(1));
        let meta = |index| ShardMeta {
            k: 1,
            m: 1,
            index,
            total_len: 1,
        };
        let blob = |owner| StripeKey::Blob { owner, dump_id: 1 };
        let keys = [
            StripeKey::Chunk(fp(1)),
            StripeKey::Chunk(fp(2)),
            blob(0),
            blob(1),
        ];
        for key in keys {
            for index in 0..2 {
                c.put_shard(0, key, meta(index), Bytes::from_static(b"s"))
                    .unwrap();
            }
        }
        let all = c.shard_inventory(0, .., |_| true, usize::MAX).unwrap();
        let window = |range: (Bound<StripeKey>, Bound<StripeKey>), len| {
            c.shard_inventory(0, range, |_| true, len).unwrap()
        };
        let (first, second) = (all[0].0, all[2].0);
        assert_eq!(
            window((Bound::Unbounded, Bound::Unbounded), usize::MAX),
            all
        );
        assert_eq!(
            window((Bound::Unbounded, Bound::Unbounded), 1),
            all[..2],
            "both shards of the first stripe, none of the next"
        );
        assert_eq!(
            window((Bound::Excluded(first), Bound::Excluded(blob(0))), 9),
            all[2..4],
            "strictly past the first stripe, and stopped before the blobs"
        );
        assert_eq!(
            window((Bound::Included(second), Bound::Included(blob(0))), 9),
            all[2..6]
        );
        let kept = c.shard_inventory(0, .., |key| *key != second, 2).unwrap();
        assert_eq!(
            kept,
            [&all[..2], &all[4..6]].concat(),
            "skipped stripes do not count"
        );
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
        let m = Recipe::Manifest(Manifest::fixed_stride(1, 5, 4, 4, vec![fp(9)]));
        // A manifest is metadata: it occupies no device bytes.
        assert_eq!(c.put_recipe(0, 1, 5, m.clone()).unwrap(), 0);
        assert_eq!(c.device_bytes(0), 0);
        assert_eq!(c.get_recipe(0, 1, 5).unwrap(), m);
        assert_eq!(c.recipe_owners(0, 5).unwrap(), vec![1]);
        assert_eq!(c.generations(), vec![5]);
        assert_eq!(
            c.get_recipe(0, 1, 6),
            Err(StorageError::MissingRecipe {
                rank: 1,
                dump_id: 6
            })
        );
        c.fail_node(0);
        c.revive_node(0);
        assert!(c.get_recipe(0, 1, 5).is_err());
        assert_eq!(c.generations(), Vec::<DumpId>::new());
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
        assert_eq!(c.put_recipe(0, 1, 7, blob(b"hello")).unwrap(), 5);
        assert_eq!(c.get_recipe(0, 1, 7).unwrap(), blob(b"hello"));
        assert!(c.get_recipe(1, 1, 7).is_err());
        assert_eq!(c.generations(), vec![7]);
        assert_eq!(c.device_bytes(0), 5);
        // Overwrite replaces, not accumulates.
        assert_eq!(c.put_recipe(0, 1, 7, blob(b"hi")).unwrap(), 2);
        assert_eq!(c.device_bytes(0), 2);
        assert_eq!(c.total_device_bytes(), 2);
        // A manifest overwriting the blob gives its bytes back.
        let m = Manifest::fixed_stride(1, 7, 4, 4, vec![fp(9)]);
        assert_eq!(c.put_recipe(0, 1, 7, Recipe::Manifest(m)).unwrap(), 0);
        assert_eq!(c.device_bytes(0), 0);
    }

    #[test]
    fn blobs_die_with_node() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.put_recipe(0, 0, 1, blob(b"x")).unwrap();
        c.fail_node(0);
        c.revive_node(0);
        assert!(c.get_recipe(0, 0, 1).is_err());
        assert_eq!(c.device_bytes(0), 0);
    }

    #[test]
    fn device_bytes_combines_chunks_and_blobs() {
        let c = Cluster::new(Placement::one_per_node(1));
        c.put_chunk(0, fp(1), Bytes::from_static(b"abcd")).unwrap();
        c.put_recipe(0, 0, 1, blob(b"xyz")).unwrap();
        let m = Manifest::fixed_stride(1, 1, 4, 4, vec![fp(1)]);
        c.put_recipe(0, 1, 1, Recipe::Manifest(m)).unwrap();
        assert_eq!(c.device_bytes(0), 7);
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
        let put = c.put_recipe(0, 0, 0, Recipe::Manifest(bad));
        assert!(
            matches!(
                put,
                Err(StorageError::InvalidManifest(
                    ManifestError::LengthSumMismatch {
                        sum: 0,
                        total_len: 100,
                        ..
                    }
                ))
            ),
            "expected InvalidManifest, got {put:?}"
        );
        // Nothing was stored.
        assert!(c.get_recipe(0, 0, 0).is_err());
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
        let inv = c
            .shard_inventory(nodes[0], .., |_| true, usize::MAX)
            .unwrap();
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

    /// Stripes whose keys sort next to each other on one node: two chunk
    /// fingerprints that differ only in their last byte, and a blob.
    /// Gathering one stripe returns exactly its own shards.
    #[test]
    fn gather_returns_only_the_requested_stripe_among_neighbours() {
        let c = Cluster::new(Placement::one_per_node(1));
        let mut low = [0x5au8; 20];
        low[19] = 0x10;
        let mut high = low;
        high[19] = 0x11;
        let keys = [
            StripeKey::Chunk(Fingerprint::from_bytes(low)),
            StripeKey::Chunk(Fingerprint::from_bytes(high)),
            StripeKey::Blob {
                owner: 0,
                dump_id: 1,
            },
        ];
        let payloads: Vec<Bytes> = (0..3u8)
            .map(|i| Bytes::from(vec![i + 1; 90 + i as usize]))
            .collect();
        for (key, payload) in keys.iter().zip(&payloads) {
            encode_stripe(&c, *key, 2, 1, payload);
        }
        for (key, payload) in keys.iter().zip(&payloads) {
            let shards = c.gather_shards(*key);
            let indices: Vec<u8> = shards.iter().map(|s| s.meta.index).collect();
            assert_eq!(indices, vec![0, 1, 2], "{key:?}");
            assert!(shards
                .iter()
                .all(|s| s.meta.total_len == payload.len() as u64));
            assert_eq!(
                c.reconstruct_payload(*key).as_ref(),
                Some(payload),
                "{key:?}"
            );
        }
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
        assert!(c
            .shard_inventory(0, .., |_| true, usize::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn collection_drops_blob_stripes_and_orphan_chunk_stripes() {
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
        // A chunk stripe whose fingerprint no manifest references, plus a
        // plain copy of it on node 0.
        encode_stripe(&c, StripeKey::Chunk(fp(77)), 4, 2, &payload);
        c.put_chunk(0, fp(77), Bytes::from_static(b"orphan"))
            .unwrap();
        let mut stats = GcStats::default();
        let mut generations = Vec::new();
        for node in 0..c.node_count() {
            let (superseded, collected) = c.collect_superseded(node, 2).unwrap();
            stats.merge(&superseded);
            generations.extend(collected);
            stats.merge(&c.collect_orphans(node, &[fp(77)]).unwrap());
        }
        // 6 shards of the superseded blob stripe + 6 of the orphan chunk
        // stripe; the live blob stripe survives untouched.
        assert_eq!(stats.shards_removed, 12);
        assert_eq!(stats.chunks_removed, 1);
        generations.dedup();
        assert_eq!(generations, vec![1], "each node that held it names gen 1");
        assert!(c.reconstruct_payload(live_blob).is_some());
        assert!(c.reconstruct_payload(old_blob).is_none());
        assert_eq!(c.copies_of(&fp(77)), 0);
        assert_eq!(c.generations(), vec![2]);
        assert_eq!(c.total_device_bytes(), 6 * 100, "the live stripe's shards");
        // Idempotent: a second collection finds nothing.
        for node in 0..c.node_count() {
            assert_eq!(c.collect_superseded(node, 2).unwrap().0, GcStats::default());
            assert_eq!(
                c.collect_orphans(node, &[fp(77)]).unwrap(),
                GcStats::default()
            );
        }
    }

    #[test]
    fn collect_superseded_skips_dead_nodes() {
        let c = Cluster::new(Placement::one_per_node(2));
        c.put_recipe(0, 0, 1, blob(b"x")).unwrap();
        c.put_recipe(1, 1, 1, blob(b"y")).unwrap();
        c.fail_node(1);
        let (stats, generations) = c.collect_superseded(0, 5).unwrap();
        assert_eq!(stats.recipes_removed, 1, "only its own node's recipe");
        assert_eq!((stats.generations_collected, generations), (1, vec![1]));
        assert_eq!(stats.bytes_reclaimed, 1);
        assert_eq!(c.collect_superseded(1, 5), Err(StorageError::NodeDown(1)));
        assert_eq!(
            c.collect_orphans(1, &[fp(1)]),
            Err(StorageError::NodeDown(1))
        );
        assert_eq!(c.generations(), Vec::<DumpId>::new());
        assert_eq!(c.device_bytes(0), 0);
    }

    #[test]
    fn session_registry_rejects_duplicate_labels_and_never_reuses_ids() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = c.begin_session("nightly").unwrap();
        assert!(a > SessionId::DEFAULT);
        assert_eq!(
            c.begin_session("nightly"),
            Err(SessionError::Duplicate),
            "label is active"
        );
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
    fn collect_superseded_never_crosses_sessions() {
        let c = Cluster::new(Placement::one_per_node(1));
        let a = c.begin_session("a").unwrap();
        let b = c.begin_session("b").unwrap();
        // Session A writes generations 1 and 2; session B writes 1. B's
        // scoped generation is numerically *between* A's two.
        c.put_chunk(0, fp(10), Bytes::from_static(b"a-old"))
            .unwrap();
        put_manifest(
            &c,
            0,
            Manifest::fixed_stride(0, a.scope(1), 5, 5, vec![fp(10)]),
        );
        put_manifest(
            &c,
            0,
            Manifest::fixed_stride(0, a.scope(2), 5, 5, vec![fp(11)]),
        );
        put_manifest(
            &c,
            0,
            Manifest::fixed_stride(1, b.scope(1), 5, 5, vec![fp(12)]),
        );
        assert!(b.scope(1) > a.scope(2));

        // Collect session A up to generation 2: A's gen 1 goes, B's
        // recipe stays, and no chunk is touched.
        let (stats, generations) = c.collect_superseded(0, a.scope(2)).unwrap();
        assert_eq!(generations, vec![a.scope(1)]);
        assert_eq!(stats.recipes_removed, 1);
        assert!(c.has_chunk(0, &fp(10)), "chunks wait for the census");
        assert!(c.get_recipe(0, 1, b.scope(1)).is_ok());
        assert_eq!(c.generations(), vec![a.scope(2), b.scope(1)]);
    }

    #[test]
    fn gc_stats_merge_accumulates() {
        let mut a = GcStats {
            generations_collected: 1,
            recipes_removed: 2,
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
        assert_eq!(a.recipes_removed, 2);
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
