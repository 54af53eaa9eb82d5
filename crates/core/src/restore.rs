//! Collective restore: reconstruct every rank's buffer after failures.
//!
//! The half of checkpointing the paper leaves implicit: one round loop
//! over `repair::transfer` serves every key a rank cannot read intact off
//! its own node, `Owner(rank)` (its stored [`Recipe`]: its manifest, or
//! its raw blob under `no-dedup`) or `Chunk(fp)`. Reads, advertisements
//! and stores treat both recipe formats alike; the strategy only tells a
//! receiver how to decode an owner payload, and a blob is the one recipe
//! a stripe rescue can rebuild. Rank 0 plans each round once: every rank
//! sends it, in one gather-scatter, its wanted keys, tried `(key, node)`
//! pairs and advertised owners. A round in which
//! any rank wants an owner moves owners only and is planned right there;
//! otherwise chunks move, and a second gather-scatter carries each rank's
//! have-bits over the union of wanted chunks. Either way a rank gets back
//! only its part: the moves naming it and its keys with no server. A key
//! comes from its lowest-ranked holder on a node its requester has not
//! tried (its own node always counts as tried); a copy that arrives
//! corrupt, undecodable or not at all marks that node tried, and a key
//! with no holder left gets the one stripe rescue or is lost. After its
//! first chunk round a rank hashes the chunks its node holds once and
//! requests a corrupt (quarantined) or unreadable one next round. Payloads
//! that check out re-seed the node. One allreduce ends each round.
//!
//! Every storage call here names the rank's own node; the stripe rescue's
//! shard gather ([`replidedup_storage::Cluster::reconstruct_payload`]) is
//! the only shared-memory read of other nodes left. Every rank joins every
//! collective step even when its own restore already failed, so one lost
//! rank can never deadlock the others.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use replidedup_buf::{global_pool, record_copy, Chunk};
use replidedup_hash::{ChunkHasher, Fingerprint, FpHashMap, FpHashSet};
use replidedup_mpi::wire::{Wire, WireError, WireResult};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{
    Cluster, DumpId, Manifest, NodeId, Recipe, SessionId, ShardMeta, StorageError, StripeKey,
};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::heal::FIRST_BLOB;
use crate::repair::{leader_of, retry_read, transfer};

const TAG_RESTORE: Tag = 0x5250_0003;

/// Failures of a collective restore (per rank).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// Local node refused I/O.
    Storage(StorageError),
    /// No live node holds this rank's recipe (its manifest, or its raw
    /// blob under `no-dedup`), nor can a blob stripe rebuild it: more than
    /// `K-1` of its replica holders failed.
    RecipeLost {
        /// The rank whose recipe is gone.
        rank: u32,
    },
    /// A chunk referenced by the manifest has no live holder.
    ChunkLost(Fingerprint),
    /// A rank died (or a deadlock was suspected) during one of the restore
    /// protocol's collective steps.
    Comm(CommError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Storage(e) => write!(f, "storage failure during restore: {e}"),
            RestoreError::RecipeLost { rank } => write!(f, "recipe of rank {rank} lost"),
            RestoreError::ChunkLost(fp) => write!(f, "chunk {fp} lost on all nodes"),
            RestoreError::Comm(e) => write!(f, "communication failure during restore: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Storage(e) => Some(e),
            RestoreError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for RestoreError {
    fn from(e: StorageError) -> Self {
        RestoreError::Storage(e)
    }
}

impl From<CommError> for RestoreError {
    fn from(e: CommError) -> Self {
        RestoreError::Comm(e)
    }
}

/// What a restore round requests and moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    /// A rank's recipe: its manifest, or its raw blob under `no-dedup`.
    Owner(u32),
    /// A dedup chunk.
    Chunk(Fingerprint),
}

impl Wire for Key {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Key::Owner(rank) => (0u8, *rank).encode(buf),
            Key::Chunk(fp) => (1u8, *fp).encode(buf),
        }
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        match u8::decode(input)? {
            0 => u32::decode(input).map(Key::Owner),
            1 => Fingerprint::decode(input).map(Key::Chunk),
            _ => Err(WireError::Malformed { what: "Key" }),
        }
    }
}

// By hand, so chunk keys sort and search as fast as bare fingerprints;
// the derived order tests the variants first, a fifth slower at 128 ranks.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Key::Chunk(a), Key::Chunk(b)) => a.cmp(b),
            (Key::Owner(a), Key::Owner(b)) => a.cmp(b),
            (Key::Owner(_), Key::Chunk(_)) => Ordering::Less,
            (Key::Chunk(_), Key::Owner(_)) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The one server rule, for owner and chunk keys alike: the first of
/// `holders` (ranks, ascending) on a node `requester` has not tried for
/// `key`. Its own node always counts as tried; ranks on one node share a
/// store, so a node is tried, not a rank.
fn server(
    key: Key,
    requester: u32,
    tried: &[(Key, NodeId)],
    holders: impl IntoIterator<Item = u32>,
    node_of: impl Fn(u32) -> NodeId,
) -> Option<u32> {
    let home = node_of(requester);
    let untried = |nd: NodeId| nd != home && !tried.contains(&(key, nd));
    holders.into_iter().find(|&s| untried(node_of(s)))
}

/// A manifest's distinct chunks: those absent from `node` to request, and
/// those present to verify.
fn list_chunks(cluster: &Cluster, node: NodeId, m: &Manifest) -> (Vec<Key>, Vec<Fingerprint>) {
    let mut seen = FpHashSet::default();
    let distinct = m.chunks.iter().copied().filter(|fp| seen.insert(*fp));
    let (local, absent): (Vec<_>, Vec<_>) = distinct.partition(|fp| cluster.has_chunk(node, fp));
    (absent.into_iter().map(Key::Chunk).collect(), local)
}

pub(crate) fn restore_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
) -> Result<Chunk, RestoreError> {
    // `blobs`: how a received owner payload decodes.
    let (blobs, span) = match strategy {
        Strategy::NoDedup => (true, "blob_recovery"),
        Strategy::LocalDedup | Strategy::CollDedup => (false, "chunk_recovery"),
    };
    let me = comm.rank();
    let (cluster, dump_id) = (ctx.cluster, ctx.dump_id);
    let node = cluster.node_of(me);
    comm.tracer().enter(span);
    let mut recipe = fetch_with_retry(comm, || cluster.get_recipe(node, me, dump_id)).ok();
    let (mut wanted, mut local) = match &recipe {
        Some(Recipe::Manifest(m)) => list_chunks(cluster, node, m),
        Some(Recipe::Blob(_)) => Default::default(),
        None => (vec![Key::Owner(me)], Vec::new()),
    };
    let (mut tried, mut verified) = (Vec::new(), FpHashMap::default());
    let (mut fetched, mut result) = (0, None);
    loop {
        // This rank's request: the keys it still wants, the `(key, node)`
        // pairs it tried and the owners its node advertises.
        let advertised = cluster.recipe_owners(node, dump_id).unwrap_or_default();
        // Rank 0 plans the round. It keeps the chunk requests for the
        // have-bit gather-scatter of a chunk round.
        let mut kept = Vec::new();
        let request = (wanted.clone(), tried.clone(), advertised);
        let round = comm.try_gather_scatter(0, request, |requests| {
            plan_requests(requests, &mut kept, |s| cluster.node_of(s))
        })?;
        let (owner_round, part) = match round {
            Round::Owners(part) => (true, part),
            // No rank wants a chunk: nothing moves, and no bits are sent.
            Round::Chunks(union) if union.is_empty() => (false, Part::default()),
            Round::Chunks(union) => {
                let holds = |k: &Key| matches!(k, Key::Chunk(fp) if cluster.has_chunk(node, fp));
                let bits: Vec<bool> = union.iter().map(holds).collect();
                let part = comm.try_gather_scatter(0, bits, |have| {
                    plan_moves(&kept, &union, &have, |s| cluster.node_of(s))
                })?;
                (false, part)
            }
        };
        // A key with no untried holder gets the stripe rescue before the
        // transfer, so decode buffers and received frames never peak
        // together; one it cannot rebuild is lost, and reassemble says so.
        for key in &part.rescue {
            match *key {
                Key::Chunk(fp) => {
                    if let Some(data) = stripe_rescue(comm, ctx, StripeKey::Chunk(fp)) {
                        verified.insert(fp, data);
                    }
                }
                Key::Owner(owner) => {
                    let key = StripeKey::Blob { owner, dump_id };
                    recipe = stripe_rescue(comm, ctx, key).map(Recipe::Blob);
                }
            }
        }
        // The rescued keys are a subsequence of `wanted`, in its order.
        let mut rescued = part.rescue.iter().peekable();
        wanted.retain(|k| rescued.next_if_eq(&k).is_none());
        let moves = part.moves;
        // Payloads ride as zero-copy slices of the store's allocations and
        // of the received frame; once all are in, they are checked in one
        // batch, and each that checks out re-seeds the node.
        let mut arrived = Vec::new();
        let moved = transfer(
            comm,
            TAG_RESTORE,
            &moves,
            &mut None,
            |key| match *key {
                Key::Chunk(fp) => cluster.get_chunk(node, &fp),
                Key::Owner(owner) => Ok(cluster.get_recipe(node, owner, dump_id)?.into_bytes()),
            },
            |key, data| {
                let data = data.into_bytes();
                match key {
                    Key::Chunk(fp) => arrived.push((fp, Some(data))),
                    Key::Owner(owner) => {
                        let got = Recipe::from_bytes(blobs, data).ok()?;
                        if let Some(m) = got.manifest() {
                            (wanted, local) = list_chunks(cluster, node, m);
                        }
                        cluster.put_recipe(node, owner, dump_id, got.clone()).ok();
                        recipe = Some(got);
                    }
                }
                Some(true)
            },
        )?;
        note_retries(comm, moved.retries);
        let checked = intact(ctx.hasher, &arrived);
        for ((fp, data), ok) in arrived.into_iter().zip(checked) {
            if let (Some(data), true) = (data, ok) {
                cluster.put_chunk(node, fp, data.clone()).ok();
                verified.insert(fp, data);
                fetched += 1;
            }
        }
        // A key that arrived corrupt or undecodable, or not at all, marks
        // its server's node tried.
        let pending = |k: &Key| match k {
            Key::Chunk(fp) => !verified.contains_key(fp),
            Key::Owner(_) => recipe.is_none(),
        };
        let missed = moves.iter().filter(|&&(_, r, k)| r == me && pending(&k));
        tried.extend(missed.map(|&(s, _, k)| (k, cluster.node_of(s))));
        wanted.retain(pending);
        // Own-node verify, once, after the first chunk round's transfer, so
        // the hashing overlaps peers still in its collectives; an owner
        // round would hold up the ranks waiting for their manifests. A
        // corrupt or unreadable copy counts a replica fallback and is
        // requested next round; a corrupt one is quarantined for good.
        if !owner_round {
            let read: Vec<(Fingerprint, Option<Bytes>)> = std::mem::take(&mut local)
                .into_iter()
                .map(|fp| {
                    (
                        fp,
                        fetch_with_retry(comm, || cluster.get_chunk(node, &fp)).ok(),
                    )
                })
                .collect();
            let checked = intact(ctx.hasher, &read);
            for ((fp, data), ok) in read.into_iter().zip(checked) {
                match data {
                    Some(data) if ok => {
                        verified.insert(fp, data);
                        continue;
                    }
                    Some(_) => {
                        cluster.quarantine_chunk(node, &fp).ok();
                    }
                    None => {}
                }
                comm.tracer().counter("restore_replica_fallback", 1);
                wanted.push(Key::Chunk(fp));
            }
        }
        // ---- Step 3: reassemble, once nothing is left to fetch and before
        // the allreduce, so the copy too overlaps peers still in a round.
        let busy = !wanted.is_empty() || !local.is_empty();
        if !busy && result.is_none() {
            result = Some(match &recipe {
                Some(Recipe::Manifest(m)) => reassemble(comm, m, &verified),
                Some(Recipe::Blob(blob)) => Ok(Chunk::from(blob.clone())),
                None => Err(RestoreError::RecipeLost { rank: me }),
            });
        }
        if !comm.try_allreduce(busy, |a, b| a || b)? {
            break;
        }
    }
    comm.tracer().counter("chunks_recovered", fetched);
    comm.tracer().exit(span);
    // The loop ends only once nothing is wanted, so `result` is set.
    result.unwrap_or(Err(RestoreError::RecipeLost { rank: me }))
}

/// What a restart finds in one session's storage
/// ([`crate::Replicator::generations`]), as caller-visible generation ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Generations {
    /// The newest complete generation: every owner of the world has a
    /// recipe on a live node, or a blob stripe with at least `k` shards.
    /// A generation whose dump failed is never complete, so this is what
    /// a restart restores.
    pub complete: Option<DumpId>,
    /// The newest generation with any recipe or blob stripe left, complete
    /// or not. A later dump takes an id past it, so a failed attempt's
    /// leftovers never mix with a new generation.
    pub newest: Option<DumpId>,
}

/// One node's share of a session's generations: its recipes as
/// `(generation, owner)` pairs and its blob-stripe shards.
type Held = (Vec<(DumpId, u32)>, Vec<(StripeKey, ShardMeta)>);

/// The collective behind [`crate::Replicator::generations`]: each live
/// node's leader lists what its own node holds of `session`, and rank 0
/// judges every generation once, in one gather-scatter.
pub(crate) fn generations_impl(
    comm: &mut Comm,
    cluster: &Cluster,
    session: SessionId,
) -> Result<Generations, CommError> {
    let (me, n) = (comm.rank(), comm.size());
    let node = cluster.node_of(me);
    let mut held = Held::default();
    if leader_of(cluster, node, n) == Some(me) {
        let blob = |k: &StripeKey| matches!(k, StripeKey::Blob { dump_id, .. } if SessionId::of(*dump_id) == session);
        // A dead node lists nothing.
        held.0 = cluster.session_recipes(node, session).unwrap_or_default();
        held.1 = cluster
            .shard_inventory(node, FIRST_BLOB.., blob, usize::MAX)
            .unwrap_or_default();
    }
    let (complete, newest) = comm.try_gather_scatter(0, held, |world| {
        let found = judge_generations(n, world);
        vec![found; n as usize]
    })?;
    let local = |d: Option<DumpId>| d.map(SessionId::local_generation);
    Ok(Generations {
        complete: local(complete),
        newest: local(newest),
    })
}

/// Rank 0's verdict over every node's [`Held`]: the newest generation in
/// which each owner `0..n` has a recipe or a viable blob stripe (the rule
/// of the recovery planner's recipe pass), and the newest generation seen.
fn judge_generations(n: u32, world: Vec<Held>) -> (Option<DumpId>, Option<DumpId>) {
    let mut owners: BTreeMap<DumpId, BTreeSet<u32>> = BTreeMap::new();
    let mut stripes: BTreeMap<(DumpId, u32), (u8, BTreeSet<u8>)> = BTreeMap::new();
    for (recipes, shards) in world {
        for (d, owner) in recipes {
            owners.entry(d).or_default().insert(owner);
        }
        for (key, meta) in shards {
            if let StripeKey::Blob { owner, dump_id } = key {
                let entry = stripes
                    .entry((dump_id, owner))
                    .or_insert((meta.k, BTreeSet::new()));
                entry.1.insert(meta.index);
            }
        }
    }
    for ((d, owner), (k, have)) in stripes {
        let covered = owners.entry(d).or_default();
        if have.len() >= usize::from(k) {
            covered.insert(owner);
        }
    }
    let newest = owners.keys().next_back().copied();
    let complete = owners
        .iter()
        .rev()
        .find(|(_, covered)| (0..n).all(|r| covered.contains(&r)))
        .map(|(d, _)| *d);
    (complete, newest)
}

/// One rank's round request: the keys it still wants, the `(key, node)`
/// pairs it tried and the owners its node advertises.
type Request = (Vec<Key>, Vec<(Key, NodeId)>, Vec<u32>);

/// The part of a [`Request`] that [`plan_moves`] serves: wanted keys and
/// tried pairs.
type Ask = (Vec<Key>, Vec<(Key, NodeId)>);

/// One rank's part of a round's plan: the moves naming it, and the keys
/// it wants that no untried holder can serve, in its request's order.
#[derive(Debug, Default, PartialEq)]
struct Part {
    moves: Vec<(u32, u32, Key)>,
    rescue: Vec<Key>,
}

impl Wire for Part {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.moves.encode(buf);
        self.rescue.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(Part {
            moves: Vec::decode(input)?,
            rescue: Vec::decode(input)?,
        })
    }
}

/// Rank 0's answer to a round request. A round in which any rank wants
/// an owner moves owners only, and is planned at once from the owners
/// each node advertises; otherwise chunks move, and every rank gets the
/// union of the wanted chunks to send back its have-bits over.
#[derive(Debug, PartialEq)]
enum Round {
    Owners(Part),
    Chunks(Vec<Key>),
}

impl Wire for Round {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Round::Owners(part) => {
                0u8.encode(buf);
                part.encode(buf);
            }
            Round::Chunks(union) => {
                1u8.encode(buf);
                union.encode(buf);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        match u8::decode(input)? {
            0 => Part::decode(input).map(Round::Owners),
            1 => Vec::decode(input).map(Round::Chunks),
            _ => Err(WireError::Malformed { what: "Round" }),
        }
    }
}

/// Rank 0's plan of a round from every rank's request: each rank's
/// [`Round`]. A chunk round leaves every rank's wanted keys and tried
/// pairs in `kept`, for [`plan_moves`] once the have-bits are in.
fn plan_requests(
    requests: Vec<Request>,
    kept: &mut Vec<Ask>,
    node_of: impl Fn(u32) -> NodeId,
) -> Vec<Round> {
    let is_owner = |k: &Key| matches!(k, Key::Owner(_));
    let owner_round = requests.iter().flat_map(|q| &q.0).any(is_owner);
    // The keys moving this round, sorted for stable indexing: owners
    // only in a round in which any rank wants one, else chunks.
    let mut union: Vec<Key> = requests
        .iter()
        .flat_map(|q| &q.0)
        .filter(|k| is_owner(k) == owner_round)
        .copied()
        .collect();
    union.sort_unstable();
    union.dedup();
    if owner_round {
        // An owner's holders are the ranks whose node advertises it.
        let holds =
            |adv: &[u32], k: &Key| matches!(k, Key::Owner(o) if adv.binary_search(o).is_ok());
        let have: Vec<Vec<bool>> = requests
            .iter()
            .map(|q| union.iter().map(|k| holds(&q.2, k)).collect())
            .collect();
        let asks: Vec<_> = requests.into_iter().map(|q| (q.0, q.1)).collect();
        let parts = plan_moves(&asks, &union, &have, node_of);
        parts.into_iter().map(Round::Owners).collect()
    } else {
        *kept = requests.into_iter().map(|q| (q.0, q.1)).collect();
        kept.iter().map(|_| Round::Chunks(union.clone())).collect()
    }
}

/// Rank 0's moves for a round: every rank's wanted keys in `union`, the
/// sorted keys moving this round, go to [`server`] over their holders
/// (`have[s][i]`: rank `s` holds `union[i]`); the others wait for a later
/// round. Each rank's part holds the moves naming it, in the order of the
/// world's list, and its keys with no server.
fn plan_moves(
    asks: &[Ask],
    union: &[Key],
    have: &[Vec<bool>],
    node_of: impl Fn(u32) -> NodeId,
) -> Vec<Part> {
    // Each key's lowest-ranked holder, from one pass over the bitmaps.
    let mut lowest: Vec<Option<u32>> = vec![None; union.len()];
    for (s, bits) in (0u32..).zip(have) {
        for (slot, held) in lowest.iter_mut().zip(bits) {
            if *held && slot.is_none() {
                *slot = Some(s);
            }
        }
    }
    let serve = |r: u32, i: usize, key: &Key, tried: &[(Key, NodeId)]| {
        // Usually the lowest holder; the scan is for the fault paths.
        let first = lowest.get(i).copied().flatten()?;
        let later = (first..).zip(have.iter().skip(first as usize));
        let holders = later.filter_map(|(s, bits)| (bits.get(i) == Some(&true)).then_some(s));
        server(*key, r, tried, holders, &node_of)
    };
    let mut parts: Vec<Part> = asks.iter().map(|_| Part::default()).collect();
    for (r, (keys, tried)) in (0u32..).zip(asks) {
        for key in keys {
            let Ok(i) = union.binary_search(key) else {
                continue;
            };
            match serve(r, i, key, tried) {
                Some(s) => {
                    for at in [s, r] {
                        if let Some(part) = parts.get_mut(at as usize) {
                            part.moves.push((s, r, *key));
                        }
                    }
                }
                None => parts[r as usize].rescue.push(*key),
            }
        }
    }
    parts
}

/// Mark `retries` storage-read retries in the trace: a zero-length
/// `restore.retry` span at the spot and the `restore_retries` counter.
fn note_retries(comm: &mut Comm, retries: u64) {
    if retries > 0 {
        comm.tracer().enter("restore.retry");
        comm.tracer().exit("restore.retry");
        comm.tracer().counter("restore_retries", retries);
    }
}

/// Run one storage read under the fixed retry schedule
/// ([`retry_read`]); the backoff sleeps through [`Comm::sleep`].
fn fetch_with_retry<T>(
    comm: &mut Comm,
    op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let (out, retries) = retry_read(|d| comm.sleep(d), op);
    note_retries(comm, u64::from(retries));
    out
}

/// Whether each chunk's bytes hash to its fingerprint under `hasher`,
/// checked in one [`ChunkHasher::fingerprint_all`] batch; a chunk with no
/// bytes is not intact.
fn intact(hasher: &dyn ChunkHasher, chunks: &[(Fingerprint, Option<Bytes>)]) -> Vec<bool> {
    let held: Vec<&[u8]> = chunks.iter().filter_map(|(_, d)| d.as_deref()).collect();
    let mut sums = hasher.fingerprint_all(&held).into_iter();
    chunks
        .iter()
        .map(|(fp, d)| d.is_some() && sums.next() == Some(*fp))
        .collect()
}

/// The one stripe rescue: rebuild `key`'s payload from any `k` surviving
/// shards of its Reed-Solomon stripe, check a chunk against its
/// fingerprint, and re-seed this rank's node with it.
fn stripe_rescue(comm: &mut Comm, ctx: &DumpContext<'_>, key: StripeKey) -> Option<Bytes> {
    let data = ctx.cluster.reconstruct_payload(key)?;
    let node = ctx.cluster.node_of(comm.rank());
    match key {
        StripeKey::Chunk(fp) => {
            if ctx.hasher.fingerprint(&data) != fp {
                return None;
            }
            ctx.cluster.put_chunk(node, fp, data.clone()).ok();
        }
        StripeKey::Blob { owner, dump_id } => {
            let blob = Recipe::Blob(data.clone());
            ctx.cluster.put_recipe(node, owner, dump_id, blob).ok();
        }
    }
    comm.tracer().counter("restore_rs_reconstructed", 1);
    Some(data)
}

/// The manifest's chunks gathered from `verified` (repeat references
/// reuse the same refcounted bytes), or `ChunkLost` for one not there.
fn reassemble(
    comm: &mut Comm,
    m: &Manifest,
    verified: &FpHashMap<Bytes>,
) -> Result<Chunk, RestoreError> {
    comm.tracer().enter("reassemble");
    // Pool-recycled reassembly buffer; the gather below is the one
    // unavoidable copy of a chunked restore (scattered chunks into a
    // contiguous buffer), so it is charged to the copy accounting. The
    // filled buffer freezes into the returned `Chunk` without another copy.
    let mut buf = global_pool().take(m.total_len as usize);
    for (i, fp) in m.chunks.iter().enumerate() {
        let Some(data) = verified.get(fp) else {
            comm.tracer().exit("reassemble");
            return Err(RestoreError::ChunkLost(*fp));
        };
        debug_assert_eq!(data.len(), m.chunk_len(i), "chunk {i} length mismatch");
        buf.extend_from_slice(data);
        record_copy(data.len());
    }
    comm.tracer().exit("reassemble");
    Ok(Chunk::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DumpConfig, Strategy};
    use crate::dump::dump_impl;
    use replidedup_buf::Chunk;
    use replidedup_hash::Sha1ChunkHasher;
    use replidedup_mpi::{Event, EventKind, WorldConfig};
    use replidedup_storage::{Cluster, Placement};

    fn buffer_of(rank: u32) -> Vec<u8> {
        // Mixed shared/private content with a tail chunk.
        let mut buf = vec![0xAB; 64]; // shared across ranks
        buf.extend_from_slice(&[rank as u8 + 1; 64]);
        buf.extend_from_slice(&[0xCD; 20]); // tail
        buf
    }

    fn dump_then<T: Send>(
        n: u32,
        strategy: Strategy,
        k: u32,
        between: impl Fn(&Cluster) + Sync,
        after: impl Fn(&mut Comm, &DumpContext<'_>) -> T + Sync,
    ) -> Vec<T> {
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(strategy)
            .with_replication(k)
            .with_chunk_size(64);
        let out = WorldConfig::traced()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = buffer_of(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump");
                comm.barrier();
                if comm.rank() == 0 {
                    between(&cluster);
                }
                comm.barrier();
                after(comm, &ctx)
            })
            .expect_all();
        out.results
    }

    #[test]
    fn restore_without_failures_roundtrips_all_strategies() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let results = dump_then(
                4,
                strategy,
                3,
                |_| {},
                |comm, ctx| {
                    let buf = restore_impl(comm, ctx, strategy)
                        .map(Vec::from)
                        .expect("restore");
                    (comm.rank(), buf)
                },
            );
            for (rank, buf) in results {
                assert_eq!(buf, buffer_of(rank), "{strategy:?} rank {rank}");
            }
        }
    }

    #[test]
    fn restore_survives_k_minus_1_failures() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let results = dump_then(
                5,
                strategy,
                3,
                |cluster| {
                    // Fail K-1 = 2 nodes; revive as blank replacements.
                    cluster.fail_node(1);
                    cluster.fail_node(3);
                    cluster.revive_node(1);
                    cluster.revive_node(3);
                },
                |comm, ctx| {
                    let buf = restore_impl(comm, ctx, strategy)
                        .map(Vec::from)
                        .expect("restore after failures");
                    (comm.rank(), buf)
                },
            );
            for (rank, buf) in results {
                assert_eq!(buf, buffer_of(rank), "{strategy:?} rank {rank}");
            }
        }
    }

    #[test]
    fn restore_reseeds_revived_nodes() {
        let results = dump_then(
            4,
            Strategy::CollDedup,
            2,
            |cluster| {
                cluster.fail_node(2);
                cluster.revive_node(2);
            },
            |comm, ctx| {
                restore_impl(comm, ctx, Strategy::CollDedup)
                    .map(Vec::from)
                    .expect("restore");
                comm.barrier();
                // After restore, node 2 must again hold rank 2's chunks.
                if comm.rank() == 2 {
                    let recipe = ctx.cluster.get_recipe(2, 2, 1).expect("manifest re-seeded");
                    let m = recipe.manifest().expect("a manifest");
                    m.chunks.iter().all(|fp| ctx.cluster.has_chunk(2, fp))
                } else {
                    true
                }
            },
        );
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn too_many_failures_report_loss_without_deadlock() {
        // K=2 but both copies of rank 1's data die (its own node plus its
        // partner's). Rank 1 must get a loss error; everyone else restores.
        let results = dump_then(
            4,
            Strategy::CollDedup,
            2,
            |cluster| {
                // With identity shuffle (no-shuffle default is shuffle=true
                // for coll; partners depend on loads — fail rank 1's node
                // and every other node that could hold its manifest: for
                // K=2 exactly one partner holds it. Failing all nodes but
                // one that holds nothing of rank 1 is fiddly; instead fail
                // every node except node 0 and revive them, guaranteeing
                // loss unless node 0 happens to hold everything of rank 1.
                for nd in 1..4 {
                    cluster.fail_node(nd);
                    cluster.revive_node(nd);
                }
            },
            |comm, ctx| {
                (
                    comm.rank(),
                    restore_impl(comm, ctx, Strategy::CollDedup).map(Vec::from),
                )
            },
        );
        // Node 0 alone cannot hold all four ranks' data for K=2: at least
        // one rank must report loss — as a typed error, not a deadlock or
        // panic (which is the property under test).
        let losses = results.iter().filter(|(_, r)| r.is_err()).count();
        assert!(losses >= 1, "expected at least one loss, got {results:?}");
        // Whatever did restore must be byte-correct.
        for (rank, r) in &results {
            if let Ok(buf) = r {
                assert_eq!(*buf, buffer_of(*rank), "rank {rank} restored corrupt data");
            }
        }
    }

    #[test]
    fn server_is_the_lowest_holder_off_the_requesters_node() {
        let key = Key::Chunk(Fingerprint::synthetic(1));
        let one_per_node = |s: u32| s;
        assert_eq!(server(key, 0, &[], [2, 3, 5], one_per_node), Some(2));
        assert_eq!(server(key, 2, &[], [2, 3, 5], one_per_node), Some(3));
        // Ranks 0 and 1 share node 0: neither serves the other.
        let packed = Placement::pack(8, 2);
        let node_of = |s: u32| packed.node_of(s);
        assert_eq!(server(key, 0, &[], [1, 3, 4], node_of), Some(3));
        assert_eq!(server(Key::Owner(1), 1, &[], [0, 1, 2], node_of), Some(2));
    }

    #[test]
    fn server_skips_tried_nodes_until_none_is_left() {
        let (key, other) = (Key::Owner(0), Key::Owner(1));
        let packed = Placement::pack(8, 2);
        let node_of = |s: u32| packed.node_of(s);
        // Node 1 (ranks 2 and 3) was tried for this key; node 2 only for
        // another one.
        let tried = [(key, 1), (other, 2)];
        assert_eq!(server(key, 0, &tried, [2, 3, 4], node_of), Some(4));
        assert_eq!(server(key, 0, &tried, [1, 2, 3], node_of), None);
        assert_eq!(server(key, 0, &[], [], node_of), None);
    }

    /// Collectives each rank enters in one restore, as `[gather-scatter,
    /// allgather, allreduce, barrier]`: an owner round is one
    /// gather-scatter and one allreduce, a round that moves chunks adds
    /// the have-bit gather-scatter, and nothing else joins.
    #[test]
    fn restore_rounds_cost_their_collectives() {
        let cases = [
            (Strategy::CollDedup, false, [2, 0, 1, 0]),
            (Strategy::CollDedup, true, [3, 0, 2, 0]),
            (Strategy::LocalDedup, true, [3, 0, 2, 0]),
            (Strategy::NoDedup, false, [1, 0, 1, 0]),
            (Strategy::NoDedup, true, [1, 0, 1, 0]),
        ];
        for (strategy, wipe, want) in cases {
            let results = dump_then(
                4,
                strategy,
                3,
                |cluster| {
                    if wipe {
                        cluster.fail_node(1);
                        cluster.revive_node(1);
                    }
                },
                |comm, ctx| {
                    comm.take_trace_events();
                    let restored = restore_impl(comm, ctx, strategy).map(Vec::from);
                    let events = comm.take_trace_events();
                    let entered = |name: &str| {
                        let hit = |e: &&Event| e.name == name && e.kind == EventKind::Enter;
                        events.iter().filter(hit).count()
                    };
                    let counts = [
                        "coll_gather_scatter",
                        "coll_allgather",
                        "coll_allreduce",
                        "coll_barrier",
                    ]
                    .map(entered);
                    let fetched = events.iter().any(|e| {
                        e.name == "chunks_recovered"
                            && matches!(e.kind, EventKind::Counter(n) if n > 0)
                    });
                    (comm.rank(), restored, counts, fetched)
                },
            );
            let label = format!("{strategy:?}, wiped {wipe}");
            for (rank, restored, counts, _) in &results {
                assert_eq!(restored.as_ref().ok(), Some(&buffer_of(*rank)), "{label}");
                assert_eq!(*counts, want, "{label}: rank {rank}");
            }
            if strategy == Strategy::CollDedup && !wipe {
                assert!(
                    results.iter().any(|r| r.3),
                    "{label}: some chunk is fetched"
                );
            }
        }
    }

    #[test]
    fn second_generation_dump_restores_independently() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let rank = comm.rank();
                let ctx1 = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                dump_impl(comm, &ctx1, &Chunk::from(&[rank as u8; 100][..]), &cfg).unwrap();
                let ctx2 = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 2,
                };
                dump_impl(
                    comm,
                    &ctx2,
                    &Chunk::from(&[rank as u8 + 100; 100][..]),
                    &cfg,
                )
                .unwrap();
                let b1 = restore_impl(comm, &ctx1, Strategy::CollDedup)
                    .map(Vec::from)
                    .unwrap();
                let b2 = restore_impl(comm, &ctx2, Strategy::CollDedup)
                    .map(Vec::from)
                    .unwrap();
                (b1, b2, rank)
            })
            .expect_all();
        for (b1, b2, rank) in out.results {
            assert_eq!(b1, vec![rank as u8; 100]);
            assert_eq!(b2, vec![rank as u8 + 100; 100]);
        }
    }

    #[test]
    fn rs_coded_dump_restores_via_reconstruction() {
        use crate::config::RedundancyPolicy;
        // Under Rs(4+2) the private chunks exist only as stripe shards —
        // no replicas anywhere — so a successful restore proves the
        // decode-from-any-k reconstruction path end to end.
        let n = 6;
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(3)
            .with_chunk_size(64)
            .with_policy(RedundancyPolicy::Rs { k: 4, m: 2 });
        let out = WorldConfig::default()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = buffer_of(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump");
                comm.barrier();
                restore_impl(comm, &ctx, Strategy::CollDedup)
                    .map(Vec::from)
                    .expect("restore reconstructs coded chunks")
            })
            .expect_all();
        for (rank, buf) in out.results.into_iter().enumerate() {
            assert_eq!(buf, buffer_of(rank as u32), "rank {rank} byte-exact");
        }
    }
}
