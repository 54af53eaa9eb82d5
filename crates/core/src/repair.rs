//! What the recovery collectives share: the error type, the per-node
//! inventory, the pure transfer planner, the read-only scrub and the one
//! routine that moves recovery payloads.
//!
//! The paper replicates at dump time; a node that fails afterwards leaves
//! every chunk it held one copy short. Restore tolerates that (up to
//! `K-1` losses), but tolerance is not healing: a second failure eats into
//! margin that was never rebuilt. [`crate::heal`] is the one engine that
//! closes the loop — run it after reviving (or replacing) a failed node
//! and the cluster converges back to full replication. This module holds
//! the pieces that engine, [`crate::restore`] and
//! [`crate::Replicator::scrub`] need:
//!
//! * `NodeInventory` — what one node's leader contributes to a window's
//!   one allgather (manifest owners, blob owners, referenced and held
//!   fingerprints, tombstones, erasure-coded shards). The held lists are
//!   the live-copy census: a chunk's holders are the live leaders whose
//!   inventory lists it.
//! * `build_plan` — the deterministic planner. Fed the allgathered
//!   inventories, every rank derives the identical plan: under-replicated
//!   chunks go to the least-loaded live non-holders, lost manifests/blobs
//!   are re-materialized from any surviving copy (the owner's own node
//!   first), and every viable Reed-Solomon stripe is healed back to `k+m`
//!   shards on their home nodes. A coded payload with no replica counts
//!   as healthy while its stripe keeps at least `k` shards. Data with zero
//!   surviving copies — or a stripe below `k` shards — is beyond repair by
//!   construction; the plan reports it instead of failing, so one
//!   unrecoverable buffer does not block healing everything else.
//! * `transfer` — the only code that sends or receives restore and heal
//!   payload frames, executing a `(src, dst, key)` move list under one
//!   completion rule (see its docs), with every storage read on the fixed
//!   retry schedule of `retry_read`.
//! * `scrub_impl` — the read-only collective integrity scrub.
//! * [`RepairError`] — every way a scrub or heal step can fail.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use bytes::Bytes;
use replidedup_buf::Chunk;
use replidedup_ec::shard_nodes;
use replidedup_hash::{Fingerprint, FpHashSet};
use replidedup_mpi::wire::{FrameReader, FrameWriter, Wire, WireResult};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{
    Cluster, DumpId, NodeId, ScrubReport, ShardMeta, StorageError, StripeKey,
};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::global::{fp_cmp, fp_head};
use crate::heal::{throttle, TokenBucket};

/// Failures of a collective heal or scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepairError {
    /// A node refused I/O while scrubbing or moving data.
    Storage(StorageError),
    /// A rank died (or a deadlock was suspected) during one of the
    /// collective steps. Re-running the heal after reviving converges:
    /// every window is re-planned from whatever state the crashed run left.
    Comm(CommError),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Storage(e) => write!(f, "storage failure during repair: {e}"),
            RepairError::Comm(e) => write!(f, "communication failure during repair: {e}"),
        }
    }
}

impl std::error::Error for RepairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepairError::Storage(e) => Some(e),
            RepairError::Comm(e) => Some(e),
        }
    }
}

impl From<StorageError> for RepairError {
    fn from(e: StorageError) -> Self {
        RepairError::Storage(e)
    }
}

impl From<CommError> for RepairError {
    fn from(e: CommError) -> Self {
        RepairError::Comm(e)
    }
}

/// One node's allgathered healing inventory, contributed by its leader rank
/// (every other rank, and leaders of dead nodes, contribute the default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeInventory {
    /// True only in the entry of a live node's leader rank.
    pub(crate) leads_live_node: bool,
    /// Owner ranks whose manifests for the dump this node holds (sorted).
    pub(crate) manifest_owners: Vec<u32>,
    /// Owner ranks whose raw blobs for the dump this node holds (sorted).
    pub(crate) blob_owners: Vec<u32>,
    /// Fingerprints referenced by this node's manifests for the dump
    /// (sorted, deduplicated).
    pub(crate) referenced: Vec<Fingerprint>,
    /// Fingerprints of the chunks this node holds (sorted).
    pub(crate) held: Vec<Fingerprint>,
    /// Ranks tombstoned as absent when the dump committed (sorted).
    pub(crate) absent: Vec<u32>,
    /// Erasure-coded shards this node holds, as `(stripe, meta)` pairs
    /// sorted by stripe then shard index.
    pub(crate) shards: Vec<(StripeKey, ShardMeta)>,
}

impl Wire for NodeInventory {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.leads_live_node.encode(buf);
        self.manifest_owners.encode(buf);
        self.blob_owners.encode(buf);
        self.referenced.encode(buf);
        self.held.encode(buf);
        self.absent.encode(buf);
        self.shards.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(NodeInventory {
            leads_live_node: bool::decode(input)?,
            manifest_owners: Vec::decode(input)?,
            blob_owners: Vec::decode(input)?,
            referenced: Vec::decode(input)?,
            held: Vec::decode(input)?,
            absent: Vec::decode(input)?,
            shards: Vec::decode(input)?,
        })
    }
}

/// The deterministic transfer plan. Every rank computes the identical plan
/// from the identical allgathered inputs; moves name leader ranks.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct RepairPlan {
    /// `(src_leader, dst_leader, fp)`: src serves the chunk, dst stores it.
    pub(crate) chunk_moves: Vec<(u32, u32, Fingerprint)>,
    /// `(src_leader, dst_leader, owner_rank)` manifest re-materializations.
    pub(crate) manifest_moves: Vec<(u32, u32, u32)>,
    /// `(src_leader, dst_leader, owner_rank)` blob re-materializations.
    pub(crate) blob_moves: Vec<(u32, u32, u32)>,
    /// `(dst_leader, stripe, shard index)`: dst reconstructs the shard
    /// from any `k` survivors and re-homes it on its node.
    pub(crate) shard_rebuilds: Vec<(u32, StripeKey, u8)>,
    pub(crate) unrepairable_chunks: Vec<Fingerprint>,
    pub(crate) unrepairable_manifests: Vec<u32>,
    pub(crate) unrepairable_blobs: Vec<u32>,
    pub(crate) unrepairable_stripes: Vec<StripeKey>,
}

/// Pick up to `deficit` destinations among live non-holder leaders,
/// preferring `home` (the owner's own node leader) and then the least
/// planned load, ties broken by rank for cross-rank determinism. One pass
/// over `live` keeps the best `deficit` candidates in order; `load` is
/// indexed by rank and gains one per pick.
fn pick_destinations(
    live: &[u32],
    holders: &[u32],
    deficit: usize,
    home: Option<u32>,
    load: &mut [u64],
) -> Vec<u32> {
    if deficit == 0 {
        return Vec::new();
    }
    let mut best: Vec<(bool, u64, u32)> = Vec::with_capacity(deficit + 1);
    for &r in live {
        let key = (Some(r) != home, load[r as usize], r);
        let full = best.len() == deficit;
        if full && best.last().is_some_and(|worst| key > *worst) || holders.contains(&r) {
            continue;
        }
        best.insert(best.partition_point(|b| *b < key), key);
        best.truncate(deficit);
    }
    best.into_iter()
        .map(|(_, _, dst)| {
            load[dst as usize] += 1;
            dst
        })
        .collect()
}

/// The `who` of a reference record in [`build_plan`]'s chunk pass; every
/// other `who` is the rank of a live holder.
const REFERENCED: u32 = u32::MAX;

/// `records` stably sorted by fingerprint, in expected linear time: one
/// counting pass spreads them over at least as many buckets as records by
/// the high bits of their big-endian prefix (an order-keeping map), and
/// each bucket — a few records for uniformly distributed digests — is
/// sorted on its own. Skewed input only makes buckets larger.
fn sort_by_fingerprint(records: &[(Fingerprint, u32)]) -> Vec<(Fingerprint, u32)> {
    let Some(&first) = records.first() else {
        return Vec::new();
    };
    let (lo, hi) = records.iter().fold((u64::MAX, 0), |(lo, hi), (fp, _)| {
        (lo.min(fp_head(fp)), hi.max(fp_head(fp)))
    });
    let buckets = records.len().next_power_of_two();
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(buckets.trailing_zeros());
    let bucket = |fp: &Fingerprint| (fp_head(fp) - lo).checked_shr(shift).unwrap_or(0) as usize;
    let mut start = vec![0usize; buckets + 1];
    for (fp, _) in records {
        start[bucket(fp) + 1] += 1;
    }
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    let mut next = start.clone();
    let mut sorted = vec![first; records.len()];
    for record in records {
        let b = bucket(&record.0);
        sorted[next[b]] = *record;
        next[b] += 1;
    }
    for span in start.windows(2).filter(|span| span[1] - span[0] > 1) {
        sorted[span[0]..span[1]].sort_by(|a, b| fp_cmp(&a.0, &b.0));
    }
    sorted
}

/// Derive the transfer plan. Pure: every rank calls this with the
/// identical inventories and gets the identical plan.
///
/// `home_leader[r]` is the leader rank of rank `r`'s own node — the
/// preferred destination when re-materializing `r`'s manifest or blob, so
/// a healed cluster restores without network recovery.
///
/// A stripe below `k` survivors is unrepairable; a chunk stripe only if
/// the window references its fingerprint, else it may be a concurrent
/// dump's, half written.
///
/// Cost is linear in the window (in expectation, for uniformly
/// distributed fingerprints): chunk holders come from one bucket-sorted
/// record list, owner holders from one table per window, and each
/// destination pick is one scan of the live leaders. The plan is the one
/// the per-chunk holder map and per-pick candidate sort it replaced
/// derived (a property test holds it to that reference model).
pub(crate) fn build_plan(
    k: u32,
    strategy: Strategy,
    dump_id: DumpId,
    inv: &[NodeInventory],
    home_leader: &[u32],
    leader_of_node: &[Option<u32>],
) -> RepairPlan {
    let mut plan = RepairPlan::default();
    let live: Vec<u32> = inv
        .iter()
        .enumerate()
        .filter(|(_, i)| i.leads_live_node)
        .map(|(r, _)| r as u32)
        .collect();
    let target = (k as usize).min(live.len());

    // Cluster-wide stripe map from the allgathered shard inventories:
    // geometry (from any shard's self-describing meta) plus surviving
    // indices, and which leader holds which shard.
    let mut stripes: BTreeMap<StripeKey, (ShardMeta, Vec<u8>)> = BTreeMap::new();
    let mut held: HashSet<(u32, StripeKey, u8)> = HashSet::new();
    for (r, i) in inv.iter().enumerate() {
        for (key, meta) in &i.shards {
            held.insert((r as u32, *key, meta.index));
            let e = stripes.entry(*key).or_insert((*meta, Vec::new()));
            if !e.1.contains(&meta.index) {
                e.1.push(meta.index);
            }
        }
    }
    // A coded payload is healthy — no replicas required — as long as its
    // stripe keeps at least `k` shards; the stripe pass heals the rest.
    let stripe_viable = |key: &StripeKey| {
        stripes
            .get(key)
            .is_some_and(|(meta, have)| have.len() >= meta.k as usize)
    };

    // Owner ranks tombstoned as absent: legitimately missing from this
    // (degraded) dump, so neither healed nor lost.
    let mut tombstoned = vec![false; home_leader.len()];
    for r in inv.iter().flat_map(|i| &i.absent) {
        if let Some(t) = tombstoned.get_mut(*r as usize) {
            *t = true;
        }
    }
    // Recipes (manifests or blobs) must survive K times each: which live
    // leaders hold each owner's, in rank order, from one table per window.
    // Returns the moves and the owners lost for good.
    let plan_owners = |list: fn(&NodeInventory) -> &[u32], viable: &dyn Fn(u32) -> bool| {
        let mut holders: Vec<Vec<u32>> = vec![Vec::new(); home_leader.len()];
        for &l in &live {
            for &r in list(&inv[l as usize]) {
                match holders.get_mut(r as usize) {
                    Some(h) if h.last() != Some(&l) => h.push(l),
                    _ => {}
                }
            }
        }
        let (mut moves, mut lost) = (Vec::new(), Vec::new());
        let mut load = vec![0u64; inv.len()];
        for (r, have) in (0u32..).zip(&holders) {
            if tombstoned[r as usize] {
                continue;
            }
            if have.is_empty() {
                if !viable(r) {
                    lost.push(r);
                }
                continue;
            }
            let deficit = target.saturating_sub(have.len());
            let home = Some(home_leader[r as usize]);
            for (i, dst) in pick_destinations(&live, have, deficit, home, &mut load)
                .into_iter()
                .enumerate()
            {
                moves.push((have[i % have.len()], dst, r));
            }
        }
        (moves, lost)
    };

    // The window's referenced fingerprints, in order.
    let mut referenced: Vec<Fingerprint> = Vec::new();
    if strategy != Strategy::NoDedup {
        // ---- chunks: every fingerprint a surviving manifest references --
        // One record per live copy, in rank order, then one per reference;
        // sorted stably, each fingerprint is one run: its holders in rank
        // order, then its references (if any).
        let mut records: Vec<(Fingerprint, u32)> = Vec::new();
        for &r in &live {
            records.extend(inv[r as usize].held.iter().map(|fp| (*fp, r)));
        }
        for i in inv {
            records.extend(i.referenced.iter().map(|fp| (*fp, REFERENCED)));
        }
        let mut load = vec![0u64; inv.len()];
        let mut have: Vec<u32> = Vec::new();
        for run in sort_by_fingerprint(&records).chunk_by(|a, b| a.0 == b.0) {
            let Some(&(fp, REFERENCED)) = run.last() else {
                continue; // held, but nothing in the window references it
            };
            referenced.push(fp);
            have.clear();
            have.extend(run.iter().map(|(_, who)| *who).filter(|w| *w != REFERENCED));
            if have.is_empty() {
                if !stripe_viable(&StripeKey::Chunk(fp)) {
                    plan.unrepairable_chunks.push(fp);
                }
                continue;
            }
            let deficit = target.saturating_sub(have.len());
            for (i, dst) in pick_destinations(&live, &have, deficit, None, &mut load)
                .into_iter()
                .enumerate()
            {
                plan.chunk_moves.push((have[i % have.len()], dst, fp));
            }
        }

        // ---- manifests: one recipe per rank must survive K times --------
        (plan.manifest_moves, plan.unrepairable_manifests) =
            plan_owners(|i| &i.manifest_owners, &|_| false);
    } else {
        // ---- blobs: the no-dedup storage format ------------------------
        (plan.blob_moves, plan.unrepairable_blobs) = plan_owners(|i| &i.blob_owners, &|owner| {
            stripe_viable(&StripeKey::Blob { owner, dump_id })
        });
    }

    // ---- stripes: every viable stripe healed back to full k+m shards on
    // their home nodes (a stripe below k survivors is beyond rebuild) ----
    let node_count = leader_of_node.len() as u32;
    for (key, (meta, have)) in &stripes {
        if have.len() < meta.k as usize {
            if !matches!(key, StripeKey::Chunk(fp) if referenced.binary_search(fp).is_err()) {
                plan.unrepairable_stripes.push(*key);
            }
            continue;
        }
        let shards = meta.k + meta.m;
        let homes = shard_nodes(key.seed(), shards, node_count);
        for index in 0..shards {
            // Dead (or unpopulated) home nodes have nowhere to re-home the
            // shard; a later heal after reviving picks them up.
            let Some(leader) = leader_of_node[homes[index as usize] as usize] else {
                continue;
            };
            if !held.contains(&(leader, *key, index)) {
                plan.shard_rebuilds.push((leader, *key, index));
            }
        }
    }
    plan
}

/// Leader rank of `node`: the lowest rank placed on it.
pub(crate) fn leader_of(cluster: &Cluster, node: NodeId, world: u32) -> Option<u32> {
    let ranks = cluster.placement().ranks_on(node, world);
    if ranks.is_empty() {
        None
    } else {
        Some(ranks.start)
    }
}

/// The lowest rank leading a live node: the one rank that runs the
/// cluster-wide stripe verification (a stripe's shards span nodes, so no
/// single node's leader can check parity consistency alone).
pub(crate) fn lowest_live_leader(cluster: &Cluster, world: u32) -> Option<u32> {
    (0..world).find(|&r| {
        let nd = cluster.node_of(r);
        leader_of(cluster, nd, world) == Some(r) && cluster.is_alive(nd)
    })
}

/// Collective scrub: every live node is scrubbed by its leader rank and
/// the per-node reports are merged, so all ranks return the identical
/// cluster-wide [`ScrubReport`]. Read-only — corrupt chunks are reported,
/// not quarantined (that is the heal's [`crate::HealStage::Scrub`] step).
///
/// Node-local findings are resolved against cluster-wide knowledge before
/// the report is returned: a manifest on one node legitimately references
/// chunks that live on *other* nodes (that is how coll-dedup distributes
/// data), so a reference is only **dangling** if no live node holds the
/// chunk, and a chunk is only an **orphan** if no manifest anywhere
/// references it. Corruption is intrinsic to the bytes and passes through
/// unfiltered.
pub(crate) fn scrub_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
) -> Result<ScrubReport, RepairError> {
    let me = comm.rank();
    let n = comm.size();
    let node = ctx.cluster.node_of(me);
    comm.enter_phase("scrub.collect");
    let mut contribution =
        if leader_of(ctx.cluster, node, n) == Some(me) && ctx.cluster.is_alive(node) {
            (
                ctx.cluster.scrub(node, ctx.hasher)?,
                ctx.cluster.chunk_fps(node, None, usize::MAX)?,
                ctx.cluster.referenced_fps(node)?,
            )
        } else {
            (ScrubReport::default(), Vec::new(), Vec::new())
        };
    if lowest_live_leader(ctx.cluster, n) == Some(me) {
        // Parity consistency is a property of whole stripes, not single
        // nodes: exactly one rank verifies every stripe cluster-wide and
        // folds the findings into its contribution.
        contribution.0.merge(&ctx.cluster.scrub_stripes(ctx.hasher));
    }
    let all = comm.try_allgather(contribution);
    comm.exit_phase("scrub.collect");
    let all = all?;
    let mut merged = ScrubReport::default();
    let mut present = FpHashSet::default();
    let mut referenced = FpHashSet::default();
    for (report, fps, refs) in &all {
        merged.merge(report);
        present.extend(fps.iter().copied());
        referenced.extend(refs.iter().copied());
    }
    merged
        .dangling
        .retain(|(_, _, _, fp)| !present.contains(fp));
    merged.orphans.retain(|(_, fp)| !referenced.contains(fp));
    comm.tracer()
        .counter("scrub_corrupt_chunks", merged.corrupt.len() as u64);
    Ok(merged)
}

/// Tries of every recovery storage read, the first included.
const READ_ATTEMPTS: u32 = 4;
/// Pause before the first retry; each later one doubles up to
/// [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Upper bound on any single pause.
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// The pause before retry number `attempt` (1-based): 1, 2, 4 ms, …,
/// saturating at [`BACKOFF_CAP`] for every larger attempt, `u32::MAX`
/// included. Pure, so a recording sleeper replays the exact schedule.
fn backoff(attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt.max(1) - 1).unwrap_or(u32::MAX);
    BACKOFF_BASE.saturating_mul(factor).min(BACKOFF_CAP)
}

/// Run one storage read under the fixed retry schedule: a transient
/// failure ([`StorageError::is_transient`]) is retried, pausing through
/// `sleep`, until [`READ_ATTEMPTS`] tries are spent; any other error is a
/// stable fact about the cluster and returns at once. Returns the outcome
/// and the retries it took. Callers sleep through [`Comm::sleep`], which
/// parks the rank's worker slot.
pub(crate) fn retry_read<T>(
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> (Result<T, StorageError>, u32) {
    let mut retries = 0;
    loop {
        match op() {
            Err(e) if e.is_transient() && retries + 1 < READ_ATTEMPTS => {
                retries += 1;
                sleep(backoff(retries));
            }
            done => return (done, retries),
        }
    }
}

/// What one rank's side of a [`transfer`] did.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Moved {
    /// Received payloads that `store` counted.
    pub(crate) stored: u64,
    /// Payload bytes received.
    pub(crate) bytes: u64,
    /// Payloads this rank could not read as a source or land as a
    /// destination, plus received frames that failed to decode.
    pub(crate) skipped: u64,
    /// Retries the storage reads took.
    pub(crate) retries: u64,
}

/// Execute a `(src, dst, key)` move list — the one place restore and heal
/// payloads cross the wire, whatever they are (chunks keyed by
/// fingerprint, blobs and encoded manifests keyed by owner rank). Every
/// rank derives the list from the same allgathered data; only the moves
/// naming this rank matter, so a rank may pass just those. Sends first
/// (buffered, one frame per destination), then one receive per source the
/// list says owes me a frame: `fetch` reads a payload off my node,
/// `store(key, payload)` lands one — `Some(counted)`, or `None` when it
/// could not.
///
/// The completion rule keeps every peer's receive satisfied: each read
/// runs under [`retry_read`]; a payload that still cannot be read is left
/// out of its frame and counted as skipped, and the frame is sent anyway,
/// empty if need be. A frame that fails to decode, or a payload `store`
/// cannot land, is counted the same way. Only a [`CommError`] ends the
/// transfer early. Source-side rate limiting: the debit happens before
/// the frame leaves, so a throttled healer slows its own sends instead of
/// stalling receivers mid-recv.
pub(crate) fn transfer<K: Wire + Copy>(
    comm: &mut Comm,
    tag: Tag,
    moves: &[(u32, u32, K)],
    bucket: &mut Option<TokenBucket>,
    fetch: impl Fn(&K) -> Result<Bytes, StorageError>,
    mut store: impl FnMut(K, Chunk) -> Option<bool>,
) -> Result<Moved, CommError> {
    let me = comm.rank();
    let mut moved = Moved::default();
    let mut out: BTreeMap<u32, Vec<K>> = BTreeMap::new();
    for (src, dst, key) in moves {
        if *src == me {
            out.entry(*dst).or_default().push(*key);
        }
    }
    for (dst, keys) in &out {
        // Key headers interleaved with the stored payloads, which ride
        // along by reference — never copied into a staging buffer.
        let mut batch = FrameWriter::new();
        let mut batch_bytes = 0u64;
        for key in keys {
            let (data, retries) = retry_read(|d| comm.sleep(d), || fetch(key));
            moved.retries += u64::from(retries);
            let Ok(data) = data else {
                moved.skipped += 1;
                continue;
            };
            batch_bytes += data.len() as u64;
            batch.put(key);
            batch.attach(data);
        }
        throttle(comm, bucket, batch_bytes);
        comm.try_send_frame(*dst, tag, batch.finish())?;
    }
    let mut srcs: Vec<u32> = moves
        .iter()
        .filter(|(_, dst, _)| *dst == me)
        .map(|(src, _, _)| *src)
        .collect();
    srcs.sort_unstable();
    srcs.dedup();
    for src in srcs {
        let mut batch = FrameReader::new(comm.try_recv_frame(src, tag)?);
        while batch.remaining() > 0 {
            let (Ok(key), Ok(data)) = (batch.get::<K>(), batch.take_payload()) else {
                moved.skipped += 1;
                break;
            };
            moved.bytes += data.len() as u64;
            match store(key, data) {
                Some(true) => moved.stored += 1,
                Some(false) => {}
                None => moved.skipped += 1,
            }
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_hash::FpHashMap;
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    // ---- the reference model: the planner as it was before it was made
    // linear in the window, kept verbatim so a property test can hold the
    // fast planner to identical plans ------------------------------------

    /// Pick up to `deficit` destinations among live non-holder leaders,
    /// preferring `home` (the owner's own node leader) and then the least
    /// planned load, ties broken by rank for cross-rank determinism.
    fn reference_destinations(
        live: &[u32],
        holders: &[u32],
        deficit: usize,
        home: Option<u32>,
        load: &mut HashMap<u32, u64>,
    ) -> Vec<u32> {
        let mut cands: Vec<u32> = live
            .iter()
            .copied()
            .filter(|r| !holders.contains(r))
            .collect();
        cands.sort_by_key(|r| {
            let is_home = Some(*r) == home;
            (!is_home, load.get(r).copied().unwrap_or(0), *r)
        });
        cands.truncate(deficit);
        for dst in &cands {
            *load.entry(*dst).or_insert(0) += 1;
        }
        cands
    }

    /// Derive the transfer plan. Pure: every rank calls this with the
    /// identical inventories and gets the identical plan.
    ///
    /// `home_leader[r]` is the leader rank of rank `r`'s own node — the
    /// preferred destination when re-materializing `r`'s manifest or blob, so
    /// a healed cluster restores without network recovery.
    fn reference_plan(
        k: u32,
        strategy: Strategy,
        dump_id: DumpId,
        inv: &[NodeInventory],
        home_leader: &[u32],
        leader_of_node: &[Option<u32>],
    ) -> RepairPlan {
        let mut plan = RepairPlan::default();
        let live: Vec<u32> = inv
            .iter()
            .enumerate()
            .filter(|(_, i)| i.leads_live_node)
            .map(|(r, _)| r as u32)
            .collect();
        let target = (k as usize).min(live.len());
        let tombstoned = |r: u32| inv.iter().any(|i| i.absent.binary_search(&r).is_ok());

        // Cluster-wide stripe map from the allgathered shard inventories:
        // geometry (from any shard's self-describing meta) plus surviving
        // indices, and which leader holds which shard.
        let mut stripes: BTreeMap<StripeKey, (ShardMeta, Vec<u8>)> = BTreeMap::new();
        let mut held: HashSet<(u32, StripeKey, u8)> = HashSet::new();
        for (r, i) in inv.iter().enumerate() {
            for (key, meta) in &i.shards {
                held.insert((r as u32, *key, meta.index));
                let e = stripes.entry(*key).or_insert((*meta, Vec::new()));
                if !e.1.contains(&meta.index) {
                    e.1.push(meta.index);
                }
            }
        }
        // A coded payload is healthy — no replicas required — as long as its
        // stripe keeps at least `k` shards; the stripe pass heals the rest.
        let stripe_viable = |key: &StripeKey| {
            stripes
                .get(key)
                .is_some_and(|(meta, have)| have.len() >= meta.k as usize)
        };

        let mut required: Vec<Fingerprint> = Vec::new();
        if strategy != Strategy::NoDedup {
            // ---- chunks: every fingerprint a surviving manifest references --
            required = inv
                .iter()
                .flat_map(|i| i.referenced.iter().copied())
                .collect();
            required.sort_unstable();
            required.dedup();
            // A chunk's live holders, in rank order: the leaders whose held
            // list carries it.
            let mut holders: FpHashMap<Vec<u32>> = FpHashMap::default();
            for &r in &live {
                for fp in &inv[r as usize].held {
                    holders.entry(*fp).or_default().push(r);
                }
            }
            let mut load: HashMap<u32, u64> = HashMap::new();
            for &fp in &required {
                match holders.get(&fp) {
                    None => {
                        if !stripe_viable(&StripeKey::Chunk(fp)) {
                            plan.unrepairable_chunks.push(fp);
                        }
                    }
                    Some(have) if have.len() >= target => {}
                    Some(have) => {
                        let deficit = target - have.len();
                        for (i, dst) in
                            reference_destinations(&live, have, deficit, None, &mut load)
                                .into_iter()
                                .enumerate()
                        {
                            plan.chunk_moves.push((have[i % have.len()], dst, fp));
                        }
                    }
                }
            }

            // ---- manifests: one recipe per rank must survive K times --------
            let mut mload: HashMap<u32, u64> = HashMap::new();
            for r in 0..home_leader.len() as u32 {
                if tombstoned(r) {
                    continue; // legitimately absent from this (degraded) dump
                }
                let holders: Vec<u32> = live
                    .iter()
                    .copied()
                    .filter(|l| inv[*l as usize].manifest_owners.binary_search(&r).is_ok())
                    .collect();
                if holders.is_empty() {
                    plan.unrepairable_manifests.push(r);
                    continue;
                }
                let deficit = target.saturating_sub(holders.len());
                let home = Some(home_leader[r as usize]);
                for (i, dst) in reference_destinations(&live, &holders, deficit, home, &mut mload)
                    .into_iter()
                    .enumerate()
                {
                    plan.manifest_moves
                        .push((holders[i % holders.len()], dst, r));
                }
            }
        } else {
            // ---- blobs: the no-dedup storage format ------------------------
            let mut bload: HashMap<u32, u64> = HashMap::new();
            for r in 0..home_leader.len() as u32 {
                if tombstoned(r) {
                    continue;
                }
                let holders: Vec<u32> = live
                    .iter()
                    .copied()
                    .filter(|l| inv[*l as usize].blob_owners.binary_search(&r).is_ok())
                    .collect();
                if holders.is_empty() {
                    if !stripe_viable(&StripeKey::Blob { owner: r, dump_id }) {
                        plan.unrepairable_blobs.push(r);
                    }
                    continue;
                }
                let deficit = target.saturating_sub(holders.len());
                let home = Some(home_leader[r as usize]);
                for (i, dst) in reference_destinations(&live, &holders, deficit, home, &mut bload)
                    .into_iter()
                    .enumerate()
                {
                    plan.blob_moves.push((holders[i % holders.len()], dst, r));
                }
            }
        }

        // ---- stripes: every viable stripe healed back to full k+m shards on
        // their home nodes (a stripe below k survivors is beyond rebuild) ----
        let node_count = leader_of_node.len() as u32;
        for (key, (meta, have)) in &stripes {
            if have.len() < meta.k as usize {
                if !matches!(key, StripeKey::Chunk(fp) if !required.contains(fp)) {
                    plan.unrepairable_stripes.push(*key);
                }
                continue;
            }
            let shards = meta.k + meta.m;
            let homes = shard_nodes(key.seed(), shards, node_count);
            for index in 0..shards {
                // Dead (or unpopulated) home nodes have nowhere to re-home the
                // shard; a later heal after reviving picks them up.
                let Some(leader) = leader_of_node[homes[index as usize] as usize] else {
                    continue;
                };
                if !held.contains(&(leader, *key, index)) {
                    plan.shard_rebuilds.push((leader, *key, index));
                }
            }
        }
        plan
    }

    /// Record that the leaders `ranks` hold chunk `n` (call in ascending
    /// `n`, so every held list stays sorted).
    fn hold(world: &mut [NodeInventory], n: u64, ranks: &[u32]) {
        for &r in ranks {
            world[r as usize].held.push(fp(n));
        }
    }

    fn inv(live: bool, manifests: Vec<u32>, referenced: Vec<u64>) -> NodeInventory {
        NodeInventory {
            leads_live_node: live,
            manifest_owners: manifests,
            blob_owners: Vec::new(),
            referenced: referenced.into_iter().map(fp).collect(),
            held: Vec::new(),
            absent: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// `build_plan` over a one-rank-per-node world: home leaders are the
    /// ranks themselves and live leaders fall out of the inventory.
    fn plan_for(k: u32, strategy: Strategy, inv: &[NodeInventory]) -> RepairPlan {
        let home: Vec<u32> = (0..inv.len() as u32).collect();
        let leaders: Vec<Option<u32>> = inv
            .iter()
            .enumerate()
            .map(|(r, i)| i.leads_live_node.then_some(r as u32))
            .collect();
        build_plan(k, strategy, 1, inv, &home, &leaders)
    }

    /// A random planner input from `seed`: 1–40 leaders, about a quarter
    /// dead, overlapping fingerprint and owner sets, tombstones, chunk and
    /// blob stripes of two generations, K from 1 to 4 (so K often exceeds
    /// the live count) and either storage format. Every list is sorted
    /// and distinct, as leaders send them.
    #[allow(clippy::type_complexity)]
    fn random_world(
        seed: u64,
    ) -> (
        u32,
        Strategy,
        Vec<NodeInventory>,
        Vec<u32>,
        Vec<Option<u32>>,
    ) {
        let mut x = seed;
        let mut below = |n: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n.max(1)
        };
        let n = 1 + below(40) as u32;
        let fps = 1 + below(3 * u64::from(n) + 20);
        let k = 1 + below(4) as u32;
        let strategy = if below(3) == 0 {
            Strategy::NoDedup
        } else {
            Strategy::CollDedup
        };
        let geometry = |key: &StripeKey| {
            let g = key.seed();
            (1 + (g % 3) as u8, 1 + (g / 3 % 2) as u8)
        };
        let mut world = Vec::new();
        for _ in 0..n {
            let density = below(60);
            let mut i = NodeInventory {
                leads_live_node: below(4) != 0,
                ..NodeInventory::default()
            };
            for f in 0..fps {
                if below(100) < density {
                    i.referenced.push(fp(f));
                }
                if below(100) < density {
                    i.held.push(fp(f));
                }
            }
            for r in 0..n {
                if below(100) < density / 4 {
                    i.manifest_owners.push(r);
                }
                if below(100) < density / 4 {
                    i.blob_owners.push(r);
                }
                if below(100) < 3 {
                    i.absent.push(r);
                }
            }
            for _ in 0..below(6) {
                let key = if below(2) == 0 {
                    StripeKey::Chunk(fp(below(fps)))
                } else {
                    StripeKey::Blob {
                        owner: below(u64::from(n)) as u32,
                        dump_id: 1 + below(2),
                    }
                };
                let (k, m) = geometry(&key);
                i.shards
                    .push((key, meta(k, m, below(u64::from(k + m)) as u8)));
            }
            i.referenced.sort_unstable();
            i.held.sort_unstable();
            i.shards
                .sort_unstable_by_key(|(key, meta)| (*key, meta.index));
            i.shards.dedup();
            world.push(i);
        }
        let home = (0..n).map(|_| below(u64::from(n)) as u32).collect();
        let leaders = (0..1 + below(u64::from(n)))
            .map(|_| (below(4) != 0).then(|| below(u64::from(n)) as u32))
            .collect();
        (k, strategy, world, home, leaders)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The linear planner derives exactly the plan the reference model
        /// derives, move for move and verdict for verdict, in order.
        #[test]
        fn linear_planner_matches_the_reference_model(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (k, strategy, world, home, leaders) = random_world(seed);
            proptest::prop_assert_eq!(
                build_plan(k, strategy, 1, &world, &home, &leaders),
                reference_plan(k, strategy, 1, &world, &home, &leaders)
            );
        }
    }

    #[test]
    fn bucketed_sort_matches_a_stable_comparison_sort() {
        // Spread prefixes, one shared prefix (a single bucket decided past
        // the prefix), repeats of one fingerprint, and the trivial sizes.
        let shared = |tail: u8| {
            let mut b = [7u8; 20];
            b[19] = tail;
            Fingerprint::from_bytes(b)
        };
        let inputs: Vec<Vec<(Fingerprint, u32)>> = vec![
            (0..300u64)
                .map(|n| (fp(n * 7919 % 257), (n % 5) as u32))
                .collect(),
            (0..40u8)
                .rev()
                .map(|t| (shared(t % 13), u32::from(t)))
                .collect(),
            vec![(fp(3), 2), (fp(3), REFERENCED), (fp(3), 0), (fp(1), 9)],
            vec![(fp(5), 1)],
            Vec::new(),
        ];
        for records in inputs {
            let mut expect = records.clone();
            expect.sort_by_key(|(fp, _)| *fp);
            assert_eq!(sort_by_fingerprint(&records), expect);
        }
    }

    #[test]
    fn node_inventory_wire_roundtrip() {
        let i = NodeInventory {
            leads_live_node: true,
            manifest_owners: vec![0, 2],
            blob_owners: vec![1],
            referenced: vec![fp(9), fp(11)],
            held: vec![fp(4), fp(9)],
            absent: vec![3],
            shards: vec![(StripeKey::Chunk(fp(9)), meta(4, 2, 5))],
        };
        assert_eq!(NodeInventory::from_bytes(&i.to_bytes()).unwrap(), i);
    }

    #[test]
    fn plan_heals_under_replicated_chunks_to_target() {
        // 4 one-rank nodes, K=3. Chunk 1 has one live copy (node 0),
        // chunk 2 already has three, chunk 3 is referenced but gone.
        let mut world_inv = vec![
            inv(true, vec![0], vec![1, 2, 3]),
            inv(true, vec![1], vec![]),
            inv(true, vec![2], vec![]),
            inv(true, vec![3], vec![]),
        ];
        hold(&mut world_inv, 1, &[0]);
        hold(&mut world_inv, 2, &[0, 1, 2]);
        let plan = plan_for(3, Strategy::CollDedup, &world_inv);
        let for_one: Vec<_> = plan
            .chunk_moves
            .iter()
            .filter(|(_, _, f)| *f == fp(1))
            .collect();
        assert_eq!(for_one.len(), 2, "deficit of chunk 1 is 3-1=2");
        assert!(for_one.iter().all(|(src, dst, _)| *src == 0 && *dst != 0));
        assert!(
            plan.chunk_moves.iter().all(|(_, _, f)| *f != fp(2)),
            "healthy chunks are left alone"
        );
        assert_eq!(plan.unrepairable_chunks, vec![fp(3)]);
        assert!(plan.unrepairable_manifests.is_empty());
    }

    #[test]
    fn plan_caps_target_at_live_node_count() {
        // K=3 but only 2 live nodes: target is 2, one extra copy suffices.
        let mut world_inv = vec![
            inv(true, vec![0, 1], vec![1]),
            inv(true, vec![0, 1], vec![]),
            inv(false, vec![], vec![]),
        ];
        hold(&mut world_inv, 1, &[0]);
        let plan = plan_for(3, Strategy::CollDedup, &world_inv);
        assert_eq!(plan.chunk_moves, vec![(0, 1, fp(1))]);
    }

    #[test]
    fn plan_rematerializes_manifest_on_owner_home_node_first() {
        // Rank 2's manifest survives only on node 0; its home node 2 is
        // live and empty — it must be the first destination.
        let world_inv = vec![
            inv(true, vec![0, 1, 2], vec![]),
            inv(true, vec![0, 1], vec![]),
            inv(true, vec![], vec![]),
        ];
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        assert!(
            plan.manifest_moves.contains(&(0, 2, 2)),
            "rank 2's manifest must land on its own node: {:?}",
            plan.manifest_moves
        );
    }

    #[test]
    fn plan_skips_tombstoned_ranks_and_flags_truly_lost_manifests() {
        let mut absent_inv = inv(true, vec![0], vec![]);
        absent_inv.absent = vec![1];
        let world_inv = vec![absent_inv, inv(true, vec![0], vec![])];
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        // Rank 1 is tombstoned (degraded dump): not unrepairable, just
        // absent. Rank 0's manifest already has 2 copies: nothing to do.
        assert!(plan.unrepairable_manifests.is_empty());
        assert!(plan.manifest_moves.is_empty());
    }

    #[test]
    fn no_dedup_plan_repairs_blobs_not_manifests() {
        let mut a = inv(true, vec![], vec![]);
        a.blob_owners = vec![0, 1];
        let b = inv(true, vec![], vec![]);
        let world_inv = vec![a, b];
        let plan = plan_for(2, Strategy::NoDedup, &world_inv);
        assert_eq!(plan.blob_moves, vec![(0, 1, 0), (0, 1, 1)]);
        assert!(plan.manifest_moves.is_empty() && plan.chunk_moves.is_empty());
    }

    #[test]
    fn plan_is_deterministic_and_idempotent_on_healthy_state() {
        let mut world_inv = vec![
            inv(true, vec![0, 1], vec![1]),
            inv(true, vec![0, 1], vec![]),
        ];
        hold(&mut world_inv, 1, &[0, 1]);
        let p1 = plan_for(2, Strategy::CollDedup, &world_inv);
        let p2 = plan_for(2, Strategy::CollDedup, &world_inv);
        assert_eq!(p1, p2);
        assert!(p1.chunk_moves.is_empty(), "healthy state plans no work");
        assert!(p1.unrepairable_chunks.is_empty());
    }

    #[test]
    fn destinations_spread_by_planned_load() {
        // Two one-copy chunks on node 0, three spare nodes, K=2: the two
        // new copies must land on different nodes.
        let mut world_inv = vec![
            inv(true, vec![0], vec![1, 2]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        hold(&mut world_inv, 1, &[0]);
        hold(&mut world_inv, 2, &[0]);
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        assert_eq!(plan.chunk_moves.len(), 2);
        assert_ne!(
            plan.chunk_moves[0].1, plan.chunk_moves[1].1,
            "load balancing must spread new copies: {:?}",
            plan.chunk_moves
        );
    }

    fn meta(k: u8, m: u8, index: u8) -> ShardMeta {
        ShardMeta {
            k,
            m,
            index,
            total_len: 64,
        }
    }

    #[test]
    fn plan_rebuilds_missing_shards_on_their_home_leaders() {
        let key = StripeKey::Chunk(fp(7));
        let homes = shard_nodes(key.seed(), 3, 4);
        let mut world_inv = vec![
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        // Indices 0 and 1 sit on their home nodes; index 2 is lost.
        for index in [0u8, 1] {
            world_inv[homes[index as usize] as usize]
                .shards
                .push((key, meta(2, 1, index)));
        }
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        assert_eq!(
            plan.shard_rebuilds,
            vec![(homes[2], key, 2)],
            "exactly the lost shard is rebuilt, on its home node's leader"
        );
        assert!(plan.unrepairable_stripes.is_empty());
    }

    #[test]
    fn plan_flags_stripes_below_k_survivors() {
        // Both chunk stripes are down to one of the two shards they need;
        // only fp 9 is referenced in the window. Fp 8's may be a
        // concurrent dump's stripe, half written.
        let (lost, in_flight) = (StripeKey::Chunk(fp(9)), StripeKey::Chunk(fp(8)));
        let mut world_inv = vec![inv(true, vec![], vec![9]), inv(true, vec![], vec![])];
        world_inv[0].shards.push((in_flight, meta(2, 1, 0)));
        world_inv[0].shards.push((lost, meta(2, 1, 0)));
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        assert_eq!(plan.unrepairable_stripes, vec![lost]);
        assert!(
            plan.shard_rebuilds.is_empty(),
            "a dead stripe plans no rebuilds"
        );
    }

    #[test]
    fn coded_chunks_with_viable_stripes_are_not_unrepairable() {
        // fp 7 has no replica anywhere but a viable 2-survivor stripe;
        // fp 8 has neither replicas nor shards.
        let key = StripeKey::Chunk(fp(7));
        let mut world_inv = vec![
            inv(true, vec![0], vec![7, 8]),
            inv(true, vec![], vec![]),
            inv(true, vec![], vec![]),
        ];
        world_inv[0].shards.push((key, meta(2, 1, 0)));
        world_inv[1].shards.push((key, meta(2, 1, 1)));
        let plan = plan_for(2, Strategy::CollDedup, &world_inv);
        assert_eq!(plan.unrepairable_chunks, vec![fp(8)]);
        assert!(plan.unrepairable_stripes.is_empty());
    }

    #[test]
    fn coded_blob_with_viable_stripe_is_not_unrepairable() {
        // Neither rank has a stored blob; rank 1's was striped at dump
        // time (dump_id 1 — the one `plan_for` plans for), rank 0's is
        // truly gone.
        let key = StripeKey::Blob {
            owner: 1,
            dump_id: 1,
        };
        let mut world_inv = vec![inv(true, vec![], vec![]), inv(true, vec![], vec![])];
        world_inv[0].shards.push((key, meta(1, 1, 0)));
        let plan = plan_for(2, Strategy::NoDedup, &world_inv);
        assert_eq!(plan.unrepairable_blobs, vec![0]);
    }

    fn transient() -> StorageError {
        StorageError::Transient { node: 0 }
    }

    #[test]
    fn exponential_backoff_saturates_at_the_cap_for_extreme_attempts() {
        assert_eq!(backoff(1), Duration::from_millis(1));
        assert_eq!(backoff(2), Duration::from_millis(2));
        assert_eq!(backoff(3), Duration::from_millis(4));
        // The cap must hold at every point where the doubling could
        // overflow: right at the shift width, just past it, and at the
        // largest representable attempt count.
        for attempt in [6, 31, 32, 33, 64, 1_000_000, u32::MAX] {
            assert_eq!(
                backoff(attempt),
                BACKOFF_CAP,
                "attempt {attempt} must pin to the cap, never wrap"
            );
        }
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let failures = RefCell::new(2u32);
        let slept = RefCell::new(Vec::new());
        let (out, retries) = retry_read(
            |d| slept.borrow_mut().push(d),
            || {
                let mut left = failures.borrow_mut();
                if *left > 0 {
                    *left -= 1;
                    Err(transient())
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out, Ok(42));
        assert_eq!(retries, 2);
        assert_eq!(
            *slept.borrow(),
            vec![Duration::from_millis(1), Duration::from_millis(2)],
            "the recorded schedule is exactly the fixed one"
        );
    }

    #[test]
    fn exhaustion_returns_the_transient_error() {
        let mut calls = 0;
        let (out, retries) = retry_read(
            |_| {},
            || {
                calls += 1;
                Err::<(), _>(transient())
            },
        );
        assert_eq!(out, Err(transient()));
        assert_eq!(calls, READ_ATTEMPTS, "exactly the schedule's tries");
        assert_eq!(retries, READ_ATTEMPTS - 1);
    }

    #[test]
    fn permanent_errors_never_retry() {
        let (mut calls, mut slept) = (0, Vec::new());
        let (out, retries) = retry_read(
            |d| slept.push(d),
            || {
                calls += 1;
                Err::<(), _>(StorageError::NodeDown(3))
            },
        );
        assert_eq!(out, Err(StorageError::NodeDown(3)));
        assert_eq!((calls, retries), (1, 0));
        assert!(slept.is_empty(), "a permanent error never sleeps");
    }
}
