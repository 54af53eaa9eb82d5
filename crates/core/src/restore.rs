//! Collective restore: reconstruct every rank's buffer after failures.
//!
//! The paper's evaluation exercises checkpoint *writing*; restart is left
//! implicit. A replication library is only useful if the replicas are
//! reachable again, so this module adds the missing half as a collective
//! protocol that uses only messages (no shared-memory shortcuts):
//!
//! 1. **Manifest recovery** — each rank advertises which manifests its node
//!    holds (its own plus the ones replicated to it as a partner); ranks
//!    whose node lost the manifest get it from the lowest-ranked advertiser
//!    (all ranks compute the identical assignment from the allgather, so no
//!    negotiation is needed — the same trick the dump uses for offsets).
//! 2. **Chunk recovery** — each rank lists the manifest chunks missing from
//!    its local store; holders are discovered with a second allgather over
//!    the union of requested fingerprints; the lowest-ranked live holder
//!    serves each chunk. Restored chunks are written back to the local
//!    store, so a revived node is re-seeded as a side effect.
//!
//! `no-dedup` dumps restore the raw blob through the same
//! advertise/assign/serve pattern at blob granularity.
//!
//! When the dump ran under an erasure-coding redundancy policy, a payload
//! whose replicas are all gone gets one last chance: Reed-Solomon
//! reconstruction from any `k` surviving shards of its stripe
//! ([`replidedup_storage::Cluster::reconstruct_payload`]). Reconstructed
//! payloads are hash-verified and re-seeded locally, exactly like replica
//! rescues.
//!
//! Every rank participates in every collective step even when its own
//! restore already failed (e.g. manifest unrecoverable), so one lost rank
//! can never deadlock the others.

use std::collections::hash_map::Entry;

use bytes::Bytes;
use replidedup_buf::{global_pool, record_copy, Chunk};
use replidedup_hash::{Fingerprint, FpHashMap, FpHashSet};
use replidedup_mpi::wire::{Frame, FrameReader, FrameWriter};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{DumpId, Manifest, StorageError, StripeKey};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::retry::RetryPolicy;

const TAG_RESTORE_MANIFEST: Tag = 0x5250_0002;
const TAG_RESTORE_CHUNKS: Tag = 0x5250_0003;
const TAG_RESTORE_BLOB: Tag = 0x5250_0004;

/// Failures of a collective restore (per rank).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// Local node refused I/O.
    Storage(StorageError),
    /// No live node holds this rank's manifest: more than `K-1` of its
    /// replica holders failed.
    ManifestLost {
        /// The rank whose manifest is gone.
        rank: u32,
    },
    /// No live node holds this rank's raw blob (`no-dedup`).
    BlobLost {
        /// The rank whose blob is gone.
        rank: u32,
    },
    /// A chunk referenced by the manifest has no live holder.
    ChunkLost(Fingerprint),
    /// The dump this restore targets committed in degraded mode while this
    /// rank was dead: its data was never written anywhere. Distinct from
    /// [`RestoreError::ManifestLost`], where the data existed but every
    /// replica holder has since failed.
    AbsentAtDump {
        /// The rank whose data was absent.
        rank: u32,
        /// The degraded dump generation.
        dump_id: DumpId,
    },
    /// A rank died (or a deadlock was suspected) during one of the restore
    /// protocol's collective steps.
    Comm(CommError),
    /// A chunk batch served by `from` failed to decode — it was truncated
    /// or malformed in flight. The rank still finishes the collective, so
    /// the others never wait on it.
    CorruptFrame {
        /// Rank whose batch failed to decode.
        from: u32,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Storage(e) => write!(f, "storage failure during restore: {e}"),
            RestoreError::ManifestLost { rank } => write!(f, "manifest of rank {rank} lost"),
            RestoreError::BlobLost { rank } => write!(f, "blob of rank {rank} lost"),
            RestoreError::ChunkLost(fp) => write!(f, "chunk {fp} lost on all nodes"),
            RestoreError::AbsentAtDump { rank, dump_id } => write!(
                f,
                "rank {rank}'s data was absent when dump {dump_id} committed (degraded dump)"
            ),
            RestoreError::Comm(e) => write!(f, "communication failure during restore: {e}"),
            RestoreError::CorruptFrame { from } => {
                write!(f, "corrupt restore chunk batch from rank {from}")
            }
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

pub(crate) fn restore_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    match strategy {
        Strategy::NoDedup => restore_blob(comm, ctx, policy),
        Strategy::LocalDedup | Strategy::CollDedup => restore_chunks(comm, ctx, policy),
    }
}

/// Run one storage read under the restore retry policy. Retries are only
/// taken on [`StorageError::is_transient`] failures; when any happen, a
/// zero-length `restore.retry` span marks the spot in the phase trace and
/// the `restore_retries` counter records how many attempts it cost. The
/// backoff parks the rank's worker slot ([`Comm::sleep`]).
fn fetch_with_retry<T>(
    comm: &mut Comm,
    policy: &RetryPolicy,
    op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let (out, retries) = policy.run_with_sleep(|d| comm.sleep(d), op);
    if retries > 0 {
        comm.tracer().enter("restore.retry");
        comm.tracer().exit("restore.retry");
        comm.tracer().counter("restore_retries", u64::from(retries));
    }
    out
}

/// Verified chunk fetch for the reassemble step: read the local copy,
/// re-hash it against its fingerprint, and on corruption (or a local copy
/// that is missing / past its retry budget) fall back to any intact live
/// replica by probing every other node's store directly — a deliberate
/// storage-layer escape hatch outside the restore message protocol, taken
/// only when the protocol's own recovery already ran and the local device
/// still cannot produce intact bytes. Corrupt copies are quarantined
/// wherever they are found; a rescued chunk is re-seeded locally so the
/// next read is clean.
fn fetch_verified(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
    node: replidedup_storage::NodeId,
    fp: &Fingerprint,
) -> Result<Bytes, RestoreError> {
    match fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(node, fp)) {
        Ok(data) if ctx.hasher.fingerprint(&data) == *fp => return Ok(data),
        Ok(_) => {
            // Bit rot slipped past the dump: drop the bad copy so it can
            // never be served again, then go hunting for a good one.
            ctx.cluster.quarantine_chunk(node, fp).ok();
        }
        // Anything else (missing, node down, retries exhausted): the
        // replica scan below is the last line before declaring loss.
        Err(_) => {}
    }
    comm.tracer().counter("restore_replica_fallback", 1);
    for nd in 0..ctx.cluster.node_count() {
        if nd == node || !ctx.cluster.has_chunk(nd, fp) {
            continue;
        }
        if let Ok(data) = fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(nd, fp)) {
            if ctx.hasher.fingerprint(&data) == *fp {
                ctx.cluster.put_chunk(node, *fp, data.clone()).ok();
                return Ok(data);
            }
            ctx.cluster.quarantine_chunk(nd, fp).ok();
        }
    }
    // Last line of defence: the chunk was erasure-coded and any `k` of its
    // stripe's shards survive somewhere in the cluster.
    if let Some(data) = ctx.cluster.reconstruct_payload(StripeKey::Chunk(*fp)) {
        if ctx.hasher.fingerprint(&data) == *fp {
            comm.tracer().counter("restore_rs_reconstructed", 1);
            ctx.cluster.put_chunk(node, *fp, data.clone()).ok();
            return Ok(data);
        }
    }
    Err(RestoreError::ChunkLost(*fp))
}

/// Deterministic service assignment shared by all ranks: for each needy
/// rank, the lowest-ranked advertiser serves. Returns `served[s]` = list of
/// needy ranks rank `s` must serve, and `server_of[r]` = server of rank `r`
/// (`None` when no one can).
fn assign_servers(
    world: u32,
    needs: &[bool],
    holders: &[Vec<u32>],
) -> (Vec<Vec<u32>>, Vec<Option<u32>>) {
    let mut served = vec![Vec::new(); world as usize];
    let mut server_of = vec![None; world as usize];
    for r in 0..world {
        if !needs[r as usize] {
            continue;
        }
        let server = (0..world).find(|&s| s != r && holders[s as usize].binary_search(&r).is_ok());
        if let Some(s) = server {
            served[s as usize].push(r);
            server_of[r as usize] = Some(s);
        }
    }
    (served, server_of)
}

fn restore_blob(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    let me = comm.rank();
    let n = comm.size();
    let node = ctx.cluster.node_of(me);
    comm.tracer().enter("blob_recovery");
    let local = fetch_with_retry(comm, policy, || ctx.cluster.get_blob(node, me, ctx.dump_id)).ok();
    let advertised = ctx
        .cluster
        .blob_owners(node, ctx.dump_id)
        .unwrap_or_default();
    let tombstoned = ctx
        .cluster
        .absent_ranks(node, ctx.dump_id)
        .unwrap_or_default();
    let info = comm.try_allgather((local.is_none(), advertised, tombstoned))?;
    let needs: Vec<bool> = info.iter().map(|(need, _, _)| *need).collect();
    let absent = info.iter().any(|(_, _, a)| a.binary_search(&me).is_ok());
    let holders: Vec<Vec<u32>> = info.into_iter().map(|(_, h, _)| h).collect();
    let (served, server_of) = assign_servers(n, &needs, &holders);
    for &r in &served[me as usize] {
        // The served blob travels as the stored allocation itself — no
        // length-prefixed re-encode, no copy.
        let blob = fetch_with_retry(comm, policy, || ctx.cluster.get_blob(node, r, ctx.dump_id))?;
        comm.try_send_bytes(r, TAG_RESTORE_BLOB, blob)?;
    }
    let result = match local {
        Some(b) => Ok(Chunk::from(b)),
        None => match server_of[me as usize] {
            Some(s) => {
                let data = comm.try_recv_chunk(s, TAG_RESTORE_BLOB)?;
                // Re-seed the local device so this node serves next time
                // (refcount bump — the stored blob is the received one).
                ctx.cluster
                    .put_blob(node, me, ctx.dump_id, data.as_bytes().clone())
                    .ok();
                Ok(data)
            }
            None => {
                // No live replica — but a blob dumped under an `Rs` policy
                // was striped instead of replicated, so any `k` surviving
                // shards can still rebuild it.
                if let Some(data) = ctx.cluster.reconstruct_payload(StripeKey::Blob {
                    owner: me,
                    dump_id: ctx.dump_id,
                }) {
                    comm.tracer().counter("restore_rs_reconstructed", 1);
                    ctx.cluster
                        .put_blob(node, me, ctx.dump_id, data.clone())
                        .ok();
                    Ok(Chunk::from(data))
                } else if absent {
                    Err(RestoreError::AbsentAtDump {
                        rank: me,
                        dump_id: ctx.dump_id,
                    })
                } else {
                    Err(RestoreError::BlobLost { rank: me })
                }
            }
        },
    };
    comm.try_barrier()?;
    comm.tracer().exit("blob_recovery");
    result
}

fn restore_chunks(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
) -> Result<Chunk, RestoreError> {
    let me = comm.rank();
    let n = comm.size();
    let node = ctx.cluster.node_of(me);

    // ---- Step 1: manifest recovery --------------------------------------
    comm.tracer().enter("manifest_recovery");
    let mut manifest = fetch_with_retry(comm, policy, || {
        ctx.cluster.get_manifest(node, me, ctx.dump_id)
    })
    .ok();
    let advertised = ctx
        .cluster
        .manifest_owners(node, ctx.dump_id)
        .unwrap_or_default();
    let tombstoned = ctx
        .cluster
        .absent_ranks(node, ctx.dump_id)
        .unwrap_or_default();
    let info = comm.try_allgather((manifest.is_none(), advertised, tombstoned))?;
    let needs: Vec<bool> = info.iter().map(|(need, _, _)| *need).collect();
    let absent = info.iter().any(|(_, _, a)| a.binary_search(&me).is_ok());
    let holders: Vec<Vec<u32>> = info.into_iter().map(|(_, h, _)| h).collect();
    let (served, server_of) = assign_servers(n, &needs, &holders);
    for &r in &served[me as usize] {
        let m = fetch_with_retry(comm, policy, || {
            ctx.cluster.get_manifest(node, r, ctx.dump_id)
        })?;
        comm.try_send_val(r, TAG_RESTORE_MANIFEST, &m)?;
    }
    if manifest.is_none() {
        if let Some(s) = server_of[me as usize] {
            let m: Manifest = comm.try_recv_val(s, TAG_RESTORE_MANIFEST)?;
            ctx.cluster.put_manifest(node, m.clone()).ok();
            manifest = Some(m);
        }
    }
    comm.tracer().exit("manifest_recovery");

    // ---- Step 2: chunk recovery ------------------------------------------
    comm.tracer().enter("chunk_recovery");
    // Missing = manifest chunks absent from my node (deduplicated).
    let mut missing: Vec<Fingerprint> = Vec::new();
    if let Some(m) = &manifest {
        let mut seen = FpHashSet::default();
        for fp in &m.chunks {
            if seen.insert(*fp) && !ctx.cluster.has_chunk(node, fp) {
                missing.push(*fp);
            }
        }
        missing.sort_unstable();
    }
    let all_missing: Vec<Vec<Fingerprint>> = comm.try_allgather(missing.clone())?;

    // Union of every requested fingerprint, sorted for stable indexing.
    let mut union: Vec<Fingerprint> = all_missing.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();

    // Who holds what: one bit per union entry, allgathered.
    let my_have: Vec<bool> = union
        .iter()
        .map(|fp| ctx.cluster.has_chunk(node, fp))
        .collect();
    let all_have: Vec<Vec<bool>> = comm.try_allgather(my_have)?;

    // Lowest-ranked holder of `fp`; `None` when no one holds it (or it is
    // not in the union at all).
    let server_of_fp = |fp: &Fingerprint| -> Option<u32> {
        let i = union.binary_search(fp).ok()?;
        (0..n).find(|&s| all_have[s as usize].get(i) == Some(&true))
    };

    // Serve: group my outgoing chunks per requester into one scatter-gather
    // frame — fingerprints in the header segments, chunk bodies attached as
    // zero-copy slices of the store's own allocations.
    for (r, wanted) in all_missing.iter().enumerate() {
        if r as u32 == me || wanted.is_empty() {
            continue;
        }
        let mut batch = FrameWriter::new();
        let mut batched = 0usize;
        for fp in wanted {
            if server_of_fp(fp) == Some(me) {
                let data = fetch_with_retry(comm, policy, || ctx.cluster.get_chunk(node, fp))?;
                batch.put(fp);
                batch.attach(data);
                batched += 1;
            }
        }
        if batched > 0 {
            comm.try_send_frame(r as u32, TAG_RESTORE_CHUNKS, batch.finish())?;
        }
    }

    // Receive: I know exactly which servers owe me a batch. The first
    // failure (a lost chunk, a corrupt batch) becomes this rank's result,
    // but the rank keeps going through every collective step.
    let mut failure: Option<RestoreError> = None;
    let mut expected_servers: Vec<u32> = Vec::new();
    for fp in &missing {
        match server_of_fp(fp) {
            Some(s) if s != me => expected_servers.push(s),
            Some(_) => {} // cannot happen: missing means I do not have it
            None => {
                // No live holder anywhere — try Reed-Solomon reconstruction
                // from surviving shards before declaring the chunk lost.
                // A rescued chunk is seeded locally so the reassemble step
                // (and every later restore) reads it like any other copy.
                let rebuilt = ctx
                    .cluster
                    .reconstruct_payload(StripeKey::Chunk(*fp))
                    .filter(|data| ctx.hasher.fingerprint(data) == *fp);
                match rebuilt {
                    Some(data) => {
                        comm.tracer().counter("restore_rs_reconstructed", 1);
                        ctx.cluster.put_chunk(node, *fp, data).ok();
                    }
                    None => {
                        failure.get_or_insert(RestoreError::ChunkLost(*fp));
                    }
                }
            }
        }
    }
    expected_servers.sort_unstable();
    expected_servers.dedup();
    for s in expected_servers {
        match decode_chunk_batch(comm.try_recv_frame(s, TAG_RESTORE_CHUNKS)?, s) {
            Ok(chunks) => {
                for (fp, data) in chunks {
                    // Write back: restores the failed node's share of the
                    // data (zero-copy — the stored chunk is a slice of the
                    // frame).
                    ctx.cluster.put_chunk(node, fp, data.into_bytes()).ok();
                }
            }
            Err(e) => {
                failure.get_or_insert(e);
            }
        }
    }

    comm.tracer().exit("chunk_recovery");
    comm.tracer()
        .counter("chunks_recovered", missing.len() as u64);

    // ---- Step 3: reassemble ----------------------------------------------
    comm.tracer().enter("reassemble");
    let result = match (manifest, failure) {
        (None, _) if absent => Err(RestoreError::AbsentAtDump {
            rank: me,
            dump_id: ctx.dump_id,
        }),
        (None, _) => Err(RestoreError::ManifestLost { rank: me }),
        (Some(_), Some(e)) => Err(e),
        (Some(m), None) => reassemble(comm, ctx, policy, node, &m),
    };
    comm.try_barrier()?;
    comm.tracer().exit("reassemble");
    result
}

/// Decode one chunk batch served by rank `from` into `(fingerprint,
/// payload)` pairs. A frame that fails to decode is
/// [`RestoreError::CorruptFrame`], never a panic.
fn decode_chunk_batch(frame: Frame, from: u32) -> Result<Vec<(Fingerprint, Chunk)>, RestoreError> {
    let corrupt = |_| RestoreError::CorruptFrame { from };
    let mut batch = FrameReader::new(frame);
    let mut chunks = Vec::new();
    while batch.remaining() > 0 {
        let fp: Fingerprint = batch.get().map_err(corrupt)?;
        chunks.push((fp, batch.take_payload().map_err(corrupt)?));
    }
    Ok(chunks)
}

/// Gather `m`'s chunks into this rank's buffer. Verified reassemble: each
/// distinct fingerprint is fetched through [`fetch_verified`] (re-hashed,
/// with quarantine and fallback) exactly once, so silent bit rot can never
/// leak into a restored buffer; repeat references reuse the same
/// refcounted bytes.
fn reassemble(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    policy: &RetryPolicy,
    node: replidedup_storage::NodeId,
    m: &Manifest,
) -> Result<Chunk, RestoreError> {
    // Pool-recycled reassembly buffer; the gather below is the one
    // unavoidable copy of a chunked restore (scattered chunks into a
    // contiguous buffer), so it is charged to the copy accounting. The
    // filled buffer freezes into the returned `Chunk` without another copy.
    let mut buf = global_pool().take(m.total_len as usize);
    let mut verified: FpHashMap<Bytes> = FpHashMap::default();
    for (i, fp) in m.chunks.iter().enumerate() {
        let data = match verified.entry(*fp) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => e
                .insert(fetch_verified(comm, ctx, policy, node, fp)?)
                .clone(),
        };
        debug_assert_eq!(data.len(), m.chunk_len(i), "chunk {i} length mismatch");
        buf.extend_from_slice(&data);
        record_copy(data.len());
    }
    Ok(Chunk::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DumpConfig, Strategy};
    use crate::dump::dump_impl;
    use replidedup_buf::Chunk;
    use replidedup_hash::Sha1ChunkHasher;
    use replidedup_mpi::WorldConfig;
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
                    let buf = restore_impl(comm, ctx, strategy, &RetryPolicy::default_restore())
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
                    let buf = restore_impl(comm, ctx, strategy, &RetryPolicy::default_restore())
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
                restore_impl(
                    comm,
                    ctx,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .expect("restore");
                comm.barrier();
                // After restore, node 2 must again hold rank 2's chunks.
                if comm.rank() == 2 {
                    let m = ctx
                        .cluster
                        .get_manifest(2, 2, 1)
                        .expect("manifest re-seeded");
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
                    restore_impl(
                        comm,
                        ctx,
                        Strategy::CollDedup,
                        &RetryPolicy::default_restore(),
                    )
                    .map(Vec::from),
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
    fn assign_servers_picks_lowest_and_skips_self() {
        let needs = vec![true, false, true, false];
        let holders = vec![
            vec![0, 2], // rank 0 holds 0 and 2 (but needs 0 itself)
            vec![0, 1], // rank 1 holds 0
            vec![2],    // rank 2 holds 2 (itself, needy)
            vec![2, 3], // rank 3 holds 2
        ];
        let (served, server_of) = assign_servers(4, &needs, &holders);
        assert_eq!(server_of[0], Some(1), "lowest non-self holder of 0");
        assert_eq!(server_of[2], Some(0));
        assert_eq!(served[1], vec![0]);
        assert_eq!(served[0], vec![2]);
        assert!(served[2].is_empty() && served[3].is_empty());
    }

    /// A truncated chunk batch is a typed error naming the server, not a
    /// panic.
    #[test]
    fn truncated_chunk_batch_is_a_typed_error_not_a_panic() {
        // A fingerprint whose payload length promises 64 bytes that never
        // follow.
        let mut cut = FrameWriter::new();
        cut.put(&Fingerprint::synthetic(1));
        cut.put(&64u64);
        assert_eq!(
            decode_chunk_batch(cut.finish(), 3).map(|c| c.len()),
            Err(RestoreError::CorruptFrame { from: 3 })
        );
    }

    #[test]
    fn assign_servers_reports_unservable() {
        let needs = vec![true, false];
        let holders = vec![vec![], vec![]];
        let (served, server_of) = assign_servers(2, &needs, &holders);
        assert_eq!(server_of[0], None);
        assert!(served.iter().all(Vec::is_empty));
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
                let b1 = restore_impl(
                    comm,
                    &ctx1,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .unwrap();
                let b2 = restore_impl(
                    comm,
                    &ctx2,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
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
                restore_impl(
                    comm,
                    &ctx,
                    Strategy::CollDedup,
                    &RetryPolicy::default_restore(),
                )
                .map(Vec::from)
                .expect("restore reconstructs coded chunks")
            })
            .expect_all();
        for (rank, buf) in out.results.into_iter().enumerate() {
            assert_eq!(buf, buffer_of(rank as u32), "rank {rank} byte-exact");
        }
    }
}
