//! `DUMP_OUTPUT(buffer, K)` — the paper's collective I/O write primitive.
//!
//! All ranks of a [`replidedup_mpi::WorldConfig::launch`] world enter the dump simultaneously
//! (it is a synchronization point) via `Replicator::dump`. Depending on [`Strategy`] the call runs:
//!
//! * `no-dedup` — raw buffer to local storage, all chunks to `K-1`
//!   partners via the single-sided plan;
//! * `local-dedup` — phase-one dedup, locally unique chunks stored and
//!   replicated to `K-1` partners;
//! * `coll-dedup` — the full pipeline of Algorithm 1: local dedup →
//!   `ALLREDUCE(HMERGE)` → Load computation → load allgather →
//!   `RANK_SHUFFLE` → `CALC_OFF` → one-sided exchange → local commit.
//!
//! Every strategy shares the same exchange machinery (windows, records,
//! offsets), exactly as in the paper where the baselines also "make use of
//! the single sided communication planning strategy".
//!
//! A generation is atomic: every rank stores its recipes (its manifest or
//! blob and the partner copies it received) only after the dump's last
//! collective, when every rank has stored its chunks and shards. That
//! collective also carries the lowest rank that deferred a local failure
//! (a storage error or a corrupt frame), and if there is one no rank
//! publishes. A rank death before that point, or a deferred failure
//! anywhere, fails the dump and leaves the generation incomplete, and a
//! restart reads the newest complete generation from storage
//! ([`crate::Replicator::generations`]).

use bytes::Bytes;
use replidedup_buf::{record_copy, thread_bytes_copied, Chunk};
use replidedup_ec::{shard_nodes, RsCode};
use replidedup_hash::{chunk_ranges, ChunkHasher, ChunkRange, Fingerprint, FpHashSet};
use replidedup_mpi::wire::{Frame, FrameReader, FrameWriter, Wire};
use replidedup_mpi::{Comm, CommError, Tag};
use replidedup_storage::{Cluster, DumpId, Manifest, Recipe, ShardMeta, StorageError, StripeKey};

use crate::config::{DumpConfig, Strategy};
use crate::exchange::{parse_records_zc, record_header, record_size, RECORD_HEADER};
use crate::global::{try_reduce_global_view, GlobalView};
use crate::local::LocalIndex;
use crate::offsets::window_plan;
use crate::plan::plan_chunks;
use crate::repair::send_every;
use crate::shuffle::{identity_shuffle, positions_of, rank_shuffle};
use crate::stats::{DumpStats, ReductionStats};

/// User-tag space of the dump/restore protocols.
pub(crate) const TAG_MANIFEST: Tag = 0x5250_0001;

/// Stripe-assembly shard fan-out (coded redundancy policies).
pub(crate) const TAG_STRIPE: Tag = 0x5250_0008;

/// The phases of Algorithm 1 as the dump pipeline traces them, in order.
/// These names are the fault-injection anchors: a
/// [`FaultTrigger::PhaseStart`](replidedup_mpi::FaultTrigger) /
/// [`FaultTrigger::PhaseEnd`](replidedup_mpi::FaultTrigger) naming one of
/// them fires at that boundary of the dump.
pub const DUMP_PHASES: [&str; 8] = [
    "local_dedup",
    "hmerge_reduce",
    "load_allgather",
    "rank_shuffle",
    "calc_off",
    "exchange",
    "commit",
    "stripe_assembly",
];

/// Everything a dump needs besides the buffer: where to store, how to hash,
/// which generation this is.
pub struct DumpContext<'a> {
    /// The cluster whose node-local devices receive the data.
    pub cluster: &'a Cluster,
    /// Chunk hash function (paper default: SHA-1).
    pub hasher: &'a (dyn ChunkHasher + Sync),
    /// Dump generation (checkpoint number).
    pub dump_id: DumpId,
}

/// Failures of a collective dump. A storage or decode failure is deferred,
/// so the collective still completes on every rank: the rank that hit it
/// reports it, every other rank reports [`DumpError::PeerFailed`], and no
/// rank publishes. A rank death fails it ([`DumpError::Comm`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DumpError {
    /// Invalid configuration (same on all ranks — configs are SPMD).
    Config(crate::ConfigError),
    /// The local node's storage failed during commit.
    Storage(StorageError),
    /// A rank died (or a deadlock was suspected) before the dump's last
    /// collective completed on this rank, so it stored no recipe: the
    /// generation is incomplete, and a restart falls back to the newest
    /// complete one.
    Comm(CommError),
    /// Replicas or stripe shards sent by `from` failed to decode — they
    /// were truncated or malformed in flight — so this rank committed none
    /// of that frame. The rank still finishes the collective, so the
    /// others never wait on it.
    CorruptFrame {
        /// Rank whose exchange region or stripe frame failed to decode.
        from: u32,
    },
    /// This rank's part succeeded, but rank `rank` (the lowest that
    /// failed locally: a storage error or a corrupt frame) did not, so no
    /// rank published its recipes and the generation is incomplete.
    PeerFailed {
        /// The lowest rank that deferred a local failure.
        rank: u32,
    },
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Config(e) => write!(f, "invalid dump config: {e}"),
            DumpError::Storage(e) => write!(f, "storage failure during dump: {e}"),
            DumpError::Comm(e) => write!(f, "communication failure during dump: {e}"),
            DumpError::CorruptFrame { from } => {
                write!(f, "corrupt dump frame from rank {from}")
            }
            DumpError::PeerFailed { rank } => {
                write!(
                    f,
                    "rank {rank} failed its part of the dump; nothing was published"
                )
            }
        }
    }
}

impl std::error::Error for DumpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DumpError::Config(e) => Some(e),
            DumpError::Storage(e) => Some(e),
            DumpError::Comm(e) => Some(e),
            DumpError::CorruptFrame { .. } | DumpError::PeerFailed { .. } => None,
        }
    }
}

impl From<StorageError> for DumpError {
    fn from(e: StorageError) -> Self {
        DumpError::Storage(e)
    }
}

impl From<crate::ConfigError> for DumpError {
    fn from(e: crate::ConfigError) -> Self {
        DumpError::Config(e)
    }
}

pub(crate) fn dump_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    data: &Chunk,
    cfg: &DumpConfig,
) -> Result<DumpStats, DumpError> {
    cfg.validate()?;
    let code = cfg.policy.rs_code()?;
    let buf: &[u8] = data;
    let copied_before = thread_bytes_copied();
    let me = comm.rank();
    let n = comm.size();
    // The pipeline's copy target: `K` under replication, `m + 1` under
    // `Rs` (naturally duplicated chunks keep exactly enough natural
    // copies to match the stripe tolerance), the larger of the two under
    // `Auto` — always clamped to the world size.
    let k = cfg.policy.hmerge_k(cfg.replication).min(n);
    let mut stats = DumpStats {
        rank: me,
        k,
        buffer_bytes: buf.len() as u64,
        ..Default::default()
    };
    // Defer storage and decode errors so the collective completes on
    // every rank.
    let mut failure: Option<DumpError> = None;

    comm.tracer()
        .gauge_bytes("dump_buffer_bytes", buf.len() as u64);

    // A rank death (or a suspected deadlock) fails the dump on this rank,
    // possibly from inside a traced phase: rebalance the span stack. The
    // pipeline stores recipes only after its last collective, so a failed
    // dump leaves this rank's share of the generation unpublished and a
    // restart falls back to the newest complete generation.
    if let Err(e) = dump_pipeline(
        comm,
        ctx,
        data,
        cfg,
        code.as_ref(),
        &mut stats,
        &mut failure,
    ) {
        comm.tracer().close_open_spans();
        return Err(DumpError::Comm(e));
    }
    stats.bytes_copied = thread_bytes_copied() - copied_before;
    comm.tracer()
        .counter("alloc_bytes_copied", stats.bytes_copied);
    match failure {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Count a committed write's bytes into `written`, or defer its failure.
fn tally(failure: &mut Option<DumpError>, written: &mut u64, r: Result<u64, StorageError>) {
    match r {
        Ok(bytes) => *written += bytes,
        Err(e) => defer(failure, e),
    }
}

/// Keep a rank's first failure; later ones are dropped. The rank still
/// runs the rest of the collective, so no peer waits on it.
fn defer(failure: &mut Option<DumpError>, e: impl Into<DumpError>) {
    failure.get_or_insert(e.into());
}

/// What [`lowest_failed_rank`] returns when no rank failed.
const NONE_FAILED: u32 = u32::MAX;

/// The dump's last collective: the lowest rank that deferred a local
/// failure, or [`NONE_FAILED`], on every rank alike — so either every rank
/// publishes its recipes or none does.
fn lowest_failed_rank(comm: &mut Comm, failure: &Option<DumpError>) -> Result<u32, CommError> {
    let mine = if failure.is_some() {
        comm.rank()
    } else {
        NONE_FAILED
    };
    comm.try_allreduce(mine, u32::min)
}

/// The fault-aware body of Algorithm 1: every phase boundary is a
/// [`DUMP_PHASES`] anchor and every collective/RMA step is the fallible
/// `try_*` variant, so a rank death surfaces here as `Err(CommError)`
/// instead of a panic or a hang.
fn dump_pipeline(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    data: &Chunk,
    cfg: &DumpConfig,
    code: Option<&RsCode>,
    stats: &mut DumpStats,
    failure: &mut Option<DumpError>,
) -> Result<(), CommError> {
    let k = stats.k;
    let buf: &[u8] = data;
    let me = comm.rank();
    let n = comm.size();
    let node = ctx.cluster.node_of(me);
    let chunk_size = cfg.chunk_size;

    // ---- Phase 1+2: dedup (strategy dependent) -------------------------
    // `keep_indices` / `send_indices` are chunk indices into `buf`;
    // `fps_of` yields the record fingerprint for a chunk index.
    let local: Option<LocalIndex>;
    let view: Option<GlobalView>;
    let keep_indices: Vec<u32>;
    let send_indices: Vec<Vec<u32>>;
    // Transport framing for no-dedup: fixed-size ranges, no hashing. The
    // dedup strategies carry their (possibly variable-length) geometry in
    // the `LocalIndex` instead.
    let transport_ranges: Vec<ChunkRange>;
    // Redundancy-policy classification (coded policies only): chunks whose
    // redundancy comes from a Reed-Solomon stripe instead of replication.
    // `stripe_fps` is the subset *this* rank assembles; `blob_coded` marks
    // a no-dedup buffer that is striped whole instead of replicated.
    let rs = code.map(|c| (c.k(), c.m()));
    let mut coded_fps = FpHashSet::default();
    let mut stripe_fps: Vec<Fingerprint> = Vec::new();
    let mut blob_coded = false;
    comm.enter_phase("local_dedup");
    match cfg.strategy {
        Strategy::NoDedup => {
            // No hashing at all: the raw buffer is the unit of storage.
            local = None;
            view = None;
            transport_ranges = chunk_ranges(buf.len(), chunk_size);
            stats.chunks_total = transport_ranges.len() as u64;
            let all: Vec<u32> = (0..stats.chunks_total as u32).collect();
            keep_indices = all.clone();
            // A coded blob skips the replication exchange entirely: its
            // redundancy is the stripe assembled after commit.
            blob_coded = !buf.is_empty() && cfg.policy.codes_chunk(buf.len(), 1);
            send_indices = if blob_coded {
                stats.chunks_coded = stats.chunks_total;
                vec![Vec::new(); (k - 1) as usize]
            } else {
                vec![all; (k - 1) as usize]
            };
            stats.chunks_locally_unique = stats.chunks_total;
            stats.bytes_locally_unique = buf.len() as u64;
            stats.chunks_kept = stats.chunks_total;
            stats.chunks_uncovered = stats.chunks_total;
            stats.bytes_uncovered = buf.len() as u64;
            comm.exit_phase("local_dedup");
        }
        Strategy::LocalDedup | Strategy::CollDedup => {
            let chunker = cfg.chunker.resolve(chunk_size);
            let idx = LocalIndex::new(ctx.hasher, buf, &chunker);
            transport_ranges = Vec::new();
            stats.chunks_total = idx.chunk_count() as u64;
            stats.bytes_hashed = buf.len() as u64;
            stats.chunks_locally_unique = idx.unique_count() as u64;
            stats.bytes_locally_unique = idx.unique_bytes(buf.len());
            comm.tracer()
                .counter("chunks_locally_unique", stats.chunks_locally_unique);
            comm.exit_phase("local_dedup");

            let g = if cfg.strategy == Strategy::CollDedup {
                comm.enter_phase("hmerge_reduce");
                let leaf = GlobalView::from_local(me, idx.unique.keys().copied(), cfg.f_threshold);
                let coll_before = comm.traffic().coll_sent;
                let g = try_reduce_global_view(comm, leaf, k, cfg.f_threshold)?;
                let traffic = comm.traffic().coll_sent - coll_before;
                comm.exit_phase("hmerge_reduce");
                comm.tracer().counter("view_entries", g.len() as u64);
                comm.tracer().gauge_bytes("hmerge_traffic_bytes", traffic);
                stats.reduction = Some(ReductionStats {
                    view_entries: g.len() as u64,
                    view_bytes: g.wire_size() as u64,
                    designations: g.designations(me) as u64,
                    traffic_bytes: traffic,
                });
                g
            } else {
                GlobalView::default()
            };

            let mut plan = plan_chunks(me, &idx, &g, k);
            // Policy classification with dedup credit: a chunk whose view
            // entry already designates `m + 1` natural holders has its
            // distributed copies credited against stripe redundancy — it
            // stays replicated and generates no parity. The rest of the
            // coded set leaves the replication exchange; exactly one
            // designated rank (the lowest) assembles its stripe, and every
            // holder stripes an uncovered chunk (shard puts are
            // idempotent and content-addressed, so concurrent assemblies
            // of the same chunk converge).
            if rs.is_some() {
                for (fp, c) in &idx.unique {
                    let len = idx.chunk_range(c.first_index).len();
                    let entry = g.lookup(fp);
                    let freq = entry.map_or(1, |e| e.ranks.len());
                    if cfg.policy.codes_chunk(len, freq) {
                        coded_fps.insert(*fp);
                        let striper = entry.and_then(|e| e.ranks.first()).copied().unwrap_or(me);
                        if striper == me {
                            stripe_fps.push(*fp);
                        }
                    }
                }
                stripe_fps.sort_unstable();
                plan.keep.retain(|fp| !coded_fps.contains(fp));
                for list in &mut plan.send_lists {
                    list.retain(|fp| !coded_fps.contains(fp));
                }
                stats.chunks_coded = coded_fps.len() as u64;
            }
            stats.chunks_kept = plan.keep.len() as u64;
            stats.chunks_discarded = plan.discarded.len() as u64;
            let covered = |fp: &Fingerprint| g.lookup(fp).is_some();
            stats.chunks_uncovered = idx.unique.keys().filter(|fp| !covered(fp)).count() as u64;
            stats.bytes_uncovered = idx
                .unique
                .iter()
                .filter(|(fp, _)| !covered(fp))
                .map(|(_, c)| idx.chunk_range(c.first_index).len() as u64)
                .sum();

            let to_idx = |fp: &Fingerprint| idx.unique[fp].first_index;
            keep_indices = plan.keep.iter().map(to_idx).collect();
            send_indices = plan
                .send_lists
                .iter()
                .map(|l| l.iter().map(to_idx).collect())
                .collect();
            local = Some(idx);
            view = Some(g);
        }
    }
    stats.chunks_sent = send_indices.iter().map(|l| l.len() as u64).collect();
    comm.tracer()
        .counter("dump_chunks_total", stats.chunks_total);

    // ---- Load allgather + partner selection ----------------------------
    let mut load: Vec<u64> = Vec::with_capacity(k as usize);
    load.push(keep_indices.len() as u64);
    load.extend(send_indices.iter().map(|l| l.len() as u64));
    comm.enter_phase("load_allgather");
    let send_load: Vec<Vec<u64>> = comm.try_allgather(load)?;
    comm.exit_phase("load_allgather");
    comm.enter_phase("rank_shuffle");
    let shuffle = if cfg.shuffle {
        rank_shuffle(&send_load, k)
    } else {
        identity_shuffle(n)
    };
    let positions = positions_of(&shuffle);
    comm.exit_phase("rank_shuffle");
    comm.enter_phase("calc_off");
    let wplan = window_plan(&shuffle, &send_load, k);
    comm.exit_phase("calc_off");

    // ---- Single-sided exchange ------------------------------------------
    comm.enter_phase("exchange");
    // Cells are sized for the largest chunk the configured chunker can
    // emit; the plan stays in record counts, so variable-length chunks
    // need no offset changes — their true length rides in each header.
    let payload_cap = cfg.record_payload_cap();
    let cell = record_size(payload_cap);
    let win = comm.try_win_create(wplan.recv_counts[me as usize] as usize * cell)?;
    let chunk_range = |i: u32| match &local {
        Some(idx) => idx.chunk_range(i),
        None => {
            let r = transport_ranges[i as usize];
            r.start..r.end
        }
    };
    let chunk_bytes = |i: u32| &buf[chunk_range(i)];
    let fp_of = |i: u32| match &local {
        Some(idx) => idx.in_order[i as usize],
        // no-dedup records carry no meaningful fingerprint (never hashed).
        None => Fingerprint::ZERO,
    };
    for (jm1, list) in send_indices.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let target = wplan.partners[me as usize][jm1];
        let base = wplan.send_offsets[me as usize][jm1] as usize * cell;
        // Scatter-gather: one vectored put per record, header from the
        // stack, payload straight out of the application buffer. The
        // cell's padding gap is never written (windows are
        // zero-initialised), so each put moves exactly header + payload
        // bytes.
        for (r, &i) in list.iter().enumerate() {
            let body = chunk_bytes(i);
            let header = record_header(&fp_of(i), body.len(), payload_cap);
            stats.bytes_sent_replication += (RECORD_HEADER + body.len()) as u64;
            win.try_put_vectored(target, base + r * cell, &[&header, body])?;
        }
    }
    win.try_fence(comm)?;
    comm.exit_phase("exchange");
    comm.tracer()
        .gauge_bytes("bytes_sent_replication", stats.bytes_sent_replication);

    // ---- Commit: own data -----------------------------------------------
    comm.enter_phase("commit");
    // Recipes this rank stores once the dump's last collective is done:
    // `(owner, recipe)`, its own first.
    let mut recipes: Vec<(u32, Recipe)> = Vec::new();
    // The dedup strategies built a local index; `no-dedup` never hashes.
    match &local {
        None => {
            if !blob_coded {
                // Refcount bump: the stored blob IS the app buffer.
                recipes.push((me, Recipe::Blob(data.as_bytes().clone())));
            }
            // A coded blob stores no full copy anywhere: its data shards
            // (payload slices) and parity land in the stripe phase below.
        }
        Some(idx) => {
            for &i in &keep_indices {
                let fp = idx.in_order[i as usize];
                // Zero-copy slice of the application buffer.
                let payload = data.slice(chunk_range(i)).into_bytes();
                let len = payload.len() as u64;
                tally(
                    failure,
                    &mut stats.bytes_written_local,
                    ctx.cluster
                        .put_chunk(node, fp, payload)
                        .map(|new| if new { len } else { 0 }),
                );
            }
            // Stripe membership rides in the manifest: `coded` lists the
            // chunk positions whose redundancy is a stripe, so restore
            // knows reconstruction is worth attempting before declaring a
            // chunk lost. Strictly increasing by construction.
            let coded: Vec<u64> = idx
                .in_order
                .iter()
                .enumerate()
                .filter(|(_, fp)| coded_fps.contains(*fp))
                .map(|(i, _)| i as u64)
                .collect();
            let manifest = Manifest {
                owner_rank: me,
                dump_id: ctx.dump_id,
                total_len: buf.len() as u64,
                chunks: idx.in_order.clone(),
                chunk_lens: idx.chunk_lens(),
                rs: rs.filter(|_| !coded.is_empty()),
                coded,
            };
            let encoded = manifest.to_bytes();
            recipes.push((me, Recipe::Manifest(manifest)));
            // Replicate the manifest to the same partners as the data so a
            // failed node's recipe survives (restore-path extension; the
            // paper leaves restart implicit). Encode the fingerprint list
            // once and fan the same frozen buffer out to every partner —
            // re-encoding per partner copied the whole list K-1 times.
            send_every(
                wplan.partners[me as usize]
                    .iter()
                    .map(|&target| comm.try_send_bytes(target, TAG_MANIFEST, encoded.clone())),
            )?;
        }
    }

    // ---- Commit: received replicas --------------------------------------
    let p = positions[me as usize] as usize;
    // Steal the window's backing allocation after the closing fence: every
    // record parsed below is a sub-slice of it all the way into storage.
    let window = win.take_local();
    let mut offset_records = 0u64;
    for d in 1..k as usize {
        let sender = shuffle[(p + n as usize - d) % n as usize];
        let count = send_load[sender as usize][d] as usize;
        if count == 0 {
            continue;
        }
        let start = offset_records as usize * cell;
        let region = window.slice(start..start + count * cell);
        offset_records += count as u64;
        let Ok(records) = parse_records_zc(&region, payload_cap, count) else {
            defer(failure, DumpError::CorruptFrame { from: sender });
            continue;
        };
        stats.records_received += count as u64;
        // Scatter-gather puts moved exactly header + payload per record.
        stats.bytes_received_replication += records
            .iter()
            .map(|(_, c)| (RECORD_HEADER + c.len()) as u64)
            .sum::<u64>();
        match cfg.strategy {
            Strategy::NoDedup => {
                // Region payloads concatenate to the sender's raw buffer;
                // records interleave with headers in the window, so one
                // real gather copy is unavoidable even on the zero-copy
                // path.
                let mut blob = Vec::with_capacity(records.iter().map(|(_, c)| c.len()).sum());
                for (_, data) in &records {
                    blob.extend_from_slice(data);
                }
                record_copy(blob.len());
                recipes.push((sender, Recipe::Blob(Bytes::from(blob))));
            }
            Strategy::LocalDedup | Strategy::CollDedup => {
                for (fp, data) in records {
                    let len = data.len() as u64;
                    tally(
                        failure,
                        &mut stats.bytes_written_local,
                        ctx.cluster
                            .put_chunk(node, fp, data.into_bytes())
                            .map(|new| if new { len } else { 0 }),
                    );
                }
            }
        }
    }
    debug_assert_eq!(offset_records, wplan.recv_counts[me as usize]);

    // Receive partner manifests (dedup strategies).
    if cfg.strategy != Strategy::NoDedup {
        for d in 1..k as usize {
            let sender = shuffle[(p + n as usize - d) % n as usize];
            match decode_manifest_frame(comm.try_recv_frame(sender, TAG_MANIFEST)?, sender) {
                Ok(m) => recipes.push((m.owner_rank, Recipe::Manifest(m))),
                Err(e) => defer(failure, e),
            }
        }
    }

    // The last collective tells every rank whether any rank failed; under
    // a coded policy that is the stripe assembly's, below.
    let mut lowest_failed = NONE_FAILED;
    if code.is_some() {
        comm.try_barrier()?;
    } else {
        lowest_failed = lowest_failed_rank(comm, failure)?;
    }
    comm.exit_phase("commit");

    // ---- Stripe assembly (coded policies) -------------------------------
    if let Some(code) = code {
        let (rk, rm) = (code.k(), code.m());
        comm.enter_phase("stripe_assembly");
        let node_count = ctx.cluster.node_count();
        // Payloads this rank stripes: its coded blob (no-dedup) or the
        // coded chunks it is the designated assembler for. Data shards are
        // zero-copy slices of the application buffer.
        let mut stripes: Vec<(StripeKey, Bytes)> = Vec::new();
        if blob_coded {
            stripes.push((
                StripeKey::Blob {
                    owner: me,
                    dump_id: ctx.dump_id,
                },
                data.as_bytes().clone(),
            ));
        }
        if let Some(idx) = &local {
            for fp in &stripe_fps {
                let first = idx.unique[fp].first_index;
                stripes.push((
                    StripeKey::Chunk(*fp),
                    data.slice(idx.chunk_range(first)).into_bytes(),
                ));
            }
        }
        stats.stripes_assembled = stripes.len() as u64;

        // Encode and bucket shards by home node (deterministic rotation
        // seeded by the stripe key — every rank re-derives the same
        // layout with no negotiation).
        let mut outbound: Vec<Vec<(StripeKey, ShardMeta, Bytes)>> =
            vec![Vec::new(); node_count as usize];
        for (key, payload) in &stripes {
            let shards = code.encode(payload);
            stats.parity_bytes += shards[rk as usize..]
                .iter()
                .map(|s| s.len() as u64)
                .sum::<u64>();
            let homes = shard_nodes(key.seed(), code.shards(), node_count);
            for (index, (shard, &home)) in shards.into_iter().zip(&homes).enumerate() {
                let meta = ShardMeta {
                    k: rk,
                    m: rm,
                    index: index as u8,
                    total_len: payload.len() as u64,
                };
                outbound[home as usize].push((*key, meta, shard));
            }
        }

        // Deterministic sends-then-receives over the existing wire
        // framing: every rank sends one (possibly empty) scatter-gather
        // frame to each node's leader; each leader then drains one frame
        // from every rank and commits the shards to its device.
        send_every((0..node_count).map(|nd| {
            let ranks = ctx.cluster.placement().ranks_on(nd, n);
            if ranks.is_empty() {
                return Ok(());
            }
            let leader = ranks.start;
            let mut w = FrameWriter::new();
            w.put(&(outbound[nd as usize].len() as u64));
            for (key, meta, shard) in outbound[nd as usize].drain(..) {
                w.put(&key);
                w.put(&meta);
                stats.bytes_sent_stripes += shard.len() as u64;
                w.attach(shard);
            }
            comm.try_send_frame(leader, TAG_STRIPE, w.finish())
        }))?;
        if ctx.cluster.placement().ranks_on(node, n).start == me {
            for r in 0..n {
                let shards = match decode_stripe_frame(comm.try_recv_frame(r, TAG_STRIPE)?, r) {
                    Ok(shards) => shards,
                    Err(e) => {
                        defer(failure, e);
                        continue;
                    }
                };
                for (key, meta, shard) in shards {
                    let len = shard.len() as u64;
                    tally(
                        failure,
                        &mut stats.bytes_written_local,
                        ctx.cluster
                            .put_shard(node, key, meta, shard.into_bytes())
                            .map(|new| if new { len } else { 0 }),
                    );
                }
            }
        }
        // The dump completes only when every shard reached its device.
        lowest_failed = lowest_failed_rank(comm, failure)?;
        comm.exit_phase("stripe_assembly");
    }

    // ---- Publish: recipes, after the last collective --------------------
    // Every rank has stored its chunks and shards by now, so a recipe never
    // names data below its redundancy target. A rank that failed before
    // this point stores none, and if any rank deferred a local failure no
    // rank stores any: either way the generation is incomplete.
    if lowest_failed != NONE_FAILED {
        failure.get_or_insert(DumpError::PeerFailed {
            rank: lowest_failed,
        });
        return Ok(());
    }
    for (owner, recipe) in recipes {
        tally(
            failure,
            &mut stats.bytes_written_local,
            ctx.cluster.put_recipe(node, owner, ctx.dump_id, recipe),
        );
    }
    comm.tracer()
        .gauge_bytes("bytes_written_local", stats.bytes_written_local);
    drop(view);
    Ok(())
}

/// Decode one stripe-assembly frame sent by rank `from` into its `(stripe,
/// meta, shard)` entries. A frame that fails to decode is
/// [`DumpError::CorruptFrame`], never a panic.
fn decode_stripe_frame(
    frame: Frame,
    from: u32,
) -> Result<Vec<(StripeKey, ShardMeta, Chunk)>, DumpError> {
    let corrupt = |_| DumpError::CorruptFrame { from };
    let mut reader = FrameReader::new(frame);
    let count: u64 = reader.get().map_err(corrupt)?;
    (0..count)
        .map(|_| {
            let key: StripeKey = reader.get().map_err(corrupt)?;
            let meta: ShardMeta = reader.get().map_err(corrupt)?;
            Ok((key, meta, reader.take_payload().map_err(corrupt)?))
        })
        .collect()
}

/// Decode the partner manifest sent by rank `from`. A frame that fails to
/// decode is [`DumpError::CorruptFrame`], never a panic.
fn decode_manifest_frame(frame: Frame, from: u32) -> Result<Manifest, DumpError> {
    Manifest::from_bytes(&frame.gather()).map_err(|_| DumpError::CorruptFrame { from })
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_hash::Sha1ChunkHasher;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::Placement;

    fn run_dump(
        n: u32,
        strategy: Strategy,
        k: u32,
        mk_buf: impl Fn(u32) -> Vec<u8> + Sync,
    ) -> (Vec<DumpStats>, Cluster) {
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(strategy)
            .with_replication(k)
            .with_chunk_size(64)
            .with_f_threshold(1 << 12);
        let out = WorldConfig::default()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = mk_buf(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump succeeds")
            })
            .expect_all();
        (out.results, cluster)
    }

    /// Rank `rank`'s generation-1 manifest on node 0.
    fn manifest_of(cluster: &Cluster, rank: u32) -> Manifest {
        let recipe = cluster.get_recipe(0, rank, 1).expect("recipe on node 0");
        recipe.manifest().cloned().expect("a manifest")
    }

    /// Every rank the same 4-chunk buffer.
    fn shared_buffer(_rank: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        for c in 0..4u8 {
            buf.extend_from_slice(&[c; 64]);
        }
        buf
    }

    /// Rank-private content.
    fn private_buffer(rank: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        for c in 0..4u32 {
            buf.extend_from_slice(&[(rank * 16 + c) as u8; 64]);
        }
        buf
    }

    #[test]
    fn coll_dedup_shared_data_keeps_exactly_k_copies() {
        let (stats, cluster) = run_dump(6, Strategy::CollDedup, 3, shared_buffer);
        // 4 distinct chunks across the whole world; each must have exactly
        // 3 physical copies (not 6, not 18).
        let total_kept: u64 = stats.iter().map(|s| s.chunks_kept).sum();
        let total_sent: u64 = stats.iter().map(|s| s.total_chunks_sent()).sum();
        assert_eq!(total_kept + total_sent, 4 * 3, "exactly K copies per chunk");
        assert_eq!(cluster.total_unique_bytes(), 4 * 64 * 3);
        // Discards happened: 6 ranks × 4 chunks, only 12 copies materialize.
        let discarded: u64 = stats.iter().map(|s| s.chunks_discarded).sum();
        assert!(discarded > 0);
    }

    #[test]
    fn local_dedup_shared_data_overreplicates() {
        let (stats, cluster) = run_dump(6, Strategy::CollDedup, 3, shared_buffer);
        let (stats_l, cluster_l) = run_dump(6, Strategy::LocalDedup, 3, shared_buffer);
        // local-dedup cannot see cross-rank duplication: each rank keeps
        // its 4 chunks and replicates them twice → more traffic and the
        // same chunks on more nodes than coll-dedup.
        let coll_sent: u64 = stats.iter().map(|s| s.total_chunks_sent()).sum();
        let local_sent: u64 = stats_l.iter().map(|s| s.total_chunks_sent()).sum();
        assert!(
            local_sent > coll_sent,
            "local {local_sent} vs coll {coll_sent}"
        );
        assert!(cluster_l.total_unique_bytes() >= cluster.total_unique_bytes());
    }

    #[test]
    fn no_dedup_stores_raw_blobs_everywhere() {
        let (stats, cluster) = run_dump(4, Strategy::NoDedup, 3, private_buffer);
        for s in &stats {
            assert_eq!(s.bytes_hashed, 0, "no-dedup must not hash");
            assert!(s.reduction.is_none());
        }
        // Each node holds its own blob plus 2 partner blobs.
        for rank in 0..4u32 {
            let holders = (0..4)
                .filter(|&nd| cluster.get_recipe(nd, rank, 1).is_ok())
                .count();
            assert_eq!(holders, 3, "rank {rank} blob must exist on K=3 nodes");
        }
        assert_eq!(cluster.total_device_bytes(), 4 * 256 * 3);
    }

    #[test]
    fn private_data_replicates_k_copies_all_strategies() {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            let (stats, cluster) = run_dump(5, strategy, 3, private_buffer);
            // All-private data: no strategy can save anything.
            let logical: u64 = match strategy {
                Strategy::NoDedup => cluster.total_device_bytes(),
                _ => cluster.total_unique_bytes(),
            };
            assert_eq!(logical, 5 * 256 * 3, "{strategy:?}");
            for s in &stats {
                assert_eq!(
                    s.total_chunks_sent(),
                    8,
                    "{strategy:?}: 4 chunks × 2 partners"
                );
            }
        }
    }

    #[test]
    fn dedup_chunks_have_at_least_k_copies() {
        // Mixed redundancy: half shared, half private.
        let mk = |rank: u32| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&[0xEE; 64]); // shared by all
            buf.extend_from_slice(&[rank as u8 + 1; 64]); // private
            buf
        };
        for strategy in [Strategy::LocalDedup, Strategy::CollDedup] {
            let (_, cluster) = run_dump(5, strategy, 3, mk);
            let shared_fp = Sha1ChunkHasher.fingerprint(&[0xEE; 64]);
            assert!(
                cluster.copies_of(&shared_fp) >= 3,
                "{strategy:?}: shared chunk under-replicated"
            );
            for rank in 0..5u32 {
                let fp = Sha1ChunkHasher.fingerprint(&[rank as u8 + 1; 64]);
                assert_eq!(
                    cluster.copies_of(&fp),
                    3,
                    "{strategy:?}: private chunk of {rank}"
                );
            }
        }
    }

    #[test]
    fn manifests_are_replicated_to_partners() {
        let (_, cluster) = run_dump(4, Strategy::CollDedup, 3, private_buffer);
        for rank in 0..4u32 {
            let holders = (0..4)
                .filter(|&nd| cluster.get_recipe(nd, rank, 1).is_ok())
                .count();
            assert_eq!(holders, 3, "manifest of rank {rank}");
        }
    }

    #[test]
    fn k1_stores_locally_only() {
        let (stats, cluster) = run_dump(3, Strategy::CollDedup, 1, private_buffer);
        for s in &stats {
            assert_eq!(s.total_chunks_sent(), 0);
            assert_eq!(s.records_received, 0);
        }
        assert_eq!(cluster.total_unique_bytes(), 3 * 256);
    }

    #[test]
    fn k_larger_than_world_is_clamped() {
        let (stats, _) = run_dump(3, Strategy::CollDedup, 10, private_buffer);
        assert!(stats.iter().all(|s| s.k == 3));
    }

    #[test]
    fn empty_buffer_dump_is_legal() {
        let (stats, cluster) = run_dump(3, Strategy::CollDedup, 2, |_| Vec::new());
        for s in &stats {
            assert_eq!(s.chunks_total, 0);
            assert_eq!(s.bytes_written_local, 0);
        }
        assert_eq!(cluster.total_unique_bytes(), 0);
        // Manifests still exist (empty recipes) for restart symmetry.
        assert!(cluster.get_recipe(0, 0, 1).is_ok());
    }

    #[test]
    fn unaligned_buffer_tail_chunk_roundtrips() {
        let (stats, cluster) = run_dump(3, Strategy::CollDedup, 2, |rank| {
            vec![rank as u8 + 1; 100] // 64 + 36-byte tail
        });
        for s in &stats {
            assert_eq!(s.chunks_total, 2);
        }
        // Both chunks of rank 0 must be on 2 nodes.
        let m = manifest_of(&cluster, 0);
        for fp in &m.chunks {
            assert_eq!(cluster.copies_of(fp), 2);
        }
    }

    #[test]
    fn dump_fails_cleanly_when_local_node_is_down() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        cluster.fail_node(1);
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = [comm.rank() as u8; 128];
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg)
            })
            .expect_all();
        // Rank 1's node is down: it errors; the others still complete the
        // collective (no deadlock, no panic), learn that rank 1 failed and
        // publish nothing.
        assert!(matches!(
            out.results[1],
            Err(DumpError::Storage(StorageError::NodeDown(1)))
        ));
        for rank in [0, 2] {
            assert_eq!(out.results[rank], Err(DumpError::PeerFailed { rank: 1 }));
        }
        assert_eq!(cluster.generations(), Vec::<DumpId>::new());
    }

    /// A stripe frame decodes into its entries; one cut short is a typed
    /// error naming the sender, not a panic.
    #[test]
    fn truncated_stripe_frame_is_a_typed_error_not_a_panic() {
        let key = StripeKey::Blob {
            owner: 2,
            dump_id: 1,
        };
        let meta = ShardMeta {
            k: 4,
            m: 2,
            index: 5,
            total_len: 10,
        };
        let mut w = FrameWriter::new();
        w.put(&1u64);
        w.put(&key);
        w.put(&meta);
        w.attach(Bytes::from_static(b"abc"));
        let shards = decode_stripe_frame(w.finish(), 2).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!((shards[0].0, shards[0].1), (key, meta));
        assert_eq!(&shards[0].2[..], b"abc");

        // The count promises two entries; the meta of the first is missing.
        let mut cut = FrameWriter::new();
        cut.put(&2u64);
        cut.put(&key);
        assert_eq!(
            decode_stripe_frame(cut.finish(), 3).map(|s| s.len()),
            Err(DumpError::CorruptFrame { from: 3 })
        );
        assert_eq!(
            decode_stripe_frame(FrameWriter::new().finish(), 4).map(|s| s.len()),
            Err(DumpError::CorruptFrame { from: 4 })
        );
    }

    /// A partner manifest cut short is a typed error naming the sender,
    /// not a panic.
    #[test]
    fn truncated_manifest_frame_is_a_typed_error_not_a_panic() {
        let chunks = vec![Fingerprint::synthetic(1), Fingerprint::synthetic(2)];
        let m = Manifest::fixed_stride(2, 1, 8, 10, chunks);
        let whole = m.to_bytes();
        assert_eq!(
            decode_manifest_frame(Frame::single(whole.clone()), 2),
            Ok(m)
        );
        let cut = Frame::single(whole.slice(..whole.len() - 1));
        assert_eq!(
            decode_manifest_frame(cut, 3),
            Err(DumpError::CorruptFrame { from: 3 })
        );
    }

    #[test]
    fn stats_traffic_matches_runtime_accounting() {
        let cluster = Cluster::new(Placement::one_per_node(4));
        let cfg = DumpConfig::paper_defaults(Strategy::LocalDedup)
            .with_replication(3)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = private_buffer(comm.rank());
                let stats = dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).unwrap();
                (stats, comm.traffic())
            })
            .expect_all();
        for (stats, traffic) in &out.results {
            assert_eq!(stats.bytes_sent_replication, traffic.rma_put);
            assert_eq!(stats.bytes_received_replication, traffic.rma_recv);
        }
    }

    fn run_dump_with(
        n: u32,
        strategy: Strategy,
        k: u32,
        policy: crate::config::RedundancyPolicy,
        mk_buf: impl Fn(u32) -> Vec<u8> + Sync,
    ) -> (Vec<DumpStats>, Cluster) {
        let cluster = Cluster::new(Placement::one_per_node(n));
        let cfg = DumpConfig::paper_defaults(strategy)
            .with_replication(k)
            .with_chunk_size(64)
            .with_f_threshold(1 << 12)
            .with_policy(policy);
        let out = WorldConfig::default()
            .launch(n, |comm| {
                let ctx = DumpContext {
                    cluster: &cluster,
                    hasher: &Sha1ChunkHasher,
                    dump_id: 1,
                };
                let buf = mk_buf(comm.rank());
                dump_impl(comm, &ctx, &Chunk::from(&buf[..]), &cfg).expect("dump succeeds")
            })
            .expect_all();
        (out.results, cluster)
    }

    /// One chunk shared by every rank, one rank-private chunk.
    fn mixed_buffer(rank: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[0xEE; 64]);
        buf.extend_from_slice(&[rank as u8 + 1; 64]);
        buf
    }

    #[test]
    fn rs_policy_codes_private_chunks_and_credits_shared() {
        use crate::config::RedundancyPolicy;
        let (stats, cluster) = run_dump_with(
            6,
            Strategy::CollDedup,
            3,
            RedundancyPolicy::Rs { k: 4, m: 2 },
            mixed_buffer,
        );
        // The shared chunk is naturally duplicated on 6 ≥ m+1 ranks: the
        // dedup credit keeps it replicated and skips parity. Each private
        // chunk (freq 1 ≤ m) is striped instead of replicated.
        let coded: u64 = stats.iter().map(|s| s.chunks_coded).sum();
        assert_eq!(coded, 6, "exactly the six private chunks are coded");
        let stripes: u64 = stats.iter().map(|s| s.stripes_assembled).sum();
        assert_eq!(stripes, 6, "each coded chunk striped exactly once");
        assert!(cluster.total_parity_bytes() > 0);
        // The credited shared chunk keeps the policy floor of m+1 copies.
        let shared_fp = Sha1ChunkHasher.fingerprint(&[0xEE; 64]);
        assert_eq!(cluster.copies_of(&shared_fp), 3, "m+1 natural copies");
        // Coded chunks are not replicated as plain chunks anywhere.
        for rank in 0..6u32 {
            let fp = Sha1ChunkHasher.fingerprint(&[rank as u8 + 1; 64]);
            assert_eq!(cluster.copies_of(&fp), 0, "coded chunk lives as shards");
        }
        // Manifests record the stripe membership.
        let m = manifest_of(&cluster, 0);
        assert_eq!(m.rs, Some((4, 2)));
        assert!(!m.coded.is_empty());
    }

    #[test]
    fn auto_policy_replicates_below_threshold() {
        use crate::config::RedundancyPolicy;
        let (stats, cluster) = run_dump_with(
            6,
            Strategy::CollDedup,
            3,
            RedundancyPolicy::Auto {
                k: 4,
                m: 2,
                replicate_below: 128,
            },
            private_buffer,
        );
        // Every chunk is 64 < 128 bytes: nothing is coded, no parity.
        assert!(stats.iter().all(|s| s.chunks_coded == 0));
        assert_eq!(cluster.total_parity_bytes(), 0);
        // Dropping the size floor flips all private chunks to coded.
        let (stats, cluster) = run_dump_with(
            6,
            Strategy::CollDedup,
            3,
            RedundancyPolicy::Auto {
                k: 4,
                m: 2,
                replicate_below: 1,
            },
            private_buffer,
        );
        assert!(stats.iter().all(|s| s.chunks_coded == 4));
        assert!(cluster.total_parity_bytes() > 0);
    }

    #[test]
    fn rs_storage_overhead_beats_replication() {
        use crate::config::RedundancyPolicy;
        // All-private data, so dedup saves nothing: the comparison is
        // purely 3× replication vs (k+m)/k = 1.5× coding.
        let (_, c_rep) = run_dump(6, Strategy::CollDedup, 3, private_buffer);
        let (_, c_rs) = run_dump_with(
            6,
            Strategy::CollDedup,
            3,
            RedundancyPolicy::Rs { k: 4, m: 2 },
            private_buffer,
        );
        assert!(
            c_rs.total_device_bytes() < c_rep.total_device_bytes(),
            "rs {} vs rep3 {}",
            c_rs.total_device_bytes(),
            c_rep.total_device_bytes()
        );
    }

    #[test]
    fn coll_dedup_parity_strictly_below_no_dedup() {
        use crate::config::RedundancyPolicy;
        // Same data, same Rs policy: no-dedup codes whole blobs, blind to
        // the shared chunk; coll-dedup credits it and only generates
        // parity for the private chunks.
        let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
        let (_, c_nd) = run_dump_with(6, Strategy::NoDedup, 3, rs, mixed_buffer);
        let (_, c_cd) = run_dump_with(6, Strategy::CollDedup, 3, rs, mixed_buffer);
        assert!(c_cd.total_parity_bytes() > 0);
        assert!(
            c_cd.total_parity_bytes() < c_nd.total_parity_bytes(),
            "dedup credit must cut parity: coll {} vs none {}",
            c_cd.total_parity_bytes(),
            c_nd.total_parity_bytes()
        );
    }

    #[test]
    fn no_dedup_rs_stripes_blob_instead_of_replicating() {
        use crate::config::RedundancyPolicy;
        let (stats, cluster) = run_dump_with(
            4,
            Strategy::NoDedup,
            3,
            RedundancyPolicy::Rs { k: 2, m: 2 },
            private_buffer,
        );
        for s in &stats {
            assert_eq!(s.chunks_coded, s.chunks_total, "whole blob is coded");
            assert_eq!(s.bytes_sent_replication, 0, "no replica fan-out");
        }
        // No raw blob copies anywhere — the data lives as shards.
        for rank in 0..4u32 {
            let holders = (0..4)
                .filter(|&nd| cluster.get_recipe(nd, rank, 1).is_ok())
                .count();
            assert_eq!(holders, 0, "rank {rank} blob must be striped, not stored");
        }
        assert!(cluster.total_parity_bytes() > 0);
    }
}
