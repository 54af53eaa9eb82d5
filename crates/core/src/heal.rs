//! The healing engine: scrub → plan → rebuild stripes → transfer, cut
//! into bounded, resumable steps that interleave with live traffic.
//!
//! Healing a whole dump in one monolithic collective would monopolize the
//! network for as long as the damage takes to mend, and a healer crash
//! would throw away all planning progress. So the one engine is an
//! incremental state machine ([`crate::Replicator::heal`] simply drives
//! it from a fresh cursor to the end):
//!
//! * A [`HealCursor`] names a position inside the heal of one dump
//!   generation: the current [`HealStage`] plus high-water marks
//!   (`after_fp` / `after_owner`) inside the stage. The cursor is
//!   [`Wire`]-serializable, so an operator (or a drill harness) can
//!   persist it, kill the healer, and resume from the exact window where
//!   it died.
//! * `heal_step_impl` advances the cursor by one **bounded step**: a
//!   window that costs **one allgather**, the window's shard rebuilds, the
//!   transfer and a counts allreduce. In that allgather each live node's
//!   leader sends its sorted lists past the cursor's high-water mark,
//!   each capped at the stage's batch ([`HealOptions::chunk_batch`] /
//!   [`HealOptions::owner_batch`]) of distinct keys, plus a *bound*: the
//!   smallest last kept key among the lists it cut. The window is
//!   `(high-water, smallest bound]` — to the end of the stage when nobody
//!   cut — so every leader's lists are complete inside it, and every rank
//!   plans the identical window with no offer round. The lists double as
//!   the census: a chunk's holders are the leaders whose held list
//!   carries it. Each step plans its window against the *current* cluster
//!   state with the pure `repair::build_plan`, so healing under live
//!   `dump`/`restore` traffic never acts on stale inventory for longer
//!   than one window. Since the batch bounds what each *node* sends, the
//!   window count follows the largest per-node key count, not the world
//!   size.
//! * A window costs what the window holds. A leader builds each list
//!   under its node lock with one bounded query (one scan, or one ordered
//!   range walk) that returns only the smallest `batch + 1` distinct keys
//!   past the cursor, which `Cap::list` cuts exactly as it would cut the
//!   whole list. Every rank then runs a planner linear in the window.
//! * Between steps the world is free: a foreground dump of a *newer*
//!   generation can run its own collectives, and the healer's next step
//!   simply sees (and skips) whatever the dump committed. In-flight
//!   generations are invisible to the healer by construction — chunk
//!   healing only considers fingerprints referenced by *committed*
//!   manifests of the cursor's generation, a chunk stripe below `k` is
//!   judged lost only when such a manifest references it, blob stripes of
//!   other generations are never sent, and an `Auto`/`Rs` chunk stripe is
//!   content-addressed, so rebuilding it concurrently is idempotent.
//! * The optional [`HealOptions::gc_before`] bound runs
//!   [`replidedup_storage::Cluster::gc_superseded`] at the start of the
//!   scrub step, so superseded generations are collected *before* the
//!   heal wastes bandwidth re-replicating data nothing references anymore.
//! * An optional [`RateLimit`] meters healing payload bytes through a
//!   deterministic debt-based [`TokenBucket`], bounding how hard the
//!   background healer competes with foreground collectives.
//!
//! Stage order: `Scrub → Chunks → Owners → Done`; `no-dedup` skips
//! `Chunks`. The cursor is strictly monotonic — a step either advances
//! the high-water mark to its window's cut or, when the window ran to
//! the end, advances the stage — so a heal always terminates, and
//! resuming from any persisted cursor position converges to the same
//! healed state (re-running a window is idempotent: puts are
//! content-addressed). A crash mid-step surfaces as
//! [`RepairError::Comm`]; unrecoverable data, and payloads a window had
//! to skip, are reported in the [`HealReport`] instead of failing the
//! collective.

use std::ops::{Bound, RangeBounds};
use std::time::Duration;

use replidedup_hash::Fingerprint;
use replidedup_mpi::wire::{Wire, WireError, WireResult};
use replidedup_mpi::{Comm, Tag};
use replidedup_storage::{
    Cluster, DumpId, GcStats, Manifest, NodeId, SessionId, ShardMeta, StorageError, StripeKey,
};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::repair::{
    build_plan, leader_of, lowest_live_leader, transfer, Moved, NodeInventory, RepairError,
};

const TAG_HEAL_CHUNKS: Tag = 0x5250_0009;
const TAG_HEAL_MANIFEST: Tag = 0x5250_000A;
const TAG_HEAL_BLOB: Tag = 0x5250_000B;

/// Phases a healing step may enter (trace span names). Unlike
/// [`crate::DUMP_PHASES`] these repeat: every windowed step with work
/// re-enters `heal.plan` / `heal.transfer`, which is what lets a fault
/// plan target e.g. the *second* transfer window
/// (`start:heal.transfer#2`).
pub const HEAL_PHASES: [&str; 5] = [
    "heal.gc",
    "heal.scrub",
    "heal.plan",
    "heal.stripes",
    "heal.transfer",
];

/// Rate limit for healing payload bytes: a debt-based token bucket that
/// lets `burst_bytes` through unmetered and then sleeps debits off at
/// `bytes_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained healing throughput bound, in payload bytes per second.
    pub bytes_per_sec: u64,
    /// Bytes the healer may move before the meter starts charging.
    pub burst_bytes: u64,
}

/// Tuning knobs for the incremental healer. Must be identical on every
/// rank driving the same heal (they shape the step's collectives). The
/// batches bound what each node sends per step, so a stage takes about
/// (largest per-node key count ÷ batch) steps whatever the world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealOptions {
    /// Fingerprints per node per [`HealStage::Chunks`] step, in each of
    /// the referenced, held and chunk-stripe lists.
    pub chunk_batch: usize,
    /// Owner ranks per node per [`HealStage::Owners`] step, in each of
    /// the held-owner, absent and (`no-dedup`) blob-stripe lists.
    pub owner_batch: usize,
    /// Throughput bound on healing payload bytes (`None`: unthrottled).
    pub rate: Option<RateLimit>,
    /// Collect superseded generations older than this id at the start of
    /// the [`HealStage::Scrub`] step (`None`: skip collection).
    pub gc_before: Option<DumpId>,
}

impl Default for HealOptions {
    fn default() -> Self {
        Self {
            chunk_batch: 64,
            owner_batch: 16,
            rate: None,
            gc_before: None,
        }
    }
}

/// Deterministic debt-based limiter: [`TokenBucket::debit`] is pure
/// arithmetic returning how long the caller must pause, so tests can
/// replay the exact schedule without a clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    bytes_per_sec: u64,
    /// Remaining unmetered allowance; the burst at rest, zero while the
    /// meter is charging (debt is converted to a pause immediately).
    available: i128,
}

impl TokenBucket {
    /// A bucket holding the limit's full burst allowance.
    pub fn new(limit: RateLimit) -> Self {
        Self {
            bytes_per_sec: limit.bytes_per_sec,
            available: i128::from(limit.burst_bytes),
        }
    }

    /// Charge `bytes` against the allowance; returns the pause that pays
    /// off any debt at `bytes_per_sec`. A zero rate still terminates: it
    /// is treated as one byte per second.
    pub fn debit(&mut self, bytes: u64) -> Duration {
        self.available -= i128::from(bytes);
        if self.available >= 0 {
            return Duration::ZERO;
        }
        let debt = self.available.unsigned_abs();
        self.available = 0;
        let nanos = debt
            .saturating_mul(1_000_000_000)
            .checked_div(u128::from(self.bytes_per_sec.max(1)))
            .unwrap_or(0);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// Where a heal stands. Stages run in declaration order; `no-dedup` skips
/// [`HealStage::Chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealStage {
    /// Collect superseded generations (optional), then scrub and
    /// quarantine corrupt chunk and shard copies (one step).
    Scrub,
    /// Re-replicate under-replicated chunks and rebuild missing
    /// chunk-stripe shards, one fingerprint window at a time.
    Chunks,
    /// Re-materialize lost recipes — manifests, or under `no-dedup` raw
    /// blobs and their missing blob-stripe shards — one owner-rank window
    /// at a time.
    Owners,
    /// Nothing left to heal for this generation.
    Done,
}

impl Wire for HealStage {
    fn encode(&self, buf: &mut Vec<u8>) {
        let d: u8 = match self {
            HealStage::Scrub => 0,
            HealStage::Chunks => 1,
            HealStage::Owners => 2,
            HealStage::Done => 3,
        };
        d.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(match u8::decode(input)? {
            0 => HealStage::Scrub,
            1 => HealStage::Chunks,
            2 => HealStage::Owners,
            3 => HealStage::Done,
            _ => return Err(WireError::Malformed { what: "HealStage" }),
        })
    }
}

/// A resumable position inside the heal of one dump generation.
/// [`Wire`]-serializable — persist the bytes, kill the healer, decode
/// and resume; the windows already healed are simply found healthy and
/// skipped (puts are content-addressed, so overlap is idempotent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealCursor {
    /// The generation being healed.
    pub dump_id: DumpId,
    /// Current stage of the state machine.
    pub stage: HealStage,
    /// High-water fingerprint inside [`HealStage::Chunks`].
    pub after_fp: Option<Fingerprint>,
    /// High-water owner rank inside [`HealStage::Owners`].
    pub after_owner: Option<u32>,
    /// Bounded steps this cursor has been advanced through (across
    /// resumes, if the resumed cursor came from persisted bytes).
    pub steps_taken: u64,
}

impl HealCursor {
    /// A cursor at the start of the heal of `dump_id`.
    pub fn new(dump_id: DumpId) -> Self {
        Self {
            dump_id,
            stage: HealStage::Scrub,
            after_fp: None,
            after_owner: None,
            steps_taken: 0,
        }
    }

    /// Has the state machine run out of work?
    pub fn is_done(&self) -> bool {
        self.stage == HealStage::Done
    }
}

impl Wire for HealCursor {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dump_id.encode(buf);
        self.stage.encode(buf);
        self.after_fp.encode(buf);
        self.after_owner.encode(buf);
        self.steps_taken.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(HealCursor {
            dump_id: DumpId::decode(input)?,
            stage: HealStage::decode(input)?,
            after_fp: Option::decode(input)?,
            after_owner: Option::decode(input)?,
            steps_taken: u64::decode(input)?,
        })
    }
}

/// What a heal (or a span of heal steps) did. Healing counts are
/// allreduced per step, so the report is identical on every rank that
/// drove the same steps. A report only covers the steps *this* run
/// drove — a resumed heal reports its own span; convergence is judged
/// by [`HealReport::is_fully_healed`] on the run that reached
/// [`HealStage::Done`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct HealReport {
    /// The [`crate::Replicator`] session that drove these steps
    /// ([`SessionId::DEFAULT`] for an unlabeled session).
    pub session: SessionId,
    /// Bounded steps driven.
    pub steps: u64,
    /// Chunk copies written to close replication deficits.
    pub chunks_healed: u64,
    /// Payload bytes moved for those chunk copies.
    pub bytes_re_replicated: u64,
    /// Manifest copies re-materialized.
    pub manifests_rematerialized: u64,
    /// Raw blob copies re-materialized (`no-dedup`).
    pub blobs_rematerialized: u64,
    /// Corrupt chunk copies quarantined by the scrub step.
    pub corrupt_quarantined: u64,
    /// Erasure-coded shards reconstructed and re-homed.
    pub shards_rebuilt: u64,
    /// Bytes of reconstructed shard payloads written back.
    pub bytes_reconstructed: u64,
    /// Parity-inconsistent shard copies quarantined by the scrub step.
    pub shards_quarantined: u64,
    /// What the superseded-generation sweep collected.
    pub gc: GcStats,
    /// Referenced fingerprints found beyond repair in a planned window.
    pub unrepairable_chunks: Vec<Fingerprint>,
    /// Owner ranks whose manifest has no surviving copy.
    pub unrepairable_manifests: Vec<u32>,
    /// Owner ranks whose raw blob has no surviving copy or stripe.
    pub unrepairable_blobs: Vec<u32>,
    /// Stripes below `k` surviving shards: the generation's blob stripes,
    /// and the chunk stripes its committed manifests reference.
    pub unrepairable_stripes: Vec<StripeKey>,
    /// Payloads a transfer could not move: a source read that failed past
    /// the retry schedule, a copy its destination could not store, or a
    /// frame that failed to decode. Not lost — re-running the heal
    /// re-plans them — but the heal has not converged while this is
    /// non-zero.
    pub payloads_skipped: u64,
}

impl HealReport {
    /// Did the steps this report covers leave nothing lost for good and
    /// nothing skipped?
    pub fn is_fully_healed(&self) -> bool {
        self.payloads_skipped == 0
            && self.unrepairable_chunks.is_empty()
            && self.unrepairable_manifests.is_empty()
            && self.unrepairable_blobs.is_empty()
            && self.unrepairable_stripes.is_empty()
    }

    /// Total payload bytes the healer moved or rewrote.
    pub fn heal_bytes(&self) -> u64 {
        self.bytes_re_replicated + self.bytes_reconstructed
    }
}

/// Pause for a debit if a limiter is active. The pause parks the rank's
/// worker slot, so a throttled healer never starves a pooled peer.
pub(crate) fn throttle(comm: &Comm, bucket: &mut Option<TokenBucket>, bytes: u64) {
    if let Some(b) = bucket.as_mut() {
        let wait = b.debit(bytes);
        if wait > Duration::ZERO {
            comm.sleep(wait);
        }
    }
}

/// Sum-reduce a counter vector so every rank agrees on the step's work.
fn allreduce_counts(comm: &mut Comm, counts: Vec<u64>) -> Result<Vec<u64>, RepairError> {
    comm.try_allreduce(counts, |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    })
    .map_err(RepairError::from)
}

/// A window's one counts allreduce: its transfer and its shard rebuilds,
/// summed over the world. Folds what every window shares — skipped
/// payloads and rebuilt shards — into `report` and returns the transfer's
/// `(stored, bytes)`; this rank's read retries go to the `heal_retries`
/// counter.
fn window_counts(
    comm: &mut Comm,
    moved: Moved,
    rebuilt: Moved,
    report: &mut HealReport,
) -> Result<(u64, u64), RepairError> {
    if moved.retries > 0 {
        comm.tracer().counter("heal_retries", moved.retries);
    }
    let sums = allreduce_counts(
        comm,
        vec![
            moved.stored,
            moved.bytes,
            moved.skipped + rebuilt.skipped,
            rebuilt.stored,
            rebuilt.bytes,
        ],
    )?;
    report.payloads_skipped += sums[2];
    if sums[3] > 0 {
        report.shards_rebuilt += sums[3];
        report.bytes_reconstructed += sums[4];
        comm.tracer().counter("heal_shards_rebuilt", sums[3]);
        comm.tracer().counter("heal_bytes", sums[4]);
    }
    Ok((sums[0], sums[1]))
}

/// Rebuild the shards of a window's `rebuilds` this rank leads, each from
/// any `k` survivors, onto this rank's node, under `heal.stripes` —
/// entered only when the window has any. Throttled like a transfer, and
/// like one it counts a rebuilt shard its node cannot store as skipped:
/// `stored` and `bytes` are the shards written back and their bytes.
fn rebuild_shards(
    comm: &mut Comm,
    cluster: &Cluster,
    bucket: &mut Option<TokenBucket>,
    rebuilds: &[(u32, StripeKey, u8)],
) -> Moved {
    let mut rebuilt = Moved::default();
    if rebuilds.is_empty() {
        return rebuilt;
    }
    let me = comm.rank();
    let node = cluster.node_of(me);
    comm.enter_phase("heal.stripes");
    for (_, key, index) in rebuilds.iter().filter(|(leader, ..)| *leader == me) {
        let Some(shard) = cluster.rebuild_shard(*key, *index) else {
            continue;
        };
        let len = shard.data.len() as u64;
        throttle(comm, bucket, len);
        match cluster.put_shard(node, *key, shard.meta, shard.data) {
            Ok(true) => {
                rebuilt.stored += 1;
                rebuilt.bytes += len;
            }
            Ok(false) => {}
            Err(_) => rebuilt.skipped += 1,
        }
    }
    comm.exit_phase("heal.stripes");
    rebuilt
}

/// Advance `cursor` by one bounded collective step, folding what the
/// step did into `report`. Collective: every rank of the world must call
/// this with an identical cursor and identical options, and all ranks
/// advance their cursors identically (every decision is a function of
/// allgathered data). A no-op once the cursor [`HealCursor::is_done`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn heal_step_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
    opts: &HealOptions,
    bucket: &mut Option<TokenBucket>,
    cursor: &mut HealCursor,
    report: &mut HealReport,
) -> Result<(), RepairError> {
    if cursor.is_done() {
        return Ok(());
    }
    let me = comm.rank();
    let n = comm.size();
    let cluster = ctx.cluster;
    let node = cluster.node_of(me);
    let i_lead = leader_of(cluster, node, n) == Some(me) && cluster.is_alive(node);

    match cursor.stage {
        HealStage::Done => {}
        HealStage::Scrub => {
            // The optional sweep first, so nothing scrubs or heals what it
            // collects. One rank sweeps (the sweep is cluster-wide by
            // itself); the scrub's allreduce publishes its counts.
            let mut gc = GcStats::default();
            if let Some(before) = opts.gc_before {
                comm.enter_phase("heal.gc");
                if lowest_live_leader(cluster, n) == Some(me) {
                    gc = cluster.gc_superseded(before);
                }
                comm.exit_phase("heal.gc");
            }
            comm.enter_phase("heal.scrub");
            let step = (|| -> Result<Vec<u64>, RepairError> {
                let mut corrupt = 0u64;
                let mut shards = 0u64;
                if i_lead {
                    let found = cluster.scrub(node, ctx.hasher)?;
                    for (nd, fp) in &found.corrupt {
                        if cluster.quarantine_chunk(*nd, fp)? {
                            corrupt += 1;
                        }
                    }
                }
                if lowest_live_leader(cluster, n) == Some(me) {
                    let found = cluster.scrub_stripes(ctx.hasher);
                    for (nd, key, index) in &found.stripe_mismatches {
                        if cluster.quarantine_shard(*nd, *key, *index)? {
                            shards += 1;
                        }
                    }
                }
                allreduce_counts(
                    comm,
                    vec![
                        corrupt,
                        shards,
                        gc.generations_collected,
                        gc.manifests_removed,
                        gc.blobs_removed,
                        gc.chunks_removed,
                        gc.shards_removed,
                        gc.tombstones_removed,
                        gc.bytes_reclaimed,
                    ],
                )
            })();
            comm.exit_phase("heal.scrub");
            let sums = step?;
            report.corrupt_quarantined += sums[0];
            report.shards_quarantined += sums[1];
            if opts.gc_before.is_some() {
                report.gc.merge(&GcStats {
                    generations_collected: sums[2],
                    manifests_removed: sums[3],
                    blobs_removed: sums[4],
                    chunks_removed: sums[5],
                    shards_removed: sums[6],
                    tombstones_removed: sums[7],
                    bytes_reclaimed: sums[8],
                });
                comm.tracer().counter("heal_generations_collected", sums[2]);
            }
            cursor.stage = if strategy == Strategy::NoDedup {
                HealStage::Owners
            } else {
                HealStage::Chunks
            };
        }
        HealStage::Chunks => {
            // Committed manifests of this generation only: an in-flight
            // dump of a newer one has nothing here to reference yet.
            let after = cursor.after_fp;
            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let mut inv = NodeInventory::default();
                let mut cap = Cap::new(after, opts.chunk_batch);
                if i_lead {
                    let len = cap.window_len();
                    inv.leads_live_node = true;
                    let refs = cluster.referenced_window(node, ctx.dump_id, after, len)?;
                    inv.referenced = cap.list(refs, |fp| Some(*fp));
                    inv.held = cap.list(cluster.chunk_fps(node, after, len)?, |fp| Some(*fp));
                    inv.shards = chunk_shards(&mut cap, cluster, node)?;
                }
                gather_window(comm, inv, cap.bound)
            })();
            comm.exit_phase("heal.plan");
            let (mut world_inv, cut) = step?;
            // Keys past the cut are the next window's business: the plan
            // of this one needs none of them, so none reach the planner.
            let in_window = |fp: &Fingerprint| cut.is_none_or(|c| *fp <= c);
            for inv in &mut world_inv {
                inv.referenced.retain(in_window);
                inv.held.retain(in_window);
                inv.shards
                    .retain(|(key, _)| matches!(key, StripeKey::Chunk(fp) if in_window(fp)));
            }
            if world_inv
                .iter()
                .any(|inv| !inv.referenced.is_empty() || !inv.shards.is_empty())
            {
                let plan = windowed_plan(ctx, strategy, k, n, world_inv);
                let rebuilt = rebuild_shards(comm, cluster, bucket, &plan.shard_rebuilds);
                comm.enter_phase("heal.transfer");
                let moved = transfer(
                    comm,
                    TAG_HEAL_CHUNKS,
                    &plan.chunk_moves,
                    bucket,
                    |fp| cluster.get_chunk(node, fp),
                    |fp, data| cluster.put_chunk(node, fp, data.into_bytes()).ok(),
                )
                .map_err(RepairError::from)
                .and_then(|moved| window_counts(comm, moved, rebuilt, report));
                comm.exit_phase("heal.transfer");
                let (stored, bytes) = moved?;
                report.chunks_healed += stored;
                report.bytes_re_replicated += bytes;
                comm.tracer().counter("heal_chunks_healed", stored);
                comm.tracer().counter("heal_bytes", bytes);
                // The window's unrepairables are final facts (zero copies
                // and no viable stripe cluster-wide); its manifests are
                // the next stage's.
                merge_sorted(&mut report.unrepairable_chunks, plan.unrepairable_chunks);
                merge_sorted(&mut report.unrepairable_stripes, plan.unrepairable_stripes);
            }
            match cut {
                Some(c) => cursor.after_fp = Some(c),
                None => cursor.stage = HealStage::Owners,
            }
        }
        HealStage::Owners => {
            // One owner-window body for both recipe formats: raw blobs
            // under `no-dedup`, manifests otherwise.
            let blobs = strategy == Strategy::NoDedup;
            let after = cursor.after_owner;
            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let mut inv = NodeInventory::default();
                let mut cap = Cap::new(after, opts.owner_batch);
                if i_lead {
                    let owner = |r: &u32| Some(*r);
                    inv.leads_live_node = true;
                    inv.absent = cap.list(cluster.absent_ranks(node, ctx.dump_id)?, owner);
                    if blobs {
                        inv.blob_owners = cap.list(cluster.blob_owners(node, ctx.dump_id)?, owner);
                        // A blob with no replica is healthy if its stripe
                        // survives — the plan needs this generation's Blob
                        // stripes to judge that, and rebuilds them.
                        inv.shards = blob_shards(&mut cap, cluster, node, ctx.dump_id)?;
                    } else {
                        let held = cluster.manifest_owners(node, ctx.dump_id)?;
                        inv.manifest_owners = cap.list(held, owner);
                    }
                }
                gather_window(comm, inv, cap.bound)
            })();
            comm.exit_phase("heal.plan");
            let (mut world_inv, cut) = step?;
            // The window is the owner range `(after, cut]`. Stripes past
            // the cut are the next window's; the plan flags every owner
            // outside the window as lost (their lists were not sent), so
            // only in-window verdicts are real.
            let in_window = |r: &u32| after.is_none_or(|a| *r > a) && cut.is_none_or(|c| *r <= c);
            for inv in &mut world_inv {
                inv.shards.retain(
                    |(key, _)| matches!(key, StripeKey::Blob { owner, .. } if in_window(owner)),
                );
            }
            let plan = windowed_plan(ctx, strategy, k, n, world_inv);
            let (mut moves, mut lost) = if blobs {
                (plan.blob_moves, plan.unrepairable_blobs)
            } else {
                (plan.manifest_moves, plan.unrepairable_manifests)
            };
            moves.retain(|(_, _, owner)| in_window(owner));
            lost.retain(in_window);
            let rebuilt = rebuild_shards(comm, cluster, bucket, &plan.shard_rebuilds);

            comm.enter_phase("heal.transfer");
            let moved = if blobs {
                transfer(
                    comm,
                    TAG_HEAL_BLOB,
                    &moves,
                    bucket,
                    |owner| cluster.get_blob(node, *owner, ctx.dump_id),
                    |owner, data| {
                        let put = cluster.put_blob(node, owner, ctx.dump_id, data.into_bytes());
                        put.ok().map(|()| true)
                    },
                )
            } else {
                // Manifests are metadata-sized, so they ride unmetered.
                transfer(
                    comm,
                    TAG_HEAL_MANIFEST,
                    &moves,
                    &mut None,
                    |owner| {
                        let m = cluster.get_manifest(node, *owner, ctx.dump_id)?;
                        Ok(m.to_bytes())
                    },
                    |_, data| {
                        let m = Manifest::from_bytes(&data).ok()?;
                        cluster.put_manifest(node, m).ok().map(|()| true)
                    },
                )
            }
            .map_err(RepairError::from)
            .and_then(|moved| window_counts(comm, moved, rebuilt, report));
            comm.exit_phase("heal.transfer");
            let (stored, bytes) = moved?;
            if blobs {
                report.blobs_rematerialized += stored;
                report.bytes_re_replicated += bytes;
                comm.tracer().counter("heal_blobs_rematerialized", stored);
                comm.tracer().counter("heal_bytes", bytes);
                merge_sorted(&mut report.unrepairable_blobs, lost);
            } else {
                report.manifests_rematerialized += stored;
                comm.tracer()
                    .counter("heal_manifests_rematerialized", stored);
                merge_sorted(&mut report.unrepairable_manifests, lost);
            }
            merge_sorted(&mut report.unrepairable_stripes, plan.unrepairable_stripes);
            match cut {
                Some(c) => cursor.after_owner = Some(c),
                None => cursor.stage = HealStage::Done,
            }
        }
    }
    cursor.steps_taken += 1;
    report.steps += 1;
    Ok(())
}

/// Drive `cursor` to [`HealStage::Done`]. Collective. Resuming from a
/// persisted mid-heal cursor is the intended use — the already-healed
/// prefix is skipped by construction.
pub(crate) fn heal_impl(
    comm: &mut Comm,
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
    opts: &HealOptions,
    cursor: &mut HealCursor,
) -> Result<HealReport, RepairError> {
    let mut report = HealReport::default();
    let mut bucket = opts.rate.map(TokenBucket::new);
    while !cursor.is_done() {
        heal_step_impl(
            comm,
            ctx,
            strategy,
            k,
            opts,
            &mut bucket,
            cursor,
            &mut report,
        )?;
    }
    Ok(report)
}

/// The least blob stripe key: every chunk stripe sorts below it.
const FIRST_BLOB: StripeKey = StripeKey::Blob {
    owner: 0,
    dump_id: 0,
};

/// One leader's side of a window: its sorted lists strictly past
/// `after`, each cut after `batch` distinct keys. `bound` is the smallest
/// last kept key of any cut list, so inside the window every rank plans —
/// `(after, smallest bound of all leaders]` — each list is complete.
struct Cap<K> {
    after: Option<K>,
    batch: usize,
    bound: Option<K>,
}

impl<K: Ord + Copy> Cap<K> {
    fn new(after: Option<K>, batch: usize) -> Self {
        Self {
            after,
            batch,
            bound: None,
        }
    }

    /// Distinct keys past `after` a list must carry for [`Cap::list`] to
    /// cut it exactly as it would cut the whole list: the batch, plus one
    /// to tell whether the list goes on.
    fn window_len(&self) -> usize {
        self.batch.saturating_add(1)
    }

    /// The capped list of `sorted`; an entry keyed `None` is not this
    /// stage's business.
    fn list<T>(&mut self, sorted: Vec<T>, key: impl Fn(&T) -> Option<K>) -> Vec<T> {
        let mut out = Vec::new();
        let (mut distinct, mut last) = (0, None);
        for item in sorted {
            let Some(k) = key(&item).filter(|k| self.after.is_none_or(|hw| *k > hw)) else {
                continue;
            };
            if last != Some(k) {
                if let Some(l) = last.filter(|_| distinct >= self.batch) {
                    self.bound = Some(self.bound.map_or(l, |b| b.min(l)));
                    break;
                }
                distinct += 1;
                last = Some(k);
            }
            out.push(item);
        }
        out
    }

    /// The capped list of `node`'s shards: the window query over
    /// `stripes` (which must hold every stripe `key` maps past `after`),
    /// then [`Cap::list`].
    fn shards(
        &mut self,
        cluster: &Cluster,
        node: NodeId,
        stripes: impl RangeBounds<StripeKey>,
        key: impl Fn(&StripeKey) -> Option<K>,
    ) -> Result<Vec<(StripeKey, ShardMeta)>, StorageError> {
        let window =
            cluster.shard_inventory(node, stripes, |k| key(k).is_some(), self.window_len())?;
        Ok(self.list(window, |(k, _)| key(k)))
    }
}

/// The [`HealStage::Chunks`] shard list: chunk stripes keyed by
/// fingerprint. They sort below every blob stripe.
fn chunk_shards(
    cap: &mut Cap<Fingerprint>,
    cluster: &Cluster,
    node: NodeId,
) -> Result<Vec<(StripeKey, ShardMeta)>, StorageError> {
    let from = cap
        .after
        .map_or(Bound::Unbounded, |fp| Bound::Excluded(StripeKey::Chunk(fp)));
    cap.shards(
        cluster,
        node,
        (from, Bound::Excluded(FIRST_BLOB)),
        |key| match key {
            StripeKey::Chunk(fp) => Some(*fp),
            StripeKey::Blob { .. } => None,
        },
    )
}

/// The `no-dedup` [`HealStage::Owners`] shard list: `dump_id`'s blob
/// stripes keyed by owner rank (blob stripes sort by owner, then generation).
fn blob_shards(
    cap: &mut Cap<u32>,
    cluster: &Cluster,
    node: NodeId,
    dump_id: DumpId,
) -> Result<Vec<(StripeKey, ShardMeta)>, StorageError> {
    let from = cap.after.map_or(Bound::Included(FIRST_BLOB), |owner| {
        Bound::Excluded(StripeKey::Blob {
            owner,
            dump_id: DumpId::MAX,
        })
    });
    cap.shards(cluster, node, (from, Bound::Unbounded), |key| match key {
        StripeKey::Blob { owner, dump_id: d } if *d == dump_id => Some(*owner),
        _ => None,
    })
}

/// The window's one allgather: every leader's capped lists plus its
/// bound. The cut is the smallest bound, or `None` when nobody truncated
/// (the window then runs to the end of the stage's key space).
fn gather_window<K: Wire + Ord + Copy>(
    comm: &mut Comm,
    inv: NodeInventory,
    bound: Option<K>,
) -> Result<(Vec<NodeInventory>, Option<K>), RepairError> {
    let all = comm.try_allgather((inv, bound))?;
    let cut = all.iter().filter_map(|(_, b)| *b).min();
    Ok((all.into_iter().map(|(inv, _)| inv).collect(), cut))
}

/// Run [`build_plan`] over a windowed inventory with the world's real
/// leader topology. Consumes the inventory, so a rank frees the world's
/// lists before it waits in the window's transfer.
fn windowed_plan(
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
    n: u32,
    world_inv: Vec<NodeInventory>,
) -> crate::repair::RepairPlan {
    let cluster = ctx.cluster;
    let home_leader: Vec<u32> = (0..n)
        .map(|r| leader_of(cluster, cluster.node_of(r), n).unwrap_or(r))
        .collect();
    let leader_of_node: Vec<Option<u32>> = (0..cluster.node_count())
        .map(|nd| leader_of(cluster, nd, n).filter(|_| cluster.is_alive(nd)))
        .collect();
    build_plan(
        k,
        strategy,
        ctx.dump_id,
        &world_inv,
        &home_leader,
        &leader_of_node,
    )
}

/// Fold a step's unrepairable verdicts into the report's sorted set.
fn merge_sorted<T: Ord>(into: &mut Vec<T>, add: Vec<T>) {
    into.extend(add);
    into.sort_unstable();
    into.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RedundancyPolicy;
    use crate::session::Replicator;
    use bytes::Bytes;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use replidedup_mpi::wire::FrameWriter;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::{Cluster, Placement};
    use replidedup_trace::EventKind;

    #[test]
    fn cursor_wire_roundtrip_covers_every_stage() {
        for stage in [
            HealStage::Scrub,
            HealStage::Chunks,
            HealStage::Owners,
            HealStage::Done,
        ] {
            let c = HealCursor {
                dump_id: 42,
                stage,
                after_fp: Some(Fingerprint::synthetic(9)),
                after_owner: Some(3),
                steps_taken: 17,
            };
            assert_eq!(HealCursor::from_bytes(&c.to_bytes()).unwrap(), c);
        }
        let bad = [4u8]; // no such stage discriminant
        assert_eq!(
            HealStage::from_bytes(&bad),
            Err(WireError::Malformed { what: "HealStage" })
        );
        // The seven-stage layout carried a stripe mark before the step
        // count; such a cursor fails to decode rather than resuming from
        // a misread position.
        for after_stripe in [None, Some(StripeKey::Chunk(Fingerprint::synthetic(5)))] {
            for old_stage in 0u8..7 {
                let mut old = Vec::new();
                42u64.encode(&mut old);
                old_stage.encode(&mut old);
                Some(Fingerprint::synthetic(9)).encode(&mut old);
                Some(3u32).encode(&mut old);
                after_stripe.encode(&mut old);
                17u64.encode(&mut old);
                assert!(
                    HealCursor::from_bytes(&old).is_err(),
                    "{old_stage} {after_stripe:?}"
                );
            }
        }
    }

    #[test]
    fn token_bucket_debt_schedule_is_pure_and_saturating() {
        let mut b = TokenBucket::new(RateLimit {
            bytes_per_sec: 1_000,
            burst_bytes: 500,
        });
        assert_eq!(b.debit(500), Duration::ZERO, "the burst rides free");
        // 250 bytes of debt at 1000 B/s = 250 ms, and the debt resets.
        assert_eq!(b.debit(250), Duration::from_millis(250));
        assert_eq!(b.debit(1_000), Duration::from_secs(1));
        // A zero rate must not divide by zero or hang forever.
        let mut z = TokenBucket::new(RateLimit {
            bytes_per_sec: 0,
            burst_bytes: 0,
        });
        assert_eq!(z.debit(3), Duration::from_secs(3));
        // Huge debits saturate (at u64::MAX nanos) instead of
        // overflowing the nanosecond arithmetic.
        let mut h = TokenBucket::new(RateLimit {
            bytes_per_sec: 1,
            burst_bytes: 0,
        });
        assert_eq!(h.debit(u64::MAX), Duration::from_nanos(u64::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The window rule over random per-leader key sets: walking from
        /// `None` covers every key exactly once, each window holds every
        /// leader's complete list, no list contributes more than `batch`
        /// keys, and the cursor strictly increases.
        #[test]
        fn cap_windows_cover_every_key_once_with_complete_lists(
            lists in proptest::collection::vec(
                proptest::collection::vec(0u32..200, 0..40), 1..12),
            batch in 1usize..10,
        ) {
            let lists: Vec<Vec<u32>> = lists
                .into_iter()
                .map(|mut l| { l.sort_unstable(); l.dedup(); l })
                .collect();
            let mut all: Vec<u32> = lists.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            let mut covered = Vec::new();
            let mut after: Option<u32> = None;
            loop {
                let mut cap = Cap::new(after, batch);
                let sent: Vec<Vec<u32>> = lists
                    .iter()
                    .map(|l| cap.list(l.clone(), |k| Some(*k)))
                    .collect();
                let bound = cap.bound;
                for s in &sent {
                    prop_assert!(s.len() <= batch, "a list sent {} > {batch}", s.len());
                }
                let in_window = |k: &u32| after.is_none_or(|a| *k > a) && bound.is_none_or(|c| *k <= c);
                for (l, s) in lists.iter().zip(&sent) {
                    let expect: Vec<u32> = l.iter().copied().filter(in_window).collect();
                    let got: Vec<u32> = s.iter().copied().filter(in_window).collect();
                    prop_assert_eq!(got, expect, "a list is incomplete inside its window");
                }
                covered.extend(all.iter().copied().filter(in_window));
                match bound {
                    Some(c) => {
                        prop_assert!(after.is_none_or(|a| c > a), "the cursor must advance");
                        after = Some(c);
                    }
                    None => break,
                }
            }
            prop_assert_eq!(covered, all, "every key exactly once, in order");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// A leader's bounded window queries, cut by `Cap::list`, send
        /// exactly what cutting its node's whole sorted lists sends — the
        /// same entries and the same bound — for every list of every
        /// stage, whatever the stored keys, the cursor and the batch.
        #[test]
        fn window_queries_cut_exactly_like_the_full_lists(
            held in proptest::collection::vec(0u64..48, 0..60),
            recipes in proptest::collection::vec(
                (0u64..3, proptest::collection::vec(0u64..48, 0..16)), 0..8),
            shards in proptest::collection::vec((0u8..3, 0u64..48, 0u8..3), 0..40),
            at in 0u64..52,
            batch in 1usize..8,
        ) {
            const GEN: DumpId = 1;
            let cluster = Cluster::new(Placement::one_per_node(1));
            for h in &held {
                cluster.put_chunk(0, Fingerprint::synthetic(*h), Bytes::from_static(b"c")).unwrap();
            }
            for (owner, (dump_id, refs)) in (0u32..).zip(&recipes) {
                let chunks: Vec<Fingerprint> = refs.iter().map(|r| Fingerprint::synthetic(*r)).collect();
                let m = Manifest::fixed_stride(owner, *dump_id, 1, chunks.len() as u64, chunks);
                cluster.put_manifest(0, m).unwrap();
            }
            let stripe = |kind: u8, x: u64| match kind {
                0 => StripeKey::Chunk(Fingerprint::synthetic(x)),
                _ => StripeKey::Blob { owner: (x % 9) as u32, dump_id: u64::from(kind) },
            };
            for (kind, x, index) in &shards {
                let meta = ShardMeta { k: 2, m: 1, index: *index, total_len: 2 };
                cluster.put_shard(0, stripe(*kind, *x), meta, Bytes::from_static(b"s")).unwrap();
            }
            // A cursor of every stage, or none (`at` past the key range).
            let after_fp = (at < 48).then(|| Fingerprint::synthetic(at));
            let after_owner = (at < 48).then_some((at % 10) as u32);

            // The specification: the whole sorted lists, cut.
            let mut refs: Vec<Fingerprint> = recipes
                .iter()
                .filter(|(d, _)| *d == GEN)
                .flat_map(|(_, r)| r.iter().map(|x| Fingerprint::synthetic(*x)))
                .collect();
            refs.sort_unstable();
            refs.dedup();
            let all_shards = cluster.shard_inventory(0, .., |_| true, usize::MAX).unwrap();
            let mut full = Cap::new(after_fp, batch);
            let full_chunks = (
                full.list(refs, |fp| Some(*fp)),
                full.list(cluster.chunk_fps(0, None, usize::MAX).unwrap(), |fp| Some(*fp)),
                full.list(all_shards.clone(), |(key, _)| match key {
                    StripeKey::Chunk(fp) => Some(*fp),
                    StripeKey::Blob { .. } => None,
                }),
                full.bound,
            );
            let mut full = Cap::new(after_owner, batch);
            let full_blobs = (
                full.list(all_shards, |(key, _)| match key {
                    StripeKey::Blob { owner, dump_id: GEN } => Some(*owner),
                    _ => None,
                }),
                full.bound,
            );

            // What the leaders run: the window queries, cut.
            let mut cap = Cap::new(after_fp, batch);
            let len = cap.window_len();
            let refs = cluster.referenced_window(0, GEN, after_fp, len).unwrap();
            let chunks = (
                cap.list(refs, |fp| Some(*fp)),
                cap.list(cluster.chunk_fps(0, after_fp, len).unwrap(), |fp| Some(*fp)),
                chunk_shards(&mut cap, &cluster, 0).unwrap(),
                cap.bound,
            );
            prop_assert_eq!(chunks, full_chunks);
            let mut cap = Cap::new(after_owner, batch);
            let blobs = (blob_shards(&mut cap, &cluster, 0, GEN).unwrap(), cap.bound);
            prop_assert_eq!(blobs, full_blobs);
        }
    }

    #[test]
    fn cap_counts_distinct_keys_and_skips_foreign_entries() {
        // Shard-like entries: several per key, and `None` keys skipped.
        let entries = vec![(1, 'a'), (1, 'b'), (2, 'x'), (3, 'a'), (3, 'b'), (4, 'a')];
        let key = |(k, tag): &(u32, char)| (*tag != 'x').then_some(*k);
        let mut cap = Cap::new(None, 2);
        cap.bound = Some(9);
        let kept = cap.list(entries.clone(), key);
        assert_eq!(kept, vec![(1, 'a'), (1, 'b'), (3, 'a'), (3, 'b')]);
        assert_eq!(cap.bound, Some(3), "the bound only ever falls");
        let mut cap = Cap::new(Some(3), 2);
        let rest = cap.list(entries, key);
        assert_eq!(
            (rest, cap.bound),
            (vec![(4, 'a')], None),
            "an uncut list leaves no bound"
        );
    }

    /// A healthy dump heals to Done in bounded steps with zero work, and
    /// every rank's cursor walks the identical stage sequence.
    #[test]
    fn healthy_cluster_heals_to_done_with_no_work() {
        let cluster = Cluster::new(Placement::one_per_node(4));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(64)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let buf = vec![comm.rank() as u8 + 1; 256];
                repl.dump(comm, 1, buf).unwrap();
                let mut cursor = HealCursor::new(1);
                let report = repl.heal_from(comm, &mut cursor).unwrap();
                (cursor, report)
            })
            .expect_all();
        let (c0, r0) = &out.results[0];
        assert!(c0.is_done());
        assert!(r0.is_fully_healed());
        assert_eq!(r0.chunks_healed, 0, "healthy data plans no moves");
        assert_eq!(r0.heal_bytes(), 0);
        assert!(r0.steps >= 3, "scrub, then a window per windowed stage");
        for (c, r) in &out.results {
            assert_eq!((c, r), (c0, r0), "all ranks agree on cursor and report");
        }
    }

    /// Every windowed step costs exactly one allgather (the window and its
    /// census travel in one message, and its stripes are rebuilt without
    /// another); only the scrub step gathers none.
    #[test]
    fn every_heal_window_is_one_allgather() {
        for policy in [
            RedundancyPolicy::Replicate(3),
            RedundancyPolicy::Rs { k: 4, m: 2 },
        ] {
            let cluster = Cluster::new(Placement::one_per_node(6));
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(32)
                .with_policy(policy)
                .tracing(true)
                .heal_options(HealOptions {
                    chunk_batch: 2,
                    owner_batch: 1,
                    ..HealOptions::default()
                })
                .build()
                .unwrap();
            let out = WorldConfig::default()
                .launch(6, |comm| {
                    let buf: Vec<u8> = (0..400u32).map(|i| (i / 32 + comm.rank()) as u8).collect();
                    repl.dump(comm, 1, buf).unwrap();
                    comm.barrier();
                    if comm.rank() == 0 {
                        repl.cluster().fail_node(2);
                        repl.cluster().revive_node(2);
                    }
                    comm.barrier();
                    comm.take_trace_events();
                    let report = repl.heal(comm, 1).unwrap();
                    let allgathers = comm
                        .take_trace_events()
                        .iter()
                        .filter(|e| e.name == "coll_allgather" && e.kind == EventKind::Enter)
                        .count() as u64;
                    (report, allgathers)
                })
                .expect_all();
            for (report, allgathers) in out.results {
                assert!(report.is_fully_healed(), "{policy:?}: {report:?}");
                match policy {
                    RedundancyPolicy::Replicate(_) => assert!(report.chunks_healed > 0),
                    _ => assert!(report.shards_rebuilt > 0, "{report:?}"),
                }
                assert!(report.steps > 6, "several windows: {}", report.steps);
                assert_eq!(allgathers, report.steps - 1, "{policy:?}");
            }
        }
    }

    /// Losing a node and healing step-by-step re-replicates everything;
    /// a second heal finds zero remaining work.
    #[test]
    fn stepwise_heal_converges_and_leaves_a_second_heal_nothing() {
        let cluster = Cluster::new(Placement::one_per_node(4));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(3)
            .chunk_size(32)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let buf = vec![comm.rank() as u8 * 3 + 1; 400];
                repl.dump(comm, 1, buf.clone()).unwrap();
                comm.barrier();
                if comm.rank() == 0 {
                    repl.cluster().fail_node(2);
                    repl.cluster().revive_node(2);
                }
                comm.barrier();
                let mut cursor = HealCursor::new(1);
                let mut report = HealReport::default();
                let mut steps = 0u32;
                while repl.heal_step(comm, &mut cursor, &mut report).unwrap() {
                    steps += 1;
                    assert!(steps < 1_000, "the cursor must be monotonic");
                }
                let after = repl.heal(comm, 1).unwrap();
                (report, after, repl.restore(comm, 1).unwrap(), buf)
            })
            .expect_all();
        for (report, after, restored, buf) in out.results {
            assert!(report.is_fully_healed());
            assert!(report.chunks_healed > 0, "the lost node's copies return");
            assert!(after.is_fully_healed());
            assert_eq!(after.chunks_healed, 0, "the first heal left no work");
            assert_eq!(after.manifests_rematerialized, 0);
            assert_eq!(restored, buf);
        }
    }

    /// A cursor persisted mid-heal (Wire round-trip) resumes to the same
    /// converged state: killing the healer costs progress, not data.
    #[test]
    fn heal_resumes_from_persisted_cursor_bytes() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(3)
            .chunk_size(32)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let buf = vec![comm.rank() as u8 + 5; 320];
                repl.dump(comm, 1, buf.clone()).unwrap();
                comm.barrier();
                if comm.rank() == 0 {
                    repl.cluster().fail_node(1);
                    repl.cluster().revive_node(1);
                }
                comm.barrier();
                // Drive two steps, "kill" the healer, persist the cursor.
                let mut cursor = HealCursor::new(1);
                let mut report = HealReport::default();
                for _ in 0..2 {
                    repl.heal_step(comm, &mut cursor, &mut report).unwrap();
                }
                let persisted = cursor.to_bytes();
                // A fresh healer resumes from the decoded bytes.
                let mut resumed = HealCursor::from_bytes(&persisted).unwrap();
                assert!(!resumed.is_done(), "mid-heal snapshot");
                let tail = repl.heal_from(comm, &mut resumed).unwrap();
                (tail, repl.restore(comm, 1).unwrap(), buf)
            })
            .expect_all();
        for (tail, restored, buf) in out.results {
            assert!(tail.is_fully_healed());
            assert_eq!(restored, buf);
        }
    }

    /// A truncated frame on a healing tag is a counted decode failure of
    /// the one transfer routine, not a panic and not an early exit —
    /// whatever the key type, so this covers the chunk, blob and manifest
    /// stages alike.
    #[test]
    fn truncated_transfer_frame_is_a_typed_error_not_a_panic() {
        let fp = Fingerprint::synthetic(1);
        let out = WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    // A key header whose payload length promises 64 bytes
                    // that never follow.
                    let mut cut = FrameWriter::new();
                    cut.put(&fp);
                    cut.put(&64u64);
                    comm.try_send_frame(1, TAG_HEAL_CHUNKS, cut.finish())
                        .unwrap();
                    return Ok(Moved::default());
                }
                transfer(
                    comm,
                    TAG_HEAL_CHUNKS,
                    &[(0, 1, fp)],
                    &mut None,
                    |_| Ok(Bytes::new()),
                    |_, _| Some(true),
                )
            })
            .expect_all();
        assert_eq!(out.results[0], Ok(Moved::default()));
        assert_eq!(
            out.results[1],
            Ok(Moved {
                skipped: 1,
                ..Moved::default()
            }),
            "the cut frame is counted, nothing is stored"
        );
    }

    /// The no-dedup strategy walks the blob stage instead of
    /// chunks/manifests and still converges.
    #[test]
    fn no_dedup_heal_rematerializes_blobs() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let repl = Replicator::builder(Strategy::NoDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(64)
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let buf = vec![comm.rank() as u8 + 9; 200];
                repl.dump(comm, 1, buf.clone()).unwrap();
                comm.barrier();
                if comm.rank() == 0 {
                    repl.cluster().fail_node(0);
                    repl.cluster().revive_node(0);
                }
                comm.barrier();
                let mut cursor = HealCursor::new(1);
                let report = repl.heal_from(comm, &mut cursor).unwrap();
                (report, repl.restore(comm, 1).unwrap(), buf)
            })
            .expect_all();
        for (report, restored, buf) in out.results {
            assert!(report.is_fully_healed());
            assert!(report.blobs_rematerialized > 0);
            assert_eq!(report.chunks_healed, 0, "no chunk stage under no-dedup");
            assert_eq!(restored, buf);
        }
    }

    /// `gc_before` collects the superseded generation in the first step
    /// and the heal then converges on the surviving one.
    #[test]
    fn gc_step_collects_superseded_generations_before_healing() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(64)
            .heal_options(HealOptions {
                gc_before: Some(2),
                ..HealOptions::default()
            })
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(3, |comm| {
                repl.dump(comm, 1, vec![comm.rank() as u8 + 1; 128])
                    .unwrap();
                let buf = vec![comm.rank() as u8 + 101; 128];
                repl.dump(comm, 2, buf.clone()).unwrap();
                comm.barrier();
                let mut cursor = HealCursor::new(2);
                let report = repl.heal_from(comm, &mut cursor).unwrap();
                (report, repl.restore(comm, 2).unwrap(), buf)
            })
            .expect_all();
        for (report, restored, buf) in out.results {
            assert_eq!(report.gc.generations_collected, 1, "gen 1 collected");
            assert!(report.gc.bytes_reclaimed > 0);
            assert!(report.is_fully_healed());
            assert_eq!(restored, buf);
        }
        assert_eq!(cluster.generations(), vec![2], "only gen 2 survives");
    }

    /// A rate-limited heal moves the same bytes as an unthrottled one —
    /// the limiter shapes time, never the outcome.
    #[test]
    fn rate_limit_changes_pacing_not_convergence() {
        let run = |rate: Option<RateLimit>| {
            let cluster = Cluster::new(Placement::one_per_node(3));
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(32)
                .heal_options(HealOptions {
                    rate,
                    ..HealOptions::default()
                })
                .build()
                .unwrap();
            let out = WorldConfig::default()
                .launch(3, |comm| {
                    repl.dump(comm, 1, vec![comm.rank() as u8 + 1; 192])
                        .unwrap();
                    comm.barrier();
                    if comm.rank() == 0 {
                        repl.cluster().fail_node(2);
                        repl.cluster().revive_node(2);
                    }
                    comm.barrier();
                    let mut cursor = HealCursor::new(1);
                    repl.heal_from(comm, &mut cursor).unwrap()
                })
                .expect_all();
            out.results.into_iter().next().unwrap()
        };
        let free = run(None);
        let throttled = run(Some(RateLimit {
            bytes_per_sec: 1 << 20,
            burst_bytes: 64,
        }));
        assert!(free.is_fully_healed() && throttled.is_fully_healed());
        assert_eq!(free.heal_bytes(), throttled.heal_bytes());
        assert_eq!(free.chunks_healed, throttled.chunks_healed);
    }
}
