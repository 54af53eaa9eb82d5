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
//!   [`Wire`]-serializable, so an operator (or a test) can persist it,
//!   kill the healer, and resume from the exact window where it died.
//! * `heal_step_impl` advances the cursor by one **bounded step**: a
//!   window that costs **one gather-scatter**, the window's shard
//!   rebuilds, the transfer and a counts allreduce. In that gather-scatter
//!   each live node's leader sends rank 0 its sorted lists past the
//!   cursor's high-water mark, each capped at the batch of distinct keys
//!   — the world-wide budget [`HealOptions::window_keys`] split over the
//!   placement's nodes — plus a *bound*: the smallest last kept key among
//!   the lists it cut. The window is `(high-water, smallest bound]` — to
//!   the end of the stage when nobody cut — so every leader's lists are
//!   complete inside it. Rank 0 plans the window once, with no offer
//!   round, and sends each rank the cut and its part of the plan: the
//!   moves naming it, the shard rebuilds it leads and the window's
//!   verdicts, so every rank's report stays identical while a rank
//!   receives only its own work. The lists double as the census: a
//!   chunk's holders are the leaders whose held list carries it. Each
//!   step plans its window against the *current* cluster state with the
//!   pure `repair::build_plan`, so healing under live
//!   `dump`/`restore` traffic never acts on stale inventory for longer
//!   than one window. Since the budget bounds what rank 0 gathers per
//!   list, a window costs rank 0 about the same at 8 nodes as at 128,
//!   and a small world takes few, wide windows.
//! * A window costs what the window holds. A leader builds each list
//!   under its node lock with one bounded query (one scan, or one ordered
//!   range walk) that returns only the smallest `batch + 1` distinct keys
//!   past the cursor, which `Cap::list` cuts exactly as it would cut the
//!   whole list. Rank 0 then runs a planner linear in the window, once.
//! * Between steps the world is free: a foreground dump of a *newer*
//!   generation can run its own collectives, and the healer's next step
//!   simply sees (and skips) whatever the dump committed. In-flight
//!   generations are invisible to the healer by construction — chunk
//!   healing only considers fingerprints referenced by *committed*
//!   manifests of the cursor's generation, a chunk stripe below `k` is
//!   judged lost only when such a manifest references it, blob stripes of
//!   other generations are never sent, and an `Auto`/`Rs` chunk stripe is
//!   content-addressed, so rebuilding it concurrently is idempotent.
//! * The Scrub step is the collective scrub (`repair::scrub_impl`): every
//!   rank gets the same merged report and counts off it, and each leader
//!   quarantines, and under [`HealOptions::gc_before`] collects, only its
//!   own node: superseded recipes and blob stripes before the census, then
//!   the chunks and chunk stripes it found referenced by no surviving
//!   manifest anywhere, before the heal spends bandwidth on them. A failed
//!   dump's generation is collected the same way: whatever recipes it left
//!   are superseded, and the chunks and shards it stored are orphans.
//!   Only that collection reads the census's cluster-wide orphans, so only
//!   under a GC do the leaders ship rank 0 their whole held and
//!   referenced lists to resolve them.
//! * An optional [`RateLimit`] meters healing payload bytes through a
//!   deterministic debt-based [`TokenBucket`], bounding how hard the
//!   background healer competes with foreground collectives.
//!
//! Stage order: `Scrub → Chunks → Owners → Done`; `no-dedup` skips
//! `Chunks`. The Owners stage heals the one stored recipe of each rank —
//! its manifest, or its raw blob under `no-dedup` — in one transfer;
//! a blob is data, metered and counted in the heal's bytes, a manifest
//! is metadata and rides unmetered. The cursor is strictly monotonic —
//! a step either advances the high-water mark to its window's cut or,
//! when the window ran to the end, advances the stage — so a heal always
//! terminates, and resuming from any persisted cursor position converges
//! to the same healed state (re-running a window is idempotent: puts are
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
    Cluster, DumpId, GcStats, NodeId, Recipe, SessionId, ShardMeta, StorageError, StripeKey,
};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::repair::{
    build_plan, leader_of, scrub_impl, transfer, Moved, NodeInventory, RepairError,
};

const TAG_HEAL_CHUNKS: Tag = 0x5250_0009;
const TAG_HEAL_OWNERS: Tag = 0x5250_000A;

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
/// rank driving the same heal (they shape the step's collectives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealOptions {
    /// World-wide budget of distinct keys rank 0 gathers per list in one
    /// [`HealStage::Chunks`] or [`HealStage::Owners`] window. Each node's
    /// leader sends at most `window_keys / placement nodes` keys (at
    /// least 1) in each of its lists — fingerprints in the referenced,
    /// held and chunk-stripe lists, owner ranks in the recipe-owner and
    /// blob-stripe lists. The node count is the placement's,
    /// not the live one, so every leader cuts alike even if a node dies
    /// between steps.
    pub window_keys: usize,
    /// Throughput bound on healing payload bytes (`None`: unthrottled).
    pub rate: Option<RateLimit>,
    /// Collect superseded generations older than this id in the
    /// [`HealStage::Scrub`] step (`None`: skip collection).
    pub gc_before: Option<DumpId>,
}

impl Default for HealOptions {
    fn default() -> Self {
        Self {
            window_keys: 8_192,
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
    /// Scrub, quarantine corrupt chunk and shard copies and, optionally,
    /// collect superseded generations (one step).
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

/// What a heal (or a span of heal steps) did. Every step's counts reach
/// every rank (the Scrub step's census, a window's allreduce), so the
/// report is identical on every rank that drove the same steps. A report only covers the steps *this* run
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
    /// Recipe copies re-materialized: manifests, or raw blobs under
    /// `no-dedup`.
    pub recipes_rematerialized: u64,
    /// Corrupt chunk copies quarantined by the scrub step.
    pub corrupt_quarantined: u64,
    /// Erasure-coded shards reconstructed and re-homed.
    pub shards_rebuilt: u64,
    /// Bytes of reconstructed shard payloads written back.
    pub bytes_reconstructed: u64,
    /// Parity-inconsistent shard copies quarantined by the scrub step.
    pub shards_quarantined: u64,
    /// What the superseded-generation collection reclaimed, summed over nodes.
    pub gc: GcStats,
    /// Referenced fingerprints found beyond repair in a planned window.
    pub unrepairable_chunks: Vec<Fingerprint>,
    /// Owner ranks whose recipe has no surviving copy (nor, for a blob,
    /// a viable stripe).
    pub unrepairable_recipes: Vec<u32>,
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
            && self.unrepairable_recipes.is_empty()
            && self.unrepairable_stripes.is_empty()
    }

    /// Total payload bytes the healer moved or rewrote.
    pub fn heal_bytes(&self) -> u64 {
        self.bytes_re_replicated + self.bytes_reconstructed
    }
}

impl HealOptions {
    /// Distinct keys each leader sends per list in a window: the budget
    /// split over the placement's nodes, at least 1.
    fn batch(&self, cluster: &Cluster) -> usize {
        (self.window_keys / cluster.placement().nodes.max(1) as usize).max(1)
    }
}

/// Pause for a debit if a limiter is active, through [`Comm::sleep`].
pub(crate) fn throttle(comm: &Comm, bucket: &mut Option<TokenBucket>, bytes: u64) {
    if let Some(b) = bucket.as_mut() {
        let wait = b.debit(bytes);
        if wait > Duration::ZERO {
            comm.sleep(wait);
        }
    }
}

/// Element-wise sum of two counter vectors.
fn add(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    a.iter().zip(&b).map(|(x, y)| x + y).collect()
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
    let counts = vec![
        moved.stored,
        moved.bytes,
        moved.skipped + rebuilt.skipped,
        rebuilt.stored,
        rebuilt.bytes,
    ];
    let sums = comm.try_allreduce(counts, add)?;
    report.payloads_skipped += sums[2];
    if sums[3] > 0 {
        report.shards_rebuilt += sums[3];
        report.bytes_reconstructed += sums[4];
        comm.tracer().counter("heal_shards_rebuilt", sums[3]);
        comm.tracer().counter("heal_bytes", sums[4]);
    }
    Ok((sums[0], sums[1]))
}

/// Rebuild `rebuilds`, the shards of a window this rank leads, each from
/// any `k` survivors, onto this rank's node, under `heal.stripes` —
/// entered only when there are any. Throttled like a transfer, and
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
    for (_, key, index) in rebuilds {
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
/// advance their cursors identically (every decision comes from rank 0's
/// one plan of the window). A no-op once the cursor [`HealCursor::is_done`].
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
            // Each leader drops its node's superseded generations first, so
            // the census's orphans are what no surviving manifest references.
            let mut gc = (GcStats::default(), Vec::new());
            if let Some(before) = opts.gc_before {
                comm.enter_phase("heal.gc");
                if i_lead {
                    // A node that died since has nothing left to collect.
                    gc = cluster.collect_superseded(node, before).unwrap_or_default();
                }
                comm.exit_phase("heal.gc");
            }
            comm.enter_phase("heal.scrub");
            let step = (|| -> Result<(), RepairError> {
                let mut found = scrub_impl(comm, ctx, opts.gc_before.is_some())?;
                // Under a GC an orphan is collected, not quarantined, even
                // when it is corrupt too.
                if opts.gc_before.is_some() {
                    let orphan = |e: &(NodeId, Fingerprint)| found.orphans.binary_search(e).is_ok();
                    found.corrupt.retain(|e| !orphan(e));
                    found.stripe_mismatches.retain(
                        |(nd, key, _)| !matches!(key, StripeKey::Chunk(fp) if orphan(&(*nd, *fp))),
                    );
                }
                // Every rank counts off the same report; each leader mends
                // only its own node.
                report.corrupt_quarantined += found.corrupt.len() as u64;
                report.shards_quarantined += found.stripe_mismatches.len() as u64;
                if i_lead {
                    let own = |nd: &NodeId| *nd == node;
                    if opts.gc_before.is_some() {
                        let orphans = found.orphans.iter().filter(|(nd, _)| own(nd));
                        let fps: Vec<Fingerprint> = orphans.map(|(_, fp)| *fp).collect();
                        gc.0.merge(&cluster.collect_orphans(node, &fps)?);
                    }
                    for (_, fp) in found.corrupt.iter().filter(|(nd, _)| own(nd)) {
                        cluster.quarantine_chunk(node, fp)?;
                    }
                    for (_, key, index) in found.stripe_mismatches.iter().filter(|(nd, ..)| own(nd))
                    {
                        cluster.quarantine_shard(node, *key, *index)?;
                    }
                }
                if opts.gc_before.is_some() {
                    // Counts sum; the generations unite, so one collected on
                    // several nodes counts once.
                    let (c, generations) = gc;
                    let counts = vec![
                        c.recipes_removed,
                        c.chunks_removed,
                        c.shards_removed,
                        c.bytes_reclaimed,
                    ];
                    let (sums, generations) =
                        comm.try_allreduce((counts, generations), |(a, mut ga), (b, gb)| {
                            merge_sorted(&mut ga, gb);
                            (add(a, b), ga)
                        })?;
                    report.gc.merge(&GcStats {
                        generations_collected: generations.len() as u64,
                        recipes_removed: sums[0],
                        chunks_removed: sums[1],
                        shards_removed: sums[2],
                        bytes_reclaimed: sums[3],
                    });
                    comm.tracer()
                        .counter("heal_generations_collected", generations.len() as u64);
                }
                Ok(())
            })();
            comm.exit_phase("heal.scrub");
            step?;
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
                let mut cap = Cap::new(after, opts.batch(cluster));
                if i_lead {
                    let len = cap.window_len();
                    inv.leads_live_node = true;
                    let refs = cluster.referenced_window(node, ctx.dump_id, after, len)?;
                    inv.referenced = cap.list(refs, |fp| Some(*fp));
                    inv.held = cap.list(cluster.chunk_fps(node, after, len)?, |fp| Some(*fp));
                    inv.shards = chunk_shards(&mut cap, cluster, node)?;
                }
                plan_window(comm, inv, cap.bound, |mut world_inv, cut| {
                    // Keys past the cut are the next window's business: the
                    // plan of this one needs none of them.
                    let in_window = |fp: &Fingerprint| cut.is_none_or(|c| *fp <= c);
                    for inv in &mut world_inv {
                        inv.referenced.retain(in_window);
                        inv.held.retain(in_window);
                        inv.shards.retain(
                            |(key, _)| matches!(key, StripeKey::Chunk(fp) if in_window(fp)),
                        );
                    }
                    let idle = world_inv
                        .iter()
                        .all(|inv| inv.referenced.is_empty() && inv.shards.is_empty());
                    (!idle).then(|| {
                        let plan = windowed_plan(ctx, k, n, world_inv);
                        Window {
                            moves: plan.chunk_moves,
                            rebuilds: plan.shard_rebuilds,
                            lost: plan.unrepairable_chunks,
                            lost_stripes: plan.unrepairable_stripes,
                        }
                    })
                })
            })();
            comm.exit_phase("heal.plan");
            let (cut, part) = step?;
            if let Some(part) = part {
                let rebuilt = rebuild_shards(comm, cluster, bucket, &part.rebuilds);
                comm.enter_phase("heal.transfer");
                let moved = transfer(
                    comm,
                    TAG_HEAL_CHUNKS,
                    &part.moves,
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
                merge_sorted(&mut report.unrepairable_chunks, part.lost);
                merge_sorted(&mut report.unrepairable_stripes, part.lost_stripes);
            }
            match cut {
                Some(c) => cursor.after_fp = Some(c),
                None => cursor.stage = HealStage::Owners,
            }
        }
        HealStage::Owners => {
            let after = cursor.after_owner;
            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let mut inv = NodeInventory::default();
                let mut cap = Cap::new(after, opts.batch(cluster));
                if i_lead {
                    inv.leads_live_node = true;
                    let owners = cluster.recipe_owners(node, ctx.dump_id)?;
                    inv.owners = cap.list(owners, |r| Some(*r));
                    // A blob with no replica is healthy if its stripe
                    // survives — the plan needs this generation's Blob
                    // stripes to judge that, and rebuilds them.
                    inv.shards = blob_shards(&mut cap, cluster, node, ctx.dump_id)?;
                }
                plan_window(comm, inv, cap.bound, |mut world_inv, cut| {
                    // The window is the owner range `(after, cut]`. Stripes
                    // past the cut are the next window's; the plan flags
                    // every owner outside the window as lost (their lists
                    // were not sent), so only in-window verdicts are real.
                    let in_window =
                        |r: &u32| after.is_none_or(|a| *r > a) && cut.is_none_or(|c| *r <= c);
                    for inv in &mut world_inv {
                        inv.shards.retain(|(key, _)| {
                            matches!(key, StripeKey::Blob { owner, .. } if in_window(owner))
                        });
                    }
                    let mut plan = windowed_plan(ctx, k, n, world_inv);
                    plan.recipe_moves.retain(|(_, _, owner)| in_window(owner));
                    plan.unrepairable_recipes.retain(in_window);
                    Some(Window {
                        moves: plan.recipe_moves,
                        rebuilds: plan.shard_rebuilds,
                        lost: plan.unrepairable_recipes,
                        lost_stripes: plan.unrepairable_stripes,
                    })
                })
            })();
            comm.exit_phase("heal.plan");
            let (cut, part) = step?;
            let Window {
                moves,
                rebuilds,
                lost,
                lost_stripes,
            } = part.unwrap_or_default();
            let rebuilt = rebuild_shards(comm, cluster, bucket, &rebuilds);

            // Blobs are data: metered and counted in the heal's bytes.
            // Manifests are metadata-sized, so they ride unmetered and
            // uncounted, like their zero device bytes.
            let blobs = strategy == Strategy::NoDedup;
            let mut unmetered = None;
            comm.enter_phase("heal.transfer");
            let moved = transfer(
                comm,
                TAG_HEAL_OWNERS,
                &moves,
                if blobs { bucket } else { &mut unmetered },
                |owner| {
                    let recipe = cluster.get_recipe(node, *owner, ctx.dump_id)?;
                    Ok(recipe.into_bytes())
                },
                |owner, data| {
                    let recipe = Recipe::from_bytes(blobs, data.into_bytes()).ok()?;
                    let put = cluster.put_recipe(node, owner, ctx.dump_id, recipe);
                    put.ok().map(|_| true)
                },
            )
            .map_err(RepairError::from)
            .and_then(|moved| window_counts(comm, moved, rebuilt, report));
            comm.exit_phase("heal.transfer");
            let (stored, bytes) = moved?;
            report.recipes_rematerialized += stored;
            comm.tracer().counter("heal_recipes_rematerialized", stored);
            if blobs {
                report.bytes_re_replicated += bytes;
                comm.tracer().counter("heal_bytes", bytes);
            }
            merge_sorted(&mut report.unrepairable_recipes, lost);
            merge_sorted(&mut report.unrepairable_stripes, lost_stripes);
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
pub(crate) const FIRST_BLOB: StripeKey = StripeKey::Blob {
    owner: 0,
    dump_id: 0,
};

/// One leader's side of a window: its sorted lists strictly past
/// `after`, each cut after `batch` distinct keys. `bound` is the smallest
/// last kept key of any cut list, so inside the window rank 0 plans —
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

/// A window's plan, or one rank's part of it: the `(src, dst, key)`
/// moves, the shard rebuilds as `(leader, stripe, index)`, and the
/// window's verdicts — its keys and stripes beyond repair.
#[derive(Debug, Default)]
struct Window<K> {
    moves: Vec<(u32, u32, K)>,
    rebuilds: Vec<(u32, StripeKey, u8)>,
    lost: Vec<K>,
    lost_stripes: Vec<StripeKey>,
}

impl<K: Copy> Window<K> {
    /// Each of `n` ranks' parts: the moves naming it, the rebuilds it
    /// leads, and every verdict, so every rank's report stays identical.
    fn split(self, n: u32) -> Vec<Self> {
        let mut parts: Vec<Self> = (0..n)
            .map(|_| Window {
                moves: Vec::new(),
                rebuilds: Vec::new(),
                lost: self.lost.clone(),
                lost_stripes: self.lost_stripes.clone(),
            })
            .collect();
        for m @ (src, dst, _) in self.moves {
            parts[src as usize].moves.push(m);
            if dst != src {
                parts[dst as usize].moves.push(m);
            }
        }
        for r in self.rebuilds {
            parts[r.0 as usize].rebuilds.push(r);
        }
        parts
    }
}

impl<K: Wire> Wire for Window<K> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.moves.encode(buf);
        self.rebuilds.encode(buf);
        self.lost.encode(buf);
        self.lost_stripes.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(Window {
            moves: Vec::decode(input)?,
            rebuilds: Vec::decode(input)?,
            lost: Vec::decode(input)?,
            lost_stripes: Vec::decode(input)?,
        })
    }
}

/// The window's one gather-scatter: every leader's capped lists and bound
/// go to rank 0, which cuts the window at the smallest bound — `None` when
/// nobody cut, so the window runs to the end of the stage — and calls
/// `plan` once on the lists and the cut (`None`: the window has no work).
/// Every rank gets back the cut and its part of the plan.
fn plan_window<K: Wire + Ord + Copy>(
    comm: &mut Comm,
    inv: NodeInventory,
    bound: Option<K>,
    plan: impl FnOnce(Vec<NodeInventory>, Option<K>) -> Option<Window<K>>,
) -> Result<(Option<K>, Option<Window<K>>), RepairError> {
    let n = comm.size();
    comm.try_gather_scatter(0, (inv, bound), |all| {
        let cut = all.iter().filter_map(|(_, b)| *b).min();
        let parts = match plan(all.into_iter().map(|(inv, _)| inv).collect(), cut) {
            Some(window) => window.split(n).into_iter().map(Some).collect(),
            None => (0..n).map(|_| None).collect::<Vec<_>>(),
        };
        parts.into_iter().map(|part| (cut, part)).collect()
    })
    .map_err(RepairError::from)
}

/// Run [`build_plan`] over a windowed inventory with the world's real
/// leader topology. Consumes the inventory, so a rank frees the world's
/// lists before it waits in the window's transfer.
fn windowed_plan(
    ctx: &DumpContext<'_>,
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
    build_plan(k, ctx.dump_id, &world_inv, &home_leader, &leader_of_node)
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
    use replidedup_hash::{ChunkHasher, Sha1ChunkHasher};
    use replidedup_mpi::wire::FrameWriter;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::{Cluster, Manifest, Placement};
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
                cluster.put_recipe(0, owner, *dump_id, Recipe::Manifest(m)).unwrap();
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

    /// Every step costs exactly one gather-scatter: the Scrub step's is
    /// the collective scrub's census, each window's carries its lists to
    /// rank 0 and the plan back (its stripes are rebuilt without a second).
    /// The Scrub step reads its counts off the census and so enters no
    /// allreduce, and no step allgathers.
    #[test]
    fn every_heal_window_is_one_gather_scatter() {
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
                    window_keys: 6,
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
                    let mut cursor = HealCursor::new(1);
                    let mut report = HealReport::default();
                    let mut per_step = Vec::new();
                    loop {
                        let stage = cursor.stage;
                        let more = repl.heal_step(comm, &mut cursor, &mut report).unwrap();
                        let events = comm.take_trace_events();
                        let entered = |name: &str| {
                            events
                                .iter()
                                .filter(|e| e.name == name && e.kind == EventKind::Enter)
                                .count()
                        };
                        let colls = ["coll_gather_scatter", "coll_allreduce", "coll_allgather"];
                        per_step.push((stage, colls.map(entered)));
                        if !more {
                            break;
                        }
                    }
                    (report, per_step)
                })
                .expect_all();
            for (report, per_step) in out.results {
                assert!(report.is_fully_healed(), "{policy:?}: {report:?}");
                match policy {
                    RedundancyPolicy::Replicate(_) => assert!(report.chunks_healed > 0),
                    _ => assert!(report.shards_rebuilt > 0, "{report:?}"),
                }
                assert_eq!(per_step.len() as u64, report.steps);
                let windows = |of| per_step.iter().filter(|(stage, _)| *stage == of).count();
                assert!(
                    windows(HealStage::Chunks) >= 2 && windows(HealStage::Owners) >= 2,
                    "{policy:?}: several windows per stage: {per_step:?}"
                );
                for (stage, [gather_scatters, allreduces, allgathers]) in per_step {
                    assert_eq!(gather_scatters, 1, "{policy:?} {stage:?}");
                    assert_eq!(allgathers, 0, "{policy:?} {stage:?}");
                    if stage == HealStage::Scrub {
                        assert_eq!(allreduces, 0, "{policy:?}: the scrub counts off its census");
                    }
                }
            }
        }
    }

    /// A budget of zero, or below the node count, still gives each leader
    /// one key per list, and the heal walks to Done in the same windows
    /// as at a budget of exactly one key per node. The batch comes from
    /// the placement: a node failed between two steps changes no
    /// leader's batch.
    #[test]
    fn budgets_below_the_node_count_heal_with_a_batch_of_one() {
        let heal = |window_keys: usize, fail_mid_heal: bool| {
            let cluster = Cluster::new(Placement::one_per_node(4));
            let opts = HealOptions {
                window_keys,
                ..HealOptions::default()
            };
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(32)
                .heal_options(opts)
                .build()
                .unwrap();
            let batch = opts.batch(&cluster);
            let out = WorldConfig::default()
                .launch(4, |comm| {
                    let buf: Vec<u8> = (0..320u32).map(|i| (i / 32 + comm.rank()) as u8).collect();
                    repl.dump(comm, 1, buf).unwrap();
                    comm.barrier();
                    if comm.rank() == 0 {
                        repl.cluster().fail_node(2);
                        repl.cluster().revive_node(2);
                    }
                    comm.barrier();
                    let mut cursor = HealCursor::new(1);
                    let mut report = HealReport::default();
                    let mut batches = Vec::new();
                    while repl.heal_step(comm, &mut cursor, &mut report).unwrap() {
                        comm.barrier();
                        if fail_mid_heal && comm.rank() == 0 && cursor.stage == HealStage::Chunks {
                            repl.cluster().fail_node(3);
                        }
                        comm.barrier();
                        batches.push(opts.batch(repl.cluster()));
                    }
                    (cursor, report, batches)
                })
                .expect_all();
            let (cursor, report, batches) = out.results.into_iter().next().unwrap();
            assert!(cursor.is_done(), "budget {window_keys}");
            assert!(
                batches.iter().all(|b| *b == batch),
                "budget {window_keys}: {batches:?}"
            );
            (batch, report)
        };
        let (one, at_one) = heal(4, false);
        assert_eq!(one, 1);
        assert!(
            at_one.is_fully_healed() && at_one.chunks_healed > 0,
            "{at_one:?}"
        );
        for window_keys in [0, 3] {
            assert_eq!(
                heal(window_keys, false),
                (1, at_one.clone()),
                "budget {window_keys}"
            );
        }
        // Twenty keys over the placement's four nodes, whether or not node
        // 3 is still alive: five per leader.
        let (five, report) = heal(20, true);
        assert_eq!(five, 5);
        assert!(report.steps > 2, "{report:?}");
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
            assert_eq!(after.recipes_rematerialized, 0);
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
            assert!(report.recipes_rematerialized > 0);
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

    /// The GC's reference check is cluster-wide although each leader
    /// collects only its own node: a chunk that only another node's
    /// surviving manifest references stays, a chunk only the superseded
    /// generation referenced goes, and so does every shard of a chunk
    /// stripe no manifest references.
    #[test]
    fn gc_keeps_a_chunk_only_another_nodes_manifest_references() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let chunk = |fill: u8| {
            let data = Bytes::from(vec![fill; 8]);
            (Sha1ChunkHasher.fingerprint(&data), data)
        };
        let (shared, old, new) = (chunk(1), chunk(2), [chunk(10), chunk(11), chunk(12)]);
        for (node, (fp, data)) in [
            (0, &shared),
            (0, &old),
            (0, &new[0]),
            (1, &new[1]),
            (2, &new[2]),
        ] {
            cluster.put_chunk(node, *fp, data.clone()).unwrap();
        }
        let recipe = |owner: u32, gen: DumpId, fps: Vec<Fingerprint>| {
            let m = Manifest::fixed_stride(owner, gen, 8, 8 * fps.len() as u64, fps);
            cluster
                .put_recipe(owner, owner, gen, Recipe::Manifest(m))
                .unwrap();
        };
        recipe(0, 1, vec![old.0]);
        recipe(1, 1, vec![shared.0]);
        recipe(0, 2, vec![new[0].0]);
        recipe(1, 2, vec![shared.0, new[1].0]);
        recipe(2, 2, vec![new[2].0]);
        // A 2+1 chunk stripe over the three nodes that nothing references.
        let payload = Bytes::from(vec![7u8; 24]);
        let stray = StripeKey::Chunk(Sha1ChunkHasher.fingerprint(&payload));
        let code = replidedup_ec::RsCode::new(2, 1).unwrap();
        let homes = replidedup_ec::shard_nodes(stray.seed(), 3, 3);
        for (index, shard) in (0u8..).zip(code.encode(&payload)) {
            let meta = ShardMeta {
                k: 2,
                m: 1,
                index,
                total_len: 24,
            };
            cluster
                .put_shard(homes[usize::from(index)], stray, meta, shard)
                .unwrap();
        }

        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(1)
            .chunk_size(8)
            .heal_options(HealOptions {
                gc_before: Some(2),
                ..HealOptions::default()
            })
            .build()
            .unwrap();
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let report = repl.heal(comm, 2).unwrap();
                (report, repl.restore(comm, 2).unwrap())
            })
            .expect_all();
        let rank1 = [&shared.1[..], &new[1].1[..]].concat();
        let wants: [&[u8]; 3] = [&new[0].1, &rank1, &new[2].1];
        for ((report, restored), want) in out.results.into_iter().zip(wants) {
            assert!(report.is_fully_healed(), "{report:?}");
            let gc = GcStats {
                generations_collected: 1,
                recipes_removed: 2,
                chunks_removed: 1,
                shards_removed: 3,
                bytes_reclaimed: 8 + 3 * 12,
            };
            assert_eq!(report.gc, gc);
            assert_eq!(&restored[..], want);
        }
        assert!(
            cluster.has_chunk(0, &shared.0),
            "node 1's manifest needs it"
        );
        assert!(!cluster.has_chunk(0, &old.0));
        assert_eq!(cluster.generations(), vec![2]);
        assert!(cluster.reconstruct_payload(stray).is_none());
    }

    /// Buffers of `ranks` ranks in 32-byte chunks: `shared` chunks every
    /// rank holds (fills `1..`), then four private ones per rank (fills
    /// `private + 4 * rank ..`).
    fn shared_and_private(rank: u32, shared: &[u8], private: u8) -> Vec<u8> {
        let fills = shared
            .iter()
            .copied()
            .chain((0..4).map(|j| private + 4 * rank as u8 + j));
        fills.flat_map(|fill| [fill; 32]).collect()
    }

    /// Heal's scrub on a packed placement, where each node's second rank
    /// is no leader: chunk copies rot on two nodes and a parity shard on
    /// the highest, and each is quarantined once — by its node's leader —
    /// then healed. Under a GC, a rotten chunk only the superseded
    /// generation referenced is collected, not quarantined, and the GC's
    /// counts are the Scrub step's one allreduce.
    #[test]
    fn packed_nodes_quarantine_their_own_rot_once() {
        for gc_on in [false, true] {
            let cluster = Cluster::new(Placement::pack(8, 2));
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(2)
                .chunk_size(32)
                .with_policy(RedundancyPolicy::Rs { k: 2, m: 1 })
                .tracing(true)
                .heal_options(HealOptions {
                    gc_before: gc_on.then_some(2),
                    ..HealOptions::default()
                })
                .build()
                .unwrap();
            let gen1 = |r: u32| shared_and_private(r, &[1, 2, 3, 4, 40, 41], 60);
            let gen2 = |r: u32| shared_and_private(r, &[1, 2, 3, 4], 100);
            WorldConfig::default()
                .launch(8, |comm| {
                    let r = comm.rank();
                    if gc_on {
                        repl.dump(comm, 1, gen1(r)).unwrap();
                    }
                    repl.dump(comm, 2, gen2(r)).unwrap();
                })
                .expect_all();

            let fp = |fill: u8| Sha1ChunkHasher.fingerprint(&[fill; 32]);
            let cluster = &cluster;
            let holders = |fill: u8| (0..4).filter(move |nd| cluster.has_chunk(*nd, &fp(fill)));
            // One copy of each of two shared chunks, on two nodes, each
            // chunk keeping a good copy elsewhere.
            let mut rotten = Vec::new();
            for fill in 1..=4 {
                if cluster.copies_of(&fp(fill)) < 2 {
                    continue;
                }
                if let Some(nd) = holders(fill).find(|nd| rotten.iter().all(|(n, _)| n != nd)) {
                    rotten.push((nd, fill));
                }
            }
            rotten.truncate(2);
            assert_eq!(rotten.len(), 2, "two shared chunks on two nodes");
            for (nd, fill) in &rotten {
                assert!(cluster.corrupt_chunk(*nd, &fp(*fill)).unwrap());
            }
            // A parity shard of a stripe generation 2 references.
            let gen2_private: Vec<StripeKey> = (0..8u8)
                .flat_map(|r| (0..4).map(move |j| StripeKey::Chunk(fp(100 + 4 * r + j))))
                .collect();
            let shards = cluster
                .shard_inventory(3, .., |_| true, usize::MAX)
                .unwrap();
            let (key, meta) = shards
                .into_iter()
                .find(|(key, meta)| meta.is_parity() && gen2_private.contains(key))
                .expect("node 3 holds a parity shard");
            assert!(cluster.corrupt_shard(3, key, meta.index).unwrap());
            // Under the GC, a copy of a chunk only generation 1 holds.
            if gc_on {
                let nd = holders(40).next().expect("a gen-1-only copy");
                assert!(cluster.corrupt_chunk(nd, &fp(40)).unwrap());
            }

            let out = WorldConfig::default()
                .launch(8, |comm| {
                    let mut cursor = HealCursor::new(2);
                    let mut scrub = HealReport::default();
                    comm.take_trace_events();
                    repl.heal_step(comm, &mut cursor, &mut scrub).unwrap();
                    let allreduces = comm
                        .take_trace_events()
                        .iter()
                        .filter(|e| e.name == "coll_allreduce" && e.kind == EventKind::Enter)
                        .count();
                    let rest = repl.heal_from(comm, &mut cursor).unwrap();
                    let again = repl.heal(comm, 2).unwrap();
                    let restored = repl.restore(comm, 2).unwrap();
                    (
                        scrub,
                        allreduces,
                        rest,
                        again,
                        restored == gen2(comm.rank()),
                    )
                })
                .expect_all();
            for (scrub, allreduces, rest, again, exact) in out.results {
                assert_eq!(scrub.corrupt_quarantined, 2, "gc {gc_on}: {scrub:?}");
                assert_eq!(scrub.shards_quarantined, 1, "gc {gc_on}: {scrub:?}");
                assert_eq!(allreduces, usize::from(gc_on), "gc {gc_on}");
                if gc_on {
                    assert_eq!(scrub.gc.generations_collected, 1);
                    assert!(scrub.gc.chunks_removed >= 2, "{:?}", scrub.gc);
                }
                assert!(rest.is_fully_healed(), "gc {gc_on}: {rest:?}");
                assert!(rest.shards_rebuilt >= 1, "{rest:?}");
                assert!(again.is_fully_healed());
                let work = again.corrupt_quarantined
                    + again.shards_quarantined
                    + again.chunks_healed
                    + again.shards_rebuilt;
                assert_eq!(work, 0, "gc {gc_on}: {again:?}");
                assert!(exact, "gc {gc_on}: byte-exact restore");
            }
            for fill in 1..=4 {
                assert!(
                    cluster.copies_of(&fp(fill)) >= 2,
                    "gc {gc_on}: chunk {fill}"
                );
            }
        }
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
