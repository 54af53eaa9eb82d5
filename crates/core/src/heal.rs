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
//!   (`after_fp` / `after_owner` / `after_stripe`) inside the stage. The
//!   cursor is [`Wire`]-serializable, so an operator (or a drill
//!   harness) can persist it, kill the healer, and resume from the exact
//!   window where it died.
//! * [`heal_step_impl`] advances the cursor by one **bounded step**: a
//!   small collective over at most [`HealOptions::chunk_batch`] (or
//!   `owner_batch` / `stripe_batch`) items. Each step re-plans its
//!   window against the *current* cluster state with the pure
//!   [`crate::repair::build_plan`], then post-filters the plan to the
//!   window — so healing under live `dump`/`restore` traffic never acts
//!   on stale inventory for longer than one window.
//! * Between steps the world is free: a foreground dump of a *newer*
//!   generation can run its own collectives, and the healer's next step
//!   simply sees (and skips) whatever the dump committed. In-flight
//!   generations are invisible to the healer by construction — chunk
//!   healing only considers fingerprints referenced by *committed*
//!   manifests of the cursor's generation, blob stripes of other
//!   generations are never offered, and an `Auto`/`Rs` chunk stripe is
//!   content-addressed, so touching it concurrently is idempotent.
//! * The optional [`HealOptions::gc_before`] bound runs
//!   [`replidedup_storage::Cluster::gc_superseded`] as the first step,
//!   so superseded generations are collected *before* the scrub wastes
//!   bandwidth re-replicating data nothing references anymore.
//! * An optional [`RateLimit`] meters healing payload bytes through a
//!   deterministic debt-based [`TokenBucket`], bounding how hard the
//!   background healer competes with foreground collectives.
//!
//! Stage order: `Gc → Scrub → Chunks → Manifests → Stripes → Done` for
//! the dedup strategies, `Gc → Scrub → Blobs → Stripes → Done` for
//! `no-dedup`. The cursor is strictly monotonic — a step either advances
//! a high-water mark past a non-empty window or advances the stage past
//! an empty one — so a heal always terminates, and resuming from any
//! persisted cursor position converges to the same healed state
//! (re-running a window is idempotent: puts are content-addressed). A
//! crash mid-step surfaces as [`RepairError::Comm`]; unrecoverable data
//! is reported in the [`HealReport`] instead of failing the collective.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use replidedup_buf::Chunk;
use replidedup_hash::{Fingerprint, FpHashSet};
use replidedup_mpi::wire::{FrameReader, FrameWriter, Wire, WireError, WireResult};
use replidedup_mpi::{Comm, Tag};
use replidedup_storage::{DumpId, GcStats, Manifest, NodeId, SessionId, StorageError, StripeKey};

use crate::config::Strategy;
use crate::dump::DumpContext;
use crate::global::{try_reduce_global_view, GlobalView};
use crate::repair::{build_plan, leader_of, lowest_live_leader, NodeInventory, RepairError};

const TAG_HEAL_CHUNKS: Tag = 0x5250_0009;
const TAG_HEAL_MANIFEST: Tag = 0x5250_000A;
const TAG_HEAL_BLOB: Tag = 0x5250_000B;

/// Phases a healing step may enter (trace span names). Unlike
/// [`crate::DUMP_PHASES`] these repeat: every windowed step re-enters
/// `heal.plan` / `heal.transfer`, which is what lets a fault plan target
/// e.g. the *second* transfer window (`start:heal.transfer#2`).
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
    /// Fingerprints re-planned per [`HealStage::Chunks`] step.
    pub chunk_batch: usize,
    /// Owner ranks re-planned per [`HealStage::Manifests`] /
    /// [`HealStage::Blobs`] step.
    pub owner_batch: usize,
    /// Stripes re-planned per [`HealStage::Stripes`] step.
    pub stripe_batch: usize,
    /// Throughput bound on healing payload bytes (`None`: unthrottled).
    pub rate: Option<RateLimit>,
    /// Collect superseded generations older than this id in the
    /// [`HealStage::Gc`] step (`None`: skip collection).
    pub gc_before: Option<DumpId>,
}

impl Default for HealOptions {
    fn default() -> Self {
        Self {
            chunk_batch: 64,
            owner_batch: 16,
            stripe_batch: 32,
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

/// Where a heal stands. Stages run in declaration order; the dedup
/// strategies skip [`HealStage::Blobs`], `no-dedup` skips
/// [`HealStage::Chunks`] and [`HealStage::Manifests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealStage {
    /// Collect superseded generations (one step, optional).
    Gc,
    /// Scrub and quarantine corrupt chunk and shard copies (one step).
    Scrub,
    /// Re-replicate under-replicated chunks, one fingerprint window at a
    /// time.
    Chunks,
    /// Re-materialize lost manifests, one owner-rank window at a time.
    Manifests,
    /// Re-materialize lost raw blobs (`no-dedup`), one owner-rank window
    /// at a time.
    Blobs,
    /// Rebuild missing erasure-coded shards, one stripe window at a
    /// time.
    Stripes,
    /// Nothing left to heal for this generation.
    Done,
}

impl Wire for HealStage {
    fn encode(&self, buf: &mut Vec<u8>) {
        let d: u8 = match self {
            HealStage::Gc => 0,
            HealStage::Scrub => 1,
            HealStage::Chunks => 2,
            HealStage::Manifests => 3,
            HealStage::Blobs => 4,
            HealStage::Stripes => 5,
            HealStage::Done => 6,
        };
        d.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(match u8::decode(input)? {
            0 => HealStage::Gc,
            1 => HealStage::Scrub,
            2 => HealStage::Chunks,
            3 => HealStage::Manifests,
            4 => HealStage::Blobs,
            5 => HealStage::Stripes,
            6 => HealStage::Done,
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
    /// High-water owner rank inside [`HealStage::Manifests`] /
    /// [`HealStage::Blobs`].
    pub after_owner: Option<u32>,
    /// High-water stripe inside [`HealStage::Stripes`].
    pub after_stripe: Option<StripeKey>,
    /// Bounded steps this cursor has been advanced through (across
    /// resumes, if the resumed cursor came from persisted bytes).
    pub steps_taken: u64,
}

impl HealCursor {
    /// A cursor at the start of the heal of `dump_id`.
    pub fn new(dump_id: DumpId) -> Self {
        Self {
            dump_id,
            stage: HealStage::Gc,
            after_fp: None,
            after_owner: None,
            after_stripe: None,
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
        self.after_stripe.encode(buf);
        self.steps_taken.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(HealCursor {
            dump_id: DumpId::decode(input)?,
            stage: HealStage::decode(input)?,
            after_fp: Option::decode(input)?,
            after_owner: Option::decode(input)?,
            after_stripe: Option::decode(input)?,
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
    /// What the [`HealStage::Gc`] step collected.
    pub gc: GcStats,
    /// Referenced fingerprints found beyond repair in a planned window.
    pub unrepairable_chunks: Vec<Fingerprint>,
    /// Owner ranks whose manifest has no surviving copy.
    pub unrepairable_manifests: Vec<u32>,
    /// Owner ranks whose raw blob has no surviving copy or stripe.
    pub unrepairable_blobs: Vec<u32>,
    /// Stripes below `k` surviving shards.
    pub unrepairable_stripes: Vec<StripeKey>,
}

impl HealReport {
    /// Did the steps this report covers leave nothing lost for good?
    pub fn is_fully_healed(&self) -> bool {
        self.unrepairable_chunks.is_empty()
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
fn throttle(comm: &Comm, bucket: &mut Option<TokenBucket>, bytes: u64) {
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
        HealStage::Gc => {
            if let Some(before) = opts.gc_before {
                comm.enter_phase("heal.gc");
                // One rank sweeps (the sweep is cluster-wide by itself);
                // the allreduce publishes its counts to everyone.
                let local = if lowest_live_leader(cluster, n) == Some(me) {
                    cluster.gc_superseded(before)
                } else {
                    GcStats::default()
                };
                let sums = allreduce_counts(
                    comm,
                    vec![
                        local.generations_collected,
                        local.manifests_removed,
                        local.blobs_removed,
                        local.chunks_removed,
                        local.shards_removed,
                        local.tombstones_removed,
                        local.bytes_reclaimed,
                    ],
                );
                comm.exit_phase("heal.gc");
                let sums = sums?;
                report.gc.merge(&GcStats {
                    generations_collected: sums[0],
                    manifests_removed: sums[1],
                    blobs_removed: sums[2],
                    chunks_removed: sums[3],
                    shards_removed: sums[4],
                    tombstones_removed: sums[5],
                    bytes_reclaimed: sums[6],
                });
                comm.tracer().counter("heal_generations_collected", sums[0]);
            }
            cursor.stage = HealStage::Scrub;
        }
        HealStage::Scrub => {
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
                allreduce_counts(comm, vec![corrupt, shards])
            })();
            comm.exit_phase("heal.scrub");
            let sums = step?;
            report.corrupt_quarantined += sums[0];
            report.shards_quarantined += sums[1];
            cursor.stage = if strategy == Strategy::NoDedup {
                HealStage::Blobs
            } else {
                HealStage::Chunks
            };
        }
        HealStage::Chunks => {
            comm.enter_phase("heal.plan");
            // Window: each live leader offers its first `chunk_batch`
            // referenced fingerprints past the high-water mark; the
            // sorted union (re-truncated) is the window every rank
            // plans. Committed manifests only — an in-flight dump of a
            // newer generation has nothing here to offer yet. The node's
            // manifests are read once per step: `referenced` answers
            // both "what do I offer" and "which window entries are mine".
            let referenced = if i_lead {
                referenced_after(ctx, node, cursor.after_fp)?
            } else {
                Vec::new()
            };
            let mine: Vec<Fingerprint> =
                referenced.iter().take(opts.chunk_batch).copied().collect();
            let offered = comm.try_allgather(mine);
            comm.exit_phase("heal.plan");
            let mut window: Vec<Fingerprint> = offered?.into_iter().flatten().collect();
            window.sort_unstable();
            window.dedup();
            window.truncate(opts.chunk_batch);
            let Some(&last) = window.last() else {
                cursor.stage = HealStage::Manifests;
                cursor.steps_taken += 1;
                report.steps += 1;
                return Ok(());
            };

            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let view = if i_lead {
                    let mut held = cluster.chunk_fps(node)?;
                    held.retain(|fp| window.binary_search(fp).is_ok());
                    GlobalView::from_local(me, held, usize::MAX)
                } else {
                    GlobalView::default()
                };
                let mut inv = NodeInventory::default();
                if i_lead {
                    inv.leads_live_node = true;
                    inv.referenced = window
                        .iter()
                        .copied()
                        .filter(|fp| referenced.binary_search(fp).is_ok())
                        .collect();
                    inv.shards = cluster.shard_inventory(node)?;
                    inv.shards.retain(|(key, _)| match key {
                        StripeKey::Chunk(fp) => window.binary_search(fp).is_ok(),
                        StripeKey::Blob { .. } => false,
                    });
                }
                let global = try_reduce_global_view(comm, view, k, usize::MAX);
                let world_inv = comm.try_allgather(inv);
                Ok((global?, world_inv?))
            })();
            comm.exit_phase("heal.plan");
            let (global, world_inv) = step?;
            let plan = windowed_plan(ctx, strategy, k, n, &global, &world_inv);

            comm.enter_phase("heal.transfer");
            let moved = transfer(
                comm,
                TAG_HEAL_CHUNKS,
                &plan.chunk_moves,
                bucket,
                |fp| cluster.get_chunk(node, fp),
                |_, fp, data| Ok(cluster.put_chunk(node, fp, data.into_bytes())?),
            )
            .and_then(|(healed, bytes)| allreduce_counts(comm, vec![healed, bytes]));
            comm.exit_phase("heal.transfer");
            let sums = moved?;
            report.chunks_healed += sums[0];
            report.bytes_re_replicated += sums[1];
            comm.tracer().counter("heal_chunks_healed", sums[0]);
            comm.tracer().counter("heal_bytes", sums[1]);
            // The window's unrepairables are final facts (zero copies
            // and no viable stripe cluster-wide); the rest of the plan
            // (manifests, stripes) is out of scope for this stage.
            merge_sorted(&mut report.unrepairable_chunks, plan.unrepairable_chunks);
            cursor.after_fp = Some(last);
        }
        HealStage::Manifests | HealStage::Blobs => {
            // One owner-window body for both recipe formats: manifests
            // (dedup strategies) and raw blobs (`no-dedup`).
            let blobs = cursor.stage == HealStage::Blobs;
            let window = owner_window(cursor.after_owner, n, opts.owner_batch);
            let Some(&last) = window.last() else {
                cursor.stage = HealStage::Stripes;
                cursor.steps_taken += 1;
                report.steps += 1;
                return Ok(());
            };
            let in_window = |r: &u32| window.binary_search(r).is_ok();
            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let mut inv = NodeInventory::default();
                if i_lead {
                    inv.leads_live_node = true;
                    inv.absent = cluster.absent_ranks(node, ctx.dump_id)?;
                    inv.absent.retain(in_window);
                    if blobs {
                        inv.blob_owners = cluster.blob_owners(node, ctx.dump_id)?;
                        inv.blob_owners.retain(in_window);
                        // A blob with no replica is healthy if its stripe
                        // survives — the plan needs the window's Blob
                        // stripes to judge that.
                        inv.shards = cluster.shard_inventory(node)?;
                        inv.shards.retain(|(key, _)| match key {
                            StripeKey::Blob { owner, dump_id } => {
                                *dump_id == ctx.dump_id && in_window(owner)
                            }
                            StripeKey::Chunk(_) => false,
                        });
                    } else {
                        inv.manifest_owners = cluster.manifest_owners(node, ctx.dump_id)?;
                        inv.manifest_owners.retain(in_window);
                    }
                }
                comm.try_allgather(inv).map_err(RepairError::from)
            })();
            comm.exit_phase("heal.plan");
            let world_inv = step?;
            let plan = windowed_plan(ctx, strategy, k, n, &GlobalView::default(), &world_inv);
            // The windowed inventory legitimately knows nothing about
            // owners outside the window, so the plan flags them all as
            // lost; only in-window verdicts are real.
            let (mut moves, mut lost) = if blobs {
                (plan.blob_moves, plan.unrepairable_blobs)
            } else {
                (plan.manifest_moves, plan.unrepairable_manifests)
            };
            moves.retain(|(_, _, owner)| in_window(owner));
            lost.retain(in_window);

            comm.enter_phase("heal.transfer");
            let moved = if blobs {
                transfer(
                    comm,
                    TAG_HEAL_BLOB,
                    &moves,
                    bucket,
                    |owner| cluster.get_blob(node, *owner, ctx.dump_id),
                    |_, owner, data| {
                        cluster.put_blob(node, owner, ctx.dump_id, data.into_bytes())?;
                        Ok(true)
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
                    |from, _, data| {
                        let m = Manifest::from_bytes(&data)
                            .map_err(|_| RepairError::CorruptFrame { from })?;
                        cluster.put_manifest(node, m)?;
                        Ok(true)
                    },
                )
            }
            .and_then(|(remat, bytes)| allreduce_counts(comm, vec![remat, bytes]));
            comm.exit_phase("heal.transfer");
            let sums = moved?;
            if blobs {
                report.blobs_rematerialized += sums[0];
                report.bytes_re_replicated += sums[1];
                comm.tracer().counter("heal_blobs_rematerialized", sums[0]);
                comm.tracer().counter("heal_bytes", sums[1]);
                merge_sorted(&mut report.unrepairable_blobs, lost);
            } else {
                report.manifests_rematerialized += sums[0];
                comm.tracer()
                    .counter("heal_manifests_rematerialized", sums[0]);
                merge_sorted(&mut report.unrepairable_manifests, lost);
            }
            cursor.after_owner = Some(last);
        }
        HealStage::Stripes => {
            comm.enter_phase("heal.plan");
            let mine = if i_lead {
                stripes_after(ctx, node, cursor.after_stripe, opts.stripe_batch)?
            } else {
                Vec::new()
            };
            let offered = comm.try_allgather(mine);
            comm.exit_phase("heal.plan");
            let mut window: Vec<StripeKey> = offered?.into_iter().flatten().collect();
            window.sort_unstable();
            window.dedup();
            window.truncate(opts.stripe_batch);
            let Some(&last) = window.last() else {
                cursor.stage = HealStage::Done;
                cursor.steps_taken += 1;
                report.steps += 1;
                return Ok(());
            };

            comm.enter_phase("heal.plan");
            let step = (|| -> Result<_, RepairError> {
                let mut inv = NodeInventory::default();
                if i_lead {
                    inv.leads_live_node = true;
                    inv.shards = cluster.shard_inventory(node)?;
                    inv.shards
                        .retain(|(key, _)| window.binary_search(key).is_ok());
                }
                comm.try_allgather(inv).map_err(RepairError::from)
            })();
            comm.exit_phase("heal.plan");
            let world_inv = step?;
            let plan = windowed_plan(ctx, strategy, k, n, &GlobalView::default(), &world_inv);

            comm.enter_phase("heal.stripes");
            let rebuilt = (|| -> Result<_, RepairError> {
                let mut shards_rebuilt = 0u64;
                let mut bytes_reconstructed = 0u64;
                for (leader, key, index) in &plan.shard_rebuilds {
                    if *leader != me {
                        continue;
                    }
                    if let Some(shard) = cluster.rebuild_shard(*key, *index) {
                        let len = shard.data.len() as u64;
                        throttle(comm, bucket, len);
                        if cluster.put_shard(node, *key, shard.meta, shard.data)? {
                            shards_rebuilt += 1;
                            bytes_reconstructed += len;
                        }
                    }
                }
                allreduce_counts(comm, vec![shards_rebuilt, bytes_reconstructed])
            })();
            comm.exit_phase("heal.stripes");
            let sums = rebuilt?;
            report.shards_rebuilt += sums[0];
            report.bytes_reconstructed += sums[1];
            comm.tracer().counter("heal_shards_rebuilt", sums[0]);
            comm.tracer().counter("heal_bytes", sums[1]);
            let mut lost = plan.unrepairable_stripes;
            lost.retain(|key| window.binary_search(key).is_ok());
            merge_sorted(&mut report.unrepairable_stripes, lost);
            cursor.after_stripe = Some(last);
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

/// This node's sorted referenced fingerprints for the cursor's dump,
/// strictly past `after` (committed manifests only).
fn referenced_after(
    ctx: &DumpContext<'_>,
    node: NodeId,
    after: Option<Fingerprint>,
) -> Result<Vec<Fingerprint>, RepairError> {
    let mut refs = FpHashSet::default();
    for m in ctx.cluster.manifests_for(node, ctx.dump_id)? {
        refs.extend(
            m.chunks
                .iter()
                .filter(|fp| after.is_none_or(|hw| **fp > hw)),
        );
    }
    let mut out: Vec<Fingerprint> = refs.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

/// This node's sorted stripe keys strictly past `after`, capped. Blob
/// stripes of other generations are not this heal's business — one of a
/// dump still in flight is legitimately below `k` shards mid-commit.
fn stripes_after(
    ctx: &DumpContext<'_>,
    node: NodeId,
    after: Option<StripeKey>,
    batch: usize,
) -> Result<Vec<StripeKey>, RepairError> {
    let mut keys: Vec<StripeKey> = ctx
        .cluster
        .shard_inventory(node)?
        .into_iter()
        .map(|(key, _)| key)
        .filter(|key| after.is_none_or(|hw| *key > hw))
        .filter(|key| !matches!(key, StripeKey::Blob { dump_id, .. } if *dump_id != ctx.dump_id))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(batch);
    Ok(keys)
}

/// The owner-rank window past `after`: at most `batch` ranks of the
/// world, in order. Deterministic on every rank with no collective.
fn owner_window(after: Option<u32>, world: u32, batch: usize) -> Vec<u32> {
    let start = after.map_or(0, |o| o.saturating_add(1));
    (start..world).take(batch).collect()
}

/// Run [`build_plan`] over a windowed inventory with the world's real
/// leader topology.
fn windowed_plan(
    ctx: &DumpContext<'_>,
    strategy: Strategy,
    k: u32,
    n: u32,
    global: &GlobalView,
    world_inv: &[NodeInventory],
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
        global,
        world_inv,
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

/// Execute one window's `(src_leader, dst_leader, key)` moves — the one
/// place healing payloads cross the wire, whatever they are (chunks keyed
/// by fingerprint, blobs and encoded manifests keyed by owner rank).
/// Sends first (buffered, one frame per destination so receive counts are
/// derivable), then the receives the plan says are owed to me: `fetch`
/// reads a payload off my node, `store(from, key, payload)` lands one and
/// says whether it counts as healed. Returns local
/// `(payloads_stored, bytes_received)`. Source-side rate limiting: the
/// debit happens before the frame leaves, so a throttled healer slows its
/// own sends instead of stalling receivers mid-recv. A frame that fails
/// to decode is [`RepairError::CorruptFrame`], never a panic.
fn transfer<K: Wire + Copy>(
    comm: &mut Comm,
    tag: Tag,
    moves: &[(u32, u32, K)],
    bucket: &mut Option<TokenBucket>,
    fetch: impl Fn(&K) -> Result<Bytes, StorageError>,
    mut store: impl FnMut(u32, K, Chunk) -> Result<bool, RepairError>,
) -> Result<(u64, u64), RepairError> {
    let me = comm.rank();
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
            let data = fetch(key)?;
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
    let mut stored = 0u64;
    let mut bytes = 0u64;
    for src in srcs {
        let corrupt = |_| RepairError::CorruptFrame { from: src };
        let mut batch = FrameReader::new(comm.try_recv_frame(src, tag)?);
        while batch.remaining() > 0 {
            let key: K = batch.get().map_err(corrupt)?;
            let data = batch.take_payload().map_err(corrupt)?;
            bytes += data.len() as u64;
            if store(src, key, data)? {
                stored += 1;
            }
        }
    }
    Ok((stored, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Replicator;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::{Cluster, Placement};

    #[test]
    fn cursor_wire_roundtrip_covers_every_stage() {
        for stage in [
            HealStage::Gc,
            HealStage::Scrub,
            HealStage::Chunks,
            HealStage::Manifests,
            HealStage::Blobs,
            HealStage::Stripes,
            HealStage::Done,
        ] {
            let c = HealCursor {
                dump_id: 42,
                stage,
                after_fp: Some(Fingerprint::synthetic(9)),
                after_owner: Some(3),
                after_stripe: Some(StripeKey::Blob {
                    owner: 1,
                    dump_id: 42,
                }),
                steps_taken: 17,
            };
            assert_eq!(HealCursor::from_bytes(&c.to_bytes()).unwrap(), c);
        }
        let bad = [7u8]; // no such stage discriminant
        assert_eq!(
            HealStage::from_bytes(&bad),
            Err(WireError::Malformed { what: "HealStage" })
        );
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

    #[test]
    fn owner_windows_partition_the_world_monotonically() {
        assert_eq!(owner_window(None, 5, 2), vec![0, 1]);
        assert_eq!(owner_window(Some(1), 5, 2), vec![2, 3]);
        assert_eq!(owner_window(Some(3), 5, 2), vec![4]);
        assert_eq!(owner_window(Some(4), 5, 2), Vec::<u32>::new());
        assert_eq!(owner_window(Some(u32::MAX), 5, 2), Vec::<u32>::new());
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
        assert!(r0.steps >= 4, "gc, scrub, window walks, stage exits");
        for (c, r) in &out.results {
            assert_eq!((c, r), (c0, r0), "all ranks agree on cursor and report");
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
                // Drive three steps, "kill" the healer, persist the cursor.
                let mut cursor = HealCursor::new(1);
                let mut report = HealReport::default();
                for _ in 0..3 {
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

    /// A truncated frame on a healing tag fails the one transfer routine
    /// with a typed error naming the sender — whatever the key type, so
    /// this covers the chunk, blob and manifest stages alike.
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
                    return Ok((0, 0));
                }
                transfer(
                    comm,
                    TAG_HEAL_CHUNKS,
                    &[(0, 1, fp)],
                    &mut None,
                    |_| Ok(Bytes::new()),
                    |_, _, _| Ok(true),
                )
            })
            .expect_all();
        assert_eq!(out.results[0], Ok((0, 0)));
        assert_eq!(out.results[1], Err(RepairError::CorruptFrame { from: 0 }));
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
