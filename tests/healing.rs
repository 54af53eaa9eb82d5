//! Chaos suite for the continuous background healer (DESIGN.md §16):
//! incremental, resumable scrub/heal under live traffic.
//!
//! Promises under test:
//! 1. A heal resumed from an *arbitrary* persisted [`HealCursor`]
//!    position is idempotent and converges: for every strategy × policy
//!    and ≤ tolerance seed-chosen node losses, stopping the healer after
//!    a seed-chosen number of steps, round-tripping the cursor through
//!    its wire form and resuming heals everything — a follow-up heal
//!    from scratch finds zero work and every rank restores byte-exactly.
//! 2. A node crashes mid-dump (taking its storage), then the healer
//!    itself is killed mid-heal (second transfer window, via
//!    `start:heal.transfer#2`) — and a fresh healer resumed from the
//!    last persisted cursor still converges.
//! 3. Healing runs *under* live traffic: a foreground dump of a newer
//!    generation and a rate-limited background heal of an older one
//!    interleave on the same cluster without corrupting either
//!    generation.
//! 4. The superseded-generation GC step reclaims old dumps, a failed
//!    dump's leftovers included, without touching chunks the surviving
//!    generation still references.
//! 5. One world-wide key budget bounds what rank 0 gathers in a heal
//!    window, so a window costs it no more at 32 ranks than at 8, and a
//!    small world heals in few, wide windows.
//! 6. Each window plans against the cluster as it is when the window
//!    runs: a node wiped between two chunk windows is healed by the rest
//!    of the same heal.
//! 7. The scrub step quarantines rotten chunk copies and data shards,
//!    and the heal rebuilds them.
//!
//! Promises 1–4 and 7 hold on every strategy × policy cell.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{
    HealCursor, HealOptions, HealReport, HealStage, RateLimit, RedundancyPolicy, Replicator,
    Strategy,
};
use replidedup::mpi::wire::Wire;
use replidedup::mpi::{FaultPlan, FaultTrigger, WorldConfig};
use replidedup::storage::{Cluster, GcStats, Placement, StripeKey};

const N: u32 = 6;
const DUMP: u64 = 1;

/// Small windows — two keys per list at `N` nodes — so even the
/// test-sized workloads take several steps per stage: resumability is
/// only meaningful with multiple windows
/// (`small_windows_cross_several_windows_per_stage` holds them to it).
fn small_windows() -> HealOptions {
    HealOptions {
        window_keys: 12,
        ..HealOptions::default()
    }
}

fn buffers(n: u32) -> Vec<Vec<u8>> {
    buffers_with(n, 3)
}

/// `n` ranks' buffers with `private_chunks` chunks unique to each rank.
fn buffers_with(n: u32, private_chunks: usize) -> Vec<Vec<u8>> {
    let workload = SyntheticWorkload {
        chunk_size: 64,
        global_chunks: 4,
        grouped_chunks: 3,
        group_size: 2,
        private_chunks,
        local_dup_chunks: 2,
        local_repeat: 2,
        seed: 7,
    };
    (0..n).map(|r| workload.generate(r)).collect()
}

/// Heal `DUMP` step by step from a fresh cursor, after `dump_all`-style
/// setup by the caller: per step, the stage it ran and the collective
/// bytes rank 0 received during it, as rank 0 saw them.
fn heal_steps(repl: &Replicator<'_>, n: u32) -> (HealReport, Vec<(HealStage, u64)>) {
    let out = WorldConfig::default()
        .launch(n, |comm| {
            let mut cursor = HealCursor::new(DUMP);
            let mut report = HealReport::default();
            let mut steps = Vec::new();
            while !cursor.is_done() {
                let (stage, before) = (cursor.stage, comm.traffic().coll_recv);
                repl.heal_step(comm, &mut cursor, &mut report)?;
                steps.push((stage, comm.traffic().coll_recv - before));
            }
            Ok::<_, replidedup::core::ReplError>((report, steps))
        })
        .expect_all();
    let mut results = out.results.into_iter();
    results.next().expect("rank 0").expect("the heal succeeds")
}

/// Windows of `stage` among `steps`.
fn windows(steps: &[(HealStage, u64)], stage: HealStage) -> usize {
    steps.iter().filter(|(s, _)| *s == stage).count()
}

fn replicator<'a>(
    strategy: Strategy,
    cluster: &'a Cluster,
    policy: RedundancyPolicy,
    opts: HealOptions,
) -> Replicator<'a> {
    Replicator::builder(strategy)
        .cluster(cluster)
        .replication(3)
        .chunk_size(64)
        .with_policy(policy)
        .heal_options(opts)
        .build()
        .expect("valid config")
}

/// The policy axis of every healing promise: replication, pure
/// Reed-Solomon, and the automatic per-chunk choice — each with the node
/// losses it tolerates by construction. The automatic threshold sits
/// between the 64-byte chunks (replicated) and the sub-KiB `no-dedup`
/// blobs (coded), so both of its branches run.
fn policies() -> [(&'static str, RedundancyPolicy, u32); 3] {
    [
        ("rep3", RedundancyPolicy::Replicate(3), 2),
        ("rs4+2", RedundancyPolicy::Rs { k: 4, m: 2 }, 2),
        (
            "auto4+2",
            RedundancyPolicy::Auto {
                k: 4,
                m: 2,
                replicate_below: 1 << 7,
            },
            2,
        ),
    ]
}

/// Seed-derived distinct victim nodes (SplitMix64 spread).
fn seeded_victims(seed: u64, count: u32) -> Vec<u32> {
    let mut x = seed;
    let mut victims = Vec::new();
    while victims.len() < count as usize {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let node = ((z ^ (z >> 31)) % u64::from(N)) as u32;
        if !victims.contains(&node) {
            victims.push(node);
        }
    }
    victims.sort_unstable();
    victims
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Promise 1: stop the healer after an arbitrary number of steps,
    /// persist the cursor through its wire bytes, resume — converged,
    /// byte-exact, and a second heal from scratch agrees there is
    /// nothing left. Mixed policies, both storage formats, ≤ tolerance losses.
    #[test]
    fn heal_resumed_from_arbitrary_cursor_position_converges(seed in any::<u64>()) {
        let stop_after = 1 + (seed % 7);
        for strategy in [Strategy::CollDedup, Strategy::NoDedup] {
            for (label, policy, tolerance) in policies() {
                let bufs = buffers(N);
                let cluster = Cluster::new(Placement::one_per_node(N));
                let repl = replicator(strategy, &cluster, policy, small_windows());
                let out = WorldConfig::default().launch(N, |comm| {
                    repl.dump(comm, DUMP, &bufs[comm.rank() as usize]).map(|_| ())
                }).expect_all();
                prop_assert!(out.results.iter().all(Result::is_ok));

                let victims = seeded_victims(seed, tolerance);
                for &node in &victims {
                    cluster.fail_node(node);
                    cluster.revive_node(node); // replacement disk, empty
                }

                let out = WorldConfig::default().launch(N, |comm| {
                    let mut cursor = HealCursor::new(DUMP);
                    let mut head = HealReport::default();
                    for _ in 0..stop_after {
                        if !repl.heal_step(comm, &mut cursor, &mut head)? {
                            break;
                        }
                    }
                    // Kill the healer: all that survives is the cursor's
                    // wire bytes. A fresh healer picks them up.
                    let mut resumed = HealCursor::from_bytes(&cursor.to_bytes())
                        .expect("cursor wire round-trip");
                    let tail = repl.heal_from(comm, &mut resumed)?;
                    let after = repl.heal(comm, DUMP)?;
                    Ok::<_, replidedup::core::ReplError>((resumed, tail, after))
                }).expect_all();
                for r in &out.results {
                    let (cursor, tail, after) = r.as_ref().unwrap_or_else(|e| {
                        panic!("{strategy:?} {label} seed={seed}: heal failed: {e}")
                    });
                    prop_assert!(cursor.is_done());
                    prop_assert!(
                        tail.is_fully_healed(),
                        "{strategy:?} {label} seed={seed} victims={victims:?}: {tail:?}"
                    );
                    prop_assert!(after.is_fully_healed());
                    prop_assert_eq!(after.chunks_healed, 0, "the heal left a second heal no chunk work");
                    prop_assert_eq!(after.recipes_rematerialized, 0);
                    prop_assert_eq!(after.shards_rebuilt, 0, "the heal left a second heal no shard work");
                }

                let out = WorldConfig::default().launch(N, |comm| repl.restore(comm, DUMP)).expect_all();
                for (rank, r) in out.results.iter().enumerate() {
                    let bytes = r.as_ref().unwrap_or_else(|e| {
                        panic!("{strategy:?} {label} seed={seed}: rank {rank} restore: {e}")
                    });
                    prop_assert_eq!(bytes, &bufs[rank], "rank {} bytes", rank);
                }
            }
        }
    }
}

/// Run `case` on every strategy × policy cell, with the cell's name.
fn each_cell(case: impl Fn(Strategy, RedundancyPolicy, &str)) {
    for strategy in [Strategy::CollDedup, Strategy::NoDedup] {
        for (label, policy, _) in policies() {
            case(strategy, policy, &format!("{} {label}", strategy.label()));
        }
    }
}

/// Dump `bufs` as generation `gen` on a healthy world.
fn dump_all(repl: &Replicator<'_>, bufs: &[Vec<u8>], gen: u64) {
    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, gen, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok), "gen {gen} dump");
}

/// Every rank restores generation `gen` byte-exactly.
fn assert_restores(repl: &Replicator<'_>, bufs: &[Vec<u8>], gen: u64, cell: &str) {
    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, gen))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        let bytes = r
            .as_ref()
            .unwrap_or_else(|e| panic!("{cell}: gen {gen} rank {rank} restore: {e}"));
        assert_eq!(bytes, &bufs[rank], "{cell}: gen {gen} rank {rank} bytes");
    }
}

/// `small_windows` really cuts the test workloads: after one node loss,
/// every cell heals in at least two windows of each stage it walks
/// (`no-dedup` has no Chunks stage).
#[test]
fn small_windows_cross_several_windows_per_stage() {
    each_cell(|strategy, policy, cell| {
        let bufs = buffers(N);
        let cluster = Cluster::new(Placement::one_per_node(N));
        let repl = replicator(strategy, &cluster, policy, small_windows());
        dump_all(&repl, &bufs, DUMP);
        cluster.fail_node(1);
        cluster.revive_node(1); // replacement disk, empty
        let (report, steps) = heal_steps(&repl, N);
        assert!(report.is_fully_healed(), "{cell}: {report:?}");
        let chunk_windows = windows(&steps, HealStage::Chunks);
        if strategy == Strategy::CollDedup {
            assert!(chunk_windows >= 2, "{cell}: {chunk_windows} Chunks windows");
        }
        let owner_windows = windows(&steps, HealStage::Owners);
        assert!(owner_windows >= 2, "{cell}: {owner_windows} Owners windows");
    });
}

/// Promise 2, on every strategy × policy: gen 2's dump crashes rank 3
/// (its node's storage dies with it), the replacement disk comes up
/// empty, and the healer mending gen 1 is itself killed the moment its
/// *second* transfer window opens. The last cursor persisted before the
/// kill — wire bytes, as an operator would store them — seeds a fresh
/// healer that converges; gen 1 restores byte-exactly everywhere.
#[test]
fn healer_killed_mid_heal_resumes_from_persisted_cursor() {
    each_cell(healer_killed_case);
}

fn healer_killed_case(strategy: Strategy, policy: RedundancyPolicy, cell: &str) {
    let bufs = buffers(N);
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let repl = replicator(strategy, &cluster, policy, small_windows());
    dump_all(&repl, &bufs, DUMP);

    // Gen 2 dies mid-commit: rank 3 crashes and takes its node down.
    let hook = Arc::clone(&cluster);
    let plan = FaultPlan::new(11)
        .crash(3, FaultTrigger::PhaseStart("commit".into()))
        .on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
    let config = WorldConfig::default()
        .with_recv_timeout(Duration::from_secs(2))
        .with_faults(plan);
    let out = config.launch(N, |comm| {
        repl.dump(comm, 2, &bufs[comm.rank() as usize]).map(|_| ())
    });
    assert_eq!(
        out.crashed_ranks(),
        vec![3],
        "{cell}: the dump crash must fire"
    );
    for node in 0..N {
        if !cluster.is_alive(node) {
            cluster.revive_node(node); // replacement disk, empty
        }
    }

    // Heal gen 1, persisting the cursor after every completed step; the
    // healer (rank 4) is killed when the second transfer window opens.
    // No storage hook — killing a healer process leaves disks intact.
    let persisted = Arc::new(Mutex::new(Vec::new()));
    let plan = FaultPlan::new(12).crash(4, FaultTrigger::PhaseStartNth("heal.transfer".into(), 2));
    let config = WorldConfig::default()
        .with_recv_timeout(Duration::from_secs(2))
        .with_faults(plan);
    let store = Arc::clone(&persisted);
    let out = config.launch(N, |comm| {
        let mut cursor = HealCursor::new(DUMP);
        let mut report = HealReport::default();
        // Stop at Done, or when the kill reaches this rank's step.
        while let Ok(true) = repl.heal_step(comm, &mut cursor, &mut report) {
            if comm.rank() == 0 {
                *store.lock().unwrap() = cursor.to_bytes().to_vec();
            }
        }
    });
    assert_eq!(
        out.crashed_ranks(),
        vec![4],
        "{cell}: the healer kill must fire"
    );

    let snapshot = persisted.lock().unwrap().clone();
    let resumed = HealCursor::from_bytes(&snapshot).expect("persisted cursor decodes");
    assert!(
        !resumed.is_done() && resumed.steps_taken > 0,
        "{cell}: the kill must land mid-heal: {resumed:?}"
    );

    // A fresh healer in a fresh world resumes from the snapshot.
    let out = WorldConfig::default()
        .launch(N, |comm| {
            let mut cursor = resumed.clone();
            repl.heal_from(comm, &mut cursor).map(|r| (cursor, r))
        })
        .expect_all();
    for r in &out.results {
        let (cursor, report) = r.as_ref().expect("resumed heal succeeds");
        assert!(cursor.is_done() && cursor.steps_taken > resumed.steps_taken);
        assert!(
            report.is_fully_healed(),
            "{cell}: resumed heal converges: {report:?}"
        );
    }
    assert_restores(&repl, &bufs, DUMP, cell);
}

/// Promise 3, on every strategy × policy: a rate-limited background heal
/// of gen 1 and a foreground dump of gen 2 run *simultaneously* — two
/// worlds, two thread pools, one cluster — and both generations come out
/// intact. The heal only ever considers committed gen-1 state, so the
/// in-flight gen 2 is invisible to it.
#[test]
fn heal_interleaves_with_a_live_foreground_dump() {
    each_cell(|strategy, policy, cell| {
        // No burst allowance: every healed byte is metered.
        let throttled = HealOptions {
            rate: Some(RateLimit {
                bytes_per_sec: 1 << 18,
                burst_bytes: 0,
            }),
            ..small_windows()
        };
        let bufs = buffers(N);
        let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
        let repl = replicator(strategy, &cluster, policy, throttled);
        dump_all(&repl, &bufs, DUMP);
        cluster.fail_node(5);
        cluster.revive_node(5);

        let healer = {
            let cluster = Arc::clone(&cluster);
            replidedup::mpi::sched::spawn("bg-healer", move || {
                let repl = replicator(strategy, &cluster, policy, throttled);
                let out = WorldConfig::default()
                    .launch(N, |comm| repl.heal(comm, DUMP))
                    .expect_all();
                out.results
                    .into_iter()
                    .map(|r| r.expect("background heal succeeds"))
                    .collect::<Vec<_>>()
            })
        };
        dump_all(&repl, &bufs, 2);
        let reports = healer.join().expect("healer thread");
        assert!(
            reports.iter().all(HealReport::is_fully_healed),
            "{cell}: {reports:?}"
        );
        for gen in [DUMP, 2] {
            assert_restores(&repl, &bufs, gen, cell);
        }
    });
}

/// Promise 4, on every strategy × policy: with `gc_before` set, the
/// heal's first step collects the superseded generation before it mends
/// a replaced disk — and the surviving generation still restores,
/// proving shared content-addressed chunks were not swept with it.
#[test]
fn heal_gc_step_reclaims_superseded_generations_safely() {
    each_cell(|strategy, policy, cell| {
        let bufs = buffers(N);
        let cluster = Cluster::new(Placement::one_per_node(N));
        let gc = HealOptions {
            gc_before: Some(2),
            ..small_windows()
        };
        let repl = replicator(strategy, &cluster, policy, gc);
        // Gen 1 and gen 2 share most chunks (same workload, one byte of
        // per-generation skew in the first chunk).
        let gen2: Vec<Vec<u8>> = bufs
            .iter()
            .map(|b| [&[b[0] ^ 0x5A][..], &b[1..]].concat())
            .collect();
        dump_all(&repl, &bufs, DUMP);
        dump_all(&repl, &gen2, 2);
        cluster.fail_node(1);
        cluster.revive_node(1); // replacement disk, empty

        let out = WorldConfig::default()
            .launch(N, |comm| repl.heal(comm, 2))
            .expect_all();
        // Pinned for this workload with node 1 wiped: the live nodes' 15
        // gen-1 recipes (18 = 6 ranks × K, less node 1's 3), the three
        // copies of the one 64-byte chunk only gen 1 references, or under
        // `no-dedup` the 15 surviving 896-byte blobs or 30 of the 36
        // 224-byte shards of gen 1's blob stripes.
        let want = match (strategy, policy) {
            (Strategy::CollDedup, _) => GcStats {
                recipes_removed: 15,
                chunks_removed: 3,
                bytes_reclaimed: 192,
                ..GcStats::default()
            },
            (_, RedundancyPolicy::Replicate(_)) => GcStats {
                recipes_removed: 15,
                bytes_reclaimed: 15 * 896,
                ..GcStats::default()
            },
            _ => GcStats {
                shards_removed: 30,
                bytes_reclaimed: 30 * 224,
                ..GcStats::default()
            },
        };
        for r in &out.results {
            let report = r.as_ref().expect("heal with gc succeeds");
            let want = GcStats {
                generations_collected: 1,
                ..want
            };
            assert_eq!(report.gc, want, "{cell}: gen 1 swept");
            assert!(report.is_fully_healed(), "{cell}: {report:?}");
        }
        assert_eq!(cluster.generations(), vec![2], "{cell}: only gen 2 remains");
        let out = WorldConfig::default()
            .launch(N, |comm| repl.scrub(comm))
            .expect_all();
        for r in &out.results {
            let found = r.as_ref().expect("scrub runs");
            assert_eq!(found.orphans, vec![], "{cell}: copies and chunk stripes");
        }
        assert_restores(&repl, &gen2, 2, cell);
    });
}

/// A failed dump's leftovers are garbage. Gen 1 dumps cleanly; gen 2
/// loses its last rank 200 ms into the stripe assembly, after every peer
/// stored its chunks and sent its shards, so the node leaders store the
/// live owners' shards but no rank stores a recipe; gen 3 dumps cleanly.
/// A heal of gen 3 with `gc_before = 3` collects gen 2 with gen 1: a
/// scrub finds no orphan, storage holds gen 3 only, and gen 3 restores
/// byte-exactly. Coll-dedup leaves chunk copies and chunk stripes,
/// `no-dedup` blob stripes (Reed-Solomon 4+2 both).
#[test]
fn heal_gc_collects_a_failed_generation() {
    for strategy in [Strategy::CollDedup, Strategy::NoDedup] {
        let cell = strategy.label();
        let cluster = Cluster::new(Placement::one_per_node(N));
        let gc = HealOptions {
            gc_before: Some(3),
            ..small_windows()
        };
        let repl = replicator(strategy, &cluster, RedundancyPolicy::Rs { k: 4, m: 2 }, gc);
        // Each generation's own bytes: no chunk is shared across them.
        let gen = |g: u8| -> Vec<Vec<u8>> {
            let flip = |b: &Vec<u8>| b.iter().map(|x| x ^ g).collect();
            buffers(N).iter().map(flip).collect()
        };
        let scrub = || {
            let out = WorldConfig::default()
                .launch(N, |comm| repl.scrub(comm))
                .expect_all();
            out.results
                .into_iter()
                .next()
                .expect("rank 0")
                .expect("scrub runs")
        };
        dump_all(&repl, &gen(1), 1);
        let victim = N - 1;
        let start = FaultTrigger::PhaseStart("stripe_assembly".into());
        let plan = FaultPlan::new(13)
            .delay(victim, start.clone(), Duration::from_millis(200))
            .crash(victim, start);
        let bufs = gen(2);
        let out = WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(5))
            .with_faults(plan)
            .launch(N, |comm| {
                repl.dump(comm, 2, &bufs[comm.rank() as usize]).map(|_| ())
            });
        assert_eq!(out.crashed_ranks(), vec![victim], "{cell}");
        let leftovers = !scrub().orphans.is_empty() || cluster.generations().contains(&2);
        assert!(leftovers, "{cell}: the failed dump stored chunks or shards");

        let bufs = gen(3);
        dump_all(&repl, &bufs, 3);
        let out = WorldConfig::default()
            .launch(N, |comm| repl.heal(comm, 3))
            .expect_all();
        for r in &out.results {
            let report = r.as_ref().expect("heal with gc succeeds");
            assert!(report.is_fully_healed(), "{cell}: {report:?}");
        }
        assert_eq!(scrub().orphans, vec![], "{cell}: copies and chunk stripes");
        assert_eq!(cluster.generations(), vec![3], "{cell}: only gen 3 remains");
        assert_restores(&repl, &bufs, 3, cell);
    }
}

/// Bit-rot in place, on every strategy × policy: node 0 loses up to four
/// chunk copies and one *data* shard (index < k) of up to two stripes.
/// The scrub step quarantines exactly those, the heal rebuilds them (a
/// second heal finds nothing), and every rank restores byte-exactly. A
/// cell with nothing to rot (`no-dedup` under replication keeps whole
/// blobs only) loses a disk instead.
#[test]
fn heal_scrub_quarantines_and_rebuilds_rotten_copies() {
    each_cell(|strategy, policy, cell| {
        let bufs = buffers(N);
        let cluster = Cluster::new(Placement::one_per_node(N));
        let repl = replicator(strategy, &cluster, policy, small_windows());
        dump_all(&repl, &bufs, DUMP);

        let mut chunks = 0;
        for fp in cluster.chunk_fps(0, None, 4).unwrap() {
            chunks += u64::from(cluster.corrupt_chunk(0, &fp).unwrap());
        }
        let inventory = cluster.shard_inventory(0, .., |_| true, usize::MAX);
        let data_shards = inventory.unwrap().into_iter().filter(|(_, m)| m.index < 4);
        let mut shards = 0;
        for (key, meta) in data_shards.take(2) {
            shards += u64::from(cluster.corrupt_shard(0, key, meta.index).unwrap());
        }
        if matches!(policy, RedundancyPolicy::Rs { .. }) {
            assert!(shards > 0, "{cell}: a data shard rots");
        }
        if chunks + shards == 0 {
            cluster.fail_node(1);
            cluster.revive_node(1);
        }

        let out = WorldConfig::default()
            .launch(N, |comm| {
                let report = repl.heal(comm, DUMP)?;
                repl.heal(comm, DUMP).map(|after| (report, after))
            })
            .expect_all();
        for r in &out.results {
            let (report, after) = r.as_ref().expect("heal succeeds");
            assert!(report.is_fully_healed(), "{cell}: {report:?}");
            assert_eq!(report.corrupt_quarantined, chunks, "{cell}: chunk copies");
            assert_eq!(report.shards_quarantined, shards, "{cell}: data shards");
            assert!(report.shards_rebuilt >= shards, "{cell}: {report:?}");
            let work = after.corrupt_quarantined
                + after.shards_quarantined
                + after.chunks_healed
                + after.shards_rebuilt
                + after.recipes_rematerialized;
            assert_eq!(work, 0, "{cell}: a second heal finds nothing: {after:?}");
        }
        assert_restores(&repl, &bufs, DUMP, cell);
    });
}

/// Blob stripes of *other* generations are none of a heal's business: a
/// `no-dedup` dump commits its stripe shard by shard, so a background
/// heal of gen 1 that judged gen 2's half-written stripe would report it
/// unrepairable (a flake once seen with a heal racing such a dump). Gen
/// 2's own heal still does.
#[test]
fn heal_ignores_blob_stripes_of_other_generations() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
    let repl = replicator(Strategy::NoDedup, &cluster, rs, small_windows());
    let key = StripeKey::Blob {
        owner: 0,
        dump_id: 2,
    };
    let out = WorldConfig::default()
        .launch(N, |comm| {
            for gen in [DUMP, 2] {
                repl.dump(comm, gen, &bufs[comm.rank() as usize]).unwrap();
            }
            comm.barrier();
            if comm.rank() == 0 {
                // As mid-commit: three of six shards landed, k = 4.
                for (node, index) in (0..3).flat_map(|n| (0..6).map(move |i| (n, i))) {
                    cluster.quarantine_shard(node, key, index).unwrap();
                }
            }
            comm.barrier();
            (repl.heal(comm, DUMP).unwrap(), repl.heal(comm, 2).unwrap())
        })
        .expect_all();
    for (gen1, gen2) in out.results {
        assert!(gen1.is_fully_healed(), "gen 1 is intact: {gen1:?}");
        assert_eq!(gen2.unrepairable_stripes, vec![key]);
    }
}

/// The chunk-stripe twin: a dedup dump commits each chunk's stripe shard
/// by shard, so a heal of gen 1 that judged a stripe only gen 2
/// references could report a half-written stripe unrepairable. Only the
/// chunk windows know what their generation references, and they judge
/// just that. Gen 2's own heal still reports the stripe.
#[test]
fn heal_ignores_chunk_stripes_its_generation_does_not_reference() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
    let repl = replicator(Strategy::CollDedup, &cluster, rs, small_windows());
    // Gen 2 is gen 1 but for rank 0's first chunk.
    let gen2 = |rank: u32| {
        let mut buf = bufs[rank as usize].clone();
        if rank == 0 {
            buf[0] ^= 0x5A;
        }
        buf
    };
    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])?;
            repl.dump(comm, 2, gen2(comm.rank())).map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));
    let manifest = |owner, gen| {
        (0..N)
            .find_map(|node| {
                cluster
                    .get_recipe(node, owner, gen)
                    .ok()?
                    .manifest()
                    .cloned()
            })
            .expect("every manifest is stored")
    };
    let fp = manifest(0, 2).chunks[0];
    assert!(
        (0..N).all(|owner| !manifest(owner, DUMP).chunks.contains(&fp)),
        "gen 1 does not reference the new chunk"
    );
    let key = StripeKey::Chunk(fp);
    // As mid-commit: at most three of six shards landed, k = 4.
    for (node, index) in (0..3).flat_map(|n| (0..6).map(move |i| (n, i))) {
        cluster.quarantine_shard(node, key, index).unwrap();
    }
    let left: usize = (0..N)
        .map(|node| {
            let shards = cluster.shard_inventory(node, key..=key, |_| true, usize::MAX);
            shards.unwrap().len()
        })
        .sum();
    assert!(left < 4, "{left} shards left");

    let out = WorldConfig::default()
        .launch(N, |comm| {
            (repl.heal(comm, DUMP).unwrap(), repl.heal(comm, 2).unwrap())
        })
        .expect_all();
    for (gen1, gen2) in out.results {
        assert!(gen1.is_fully_healed(), "gen 1 is intact: {gen1:?}");
        assert!(gen1.unrepairable_stripes.is_empty());
        assert_eq!(gen2.unrepairable_stripes, vec![key]);
    }
}

/// Promise 5: the budget bounds rank 0's gather per window, not each
/// node's. With the same budget and the same per-rank workload, the
/// most collective bytes rank 0 receives in one Chunks window is no more
/// at 32 ranks than at 8, give or take a fixed frame per rank. And an
/// 8-rank world at the default budget heals in fewer steps than at the
/// 64 keys per node a budget of 8 × 64 gives it.
#[test]
fn heal_window_gathers_do_not_grow_with_the_world() {
    /// What rank 0 receives per window whatever the window holds, per
    /// rank of the world: an idle leader's frame (its empty lists and no
    /// bound), and its share of the window's counts allreduce.
    const SLACK_PER_RANK: u64 = 96;
    let heal = |n: u32, private_chunks: usize, replication: u32, window_keys: usize| {
        let bufs = buffers_with(n, private_chunks);
        let cluster = Cluster::new(Placement::one_per_node(n));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(replication)
            .chunk_size(64)
            .heal_options(HealOptions {
                window_keys,
                ..HealOptions::default()
            })
            .build()
            .expect("valid config");
        let out = WorldConfig::default()
            .launch(n, |comm| {
                repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                    .map(|_| ())
            })
            .expect_all();
        assert!(out.results.iter().all(Result::is_ok), "{n}-rank dump");
        cluster.fail_node(1);
        cluster.revive_node(1); // replacement disk, empty
        let (report, steps) = heal_steps(&repl, n);
        assert!(
            report.is_fully_healed() && report.chunks_healed > 0,
            "{report:?}"
        );
        steps
    };

    // Forty keys per list: five per leader at 8 nodes, one at 32. Six
    // copies put six owners' manifests on every node, so five per leader
    // still cuts the Owners stage.
    let gather = |n: u32| {
        let steps = heal(n, 3, 6, 40);
        for stage in [HealStage::Chunks, HealStage::Owners] {
            let w = windows(&steps, stage);
            assert!(w >= 2, "{n} ranks: {w} {stage:?} windows");
        }
        let chunk_windows = steps.iter().filter(|(s, _)| *s == HealStage::Chunks);
        chunk_windows.map(|(_, bytes)| *bytes).max().unwrap_or(0)
    };
    let (narrow, wide) = (gather(8), gather(32));
    assert!(
        wide <= narrow + SLACK_PER_RANK * (32 - 8),
        "rank 0 gathers at most {narrow} B per chunk window at 8 ranks, {wide} B at 32"
    );

    // A wide window is the point of a world-wide budget: at the default,
    // a small world heals in far fewer steps than at 64 keys per node.
    let steps_at = |window_keys: usize| heal(8, 64, 3, window_keys).len();
    let (default, per_node_64) = (
        steps_at(HealOptions::default().window_keys),
        steps_at(8 * 64),
    );
    assert!(
        default < per_node_64,
        "8 ranks heal in {default} steps at the default budget, {per_node_64} at 8 × 64"
    );
}

/// Promise 6: every window plans against the cluster as it is *now*, not
/// against a snapshot taken when its stage began. A node wiped between
/// two chunk windows takes copies the healer has not reached yet; the
/// rest of the same heal must find and mend every one of them.
#[test]
fn a_node_wiped_between_chunk_windows_is_healed_past_the_cursor() {
    const K: u32 = 3;
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(
        Strategy::CollDedup,
        &cluster,
        RedundancyPolicy::Replicate(K),
        small_windows(),
    );
    dump_all(&repl, &bufs, DUMP);
    cluster.fail_node(1);
    cluster.revive_node(1); // replacement disk, empty

    let (second, wiped) = (4, Mutex::new(Vec::new()));
    let out = WorldConfig::default()
        .launch(N, |comm| {
            let mut cursor = HealCursor::new(DUMP);
            let mut report = HealReport::default();
            // At least one chunk window behind us, more to come.
            while cursor.stage != HealStage::Chunks || cursor.after_fp.is_none() {
                assert!(repl.heal_step(comm, &mut cursor, &mut report)?);
            }
            let at_wipe = cursor.after_fp;
            comm.barrier();
            if comm.rank() == 0 {
                *wiped.lock().unwrap() = cluster
                    .chunk_fps(second, None, usize::MAX)
                    .expect("live node");
                cluster.fail_node(second);
                cluster.revive_node(second);
            }
            comm.barrier();
            while repl.heal_step(comm, &mut cursor, &mut report)? {}
            Ok::<_, replidedup::core::ReplError>((at_wipe, report))
        })
        .expect_all();
    let mut at_wipe = None;
    for r in &out.results {
        let (cut, report) = r.as_ref().expect("heal succeeds");
        assert!(report.is_fully_healed(), "{report:?}");
        at_wipe = *cut;
    }
    let past = |fp: &_| at_wipe.is_none_or(|c| *fp > c);
    assert!(
        wiped.lock().unwrap().iter().any(past),
        "the wipe must take copies the healer has not reached yet"
    );
    let mut checked = 0;
    for owner in 0..N {
        let manifest = (0..N)
            .find_map(|node| {
                cluster
                    .get_recipe(node, owner, DUMP)
                    .ok()?
                    .manifest()
                    .cloned()
            })
            .expect("every manifest survives the heal");
        for fp in manifest.chunks.iter().filter(|fp| past(fp)) {
            let copies = cluster.copies_of(fp);
            assert!(copies >= K, "rank {owner}'s chunk {fp} has {copies} copies");
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "chunks referenced past the cursor were checked"
    );
}
