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
//! 2. The ISSUE's acceptance drill: a node crashes mid-dump (taking its
//!    storage), then the healer itself is killed mid-heal (second
//!    transfer window, via `start:heal.transfer#2`) — and a fresh healer
//!    resumed from the last persisted cursor still converges.
//! 3. Healing runs *under* live traffic: a foreground dump of a newer
//!    generation and a background heal of an older one interleave on the
//!    same cluster without corrupting either generation.
//! 4. The superseded-generation GC step reclaims old dumps without
//!    touching chunks the surviving generation still references.
//! 5. Heal windows are bounded per node, so the step count does not grow
//!    with the world size.
//! 6. Each window plans against the cluster as it is when the window
//!    runs: a node wiped between two chunk windows is healed by the rest
//!    of the same heal.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{
    HealCursor, HealOptions, HealReport, HealStage, RedundancyPolicy, Replicator, Strategy,
};
use replidedup::mpi::wire::Wire;
use replidedup::mpi::{FaultPlan, FaultTrigger, WorldConfig};
use replidedup::storage::{Cluster, Placement, StripeKey};

const N: u32 = 6;
const DUMP: u64 = 1;

/// Small windows so even the test-sized workloads take several steps per
/// stage — resumability is only meaningful with multiple windows.
fn small_windows() -> HealOptions {
    HealOptions {
        chunk_batch: 8,
        owner_batch: 2,
        ..HealOptions::default()
    }
}

fn buffers(n: u32) -> Vec<Vec<u8>> {
    let workload = SyntheticWorkload {
        chunk_size: 64,
        global_chunks: 4,
        grouped_chunks: 3,
        group_size: 2,
        private_chunks: 3,
        local_dup_chunks: 2,
        local_repeat: 2,
        seed: 7,
    };
    (0..n).map(|r| workload.generate(r)).collect()
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

/// The bench drill's policy axis: replication, pure Reed-Solomon, and
/// the automatic per-chunk choice — each with the node losses it
/// tolerates by construction.
fn policies() -> [(&'static str, RedundancyPolicy, u32); 3] {
    [
        ("rep3", RedundancyPolicy::Replicate(3), 2),
        ("rs4+2", RedundancyPolicy::Rs { k: 4, m: 2 }, 2),
        (
            "auto4+2",
            RedundancyPolicy::Auto {
                k: 4,
                m: 2,
                replicate_below: 1 << 10,
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
                    prop_assert_eq!(after.manifests_rematerialized, 0);
                    prop_assert_eq!(after.blobs_rematerialized, 0);
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

/// Promise 2, the ISSUE's acceptance drill: gen 2's dump crashes rank 3
/// (its node's storage dies with it), the replacement disk comes up
/// empty, and the healer mending gen 1 is itself killed the moment its
/// *second* transfer window opens. The last cursor persisted before the
/// kill — wire bytes, as an operator would store them — seeds a fresh
/// healer that converges; gen 1 restores byte-exactly everywhere.
#[test]
fn healer_killed_mid_heal_resumes_from_persisted_cursor() {
    let bufs = buffers(N);
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let repl = replicator(
        Strategy::CollDedup,
        &cluster,
        RedundancyPolicy::Replicate(3),
        small_windows(),
    );

    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok), "healthy gen 1");

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
    assert_eq!(out.crashed_ranks(), vec![3], "the dump crash must fire");
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
    let out = config.launch(N, move |comm| {
        let mut cursor = HealCursor::new(DUMP);
        let mut report = HealReport::default();
        loop {
            match repl.heal_step(comm, &mut cursor, &mut report) {
                Ok(true) => {
                    if comm.rank() == 0 {
                        *store.lock().unwrap() = cursor.to_bytes().to_vec();
                    }
                }
                Ok(false) => break, // finished before the kill landed
                Err(_) => break,    // the kill reached this rank's step
            }
        }
    });
    assert_eq!(out.crashed_ranks(), vec![4], "the healer kill must fire");

    let snapshot = persisted.lock().unwrap().clone();
    let mut resumed = HealCursor::from_bytes(&snapshot).expect("persisted cursor decodes");
    assert!(
        !resumed.is_done() && resumed.steps_taken > 0,
        "the kill must land mid-heal: {resumed:?}"
    );

    // A fresh healer in a fresh world resumes from the snapshot.
    let repl = replicator(
        Strategy::CollDedup,
        &cluster,
        RedundancyPolicy::Replicate(3),
        small_windows(),
    );
    let cursor0 = resumed.clone();
    let out = WorldConfig::default()
        .launch(N, |comm| {
            let mut cursor = cursor0.clone();
            repl.heal_from(comm, &mut cursor).map(|r| (cursor, r))
        })
        .expect_all();
    for r in &out.results {
        let (cursor, report) = r.as_ref().expect("resumed heal succeeds");
        assert!(cursor.is_done());
        assert!(
            report.is_fully_healed(),
            "resumed heal converges: {report:?}"
        );
    }
    resumed = out.results[0].as_ref().unwrap().0.clone();
    assert!(resumed.steps_taken > 0);

    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, DUMP))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("restore after resumed heal"),
            &bufs[rank],
            "rank {rank} restored wrong bytes"
        );
    }
}

/// Promise 3: a background heal of gen 1 and a foreground dump of gen 2
/// run *simultaneously* — two worlds, two thread pools, one cluster —
/// and both generations come out intact. The heal only ever considers
/// committed gen-1 state, so the in-flight gen 2 is invisible to it.
#[test]
fn heal_interleaves_with_a_live_foreground_dump() {
    let bufs = buffers(N);
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    {
        let repl = replicator(
            Strategy::CollDedup,
            &cluster,
            RedundancyPolicy::Replicate(3),
            small_windows(),
        );
        let out = WorldConfig::default()
            .launch(N, |comm| {
                repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                    .map(|_| ())
            })
            .expect_all();
        assert!(out.results.iter().all(Result::is_ok));
        cluster.fail_node(5);
        cluster.revive_node(5);
    }

    let healer = {
        let cluster = Arc::clone(&cluster);
        replidedup::mpi::sched::spawn("bg-healer", move || {
            let repl = replicator(
                Strategy::CollDedup,
                &cluster,
                RedundancyPolicy::Replicate(3),
                small_windows(),
            );
            let out = WorldConfig::default()
                .launch(N, |comm| repl.heal(comm, DUMP))
                .expect_all();
            out.results
                .into_iter()
                .map(|r| r.expect("background heal succeeds"))
                .collect::<Vec<_>>()
        })
    };
    let dumper = {
        let cluster = Arc::clone(&cluster);
        let bufs = bufs.clone();
        replidedup::mpi::sched::spawn("bg-dumper", move || {
            let repl = replicator(
                Strategy::CollDedup,
                &cluster,
                RedundancyPolicy::Replicate(3),
                small_windows(),
            );
            let out = WorldConfig::default()
                .launch(N, |comm| {
                    repl.dump(comm, 2, &bufs[comm.rank() as usize]).map(|_| ())
                })
                .expect_all();
            assert!(out.results.iter().all(Result::is_ok), "foreground dump");
        })
    };
    let reports = healer.join().expect("healer thread");
    dumper.join().expect("dumper thread");
    assert!(reports.iter().all(HealReport::is_fully_healed));

    let repl = replicator(
        Strategy::CollDedup,
        &cluster,
        RedundancyPolicy::Replicate(3),
        small_windows(),
    );
    for gen in [DUMP, 2] {
        let out = WorldConfig::default()
            .launch(N, |comm| repl.restore(comm, gen))
            .expect_all();
        for (rank, r) in out.results.iter().enumerate() {
            assert_eq!(
                r.as_ref()
                    .unwrap_or_else(|e| panic!("gen {gen} rank {rank}: {e}")),
                &bufs[rank],
                "gen {gen} rank {rank} restored wrong bytes"
            );
        }
    }
}

/// Promise 4: with `gc_before` set, the heal's first step collects the
/// superseded generation — and the surviving generation still restores,
/// proving shared content-addressed chunks were not swept with it.
#[test]
fn heal_gc_step_reclaims_superseded_generations_safely() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(
        Strategy::CollDedup,
        &cluster,
        RedundancyPolicy::Replicate(3),
        HealOptions {
            gc_before: Some(2),
            ..small_windows()
        },
    );
    let out = WorldConfig::default()
        .launch(N, |comm| {
            // Gen 1 and gen 2 share most chunks (same workload, one byte of
            // per-generation skew via the dump id in the first chunk).
            let mut buf = bufs[comm.rank() as usize].clone();
            repl.dump(comm, DUMP, &buf)?;
            buf[0] ^= 0x5A;
            repl.dump(comm, 2, &buf)?;
            let mut cursor = HealCursor::new(2);
            let report = repl.heal_from(comm, &mut cursor)?;
            repl.restore(comm, 2).map(|r| (report, Vec::from(r), buf))
        })
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        let (report, restored, expected) = r.as_ref().expect("heal with gc succeeds");
        assert_eq!(report.gc.generations_collected, 1, "gen 1 swept");
        assert!(report.is_fully_healed());
        assert_eq!(restored, expected, "rank {rank}: gen 2 intact after gc");
    }
    assert_eq!(cluster.generations(), vec![2], "only gen 2 remains at rest");
}

/// Blob stripes of *other* generations are none of a heal's business: a
/// `no-dedup` dump commits its stripe shard by shard, so a background
/// heal of gen 1 that judged gen 2's half-written stripe would report it
/// unrepairable (the recovery-drill flake). Gen 2's own heal still does.
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
            .find_map(|node| cluster.get_manifest(node, owner, gen).ok())
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

/// Promise 5: each node sends at most a batch of keys per window, so the
/// step count follows the largest per-node key count, not the world: the
/// same per-rank workload heals in (nearly) as many steps at 32 ranks as
/// at 8. The batches still cut every stage into several windows; they
/// are not the tiniest ones, where the densest of many nodes sets each
/// cut and the count creeps up with the world.
#[test]
fn heal_steps_do_not_grow_with_the_world() {
    let opts = HealOptions {
        chunk_batch: 16,
        owner_batch: 4,
        ..HealOptions::default()
    };
    let steps = |n: u32| {
        let bufs = buffers(n);
        let cluster = Cluster::new(Placement::one_per_node(n));
        let repl = replicator(
            Strategy::CollDedup,
            &cluster,
            RedundancyPolicy::Replicate(3),
            opts,
        );
        let out = WorldConfig::default()
            .launch(n, |comm| {
                repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                    .map(|_| ())
            })
            .expect_all();
        assert!(out.results.iter().all(Result::is_ok), "{n}-rank dump");
        cluster.fail_node(1);
        cluster.revive_node(1); // replacement disk, empty
        let out = WorldConfig::default()
            .launch(n, |comm| repl.heal(comm, DUMP))
            .expect_all();
        let report = out.results[0].as_ref().expect("heal succeeds");
        assert!(report.is_fully_healed() && report.chunks_healed > 0);
        report.steps
    };
    let (narrow, wide) = (steps(8), steps(32));
    assert!(
        wide <= narrow + 1,
        "8 ranks heal in {narrow} steps, 32 ranks in {wide}"
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
    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));
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
            .find_map(|node| cluster.get_manifest(node, owner, DUMP).ok())
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
