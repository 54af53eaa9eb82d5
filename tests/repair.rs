//! Seeded chaos suite for the self-healing layer (DESIGN.md §11, §16):
//! integrity scrubbing, the collective heal, retrying restore.
//!
//! Promises under test:
//! 1. After failing at most K−1 nodes of a healthy dump and reviving them
//!    empty, one heal collective brings every chunk referenced by the
//!    dump back to `min(K, live_nodes)` intact copies, re-materializes
//!    every rank's manifest (or blob, for `no-dedup`) on its own node, and
//!    the subsequent restore is byte-exact — for every strategy and
//!    K ∈ {2, 3}, with the failed-node set drawn from the seed.
//! 2. Healing is idempotent and crash-safe: a rank crash in the middle of
//!    a transfer phase (taking its node's storage with it) surfaces as a
//!    typed error, and re-running the heal after reviving converges to
//!    the same healed invariants.
//! 3. Scrub reports exactly the injected corruptions; heal quarantines
//!    and re-replicates them; the post-heal scrub is clean.
//! 4. Injected transient device hiccups are absorbed by the fixed retry
//!    schedule of every recovery read (visible in the `restore_retries`
//!    and `heal_retries` counters), not surfaced as errors; a server whose
//!    reads keep failing still answers every peer, so nobody hangs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::buf::Chunk;
use replidedup::core::{ReplError, Replicator, Strategy};
use replidedup::hash::Fingerprint;
use replidedup::mpi::{Comm, EventKind, FaultPlan, FaultTrigger, WorldConfig};
use replidedup::storage::{Cluster, Placement};

const N: u32 = 6;
const DUMP: u64 = 1;

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

fn replicator(strategy: Strategy, cluster: &Cluster, k: u32) -> Replicator<'_> {
    Replicator::builder(strategy)
        .cluster(cluster)
        .replication(k)
        .chunk_size(64)
        .build()
        .expect("valid config")
}

/// Derive up to `count` distinct victim nodes from a seed (SplitMix64
/// step, same mixer the fault plan uses — any deterministic spread works).
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

/// The healed-cluster invariant: every rank's recipe is back on its own
/// node and everything it references has at least `min(K, live)` copies.
fn assert_healed(cluster: &Cluster, strategy: Strategy, k: u32, label: &str) {
    let live = (0..N).filter(|&nd| cluster.is_alive(nd)).count() as u32;
    let target = k.min(live);
    for rank in 0..N {
        let node = cluster.node_of(rank);
        if strategy == Strategy::NoDedup {
            let copies = (0..N)
                .filter(|&nd| cluster.get_recipe(nd, rank, DUMP).is_ok())
                .count() as u32;
            assert!(
                copies >= target,
                "{label}: rank {rank}'s blob has {copies} copies, need {target}"
            );
            assert!(
                cluster.get_recipe(node, rank, DUMP).is_ok(),
                "{label}: rank {rank}'s blob not re-materialized on its own node"
            );
            continue;
        }
        let recipe = cluster
            .get_recipe(node, rank, DUMP)
            .unwrap_or_else(|e| panic!("{label}: rank {rank}'s manifest not on its node: {e}"));
        let manifest = recipe.manifest().expect("a manifest");
        for fp in &manifest.chunks {
            let copies = cluster.copies_of(fp);
            assert!(
                copies >= target,
                "{label}: chunk {fp} of rank {rank} has {copies} copies, need {target}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Promise 1: fail ≤ K−1 seed-chosen nodes after a healthy dump,
    /// revive them empty, heal once — full replication is back and every
    /// rank restores byte-exactly with zero degraded paths.
    #[test]
    fn heal_mends_k_minus_1_node_failures_back_to_full_replication(seed in any::<u64>()) {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            for k in [2u32, 3] {
                let bufs = buffers(N);
                let cluster = Cluster::new(Placement::one_per_node(N));
                let repl = replicator(strategy, &cluster, k);
                let out = WorldConfig::default().launch(N, |comm| {
                    repl.dump(comm, DUMP, &bufs[comm.rank() as usize]).map(|_| ())
                }).expect_all();
                prop_assert!(out.results.iter().all(Result::is_ok));

                let victims = seeded_victims(seed, k - 1);
                for &node in &victims {
                    cluster.fail_node(node);
                    cluster.revive_node(node); // replacement comes up empty
                }

                let out = WorldConfig::default().launch(N, |comm| repl.heal(comm, DUMP)).expect_all();
                for (rank, r) in out.results.iter().enumerate() {
                    let stats = r.as_ref().unwrap_or_else(|e| {
                        panic!("{strategy:?} K={k} seed={seed}: rank {rank} heal failed: {e}")
                    });
                    prop_assert!(
                        stats.is_fully_healed(),
                        "{strategy:?} K={k} seed={seed} victims={victims:?}: \
                         losses within K-1 must be healable: {stats:?}"
                    );
                    prop_assert_eq!(
                        r.as_ref().unwrap(),
                        out.results[0].as_ref().unwrap(),
                        "all ranks must agree on the heal report"
                    );
                }
                assert_healed(&cluster, strategy, k, "after heal");

                // A second heal finds nothing to do (idempotency).
                let out = WorldConfig::default().launch(N, |comm| repl.heal(comm, DUMP)).expect_all();
                for r in &out.results {
                    let stats = r.as_ref().expect("idempotent heal");
                    prop_assert_eq!(stats.chunks_healed, 0, "re-heal must be a no-op");
                    prop_assert_eq!(stats.recipes_rematerialized, 0);
                }

                let out = WorldConfig::default().launch(N, |comm| repl.restore(comm, DUMP)).expect_all();
                for (rank, r) in out.results.iter().enumerate() {
                    let bytes = r.as_ref().unwrap_or_else(|e| {
                        panic!("{strategy:?} K={k} seed={seed}: rank {rank} restore failed: {e}")
                    });
                    prop_assert_eq!(bytes, &bufs[rank], "rank {} restored wrong bytes", rank);
                }
            }
        }
    }
}

/// Promise 2: a rank crash mid-transfer (its node's storage dies with it)
/// leaves a typed error, and re-running the heal after reviving
/// converges to the healed invariants.
#[test]
fn crash_during_heal_transfer_then_rerun_converges() {
    let k = 3;
    let bufs = buffers(N);
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let repl = replicator(Strategy::CollDedup, &cluster, k);

    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));

    // One node lost and revived empty: the heal has real work to do.
    cluster.fail_node(2);
    cluster.revive_node(2);

    // Crash rank 4 the moment the first transfer window opens; its
    // node's storage goes down with it.
    let hook = Arc::clone(&cluster);
    let plan = FaultPlan::new(99)
        .crash(4, FaultTrigger::PhaseStart("heal.transfer".into()))
        .on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
    let config = WorldConfig::default()
        .with_recv_timeout(Duration::from_secs(2))
        .with_faults(plan);
    let out = config.launch(N, |comm| repl.heal(comm, DUMP));
    assert_eq!(out.crashed_ranks(), vec![4], "the planned crash must fire");
    assert!(
        out.outcomes
            .iter()
            .any(|o| matches!(o.as_completed(), Some(Err(ReplError::RankFailure(_))))),
        "survivors must see the crash as a typed error, not a hang"
    );

    // Restart: the crashed node is replaced, the heal is re-run.
    for node in 0..N {
        if !cluster.is_alive(node) {
            cluster.revive_node(node);
        }
    }
    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, DUMP))
        .expect_all();
    for r in &out.results {
        let stats = r.as_ref().expect("rerun heal succeeds");
        assert!(stats.is_fully_healed(), "rerun must converge: {stats:?}");
    }
    assert_healed(&cluster, Strategy::CollDedup, k, "after crash + rerun");

    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, DUMP))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("restore after healed rerun"),
            &bufs[rank],
            "rank {rank} restored wrong bytes"
        );
    }
}

/// Promise 3: scrub finds exactly the injected corruptions; heal mends
/// them (quarantine + re-replicate); the post-heal scrub is clean and
/// the restore byte-exact.
#[test]
fn scrub_detects_exactly_injected_corruptions_and_heal_mends_them() {
    let k = 2;
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(Strategy::CollDedup, &cluster, k);

    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));

    // Rot one stored chunk on each of two nodes — distinct fingerprints,
    // so each corrupted chunk keeps one intact copy (K=2) to heal from.
    let fp1 = cluster.chunk_fps(1, None, usize::MAX).expect("live node")[0];
    let fp4 = *cluster
        .chunk_fps(4, None, usize::MAX)
        .expect("live node")
        .iter()
        .find(|fp| **fp != fp1)
        .expect("node 4 holds more than one chunk");
    assert!(cluster.corrupt_chunk(1, &fp1).unwrap());
    assert!(cluster.corrupt_chunk(4, &fp4).unwrap());
    let mut injected = vec![(1u32, fp1), (4u32, fp4)];
    injected.sort_unstable();

    let out = WorldConfig::default()
        .launch(N, |comm| repl.scrub(comm))
        .expect_all();
    for r in &out.results {
        let report = r.as_ref().expect("scrub succeeds");
        assert_eq!(
            report.corrupt, injected,
            "scrub must report exactly the injected corruptions"
        );
        assert!(report.chunks_checked > 0);
        assert!(!report.is_clean());
    }

    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, DUMP))
        .expect_all();
    for r in &out.results {
        let stats = r.as_ref().expect("heal succeeds");
        assert_eq!(
            stats.corrupt_quarantined,
            injected.len() as u64,
            "heal must quarantine what scrub found"
        );
        assert!(
            stats.is_fully_healed(),
            "corruption within K-1 copies heals"
        );
    }
    assert_healed(&cluster, Strategy::CollDedup, k, "after corruption heal");

    let out = WorldConfig::default()
        .launch(N, |comm| repl.scrub(comm))
        .expect_all();
    for r in &out.results {
        assert!(
            r.as_ref().expect("scrub succeeds").is_clean(),
            "post-heal scrub must be clean"
        );
    }

    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, DUMP))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("restore after corruption heal"),
            &bufs[rank],
            "rank {rank} restored wrong bytes"
        );
    }
}

/// Promise 4: transient device hiccups within the retry budget are
/// absorbed silently — the restore succeeds byte-exactly and the retries
/// show up in the `restore_retries` counter instead of an error.
#[test]
fn transient_hiccups_are_absorbed_by_the_restore_retry_policy() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(2)
        .chunk_size(64)
        .tracing(true)
        .build()
        .expect("valid config");

    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));

    // Two consecutive reads on node 0 will fail before the device
    // recovers — within the default 4-attempt budget.
    cluster.inject_transient(0, 2).expect("live node");

    let out = WorldConfig::default()
        .launch(N, |comm| {
            let restored = repl.restore(comm, DUMP);
            let retries: u64 = comm
                .take_trace_events()
                .iter()
                .filter(|e| e.name == "restore_retries")
                .map(|e| match e.kind {
                    EventKind::Counter(v) => v,
                    _ => 0,
                })
                .sum();
            (comm.rank(), restored, retries)
        })
        .expect_all();
    let mut total_retries = 0;
    for (rank, restored, retries) in out.results {
        assert_eq!(
            restored
                .as_ref()
                .expect("transient must not fail the restore"),
            &bufs[rank as usize],
            "rank {rank} restored wrong bytes"
        );
        total_retries += retries;
    }
    assert!(
        total_retries > 0,
        "the absorbed hiccups must be visible in the restore_retries counter"
    );
}

/// Receive timeout of the transient-fault scenarios: long enough that a
/// rank waiting it out is a hang, not a slow host.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The transient-fault scenarios' setup: 4 one-rank nodes, coll-dedup,
/// K = 3, 32-byte chunks, 400-byte buffers, dumped; then node 2 fails and
/// comes back empty. Returns the session and every rank's buffer.
fn dumped_then_node_2_wiped(cluster: &Cluster, tracing: bool) -> (Replicator<'_>, Vec<Vec<u8>>) {
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(cluster)
        .replication(3)
        .chunk_size(32)
        .tracing(tracing)
        .build()
        .expect("valid config");
    let bufs: Vec<Vec<u8>> = (0..4u32)
        .map(|r| (0..400u32).map(|i| (i / 32 + r) as u8).collect())
        .collect();
    let out = WorldConfig::default()
        .launch(4, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));
    cluster.fail_node(2);
    cluster.revive_node(2);
    (repl, bufs)
}

/// Sum of the `name` counter over one rank's trace.
fn counter(comm: &mut Comm, name: &str) -> u64 {
    comm.take_trace_events()
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.kind {
            EventKind::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Promise 4, heal side: one transient read on every surviving node is
/// retried inside the heal's transfers — every rank converges and agrees.
#[test]
fn heal_absorbs_one_transient_read_per_node() {
    let cluster = Cluster::new(Placement::one_per_node(4));
    let (repl, _) = dumped_then_node_2_wiped(&cluster, true);
    for nd in [0, 1, 3] {
        cluster.inject_transient(nd, 1).expect("live node");
    }
    let out = WorldConfig::default()
        .with_recv_timeout(RECV_TIMEOUT)
        .launch(4, |comm| {
            comm.take_trace_events();
            let report = repl.heal(comm, DUMP);
            (report, counter(comm, "heal_retries"))
        })
        .expect_all();
    let (first, _) = &out.results[0];
    let first = first.as_ref().expect("rank 0 heals");
    let mut retries = 0;
    for (rank, (report, taken)) in out.results.iter().enumerate() {
        let report = report
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} heal failed: {e}"));
        assert!(report.is_fully_healed(), "rank {rank}: {report:?}");
        assert_eq!(report, first, "all ranks agree on the heal report");
        retries += taken;
    }
    assert!(first.chunks_healed > 0, "node 2's copies come back");
    assert!(retries > 0, "the hiccups must be retried, not missed");
}

/// A serving node whose reads all fail must not strand its peers: every
/// owed frame still goes out, ranks whose data is local restore
/// byte-exactly, and the rest get typed restore errors — all well inside
/// the receive timeout.
#[test]
fn restore_with_a_failing_server_does_not_hang() {
    let cluster = Cluster::new(Placement::one_per_node(4));
    let (repl, bufs) = dumped_then_node_2_wiped(&cluster, false);
    cluster.inject_transient(0, 100).expect("live node");
    let t0 = Instant::now();
    let out = WorldConfig::default()
        .with_recv_timeout(RECV_TIMEOUT)
        .launch(4, |comm| repl.restore(comm, DUMP))
        .expect_all();
    let took = t0.elapsed();
    for (rank, r) in out.results.iter().enumerate() {
        match r {
            Ok(bytes) => assert_eq!(bytes, &bufs[rank], "rank {rank} restored wrong bytes"),
            Err(ReplError::Restore(e)) => assert!(
                rank != 1 && rank != 3,
                "rank {rank}'s data is local, yet: {e}"
            ),
            Err(e) => panic!("rank {rank}: {e} is not a typed restore error"),
        }
    }
    assert!(
        took < RECV_TIMEOUT / 2,
        "the restore must not wait out receive timeouts: {took:?}"
    );
}

/// The restore fault scenarios' setup: the suite's workload dumped with
/// coll-dedup at K = 3, traced, and no heal before the restore.
fn dumped_k3(cluster: &Cluster) -> (Replicator<'_>, Vec<Vec<u8>>) {
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(cluster)
        .replication(3)
        .chunk_size(64)
        .tracing(true)
        .build()
        .expect("valid config");
    let bufs = buffers(N);
    let out = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok));
    (repl, bufs)
}

/// A chunk of `rank`'s manifest that `rank`'s own node stores, with at
/// least three copies in the cluster.
fn own_chunk(cluster: &Cluster, rank: u32) -> Fingerprint {
    let node = cluster.node_of(rank);
    let recipe = cluster
        .get_recipe(node, rank, DUMP)
        .expect("manifest on its node");
    *recipe
        .manifest()
        .expect("a manifest")
        .chunks
        .iter()
        .find(|fp| cluster.has_chunk(node, fp) && cluster.copies_of(fp) >= 3)
        .expect("rank stores a chunk of its own")
}

/// Restore on every rank: each rank's result and its
/// `restore_replica_fallback` count.
fn restore_counting_fallbacks(repl: &Replicator<'_>) -> Vec<(Result<Chunk, ReplError>, u64)> {
    WorldConfig::default()
        .with_recv_timeout(RECV_TIMEOUT)
        .launch(N, |comm| {
            comm.take_trace_events();
            let restored = repl.restore(comm, DUMP);
            (restored, counter(comm, "restore_replica_fallback"))
        })
        .expect_all()
        .results
}

/// A chunk whose copy on the reader's own node rotted is fetched intact
/// from another holder: the restore is byte-exact and the rank counts
/// the fallback.
#[test]
fn restore_refetches_a_chunk_corrupted_on_the_own_node() {
    let cluster = Cluster::new(Placement::one_per_node(N));
    let (repl, bufs) = dumped_k3(&cluster);
    let fp = own_chunk(&cluster, 1);
    assert!(cluster.corrupt_chunk(1, &fp).unwrap());
    let out = restore_counting_fallbacks(&repl);
    for (rank, (r, _)) in out.iter().enumerate() {
        let bytes = r
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} restore failed: {e}"));
        assert_eq!(bytes, &bufs[rank], "rank {rank} restored wrong bytes");
    }
    assert!(out[1].1 > 0, "rank 1 must count its replica fallback");
}

/// As above, and the lowest-ranked other holder's copy rotted too: the
/// restore moves on to a third copy and stays byte-exact.
#[test]
fn restore_skips_a_corrupt_first_holder() {
    let cluster = Cluster::new(Placement::one_per_node(N));
    let (repl, bufs) = dumped_k3(&cluster);
    let fp = own_chunk(&cluster, 1);
    let first_other = (0..N)
        .find(|&nd| nd != 1 && cluster.has_chunk(nd, &fp))
        .expect("another holder");
    assert!(cluster.corrupt_chunk(1, &fp).unwrap());
    assert!(cluster.corrupt_chunk(first_other, &fp).unwrap());
    for (rank, (r, _)) in restore_counting_fallbacks(&repl).iter().enumerate() {
        let bytes = r
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} restore failed: {e}"));
        assert_eq!(bytes, &bufs[rank], "rank {rank} restored wrong bytes");
    }
}

/// A wiped node's chunks are served by other holders when the lowest
/// holder, node 0, fails every read: the wiped rank restores byte-exactly.
#[test]
fn restore_of_a_wiped_node_survives_a_failing_first_holder() {
    let cluster = Cluster::new(Placement::one_per_node(N));
    let (repl, bufs) = dumped_k3(&cluster);
    let recipe = cluster
        .get_recipe(2, 2, DUMP)
        .expect("manifest on its node");
    let manifest = recipe.manifest().expect("a manifest");
    assert!(
        manifest.chunks.iter().any(|fp| cluster.has_chunk(0, fp)),
        "node 0 holds some of rank 2's chunks"
    );
    cluster.fail_node(2);
    cluster.revive_node(2);
    cluster.inject_transient(0, u32::MAX).expect("live node");
    let out = restore_counting_fallbacks(&repl);
    let (restored, _) = &out[2];
    let bytes = restored
        .as_ref()
        .unwrap_or_else(|e| panic!("wiped rank 2 restore failed: {e}"));
    assert_eq!(bytes, &bufs[2], "rank 2 restored wrong bytes");
}

/// Nodes advertising `rank`'s recipe for the dump: its manifest, or its
/// raw blob under `no-dedup`.
fn advertisers(cluster: &Cluster, rank: u32) -> Vec<u32> {
    (0..cluster.placement().nodes)
        .filter(|&nd| {
            cluster
                .recipe_owners(nd, DUMP)
                .is_ok_and(|o| o.contains(&rank))
        })
        .collect()
}

/// A recipe whose first other advertiser fails every read is served by
/// the next one, for both recipe formats: the lowest other advertiser of
/// a wiped rank's recipe fails, or, with two ranks per node, node 0
/// fails, so ranks 0 and 1 cannot count on their same-node neighbour.
/// Every rank restores byte-exactly.
#[test]
fn restore_serves_a_recipe_past_a_failing_advertiser() {
    for strategy in [Strategy::CollDedup, Strategy::NoDedup] {
        for packed in [false, true] {
            let label = format!("{strategy:?}, packed {packed}");
            let (n, placement) = if packed {
                (8, Placement::pack(8, 2))
            } else {
                (N, Placement::one_per_node(N))
            };
            let cluster = Cluster::new(placement);
            let repl = replicator(strategy, &cluster, 3);
            let bufs = buffers(n);
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    repl.dump(comm, DUMP, &bufs[comm.rank() as usize])
                        .map(|_| ())
                })
                .expect_all();
            assert!(out.results.iter().all(Result::is_ok), "{label}: dump");
            let failing = if packed {
                0
            } else {
                let first = advertisers(&cluster, 2)
                    .into_iter()
                    .find(|&nd| nd != 2)
                    .expect("another advertiser");
                cluster.fail_node(2);
                cluster.revive_node(2);
                first
            };
            cluster
                .inject_transient(failing, u32::MAX)
                .expect("live node");
            let out = WorldConfig::default()
                .with_recv_timeout(RECV_TIMEOUT)
                .launch(n, |comm| repl.restore(comm, DUMP))
                .expect_all();
            for (rank, r) in out.results.iter().enumerate() {
                let bytes = r
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{label}: rank {rank} restore failed: {e}"));
                assert_eq!(
                    bytes, &bufs[rank],
                    "{label}: rank {rank} restored wrong bytes"
                );
            }
        }
    }
}

/// Collective bytes `(rank 0, last rank)` received over a healthy restore
/// and over a whole heal after node 1 is wiped and revived, in a
/// one-per-node world of `n` ranks with `Replicate(3)`.
fn recovery_coll_recv(n: u32) -> ((u64, u64), (u64, u64)) {
    let cluster = Cluster::new(Placement::one_per_node(n));
    let repl = replicator(Strategy::CollDedup, &cluster, 3);
    let bufs = buffers(n);
    let out = WorldConfig::default()
        .launch(n, |comm| {
            let rank = comm.rank() as usize;
            repl.dump(comm, DUMP, bufs[rank].clone()).expect("dump");
            let before = comm.traffic().coll_recv;
            let restored = repl.restore(comm, DUMP).expect("healthy restore");
            let restore = comm.traffic().coll_recv - before;
            comm.barrier();
            if rank == 0 {
                repl.cluster().fail_node(1);
                repl.cluster().revive_node(1);
            }
            comm.barrier();
            let before = comm.traffic().coll_recv;
            let report = repl.heal(comm, DUMP).expect("heal");
            let heal = comm.traffic().coll_recv - before;
            assert_eq!(Vec::from(restored), bufs[rank]);
            assert!(report.is_fully_healed() && report.chunks_healed > 0);
            (restore, heal)
        })
        .expect_all();
    let (first, last) = (out.results[0], out.results[n as usize - 1]);
    ((first.0, last.0), (first.1, last.1))
}

/// Recovery plans at one rank, so a rank other than the planner receives
/// only its own part: its collective bytes stay flat as the world grows
/// while the planner's grow with it. Were every rank to allgather the
/// world's lists, every rank would receive the planner's bytes.
#[test]
fn recovery_traffic_grows_with_the_world_only_at_the_planner() {
    let (_, (heal0_16, heal_last_16)) = recovery_coll_recv(16);
    let ((restore0, restore_last), (heal0_64, heal_last_64)) = recovery_coll_recv(64);
    assert!(
        heal_last_64 < 2 * heal_last_16,
        "last rank's heal bytes grow with the world: {heal_last_16} -> {heal_last_64}"
    );
    assert!(
        heal0_64 >= 3 * heal0_16,
        "the planner gathers every node's lists: {heal0_16} -> {heal0_64}"
    );
    assert!(
        restore_last * 4 < restore0,
        "a restore's last rank receives {restore_last} of the planner's {restore0} bytes"
    );
}
