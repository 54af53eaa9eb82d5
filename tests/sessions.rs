//! Scale-out runtime suite: thread-per-rank worlds and concurrent
//! labeled sessions (DESIGN.md §17).
//!
//! Three promises under test:
//! 1. Thread interleaving is invisible: two 64-rank launches of one seed
//!    produce byte-identical dump/restore results *and* identical per-rank
//!    trace span sequences — for every strategy and K ∈ {2, 3}.
//! 2. Sessions are isolated: two labeled sessions sharing one storage
//!    cluster can dump the same dump id concurrently without mixing
//!    generations, and a crash in session A never poisons session B —
//!    B's restore stays byte-exact under fault injection.
//! 3. Session labels are exclusive while live: building a second
//!    replicator with an active label is a typed
//!    `ConfigError::DuplicateSession`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{ConfigError, ReplError, Replicator, Strategy, DUMP_PHASES};
use replidedup::mpi::{FaultPlan, RankOutcome, WorldConfig};
use replidedup::storage::{Cluster, Placement, SessionId};

/// Per-rank buffers with cross-rank redundancy so every strategy has real
/// dedup work to do.
fn buffers(n: u32, seed: u64) -> Vec<Vec<u8>> {
    let workload = SyntheticWorkload {
        chunk_size: 128,
        global_chunks: 3,
        grouped_chunks: 4,
        group_size: 4,
        private_chunks: 4,
        local_dup_chunks: 2,
        local_repeat: 2,
        seed,
    };
    (0..n).map(|r| workload.generate(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// Promise 1: a run is a function of its seed, not of how the OS
    /// interleaves rank threads. Two 64-rank launches of one seed dump and
    /// restore the same bytes and record the same span sequence per rank,
    /// for every strategy × K ∈ {2, 3}.
    #[test]
    fn same_seed_runs_are_identical_across_launches(seed in any::<u64>()) {
        const N: u32 = 64;
        let bufs = buffers(N, seed);
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            for k in [2u32, 3] {
                let run = || {
                    let cluster = Cluster::new(Placement::one_per_node(N));
                    let out = WorldConfig::traced().launch(N, |comm| {
                        let repl = Replicator::builder(strategy)
                            .cluster(&cluster)
                            .replication(k)
                            .chunk_size(128)
                            .build()
                            .expect("valid config");
                        repl.dump(comm, 1, bufs[comm.rank() as usize].clone())
                            .expect("dump");
                        Vec::from(repl.restore(comm, 1).expect("restore"))
                    }).expect_all();
                    (out.results, out.trace.expect("tracing was enabled"))
                };
                let (first, first_trace) = run();
                let (second, second_trace) = run();
                for rank in 0..N as usize {
                    prop_assert_eq!(
                        &first[rank], &bufs[rank],
                        "{:?} K={} seed={}: rank {} restored wrong bytes",
                        strategy, k, seed, rank
                    );
                    prop_assert_eq!(
                        &first[rank], &second[rank],
                        "{:?} K={} seed={}: rank {} differs across launches",
                        strategy, k, seed, rank
                    );
                    prop_assert_eq!(
                        first_trace.ranks[rank].span_sequence(),
                        second_trace.ranks[rank].span_sequence(),
                        "{:?} K={} seed={}: rank {} trace diverged across launches",
                        strategy, k, seed, rank
                    );
                }
            }
        }
    }
}

/// Promise 2: two labeled sessions against one cluster, running
/// concurrently on background threads, with session A's world under a
/// seeded crash plan. Session B's dump — same dump id, different bytes —
/// must commit and restore byte-exactly, and A's surviving ranks must
/// fail with a typed rank failure, not wedge B.
#[test]
fn crash_in_one_session_does_not_poison_a_concurrent_one() {
    const N: u32 = 8;
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let bufs_a = buffers(N, 0xA);
    let bufs_b = buffers(N, 0xB);

    let session_a = {
        let cluster = Arc::clone(&cluster);
        let bufs = bufs_a.clone();
        replidedup::mpi::sched::spawn("chaos-session-a", move || {
            // Rank crashes only: A's processes die mid-dump but the
            // storage nodes stay up. (Taking a node down would be shared
            // hardware damage — real for both sessions, not poisoning.)
            let plan = FaultPlan::seeded(17, N, 2, &DUMP_PHASES);
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(128)
                .session_label("chaos-a")
                .build()
                .expect("valid config");
            let out = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(5))
                .with_faults(plan)
                .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]));
            // A survivor finishes or fails with a typed rank failure.
            for (rank, o) in out.outcomes.iter().enumerate() {
                if let RankOutcome::Completed(Err(e)) = o {
                    assert!(
                        matches!(e, ReplError::RankFailure(_)),
                        "session A rank {rank} failed with {e:?}"
                    );
                }
            }
            out.crashed_ranks()
        })
    };
    let session_b = {
        let cluster = Arc::clone(&cluster);
        let bufs = bufs_b.clone();
        replidedup::mpi::sched::spawn("chaos-session-b", move || {
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(128)
                .session_label("chaos-b")
                .build()
                .expect("valid config");
            let out = WorldConfig::default()
                .launch(N, |comm| {
                    let stats = repl
                        .dump(comm, 1, &bufs[comm.rank() as usize])
                        .expect("session B dump succeeds despite A's crashes");
                    (
                        stats.session,
                        Vec::from(repl.restore(comm, 1).expect("session B restore")),
                    )
                })
                .expect_all();
            out.results
        })
    };

    let crashed_a = session_a.join().expect("session A world completes");
    assert!(
        !crashed_a.is_empty(),
        "the seeded plan must actually crash ranks in session A"
    );
    let results_b = session_b.join().expect("session B world completes");
    for (rank, (session, restored)) in results_b.iter().enumerate() {
        assert_ne!(
            *session,
            SessionId::DEFAULT,
            "session B stats must be stamped"
        );
        assert_eq!(
            restored, &bufs_b[rank],
            "rank {rank}: session B restored wrong bytes after A crashed {crashed_a:?}"
        );
    }
}

/// Promise 2, heal flavour: a labeled dump session under fault injection
/// racing a background heal session over one cluster. The healer works a
/// pre-damaged default-scope generation while the writer's world crashes
/// ranks mid-dump in its own session scope; the heal must converge and
/// the damaged generation restore byte-exactly — crashes in the writer
/// session never poison the healer.
#[test]
fn faulty_dump_session_does_not_poison_a_concurrent_heal_session() {
    const N: u32 = 6;
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let bufs_v1 = buffers(N, 0x1);
    let bufs_v2 = buffers(N, 0x2);

    // Generation 1, default scope: dumped clean, then a node is replaced
    // with an empty device — the healer's work list.
    {
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(3)
            .chunk_size(128)
            .build()
            .expect("valid config");
        WorldConfig::default()
            .launch(N, |comm| {
                repl.dump(comm, 1, &bufs_v1[comm.rank() as usize])
                    .expect("seed dump");
            })
            .expect_all();
        cluster.fail_node(2);
        cluster.revive_node(2);
    }

    let writer = {
        let cluster = Arc::clone(&cluster);
        let bufs = bufs_v2.clone();
        replidedup::mpi::sched::spawn("chaos-writer", move || {
            let plan = FaultPlan::seeded(23, N, 2, &DUMP_PHASES);
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(128)
                .session_label("chaos-writer")
                .build()
                .expect("valid config");
            let out = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(5))
                .with_faults(plan)
                .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]));
            for (rank, o) in out.outcomes.iter().enumerate() {
                if let RankOutcome::Completed(Err(e)) = o {
                    assert!(
                        matches!(e, ReplError::RankFailure(_)),
                        "writer rank {rank} failed with {e:?}"
                    );
                }
            }
            out.crashed_ranks()
        })
    };
    let healer = {
        let cluster = Arc::clone(&cluster);
        replidedup::mpi::sched::spawn("chaos-healer", move || {
            let repl = Replicator::builder(Strategy::CollDedup)
                .cluster(&cluster)
                .replication(3)
                .chunk_size(128)
                .build()
                .expect("valid config");
            let out = WorldConfig::default()
                .launch(N, |comm| repl.heal(comm, 1))
                .expect_all();
            out.results
                .into_iter()
                .map(|r| r.expect("background heal succeeds"))
                .collect::<Vec<_>>()
        })
    };

    let crashed = writer.join().expect("writer world completes");
    assert!(
        !crashed.is_empty(),
        "the seeded plan must actually crash writer ranks"
    );
    let reports = healer.join().expect("healer world completes");
    assert!(
        reports[0].is_fully_healed(),
        "heal must converge despite the writer session crashing: {:?}",
        reports[0]
    );
    assert_eq!(reports[0].session, SessionId::DEFAULT);

    // The healed generation restores byte-exactly.
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(3)
        .chunk_size(128)
        .build()
        .expect("valid config");
    let out = WorldConfig::default()
        .launch(N, |comm| {
            Vec::from(repl.restore(comm, 1).expect("restore healed generation"))
        })
        .expect_all();
    for (rank, restored) in out.results.iter().enumerate() {
        assert_eq!(
            restored, &bufs_v1[rank],
            "rank {rank}: healed generation corrupted by the writer session"
        );
    }
}

/// Promise 3: a live session label is exclusive; dropping the holder
/// frees it. (The unit tests cover the registry; this exercises it
/// through the public facade.)
#[test]
fn duplicate_live_session_label_is_a_typed_error() {
    let cluster = Cluster::new(Placement::one_per_node(4));
    let held = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(2)
        .session_label("exclusive")
        .build()
        .expect("first holder");
    let err = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(2)
        .session_label("exclusive")
        .build()
        .expect_err("second holder must be rejected");
    assert_eq!(
        err,
        ConfigError::DuplicateSession {
            label: "exclusive".into()
        }
    );
    drop(held);
    Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(2)
        .session_label("exclusive")
        .build()
        .expect("label is free again after drop");
}
