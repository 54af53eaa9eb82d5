//! Seeded chaos suite for the deterministic fault-injection harness
//! (DESIGN.md §10, "Fault model").
//!
//! A generation is atomic: a dump stores its recipes only after its last
//! collective, so a dump that loses a rank before then leaves its
//! generation incomplete, and a restart restores the newest generation
//! storage finds complete (`Replicator::generations`). Every test dumps
//! generation 1 cleanly, then generation 2 under a fault plan. Four
//! promises under test:
//! 1. At most K−1 crashes in generation 2's dump, each taking its node's
//!    storage with it, leave the restart a complete generation, 1 or 2,
//!    that restores byte-exactly on every rank, the crashed ones included
//!    — for every strategy and K ∈ {2, 3}, with crash points drawn from a
//!    seeded schedule over the dump's phase boundaries.
//! 2. The same seed replays the same schedule: the crashed-rank set, the
//!    generation the restart names and every restored byte are identical
//!    across runs.
//! 3. Losing more than K−1 ranks before generation 2 stores anything is
//!    typed data loss for that generation (`RestoreError::RecipeLost` on
//!    every rank), while generation 1 still restores — never a panic,
//!    never a hang.
//! 4. A rank that stops participating surfaces as
//!    `CommError::DeadlockSuspected` with rank/tag context through
//!    `ReplError::source()`, bounded by the injected receive timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{
    DumpError, Generations, RedundancyPolicy, ReplError, Replicator, RestoreError, Strategy,
    DUMP_PHASES,
};
use replidedup::mpi::{CommError, FaultPlan, FaultTrigger, RankOutcome, WorldConfig};
use replidedup::storage::{Cluster, DumpId, Placement, StorageError};

const N: u32 = 6;

/// Per-rank buffers of generation `gen`, with cross-rank redundancy so
/// every strategy has real dedup work to do (same workload shape as
/// tests/trace.rs).
fn buffers(gen: DumpId) -> Vec<Vec<u8>> {
    let workload = SyntheticWorkload {
        chunk_size: 64,
        global_chunks: 4,
        grouped_chunks: 3,
        group_size: 2,
        private_chunks: 3,
        local_dup_chunks: 2,
        local_repeat: 2,
        seed: 6 + gen,
    };
    (0..N).map(|r| workload.generate(r)).collect()
}

fn replicator(
    strategy: Strategy,
    cluster: &Cluster,
    k: u32,
    policy: RedundancyPolicy,
) -> Replicator<'_> {
    Replicator::builder(strategy)
        .cluster(cluster)
        .replication(k)
        .chunk_size(64)
        .with_policy(policy)
        .build()
        .expect("valid config")
}

/// Each rank's outcome of generation 2's dump and how long it took;
/// `None` for a crashed rank.
type Outcomes = Vec<Option<(Result<(), ReplError>, Duration)>>;

/// Dump generation 1 cleanly, then generation 2 in a fresh world under
/// `plan` with receive timeout `timeout`. Returns the crashed ranks and
/// every rank's outcome of generation 2.
fn dump_two_generations(
    repl: &Replicator<'_>,
    plan: FaultPlan,
    timeout: Duration,
) -> (Vec<u32>, Outcomes) {
    let (gen1, gen2) = (buffers(1), buffers(2));
    WorldConfig::default()
        .launch(N, |comm| repl.dump(comm, 1, &gen1[comm.rank() as usize]))
        .expect_all()
        .results
        .into_iter()
        .for_each(|r| assert!(r.is_ok(), "generation 1 dumps cleanly: {r:?}"));
    let out = WorldConfig::default()
        .with_recv_timeout(timeout)
        .with_faults(plan)
        .launch(N, |comm| {
            let t0 = Instant::now();
            let dumped = repl.dump(comm, 2, &gen2[comm.rank() as usize]);
            (dumped.map(|_| ()), t0.elapsed())
        });
    let crashed = out.crashed_ranks();
    let outcomes = out
        .outcomes
        .into_iter()
        .map(|o| match o {
            RankOutcome::Completed(done) => Some(done),
            RankOutcome::Crashed { .. } => None,
        })
        .collect();
    (crashed, outcomes)
}

/// A survivor of generation 2's dump either finished it or failed with a
/// typed rank failure — never another error.
fn assert_committed_or_rank_failure(outcomes: &Outcomes, cell: &str) {
    for (rank, o) in outcomes.iter().enumerate() {
        if let Some((Err(e), _)) = o {
            assert!(
                matches!(e, ReplError::RankFailure(_)),
                "{cell}: survivor {rank} failed with {e:?}"
            );
        }
    }
}

/// Restart in a fresh world, dead nodes revived empty: every rank asks
/// storage for the newest complete generation and restores it. The
/// answer must be the same on every rank and name generation 1 or 2, and
/// that generation must restore byte-exactly on every rank, crashed ones
/// included. Returns the named generation.
fn assert_restart_restores_everywhere(
    cluster: &Cluster,
    repl: &Replicator<'_>,
    cell: &str,
) -> DumpId {
    for node in 0..N {
        if !cluster.is_alive(node) {
            cluster.revive_node(node);
        }
    }
    let out = WorldConfig::default()
        .launch(N, |comm| {
            let found = repl.generations(comm).expect("generations");
            let gen = found.complete.expect("a complete generation");
            (found, repl.restore(comm, gen).map(Vec::from))
        })
        .expect_all();
    let found: Generations = out.results[0].0;
    let gen = found.complete.unwrap_or_default();
    assert!(gen == 1 || gen == 2, "{cell}: restart named {found:?}");
    assert!(found.newest >= Some(gen), "{cell}: {found:?}");
    let want = buffers(gen);
    for (rank, (f, r)) in out.results.iter().enumerate() {
        assert_eq!(*f, found, "{cell}: rank {rank} heard another answer");
        assert_eq!(
            r.as_ref().ok(),
            Some(&want[rank]),
            "{cell}: rank {rank} of generation {gen}"
        );
    }
    gen
}

/// Generation 2 under `plan`, each crashing rank taking its node's
/// storage with it, then the restart. Returns the crashed ranks and the
/// generation the restart named (and every rank restored).
fn run_chaos(strategy: Strategy, k: u32, plan: FaultPlan) -> (Vec<u32>, DumpId) {
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let hook = Arc::clone(&cluster);
    let plan = plan.on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
    let repl = replicator(strategy, &cluster, k, RedundancyPolicy::Replicate(k));
    let (crashed, outcomes) = dump_two_generations(&repl, plan, Duration::from_secs(2));
    let cell = format!("{strategy:?} K={k} crashed {crashed:?}");
    assert_committed_or_rank_failure(&outcomes, &cell);
    (
        crashed,
        assert_restart_restores_everywhere(&cluster, &repl, &cell),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Promise 1: for every strategy × K ∈ {2, 3}, a seeded schedule of at
    /// most K−1 crashes in generation 2's dump leaves a complete
    /// generation that every rank restores byte-exactly. (A planned crash
    /// whose phase is never reached — e.g. preempted by an earlier
    /// victim's death — simply does not fire; `crashed` is the set that
    /// actually died.)
    #[test]
    fn seeded_crashes_of_at_most_k_minus_1_never_lose_survivor_data(seed in any::<u64>()) {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            for k in [2u32, 3] {
                let plan = FaultPlan::seeded(seed, N, k - 1, &DUMP_PHASES);
                let (crashed, _) = run_chaos(strategy, k, plan);
                prop_assert!(
                    crashed.len() <= (k - 1) as usize,
                    "{crashed:?} crashed under a {}-crash plan", k - 1
                );
            }
        }
    }
}

/// Promise 2: the schedule is deterministic. The same seed always derives
/// the same fault plan, and for a single-crash plan the victim's trigger
/// phase is always reached, so two runs crash the same rank and name the
/// same generation, which restores the same bytes. (With several planned
/// crashes only the *plan* is exactly replayable: an earlier victim's
/// death can preempt a later victim before its trigger phase.)
/// A disk that fails at `commit` while its rank lives is a deferred
/// storage error on that rank, before the dump's last collective: that
/// collective tells every rank, so no rank publishes, and storage names
/// generation 1 — not a generation 2 whose data sits below its redundancy
/// target. The rank reports its storage error, every other rank the
/// failed rank.
#[test]
fn a_disk_failing_at_commit_publishes_nothing() {
    let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
    let cells = [
        (Strategy::CollDedup, RedundancyPolicy::Replicate(2)),
        (Strategy::LocalDedup, RedundancyPolicy::Replicate(2)),
        (Strategy::CollDedup, rs),
    ];
    let victim = 3;
    for (strategy, policy) in cells {
        let cell = format!("{strategy:?} {policy:?}");
        let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
        let hook = Arc::clone(&cluster);
        let plan = FaultPlan::new(43)
            .transient(victim, FaultTrigger::PhaseStart("commit".into()), 1)
            .on_transient(move |rank, _| hook.fail_node(hook.node_of(rank)));
        let repl = replicator(strategy, &cluster, 2, policy);
        let (crashed, outcomes) = dump_two_generations(&repl, plan, Duration::from_secs(5));
        assert!(crashed.is_empty(), "{cell}: {crashed:?}");
        for (rank, o) in outcomes.iter().enumerate() {
            let want = if rank as u32 == victim {
                DumpError::Storage(StorageError::NodeDown(victim))
            } else {
                DumpError::PeerFailed { rank: victim }
            };
            let got = o.as_ref().map(|(r, _)| r.clone());
            assert_eq!(got, Some(Err(ReplError::Dump(want))), "{cell}: rank {rank}");
        }
        let gen = assert_restart_restores_everywhere(&cluster, &repl, &cell);
        assert_eq!(gen, 1, "{cell}");
    }
}

#[test]
fn same_seed_replays_the_same_crash_schedule_and_bytes() {
    let seed = 0xD15EA5E;

    // Plan derivation itself is a pure function of the seed.
    assert_eq!(
        FaultPlan::seeded(seed, N, 2, &DUMP_PHASES).faults,
        FaultPlan::seeded(seed, N, 2, &DUMP_PHASES).faults,
        "seeded plan derivation must be deterministic"
    );

    let run = || {
        run_chaos(
            Strategy::CollDedup,
            3,
            FaultPlan::seeded(seed, N, 1, &DUMP_PHASES),
        )
    };
    let (crashed_a, gen_a) = run();
    let (crashed_b, gen_b) = run();
    assert_eq!(crashed_a, crashed_b, "same seed must crash the same rank");
    assert!(!crashed_a.is_empty(), "seeded plan must fire at least once");
    assert_eq!(gen_a, gen_b, "same seed must name the same generation");
}

/// Promise 3: more than K−1 rank deaths are typed data loss, not a panic
/// or a hang. Both victims die before generation 2 stores anything (their
/// processes die; the disks survive), so every rank's restore of
/// generation 2 reports `RecipeLost`, the restart names generation 1, and
/// every rank restores it — the whole round resolves in seconds.
#[test]
fn losing_more_than_k_minus_1_ranks_is_typed_data_loss_not_a_hang() {
    for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
        let t0 = Instant::now();
        let k = 2;
        let plan = FaultPlan::new(11)
            .crash(1, FaultTrigger::PhaseStart("local_dedup".into()))
            .crash(4, FaultTrigger::PhaseStart("local_dedup".into()));
        let cluster = Cluster::new(Placement::one_per_node(N));
        let repl = replicator(strategy, &cluster, k, RedundancyPolicy::Replicate(k));
        let (crashed, outcomes) = dump_two_generations(&repl, plan, Duration::from_secs(2));
        assert_eq!(crashed, vec![1, 4]);
        assert_committed_or_rank_failure(&outcomes, &format!("{strategy:?}"));
        let lost = WorldConfig::default()
            .launch(N, |comm| repl.restore(comm, 2).map(|_| ()))
            .expect_all();
        for (rank, r) in lost.results.iter().enumerate() {
            assert!(
                matches!(r, Err(ReplError::Restore(RestoreError::RecipeLost { rank: lost })) if *lost == rank as u32),
                "{strategy:?}: rank {rank}'s generation 2 must be typed RecipeLost, got {r:?}"
            );
        }
        let gen = assert_restart_restores_everywhere(&cluster, &repl, &format!("{strategy:?}"));
        assert_eq!(gen, 1, "{strategy:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{strategy:?}: fault round took {:?} — failure path is hanging",
            t0.elapsed()
        );
    }
}

/// A rank dead before its peers fan out — partner manifests at commit,
/// stripe shards to node leaders at stripe assembly — must not cost the
/// live peers after it in a sender's order their frames: every survivor
/// returns at once, finished or with a rank failure, instead of waiting
/// out its receive timeout for a sender that is alive. The restart's
/// generation restores everywhere.
#[test]
fn survivors_of_a_crash_before_a_fan_out_do_not_wait_out_the_timeout() {
    const TIMEOUT: Duration = Duration::from_secs(2);
    const VICTIM: u32 = 1;
    let cases = [
        ("commit", RedundancyPolicy::Replicate(3)),
        ("stripe_assembly", RedundancyPolicy::Rs { k: 4, m: 2 }),
    ];
    for (phase, policy) in cases {
        let plan = FaultPlan::new(5).crash(VICTIM, FaultTrigger::PhaseStart(phase.into()));
        let cluster = Cluster::new(Placement::one_per_node(N));
        let repl = replicator(Strategy::CollDedup, &cluster, 3, policy);
        let (crashed, outcomes) = dump_two_generations(&repl, plan, TIMEOUT);
        assert_eq!(crashed, vec![VICTIM], "{phase}");
        assert_committed_or_rank_failure(&outcomes, phase);
        for (rank, (_, took)) in outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| Some((r, o.as_ref()?)))
        {
            assert!(
                *took < TIMEOUT / 4,
                "{phase}: survivor {rank} took {took:?}, waiting on a live sender"
            );
        }
        assert_restart_restores_everywhere(&cluster, &repl, phase);
    }
}

/// Promise 4: a non-participating peer is reported as a typed
/// `DeadlockSuspected` carrying rank/tag context, reachable through the
/// `ReplError::source()` chain, after the *injected* per-test receive
/// timeout (300 ms here, not the generous production default).
#[test]
fn nonparticipating_rank_surfaces_as_deadlock_suspected_with_context() {
    use std::error::Error as _;

    let n = 2;
    let t0 = Instant::now();
    let cluster = Cluster::new(Placement::one_per_node(n));
    let repl = replicator(
        Strategy::NoDedup,
        &cluster,
        2,
        RedundancyPolicy::Replicate(2),
    );
    let config = WorldConfig::default().with_recv_timeout(Duration::from_millis(300));
    let out = config
        .launch(n, |comm| {
            if comm.rank() == 1 {
                // Rank 1 never enters the dump: rank 0's first collective can
                // only resolve by timeout. The sleep keeps rank 1's channels
                // alive well past it, so rank 0 sees a suspected deadlock and
                // not a world teardown.
                comm.sleep(Duration::from_millis(1500));
                return None;
            }
            Some(repl.dump(comm, 1, &[7u8; 256]))
        })
        .expect_all();

    let err = out.results[0]
        .as_ref()
        .expect("rank 0 dumped")
        .as_ref()
        .expect_err("dump cannot complete without rank 1");
    match err {
        ReplError::RankFailure(CommError::DeadlockSuspected {
            rank, src, waited, ..
        }) => {
            assert_eq!(*rank, 0);
            assert_eq!(*src, 1);
            assert!(*waited >= Duration::from_millis(300));
        }
        other => panic!("expected typed DeadlockSuspected, got {other:?}"),
    }
    // Human-readable context and an intact source chain.
    let msg = err.to_string();
    assert!(msg.contains("rank"), "display lacks rank context: {msg}");
    let src = err.source().expect("ReplError::RankFailure has a source");
    assert!(
        matches!(
            src.downcast_ref::<CommError>(),
            Some(CommError::DeadlockSuspected { .. })
        ),
        "source chain must end in the CommError"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadlock detection took {:?} — injected timeout not honored",
        t0.elapsed()
    );
}

/// Wherever one rank dies in generation 2's dump — the start or end of any
/// [`DUMP_PHASES`] phase, as the first, a middle or the last rank — every
/// survivor returns at once, finished or with a rank failure, not after
/// its receive timeout, and the generation the restart names restores
/// byte-exactly on every rank. Coll-dedup under Reed-Solomon 4+2 (with
/// `K = 3` for manifests) runs every phase, the stripe assembly included.
#[test]
fn one_death_anywhere_in_a_dump_costs_no_survivor_its_timeout() {
    const TIMEOUT: Duration = Duration::from_secs(10);
    for phase in DUMP_PHASES {
        for at_start in [true, false] {
            for victim in [0, N / 2, N - 1] {
                let trigger = if at_start {
                    FaultTrigger::PhaseStart(phase.into())
                } else {
                    FaultTrigger::PhaseEnd(phase.into())
                };
                let cell = format!("rank {victim} at {trigger}");
                let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
                let hook = Arc::clone(&cluster);
                let plan = FaultPlan::new(6)
                    .crash(victim, trigger)
                    .on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
                let policy = RedundancyPolicy::Rs { k: 4, m: 2 };
                let repl = replicator(Strategy::CollDedup, &cluster, 3, policy);
                let (crashed, outcomes) = dump_two_generations(&repl, plan, TIMEOUT);
                assert_eq!(crashed, vec![victim], "{cell}");
                assert_committed_or_rank_failure(&outcomes, &cell);
                for (rank, o) in outcomes.iter().enumerate() {
                    if let Some((_, took)) = o {
                        assert!(
                            *took < Duration::from_secs(1),
                            "{cell}: survivor {rank} took {took:?}"
                        );
                    }
                }
                assert_restart_restores_everywhere(&cluster, &repl, &cell);
            }
        }
    }
}
