//! Seeded chaos suite for the deterministic fault-injection harness
//! (DESIGN.md §10, "Fault model").
//!
//! Four promises under test:
//! 1. Crashing at most K−1 ranks mid-dump never loses a survivor's data:
//!    after a restart (fresh world, dead nodes revived empty), every
//!    surviving rank restores its buffer byte-exactly — for every strategy
//!    and K ∈ {2, 3}, with crash points drawn from a seeded schedule over
//!    the dump's phase boundaries.
//! 2. The same seed replays the same schedule: the crashed-rank set and
//!    every restored byte are identical across runs.
//! 3. Losing more than K−1 ranks degrades to a *typed* data-loss error
//!    (`RestoreError::AbsentAtDump`) — never a panic, never a hang.
//! 4. A rank that stops participating surfaces as
//!    `CommError::DeadlockSuspected` with rank/tag context through
//!    `ReplError::source()`, bounded by the injected receive timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{ReplError, Replicator, RestoreError, Strategy, DUMP_PHASES};
use replidedup::mpi::{CommError, FaultPlan, FaultTrigger, RankOutcome, WorldConfig};
use replidedup::storage::{Cluster, Placement};

const N: u32 = 6;

/// Per-rank buffers with cross-rank redundancy so every strategy has real
/// dedup work to do (same workload shape as tests/trace.rs).
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

/// One full chaos round: a faulted dump (crashing ranks take their node's
/// storage down with them), then a restart — dead nodes revived empty — and
/// a fresh-world restore. Returns the crashed-rank set and each rank's
/// restore outcome. Panics if a *surviving* rank's dump errors: survivors
/// must always degrade to a local commit, not fail.
fn run_chaos(
    strategy: Strategy,
    k: u32,
    plan: FaultPlan,
) -> (Vec<u32>, Vec<Result<Vec<u8>, ReplError>>) {
    let bufs = buffers(N);
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let hook = Arc::clone(&cluster);
    let plan = plan.on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
    let config = WorldConfig::default()
        .with_recv_timeout(Duration::from_secs(2))
        .with_faults(plan);
    let repl = replicator(strategy, &cluster, k);

    let out = config.launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]));
    let crashed = out.crashed_ranks();
    for (rank, o) in out.outcomes.iter().enumerate() {
        if let RankOutcome::Completed(Err(e)) = o {
            panic!("surviving rank {rank} failed its dump instead of degrading: {e}");
        }
    }

    // Restart: replacement hardware comes up empty.
    for node in 0..N {
        if !cluster.is_alive(node) {
            cluster.revive_node(node);
        }
    }
    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, 1).map(Vec::from))
        .expect_all();
    (crashed, out.results)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Promise 1: for every strategy × K ∈ {2, 3}, a seeded schedule of at
    /// most K−1 mid-dump crashes leaves every survivor restorable
    /// byte-exactly. (A planned crash whose phase is never reached — e.g.
    /// preempted by an earlier victim's death — simply does not fire;
    /// `crashed` is the set that actually died.)
    #[test]
    fn seeded_crashes_of_at_most_k_minus_1_never_lose_survivor_data(seed in any::<u64>()) {
        for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
            for k in [2u32, 3] {
                let plan = FaultPlan::seeded(seed, N, k - 1, &DUMP_PHASES);
                let bufs = buffers(N);
                let (crashed, restored) = run_chaos(strategy, k, plan);
                prop_assert!(
                    crashed.len() <= (k - 1) as usize,
                    "{crashed:?} crashed under a {}-crash plan", k - 1
                );
                for (rank, r) in restored.iter().enumerate() {
                    if crashed.contains(&(rank as u32)) {
                        // A dead rank's restore may succeed (it crashed
                        // after committing) or report typed loss; either
                        // way it returned instead of hanging.
                        continue;
                    }
                    match r {
                        Ok(bytes) => prop_assert!(
                            bytes == &bufs[rank],
                            "{strategy:?} K={k} seed={seed}: rank {rank} restored wrong bytes"
                        ),
                        Err(e) => prop_assert!(
                            false,
                            "{strategy:?} K={k} seed={seed}: surviving rank {rank} lost data: {e}"
                        ),
                    }
                }
            }
        }
    }
}

/// Promise 2: the schedule is deterministic. The same seed always derives
/// the same fault plan, and for a single-crash plan the victim's trigger
/// phase is always reached, so two runs crash the same rank and restore
/// the same bytes. (With several planned crashes only the *plan* is exactly
/// replayable: an earlier victim's death can preempt a later victim before
/// its trigger phase, downgrading it to a degraded survivor — and per-rank
/// `DumpStats` race on which collective first observes a death.)
#[test]
fn same_seed_replays_the_same_crash_schedule_and_bytes() {
    let seed = 0xD15EA5E;

    // Plan derivation itself is a pure function of the seed.
    assert_eq!(
        FaultPlan::seeded(seed, N, 2, &DUMP_PHASES).faults,
        FaultPlan::seeded(seed, N, 2, &DUMP_PHASES).faults,
        "seeded plan derivation must be deterministic"
    );

    let (crashed_a, restored_a) = run_chaos(
        Strategy::CollDedup,
        3,
        FaultPlan::seeded(seed, N, 1, &DUMP_PHASES),
    );
    let (crashed_b, restored_b) = run_chaos(
        Strategy::CollDedup,
        3,
        FaultPlan::seeded(seed, N, 1, &DUMP_PHASES),
    );
    assert_eq!(crashed_a, crashed_b, "same seed must crash the same rank");
    assert!(!crashed_a.is_empty(), "seeded plan must fire at least once");
    for rank in 0..N as usize {
        let (a, b) = (&restored_a[rank], &restored_b[rank]);
        assert_eq!(
            a.is_ok(),
            b.is_ok(),
            "rank {rank}: restore outcome diverged between replays"
        );
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b, "rank {rank}: restored bytes diverged between replays");
        }
    }
}

/// Promise 3: more than K−1 failures is typed data loss, not a panic or a
/// hang. Both victims die before writing anything, so after the restart
/// their restores report `AbsentAtDump` while every survivor still gets
/// its bytes back — and the whole round resolves in seconds.
#[test]
fn losing_more_than_k_minus_1_ranks_is_typed_data_loss_not_a_hang() {
    for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
        let t0 = Instant::now();
        let k = 2;
        let plan = FaultPlan::new(11)
            .crash(1, FaultTrigger::PhaseStart("local_dedup".into()))
            .crash(4, FaultTrigger::PhaseStart("local_dedup".into()));
        let bufs = buffers(N);
        let (crashed, restored) = run_chaos(strategy, k, plan);
        assert_eq!(crashed, vec![1, 4]);
        for (rank, r) in restored.iter().enumerate() {
            if crashed.contains(&(rank as u32)) {
                match r {
                    Err(ReplError::Restore(RestoreError::AbsentAtDump {
                        rank: lost,
                        dump_id,
                    })) => {
                        assert_eq!(*lost, rank as u32);
                        assert_eq!(*dump_id, 1);
                    }
                    other => panic!(
                        "{strategy:?}: dead rank {rank} expected typed AbsentAtDump, got {other:?}"
                    ),
                }
            } else {
                assert_eq!(
                    r.as_ref().expect("survivor restores"),
                    &bufs[rank],
                    "{strategy:?}: surviving rank {rank} restored wrong bytes"
                );
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{strategy:?}: fault round took {:?} — failure path is hanging",
            t0.elapsed()
        );
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
    let repl = replicator(Strategy::NoDedup, &cluster, 2);
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
