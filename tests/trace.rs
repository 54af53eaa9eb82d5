//! Integration tests for the phase-level observability layer
//! (`replidedup-trace`) threaded through dump and restore.
//!
//! Three promises from DESIGN.md:
//! 1. A coll-dedup dump is an SPMD program — every rank records the exact
//!    same span sequence, with all seven Algorithm-1 phases in order.
//! 2. Spans nest, stay balanced, and never leak from one dump into the
//!    trace of the next.
//! 3. A dump → node failure → restore round trip records the restore
//!    recovery phases and still reproduces every byte, for each strategy
//!    and K ∈ {2, 3}.

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{Replicator, Strategy};
use replidedup::mpi::{Event, EventKind, RankTrace, WorldConfig};
use replidedup::storage::{Cluster, Placement};

/// The seven phases of the paper's Algorithm 1, in execution order.
const ALG1_PHASES: [&str; 7] = [
    "local_dedup",
    "hmerge_reduce",
    "load_allgather",
    "rank_shuffle",
    "calc_off",
    "exchange",
    "commit",
];

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

/// Replay the span stream: enters and exits must pair up LIFO with
/// matching names, recorded depths must agree with the replay, and no
/// span may remain open at the end.
fn assert_balanced(events: &[Event]) {
    let mut stack: Vec<&str> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Enter => {
                assert_eq!(
                    e.depth as usize,
                    stack.len(),
                    "enter {:?} at wrong depth",
                    e.name
                );
                stack.push(e.name);
            }
            EventKind::Exit => {
                let top = stack
                    .pop()
                    .unwrap_or_else(|| panic!("exit {:?} with no open span", e.name));
                assert_eq!(top, e.name, "exit does not match innermost span");
                assert_eq!(
                    e.depth as usize,
                    stack.len(),
                    "exit {:?} at wrong depth",
                    e.name
                );
            }
            _ => {}
        }
    }
    assert!(
        stack.is_empty(),
        "spans leaked past end of stream: {stack:?}"
    );
}

fn span_sequence(events: &[Event]) -> Vec<(&'static str, bool)> {
    RankTrace {
        rank: 0,
        events: events.to_vec(),
    }
    .span_sequence()
}

#[test]
fn coll_dedup_dump_records_identical_phase_sequence_on_every_rank() {
    let n = 6;
    let cluster = Cluster::new(Placement::one_per_node(n));
    let bufs = buffers(n);
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(3)
        .chunk_size(64)
        .build()
        .expect("valid config");

    let out = WorldConfig::traced()
        .launch(n, |comm| {
            repl.dump(comm, 1, &bufs[comm.rank() as usize])
                .expect("dump");
        })
        .expect_all();
    let trace = out.trace.expect("tracing was enabled");
    assert_eq!(trace.ranks.len(), n as usize);

    let reference = trace.ranks[0].span_sequence();
    assert!(!reference.is_empty());
    for rank in &trace.ranks {
        assert_balanced(&rank.events);
        assert_eq!(
            rank.span_sequence(),
            reference,
            "rank {} diverged from rank 0's phase sequence",
            rank.rank
        );
    }

    // All seven Algorithm-1 phases, in the paper's order, exactly once.
    let top_level: Vec<&str> = reference
        .iter()
        .filter(|(name, is_enter)| *is_enter && ALG1_PHASES.contains(name))
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(top_level, ALG1_PHASES);
}

#[test]
fn spans_nest_and_do_not_leak_across_dumps() {
    let n = 4;
    let cluster = Cluster::new(Placement::one_per_node(n));
    let bufs = buffers(n);
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(2)
        .chunk_size(64)
        .build()
        .expect("valid config");

    WorldConfig::traced()
        .launch(n, |comm| {
            let me = comm.rank() as usize;
            repl.dump(comm, 1, &bufs[me]).expect("first dump");
            // take_trace_events itself panics on an open span; the balance
            // check additionally verifies LIFO pairing and recorded depths.
            let first = comm.take_trace_events();
            assert!(
                !first.is_empty(),
                "tracing was on, first dump recorded nothing"
            );
            assert_balanced(&first);

            repl.dump(comm, 2, &bufs[me]).expect("second dump");
            let second = comm.take_trace_events();
            assert_balanced(&second);

            // Same program, fresh buffer: the second dump's span structure is
            // identical and carries nothing over from the first.
            assert_eq!(span_sequence(&first), span_sequence(&second));
        })
        .expect_all();
}

#[test]
fn traced_restore_after_node_failure_is_byte_exact_and_records_recovery_phases() {
    let n = 5;
    for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
        for k in [2u32, 3] {
            let cluster = Cluster::new(Placement::one_per_node(n));
            let bufs = buffers(n);
            let repl = Replicator::builder(strategy)
                .cluster(&cluster)
                .replication(k)
                .chunk_size(64)
                .build()
                .expect("valid config");

            let out = WorldConfig::traced()
                .launch(n, |comm| {
                    let me = comm.rank() as usize;
                    repl.dump(comm, 1, &bufs[me]).expect("dump");
                    comm.take_trace_events(); // isolate the restore trace
                    comm.barrier();
                    if comm.rank() == 0 {
                        cluster.fail_node(1);
                        cluster.revive_node(1);
                    }
                    comm.barrier();
                    let restored = repl.restore(comm, 1).expect("restore after failure");
                    (restored, comm.take_trace_events())
                })
                .expect_all();

            let expected: &[&str] = match strategy {
                Strategy::NoDedup => &["blob_recovery"],
                _ => &["chunk_recovery", "reassemble"],
            };
            for (rank, (restored, events)) in out.results.iter().enumerate() {
                assert_eq!(
                    restored, &bufs[rank],
                    "{strategy:?} K={k}: rank {rank} restore not byte-exact"
                );
                assert_balanced(events);
                let entered: Vec<&str> = span_sequence(events)
                    .iter()
                    .filter(|(_, is_enter)| *is_enter)
                    .map(|(name, _)| *name)
                    .collect();
                for phase in expected {
                    assert!(
                        entered.contains(phase),
                        "{strategy:?} K={k}: rank {rank} restore trace missing \
                         {phase:?} (saw {entered:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn injected_crash_emits_fault_span_on_dying_rank_and_aggregation_stays_deterministic() {
    use replidedup::mpi::{FaultPlan, FaultTrigger, WorldTrace};
    use std::sync::Arc;
    use std::time::Duration;

    let n = 4;
    let run = || {
        let cluster = Arc::new(Cluster::new(Placement::one_per_node(n)));
        let bufs = buffers(n);
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(64)
            .build()
            .expect("valid config");
        let hook = Arc::clone(&cluster);
        let plan = FaultPlan::new(3)
            .crash(2, FaultTrigger::PhaseStart("exchange".into()))
            .on_crash(move |r| hook.fail_node(hook.node_of(r)));
        let config = WorldConfig::traced()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan);
        config.launch(n, |comm| {
            // Survivors fail the dump; the error value itself is not under
            // test.
            let _ = repl.dump(comm, 1, &bufs[comm.rank() as usize]);
        })
    };

    let a = run();
    assert_eq!(a.crashed_ranks(), vec![2]);
    let trace_a = a.trace.expect("tracing was enabled");
    for rank in &trace_a.ranks {
        assert_balanced(&rank.events);
        let has_fault_span = rank
            .events
            .iter()
            .any(|e| e.name == "fault.injected" && e.kind == EventKind::Enter);
        assert_eq!(
            has_fault_span,
            rank.rank == 2,
            "fault.injected must appear on the dying rank and nowhere else \
             (rank {})",
            rank.rank
        );
    }
    // Structural invariants of the crashed run: phases before the death
    // are SPMD (one span per rank), and exactly one fault span exists
    // world-wide.
    let spans_of = |t: &WorldTrace, name: &str| -> u64 {
        t.aggregate()
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.spans)
    };
    assert_eq!(spans_of(&trace_a, "fault.injected"), 1);
    assert_eq!(spans_of(&trace_a, "local_dedup"), n as u64);
    assert_eq!(spans_of(&trace_a, "hmerge_reduce"), n as u64);

    // World aggregation of a faulted run stays deterministic: a delay
    // fault perturbs timing without changing control flow, so two runs
    // must aggregate to the same phases in the same order with the same
    // span counts (timings of course differ). A *crash* fault does not
    // get this guarantee — where each survivor's pipeline aborts races
    // with message draining.
    let delayed = || {
        let cluster = Cluster::new(Placement::one_per_node(n));
        let bufs = buffers(n);
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(64)
            .build()
            .expect("valid config");
        let plan = FaultPlan::new(3).delay(
            1,
            FaultTrigger::PhaseStart("exchange".into()),
            Duration::from_millis(30),
        );
        let config = WorldConfig::traced()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan);
        let out = config.launch(n, |comm| {
            repl.dump(comm, 1, &bufs[comm.rank() as usize])
                .expect("delayed dump completes");
        });
        assert!(out.crashed_ranks().is_empty());
        out.trace.expect("tracing was enabled")
    };
    let shape = |t: &WorldTrace| -> Vec<(&'static str, u64)> {
        t.aggregate().iter().map(|p| (p.name, p.spans)).collect()
    };
    assert_eq!(
        shape(&delayed()),
        shape(&delayed()),
        "aggregated phase structure diverged between identical delayed runs"
    );
}
