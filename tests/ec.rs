//! End-to-end chaos suite for the erasure-coding redundancy subsystem
//! (DESIGN.md §15, "Redundancy policies & erasure coding").
//!
//! Four promises under test, all under `Rs(4+2)` on a 6-node cluster —
//! the tightest geometry: every stripe spans all six nodes, so two node
//! losses leave *exactly* `k` shards and restore can only succeed through
//! Reed-Solomon reconstruction (coded payloads have no replicas at all):
//!
//! 1. Losing any `m = 2` nodes after a dump leaves every rank restorable
//!    byte-exactly — for every strategy and for fixed-size and
//!    content-defined chunking.
//! 2. `heal` after the same losses rebuilds the missing shards onto
//!    their home nodes, reports fully healed, and is idempotent: a second
//!    heal mends zero. A scrub afterwards is clean, and the *rebuilt*
//!    shards are real — a subsequent loss of two different nodes still
//!    restores byte-exactly.
//! 3. Losing more than `m` nodes degrades to typed data loss — never a
//!    panic, never a hang — and heal reports the dump unrepairable
//!    (stripes below `k` survivors) without inventing data.
//! 4. The dedup credit is visible end to end: under `coll-dedup` the
//!    cross-rank duplicate chunks stay replicated (no parity), while the
//!    same workload under `no-dedup` stripes every byte.

use replidedup::apps::SyntheticWorkload;
use replidedup::core::{ChunkerKind, GearParams, RedundancyPolicy, Replicator, Strategy};
use replidedup::mpi::WorldConfig;
use replidedup::storage::{Cluster, Placement};

const N: u32 = 6;
const RS: RedundancyPolicy = RedundancyPolicy::Rs { k: 4, m: 2 };

/// Per-rank buffers with cross-rank redundancy (shared, grouped, and
/// rank-private chunks) so the dedup credit has something to credit.
fn buffers(n: u32) -> Vec<Vec<u8>> {
    let workload = SyntheticWorkload {
        chunk_size: 64,
        global_chunks: 4,
        grouped_chunks: 3,
        group_size: 2,
        private_chunks: 3,
        local_dup_chunks: 2,
        local_repeat: 2,
        seed: 42,
    };
    (0..n).map(|r| workload.generate(r)).collect()
}

fn replicator<'a>(
    strategy: Strategy,
    cluster: &'a Cluster,
    chunker: ChunkerKind,
) -> Replicator<'a> {
    Replicator::builder(strategy)
        .cluster(cluster)
        .replication(3)
        .chunk_size(64)
        .with_chunker(chunker)
        .with_policy(RS)
        .build()
        .expect("valid config")
}

/// Small-window Gear parameters so CDC produces multiple chunks from the
/// few-hundred-byte test buffers (the production defaults are KiB-scale).
fn small_gear() -> ChunkerKind {
    ChunkerKind::Gear(GearParams {
        min_size: 32,
        avg_size: 64,
        max_size: 512,
    })
}

/// Dump under `Rs(4+2)`, wipe the given nodes (fail, then revive empty —
/// a disk replacement), and restore in a fresh world. Returns each rank's
/// restore outcome.
fn dump_wipe_restore(
    strategy: Strategy,
    chunker: ChunkerKind,
    wiped: &[u32],
) -> Vec<Result<Vec<u8>, replidedup::core::ReplError>> {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(strategy, &cluster, chunker);
    let out = WorldConfig::default()
        .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]))
        .expect_all();
    for r in out.results {
        r.expect("dump succeeds");
    }
    for &node in wiped {
        cluster.fail_node(node);
        cluster.revive_node(node);
    }
    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, 1).map(Vec::from))
        .expect_all();
    out.results
}

/// Promise 1, exhaustively for the paper strategy: under `coll-dedup` ×
/// fixed chunking, *every* one of the C(6,2) = 15 two-node loss patterns
/// restores every rank byte-exactly from the surviving `k = 4` shards.
#[test]
fn any_two_node_losses_restore_byte_exactly_under_rs() {
    let bufs = buffers(N);
    for a in 0..N {
        for b in (a + 1)..N {
            let restored = dump_wipe_restore(Strategy::CollDedup, ChunkerKind::Fixed, &[a, b]);
            for (rank, r) in restored.iter().enumerate() {
                match r {
                    Ok(bytes) => assert_eq!(
                        bytes, &bufs[rank],
                        "loss {{{a},{b}}}: rank {rank} restored wrong bytes"
                    ),
                    Err(e) => panic!("loss {{{a},{b}}}: rank {rank} failed to restore: {e}"),
                }
            }
        }
    }
}

/// Promise 1 across the matrix: every strategy × {fixed, gear} chunking
/// survives an `m`-node wipe. (`no-dedup` stripes whole blobs; the dedup
/// strategies stripe chunks — both must reconstruct.)
#[test]
fn m_node_wipe_restores_across_strategies_and_chunkers() {
    let bufs = buffers(N);
    for strategy in [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup] {
        for chunker in [ChunkerKind::Fixed, small_gear()] {
            if strategy == Strategy::NoDedup && chunker != ChunkerKind::Fixed {
                continue; // no-dedup never chunks: one cell covers it
            }
            let restored = dump_wipe_restore(strategy, chunker, &[1, 4]);
            for (rank, r) in restored.iter().enumerate() {
                match r {
                    Ok(bytes) => assert_eq!(
                        bytes,
                        &bufs[rank],
                        "{strategy:?}/{}: rank {rank} restored wrong bytes",
                        chunker.label()
                    ),
                    Err(e) => panic!(
                        "{strategy:?}/{}: rank {rank} failed to restore: {e}",
                        chunker.label()
                    ),
                }
            }
        }
    }
}

/// Promise 2: heal rebuilds the wiped shards, reports fully healed, and
/// converges — the second run heals nothing. The rebuilt shards are then
/// load-bearing: wiping two *different* nodes afterwards still restores,
/// which only works if the reconstructed shards hold real data.
#[test]
fn heal_rebuilds_wiped_shards_and_is_idempotent() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(Strategy::CollDedup, &cluster, ChunkerKind::Fixed);
    let out = WorldConfig::default()
        .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]))
        .expect_all();
    for r in out.results {
        r.expect("dump succeeds");
    }
    let parity_before = cluster.total_parity_bytes();
    for node in [0u32, 3] {
        cluster.fail_node(node);
        cluster.revive_node(node);
    }

    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, 1).expect("heal runs"))
        .expect_all();
    let first = &out.results[0];
    assert!(first.shards_rebuilt > 0, "wiped shards must be rebuilt");
    assert!(first.bytes_reconstructed > 0);
    assert!(
        first.is_fully_healed(),
        "two losses under Rs(4+2) are fully repairable: {first:?}"
    );
    assert_eq!(
        cluster.total_parity_bytes(),
        parity_before,
        "heal must restore the exact parity footprint"
    );

    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, 1).expect("heal runs"))
        .expect_all();
    let second = &out.results[0];
    assert_eq!(second.shards_rebuilt, 0, "second heal must be a no-op");
    assert_eq!(second.chunks_healed, 0);
    assert_eq!(second.recipes_rematerialized, 0);
    assert!(second.is_fully_healed());

    let out = WorldConfig::default()
        .launch(N, |comm| repl.scrub(comm).expect("scrub runs"))
        .expect_all();
    let report = &out.results[0];
    assert!(
        report.is_clean(),
        "post-heal scrub must be clean: {report:?}"
    );
    assert!(report.shards_checked > 0, "stripe pass must have run");

    // The rebuilt shards on nodes 0 and 3 are now part of the survivor
    // set for a fresh two-node loss.
    for node in [2u32, 5] {
        cluster.fail_node(node);
        cluster.revive_node(node);
    }
    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, 1).map(Vec::from))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("restore after heal"),
            &bufs[rank],
            "rank {rank}: rebuilt shards did not round-trip"
        );
    }
}

/// Promise 3: more than `m` losses is typed loss, not a panic or a hang.
/// Every rank's private chunks drop below `k` surviving shards, so every
/// restore errors; heal flags the stripes as unrepairable and stays
/// stable across reruns instead of fabricating shards.
#[test]
fn losing_more_than_m_nodes_is_typed_loss_and_unrepairable() {
    let bufs = buffers(N);
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = replicator(Strategy::CollDedup, &cluster, ChunkerKind::Fixed);
    let out = WorldConfig::default()
        .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]))
        .expect_all();
    for r in out.results {
        r.expect("dump succeeds");
    }
    for node in [0u32, 2, 4] {
        cluster.fail_node(node);
        cluster.revive_node(node);
    }

    let out = WorldConfig::default()
        .launch(N, |comm| repl.restore(comm, 1).map(Vec::from))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        assert!(
            r.is_err(),
            "rank {rank}: 3 losses leave 3 < k=4 shards, restore cannot succeed"
        );
    }

    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, 1).expect("heal returns"))
        .expect_all();
    let first = out.results[0].clone();
    assert!(!first.is_fully_healed(), "3 losses must not report healed");
    assert!(
        !first.unrepairable_stripes.is_empty(),
        "stripes below k survivors must be flagged"
    );
    let out = WorldConfig::default()
        .launch(N, |comm| repl.heal(comm, 1).expect("heal returns"))
        .expect_all();
    assert_eq!(
        out.results[0].unrepairable_stripes, first.unrepairable_stripes,
        "unrepairable verdict must be stable across reruns"
    );
    assert_eq!(out.results[0].shards_rebuilt, 0);
}

/// Promise 4: the dedup credit shows up as strictly less parity. The same
/// workload, the same `Rs(4+2)` policy — `coll-dedup` credits the
/// naturally distributed duplicates and stripes only the rest, while
/// `no-dedup` blindly stripes every rank's whole blob.
#[test]
fn dedup_credit_cuts_parity_versus_no_dedup() {
    let bufs = buffers(N);
    let mut parity = Vec::new();
    for strategy in [Strategy::NoDedup, Strategy::CollDedup] {
        let cluster = Cluster::new(Placement::one_per_node(N));
        let repl = replicator(strategy, &cluster, ChunkerKind::Fixed);
        let out = WorldConfig::default()
            .launch(N, |comm| repl.dump(comm, 1, &bufs[comm.rank() as usize]))
            .expect_all();
        for r in out.results {
            r.expect("dump succeeds");
        }
        parity.push(cluster.total_parity_bytes());
    }
    let (no_dedup, coll_dedup) = (parity[0], parity[1]);
    assert!(coll_dedup > 0, "private chunks still need parity");
    assert!(
        coll_dedup < no_dedup,
        "dedup credit must cut parity: coll {coll_dedup} vs none {no_dedup}"
    );
}
