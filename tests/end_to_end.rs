//! End-to-end integration: real apps → checkpoint runtime → collective
//! dump → node failures → restart, across all strategies.

use replidedup::apps::{Cm1, Cm1Config, Hpccg, HpccgConfig};
use replidedup::ckpt::{CheckpointRuntime, TrackedHeap};
use replidedup::core::{DumpConfig, Strategy};
use replidedup::hash::Sha1ChunkHasher;
use replidedup::mpi::WorldConfig;
use replidedup::storage::{Cluster, Placement};

const STRATEGIES: [Strategy; 3] = [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup];

fn hpccg_cfg() -> HpccgConfig {
    HpccgConfig {
        nx: 6,
        ny: 6,
        nz: 6,
        slack_factor: 0.5,
        private_factor: 0.1,
    }
}

#[test]
fn hpccg_checkpoint_failure_restart_converges_for_all_strategies() {
    for strategy in STRATEGIES {
        let cluster = Cluster::new(Placement::one_per_node(6));
        let cfg = DumpConfig::paper_defaults(strategy).with_replication(3);
        let out = WorldConfig::default()
            .launch(6, |comm| {
                let rank = comm.rank();
                let mut app = Hpccg::new(rank, comm.size(), hpccg_cfg());
                let mut heap = TrackedHeap::default();
                let regions = app.alloc_regions(&mut heap);
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);

                app.run(comm, 10);
                app.sync_to_heap(&mut heap, &regions);
                rt.checkpoint(comm, &mut heap).expect("checkpoint");
                let reference_after_20 = {
                    // Keep solving to iteration 20 as the reference trajectory.
                    let mut probe = app.clone();
                    probe.run(comm, 10);
                    probe.state().0.to_vec()
                };

                // Two nodes die (K-1 = 2 tolerated).
                comm.barrier();
                if rank == 0 {
                    for node in [1, 4] {
                        cluster.fail_node(node);
                        cluster.revive_node(node);
                    }
                }
                comm.barrier();

                // Restart from the checkpoint and replay to iteration 20.
                let heap2 = rt.restart(comm).expect("restart");
                let mut replay =
                    Hpccg::load_from_heap(&heap2, &regions, rank, comm.size(), hpccg_cfg());
                assert_eq!(replay.iterations(), 10);
                replay.run(comm, 10);
                let replayed = replay.state().0.to_vec();
                (reference_after_20, replayed)
            })
            .expect_all();
        for (rank, (reference, replayed)) in out.results.iter().enumerate() {
            assert_eq!(
                reference, replayed,
                "{strategy:?} rank {rank}: replay diverged"
            );
        }
    }
}

#[test]
fn cm1_periodic_dumps_and_restart_match_uninterrupted_run() {
    let model = Cm1Config {
        nx: 32,
        ny_per_rank: 8,
        vortex_radius: 4.0,
        ..Default::default()
    };
    let cluster = Cluster::new(Placement::one_per_node(4));
    let cfg = DumpConfig::paper_defaults(Strategy::CollDedup).with_replication(2);
    let out = WorldConfig::default()
        .launch(4, |comm| {
            let rank = comm.rank();
            let mut app = Cm1::new(rank, comm.size(), model);
            let mut heap = TrackedHeap::default();
            let regions = app.alloc_regions(&mut heap);
            let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);

            // Paper cadence: checkpoint every 30 steps of a 70-step run.
            let mut reference = Vec::new();
            for step in 1..=70u64 {
                app.step(comm);
                if step % 30 == 0 {
                    app.sync_to_heap(&mut heap, &regions);
                    rt.checkpoint(comm, &mut heap).expect("checkpoint");
                }
            }
            reference.extend_from_slice(app.theta());

            // Lose a node, restart from checkpoint 2 (step 60), replay 10 steps.
            comm.barrier();
            if rank == 0 {
                cluster.fail_node(2);
                cluster.revive_node(2);
            }
            comm.barrier();
            let heap2 = rt.restart_from(comm, 2).expect("restart");
            let mut replay = Cm1::load_from_heap(&heap2, &regions, rank, comm.size(), model);
            assert_eq!(replay.steps(), 60);
            replay.run(comm, 10);
            (reference, replay.theta().to_vec())
        })
        .expect_all();
    for (rank, (reference, replayed)) in out.results.iter().enumerate() {
        assert_eq!(reference, replayed, "rank {rank}: replay diverged");
    }
}

#[test]
fn multi_generation_checkpoints_restore_any_generation() {
    let cluster = Cluster::new(Placement::one_per_node(4));
    let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
        .with_replication(2)
        .with_chunk_size(256);
    let out = WorldConfig::default()
        .launch(4, |comm| {
            let rank = comm.rank();
            let mut heap = TrackedHeap::new(256);
            let region = heap.alloc(1024);
            let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
            for gen in 1..=3u8 {
                heap.write(region, 0, &vec![gen * 10 + rank as u8; 1024]);
                rt.checkpoint(comm, &mut heap).expect("checkpoint");
            }
            let mut snapshots = Vec::new();
            for gen in 1..=3u64 {
                let h = rt.restart_from(comm, gen).expect("restore generation");
                snapshots.push(h.read(region)[0]);
            }
            (rank, snapshots)
        })
        .expect_all();
    for (rank, snaps) in out.results {
        assert_eq!(
            snaps,
            vec![10 + rank as u8, 20 + rank as u8, 30 + rank as u8]
        );
    }
}

#[test]
fn chunks_have_k_copies_on_distinct_nodes_for_private_data() {
    // Replication invariant on collision-free workloads (all-private
    // chunks): every chunk ends up on exactly K distinct nodes.
    for strategy in [Strategy::LocalDedup, Strategy::CollDedup] {
        for k in [1u32, 2, 3, 4] {
            let n = 6u32;
            let cluster = Cluster::new(Placement::one_per_node(n));
            let repl = replidedup::core::Replicator::builder(strategy)
                .cluster(&cluster)
                .replication(k)
                .chunk_size(128)
                .build()
                .expect("valid config");
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    // 4 private chunks per rank.
                    let buf: Vec<u8> = (0..512u32)
                        .map(|i| {
                            (comm.rank() as u8)
                                .wrapping_mul(31)
                                .wrapping_add((i / 128) as u8)
                        })
                        .collect();
                    repl.dump(comm, 1, &buf).expect("dump")
                })
                .expect_all();
            drop(out);
            for node in 0..n {
                let recipe = cluster.get_recipe(node, node, 1).expect("own manifest");
                let manifest = recipe.manifest().expect("a manifest");
                for fp in &manifest.chunks {
                    assert_eq!(
                        cluster.copies_of(fp),
                        k,
                        "{strategy:?} K={k}: chunk of rank {node} has wrong copy count"
                    );
                }
            }
        }
    }
}

#[test]
fn globally_shared_data_keeps_exactly_k_copies_under_coll_dedup() {
    let n = 8u32;
    let k = 3u32;
    let cluster = Cluster::new(Placement::one_per_node(n));
    let repl = replidedup::core::Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(k)
        .chunk_size(128)
        .build()
        .expect("valid config");
    WorldConfig::default()
        .launch(n, |comm| {
            let buf = vec![0xEE; 128 * 5]; // identical on every rank
            repl.dump(comm, 1, &buf).expect("dump");
        })
        .expect_all();
    use replidedup::hash::ChunkHasher as _;
    let fp = replidedup::hash::Sha1ChunkHasher.fingerprint(&[0xEE; 128]);
    assert_eq!(
        cluster.copies_of(&fp),
        k,
        "natural replicas must be counted toward K"
    );
    // Total storage is K chunks, not N or N*K.
    assert_eq!(cluster.total_unique_bytes(), u64::from(k) * 128);
}

#[test]
fn mixed_chunk_sizes_roundtrip() {
    use replidedup::core::Replicator;
    for chunk_size in [64usize, 100, 4096, 10_000] {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let repl = Replicator::builder(Strategy::CollDedup)
            .cluster(&cluster)
            .replication(2)
            .chunk_size(chunk_size)
            .build()
            .expect("valid config");
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let buf: Vec<u8> = (0..12_345u32)
                    .map(|i| (i as u8) ^ comm.rank() as u8)
                    .collect();
                repl.dump(comm, 1, &buf).expect("dump");
                let restored = repl.restore(comm, 1).expect("restore");
                restored == buf
            })
            .expect_all();
        assert!(out.results.iter().all(|&ok| ok), "chunk size {chunk_size}");
    }
}
