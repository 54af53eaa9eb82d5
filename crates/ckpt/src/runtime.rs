//! Checkpoint/restart driver: the glue between an application's
//! [`TrackedHeap`] and the collective dump.
//!
//! Mirrors how the paper uses AC-FTE: "we use the transparent mode to
//! capture all memory pages that were allocated by the application during
//! its runtime and then pass them to the DUMP_OUTPUT primitive when a
//! checkpoint is desired."

use replidedup_core::{ConfigError, DumpConfig, DumpStats, ReplError, Replicator, RestoreError};
use replidedup_hash::ChunkHasher;
use replidedup_mpi::Comm;
use replidedup_storage::{Cluster, DumpId};

use crate::heap::TrackedHeap;

/// When to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSchedule {
    /// Checkpoint every `n` iterations (at iterations n, 2n, ...).
    Every(u64),
    /// Checkpoint exactly at the listed iteration (paper's HPCCG setup:
    /// one checkpoint at iteration 100 of 127).
    AtIteration(u64),
    /// Never checkpoint (the paper's "baseline" rows).
    Never,
}

impl CheckpointSchedule {
    /// Should a checkpoint be taken after iteration `iter` (1-based)?
    pub fn due(&self, iter: u64) -> bool {
        match *self {
            CheckpointSchedule::Every(n) => n > 0 && iter > 0 && iter.is_multiple_of(n),
            CheckpointSchedule::AtIteration(at) => iter == at,
            CheckpointSchedule::Never => false,
        }
    }
}

/// Per-rank checkpoint runtime.
pub struct CheckpointRuntime<'a> {
    cluster: &'a Cluster,
    hasher: &'a (dyn ChunkHasher + Sync),
    config: DumpConfig,
    /// Id of the next checkpoint: past every generation this runtime
    /// dumped or found in storage, so a failed id is never reused.
    next_dump: DumpId,
    /// The most recent checkpoint taken or restarted from.
    latest: Option<DumpId>,
    /// Statistics of every checkpoint taken through this runtime.
    pub history: Vec<DumpStats>,
}

impl<'a> CheckpointRuntime<'a> {
    /// New runtime writing to `cluster` with `config`.
    pub fn new(
        cluster: &'a Cluster,
        hasher: &'a (dyn ChunkHasher + Sync),
        config: DumpConfig,
    ) -> Self {
        Self {
            cluster,
            hasher,
            config,
            next_dump: 1,
            latest: None,
            history: Vec::new(),
        }
    }

    /// The dump configuration in use.
    pub fn config(&self) -> &DumpConfig {
        &self.config
    }

    /// Dump id of the most recent checkpoint this runtime took or
    /// restarted from (None before either).
    pub fn latest_dump_id(&self) -> Option<DumpId> {
        self.latest
    }

    /// The replication session this runtime drives (config is validated
    /// once per call; `new()` stays infallible for API compatibility).
    fn replicator(&self) -> Result<Replicator<'a>, ConfigError> {
        Replicator::builder(self.config.strategy)
            .with_config(self.config)
            .cluster(self.cluster)
            .hasher(self.hasher)
            .build()
    }

    /// Collective: capture the heap and dump it with the configured
    /// strategy. All ranks must call together. A rank that dies (or never
    /// joins) mid-dump surfaces as [`ReplError::RankFailure`]: the
    /// generation stays incomplete, the runtime does not advance to it,
    /// and its id is not reused.
    pub fn checkpoint(
        &mut self,
        comm: &mut Comm,
        heap: &mut TrackedHeap,
    ) -> Result<DumpStats, ReplError> {
        let repl = self.replicator()?;
        let snapshot = heap.snapshot_bytes();
        comm.tracer().enter("ckpt_checkpoint");
        let id = self.next_dump;
        let result = repl.dump(comm, id, &snapshot);
        comm.tracer().exit("ckpt_checkpoint");
        self.next_dump += 1;
        let stats = result?;
        self.latest = Some(id);
        heap.clear_dirty();
        self.history.push(stats.clone());
        Ok(stats)
    }

    /// Collective: restore the heap from checkpoint `dump_id`.
    pub fn restart_from(
        &self,
        comm: &mut Comm,
        dump_id: DumpId,
    ) -> Result<TrackedHeap, RestartError> {
        let repl = self.replicator().map_err(RestartError::Config)?;
        comm.tracer().enter("ckpt_restart");
        let bytes = repl.restore(comm, dump_id);
        comm.tracer().exit("ckpt_restart");
        let bytes = bytes.map_err(|e| match e {
            ReplError::Restore(r) => RestartError::Restore(r),
            other => RestartError::Session(other),
        })?;
        TrackedHeap::restore_bytes(&bytes).map_err(RestartError::Corrupt)
    }

    /// Collective: restore the heap from the newest complete checkpoint
    /// in storage, whatever this runtime remembers, so a fresh process
    /// after a crash finds the last generation every rank committed. The
    /// next checkpoint then takes an id past the newest generation storage
    /// holds any of.
    pub fn restart(&mut self, comm: &mut Comm) -> Result<TrackedHeap, RestartError> {
        let repl = self.replicator().map_err(RestartError::Config)?;
        let found = repl.generations(comm).map_err(RestartError::Session)?;
        let id = found.complete.ok_or(RestartError::NoCheckpoint)?;
        self.next_dump = self.next_dump.max(found.newest.unwrap_or(id) + 1);
        let heap = self.restart_from(comm, id)?;
        self.latest = Some(id);
        Ok(heap)
    }
}

/// Restart failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestartError {
    /// Storage holds no complete generation: no checkpoint was taken, or
    /// none that every rank committed survives.
    NoCheckpoint,
    /// The runtime's dump configuration is invalid.
    Config(replidedup_core::ConfigError),
    /// The collective restore failed.
    Restore(RestoreError),
    /// The session failed outside the restore protocol — a rank died (or
    /// a deadlock was suspected) mid-restore.
    Session(ReplError),
    /// The restored bytes do not parse as a heap snapshot.
    Corrupt(String),
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::NoCheckpoint => write!(f, "no complete checkpoint in storage"),
            RestartError::Config(e) => write!(f, "invalid checkpoint config: {e}"),
            RestartError::Restore(e) => write!(f, "restore failed: {e}"),
            RestartError::Session(e) => write!(f, "{e}"),
            RestartError::Corrupt(msg) => write!(f, "corrupt heap snapshot: {msg}"),
        }
    }
}

impl std::error::Error for RestartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestartError::Config(e) => Some(e),
            RestartError::Restore(e) => Some(e),
            RestartError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RestoreError> for RestartError {
    fn from(e: RestoreError) -> Self {
        RestartError::Restore(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_core::Strategy;
    use replidedup_hash::Sha1ChunkHasher;
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::Placement;
    use std::time::Duration;

    #[test]
    fn schedule_every() {
        let s = CheckpointSchedule::Every(30);
        assert!(!s.due(0));
        assert!(!s.due(29));
        assert!(s.due(30));
        assert!(s.due(60));
        assert!(!s.due(61));
        assert!(!CheckpointSchedule::Every(0).due(5), "Every(0) never fires");
    }

    #[test]
    fn schedule_at_iteration_and_never() {
        let s = CheckpointSchedule::AtIteration(100);
        assert!(s.due(100));
        assert!(!s.due(99));
        assert!(!CheckpointSchedule::Never.due(100));
    }

    #[test]
    fn checkpoint_restart_roundtrip() {
        let cluster = Cluster::new(Placement::one_per_node(4));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(3)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let mut heap = TrackedHeap::new(64);
                let r = heap.alloc(200);
                heap.write(r, 0, &[comm.rank() as u8 + 1; 200]);
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                assert!(rt.latest_dump_id().is_none());
                let stats = rt.checkpoint(comm, &mut heap).unwrap();
                assert_eq!(rt.latest_dump_id(), Some(1));
                assert_eq!(heap.dirty_page_count(), 0, "checkpoint clears dirty bits");
                // Clobber the heap, then restart.
                heap.write(r, 0, &[0xFF; 200]);
                let restored = rt.restart(comm).unwrap();
                (stats.k, restored.read(r).to_vec(), comm.rank())
            })
            .expect_all();
        for (k, data, rank) in out.results {
            assert_eq!(k, 3);
            assert_eq!(data, vec![rank as u8 + 1; 200]);
        }
    }

    #[test]
    fn restart_without_checkpoint_errors() {
        let cluster = Cluster::new(Placement::one_per_node(2));
        let cfg = DumpConfig::paper_defaults(Strategy::LocalDedup).with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                rt.restart(comm).err()
            })
            .expect_all();
        assert!(out
            .results
            .iter()
            .all(|e| *e == Some(RestartError::NoCheckpoint)));
    }

    #[test]
    fn successive_checkpoints_get_fresh_dump_ids() {
        let cluster = Cluster::new(Placement::one_per_node(2));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let mut heap = TrackedHeap::new(64);
                let r = heap.alloc(100);
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                heap.write(r, 0, &[1; 100]);
                rt.checkpoint(comm, &mut heap).unwrap();
                heap.write(r, 0, &[2; 100]);
                rt.checkpoint(comm, &mut heap).unwrap();
                // Restore generation 1, not 2.
                let old = rt.restart_from(comm, 1).unwrap();
                let new = rt.restart(comm).unwrap();
                assert_eq!(rt.history.len(), 2);
                (old.read(r)[0], new.read(r)[0])
            })
            .expect_all();
        assert!(out.results.iter().all(|&(a, b)| a == 1 && b == 2));
    }

    #[test]
    fn restart_after_node_failure() {
        let cluster = Cluster::new(Placement::one_per_node(3));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let mut heap = TrackedHeap::new(64);
                let r = heap.alloc(128);
                heap.write(r, 0, &[comm.rank() as u8 + 10; 128]);
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                rt.checkpoint(comm, &mut heap).unwrap();
                comm.barrier();
                if comm.rank() == 0 {
                    cluster.fail_node(1);
                    cluster.revive_node(1);
                }
                comm.barrier();
                let restored = rt.restart(comm).unwrap();
                (comm.rank(), restored.read(r).to_vec())
            })
            .expect_all();
        for (rank, data) in out.results {
            assert_eq!(data, vec![rank as u8 + 10; 128]);
        }
    }

    /// A checkpoint that loses a rank commits nothing, and a fresh
    /// process restarts from the newest complete checkpoint in storage.
    /// Each cell takes checkpoint 1 cleanly, then crashes one rank in
    /// checkpoint 2 (its process dies; its disk survives):
    /// - rank 3 of 4 entering the exchange (coll-dedup, K = 2), the
    ///   first collective a rank death ends;
    /// - the last rank entering the stripe assembly of a coded
    ///   coll-dedup dump: every rank has committed its replicas, but the
    ///   manifests must wait for the stripes;
    /// - the same rank 200 ms into a coded no-dedup stripe assembly, after
    ///   its peers sent their shards: the leaders store the blob shards
    ///   of the live owners, so storage holds an incomplete generation 2.
    ///
    /// Survivors get a typed rank failure, a fresh runtime in a fresh
    /// world restores checkpoint 1 on every rank, and its next checkpoint
    /// takes an id past every generation storage holds any of.
    #[test]
    fn a_failed_checkpoint_leaves_restart_the_last_complete_one() {
        use replidedup_core::RedundancyPolicy;
        use replidedup_mpi::{FaultPlan, FaultTrigger, RankOutcome};

        let at = |phase: &str| FaultTrigger::PhaseStartNth(phase.into(), 2);
        let rs = RedundancyPolicy::Rs { k: 4, m: 2 };
        let cells = [
            (
                4,
                Strategy::CollDedup,
                2,
                RedundancyPolicy::Replicate(2),
                "exchange",
                0,
            ),
            (6, Strategy::CollDedup, 3, rs, "stripe_assembly", 0),
            (6, Strategy::NoDedup, 3, rs, "stripe_assembly", 200),
        ];
        for (n, strategy, k, policy, phase, stall_ms) in cells {
            let cell = format!("{strategy:?} {policy:?} at start:{phase}");
            let victim = n - 1;
            let cluster = Cluster::new(Placement::one_per_node(n));
            let cfg = DumpConfig::paper_defaults(strategy)
                .with_replication(k)
                .with_chunk_size(64)
                .with_policy(policy);
            let fill = |gen: u8, rank: u32| vec![gen * 50 + rank as u8 + 1; 200];
            let plan = FaultPlan::new(4)
                .delay(victim, at(phase), Duration::from_millis(stall_ms))
                .crash(victim, at(phase));
            let out = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(5))
                .with_faults(plan)
                .launch(n, |comm| {
                    let mut heap = TrackedHeap::new(64);
                    let r = heap.alloc(200);
                    let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                    heap.write(r, 0, &fill(1, comm.rank()));
                    rt.checkpoint(comm, &mut heap).expect("checkpoint 1");
                    heap.write(r, 0, &fill(2, comm.rank()));
                    let second = rt.checkpoint(comm, &mut heap).map(|_| ());
                    (second, rt.latest_dump_id())
                });
            assert_eq!(out.crashed_ranks(), vec![victim], "{cell}");
            for (rank, o) in out.outcomes.iter().enumerate() {
                if let RankOutcome::Completed((second, latest)) = o {
                    assert!(
                        matches!(second, Err(ReplError::RankFailure(_))),
                        "{cell}: survivor {rank} got {second:?}"
                    );
                    assert_eq!(*latest, Some(1), "{cell}: survivor {rank}");
                }
            }
            let stored = cluster.generations();
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    let mut heap = TrackedHeap::new(64);
                    let r = heap.alloc(200);
                    let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                    let restored = rt.restart(comm).map(|h| h.read(r).to_vec());
                    let restarted = rt.latest_dump_id();
                    heap.write(r, 0, &fill(3, comm.rank()));
                    rt.checkpoint(comm, &mut heap).expect("next checkpoint");
                    (restored, restarted, rt.latest_dump_id())
                })
                .expect_all();
            for (rank, (restored, restarted, next)) in (0u32..).zip(out.results) {
                assert_eq!(restored, Ok(fill(1, rank)), "{cell}: rank {rank}");
                assert_eq!(restarted, Some(1), "{cell}: rank {rank}");
                let next = next.unwrap_or_default();
                assert!(
                    stored.iter().all(|&g| g < next),
                    "{cell}: next id {next} reuses one of {stored:?}"
                );
                if stall_ms > 0 {
                    assert!(stored.contains(&2), "{cell}: {stored:?}");
                    assert_eq!(next, 3, "{cell}: rank {rank}");
                }
            }
        }
    }

    /// A rank that skips a checkpoint leaves its peer a typed rank
    /// failure, not a panic.
    #[test]
    fn a_rank_skipping_the_checkpoint_is_a_typed_error() {
        let cluster = Cluster::new(Placement::one_per_node(2));
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
            .with_replication(2)
            .with_chunk_size(64);
        let out = WorldConfig::default()
            .with_recv_timeout(Duration::from_millis(300))
            .launch(2, |comm| {
                if comm.rank() == 1 {
                    return None;
                }
                let mut heap = TrackedHeap::new(64);
                let r = heap.alloc(128);
                heap.write(r, 0, &[7; 128]);
                let mut rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
                Some(rt.checkpoint(comm, &mut heap))
            })
            .expect_all();
        assert!(
            matches!(out.results[0], Some(Err(ReplError::RankFailure(_)))),
            "rank 0 must see the missing peer as a rank failure: {:?}",
            out.results[0]
        );
    }
}
