//! Checkpoint/restart driver: the glue between an application's
//! [`TrackedHeap`](crate::heap::TrackedHeap) and the collective dump.
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
    next_dump: DumpId,
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
            history: Vec::new(),
        }
    }

    /// The dump configuration in use.
    pub fn config(&self) -> &DumpConfig {
        &self.config
    }

    /// Dump id of the most recent checkpoint (None before the first).
    pub fn latest_dump_id(&self) -> Option<DumpId> {
        (self.next_dump > 1).then(|| self.next_dump - 1)
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
    /// joins) mid-dump surfaces as [`ReplError::RankFailure`] when the
    /// dump cannot degrade around it.
    pub fn checkpoint(
        &mut self,
        comm: &mut Comm,
        heap: &mut TrackedHeap,
    ) -> Result<DumpStats, ReplError> {
        let repl = self.replicator()?;
        let snapshot = heap.snapshot_bytes();
        comm.tracer().enter("ckpt_checkpoint");
        let result = repl.dump(comm, self.next_dump, &snapshot);
        comm.tracer().exit("ckpt_checkpoint");
        let stats = result?;
        self.next_dump += 1;
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

    /// Collective: restore the heap from the most recent checkpoint.
    pub fn restart(&self, comm: &mut Comm) -> Result<TrackedHeap, RestartError> {
        let id = self.latest_dump_id().ok_or(RestartError::NoCheckpoint)?;
        self.restart_from(comm, id)
    }
}

/// Restart failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestartError {
    /// No checkpoint has been taken yet.
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
            RestartError::NoCheckpoint => write!(f, "no checkpoint taken yet"),
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
                let rt = CheckpointRuntime::new(&cluster, &Sha1ChunkHasher, cfg);
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
