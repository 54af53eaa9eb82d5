//! Per-rank and world-level statistics of one collective dump.
//!
//! These are the raw measurements behind every figure of the paper:
//! unique-content sizes (Fig. 3(a)), reduction overhead (Figs. 3(b)/(c)),
//! per-process replication traffic (Figs. 4(b)/5(b)) and maximal receive
//! sizes (Figs. 4(c)/5(c)). Byte counts are *measured* from the runtime's
//! traffic instrumentation and the storage layer, never estimated.

use replidedup_storage::SessionId;

use crate::config::Strategy;

/// Statistics of the collective fingerprint reduction (coll-dedup only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReductionStats {
    /// Entries in the final global view (≤ F).
    pub view_entries: u64,
    /// Encoded size of the final view in bytes.
    pub view_bytes: u64,
    /// Number of view entries this rank is designated for.
    pub designations: u64,
    /// Bytes this rank injected into the reduction collective.
    pub traffic_bytes: u64,
}

/// Per-rank statistics of one collective dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DumpStats {
    /// Rank these statistics belong to.
    pub rank: u32,
    /// The [`crate::Replicator`] session that drove this dump
    /// ([`SessionId::DEFAULT`] for an unlabeled session).
    pub session: SessionId,
    /// Effective replication factor (clamped to the world size).
    pub k: u32,
    /// Buffer length in bytes.
    pub buffer_bytes: u64,
    /// Number of chunks in the buffer (duplicates included).
    pub chunks_total: u64,
    /// Locally unique chunks (after phase-one dedup; equals `chunks_total`
    /// for `no-dedup`).
    pub chunks_locally_unique: u64,
    /// Bytes of locally unique content.
    pub bytes_locally_unique: u64,
    /// Chunks stored locally from this rank's own data.
    pub chunks_kept: u64,
    /// Chunks discarded because K copies materialize on other ranks.
    pub chunks_discarded: u64,
    /// Locally unique chunks *not* covered by the global view (treated as
    /// unique). Equals `chunks_locally_unique` for the baselines.
    pub chunks_uncovered: u64,
    /// Bytes of uncovered unique content (for the Fig. 3(a) aggregation).
    pub bytes_uncovered: u64,
    /// Chunks sent to each partner (`[j-1]` = partner `j`).
    pub chunks_sent: Vec<u64>,
    /// Chunk records received from partners.
    pub records_received: u64,
    /// Bytes hashed during fingerprinting (0 for `no-dedup`).
    pub bytes_hashed: u64,
    /// Replication payload bytes sent (records, headers included).
    pub bytes_sent_replication: u64,
    /// Replication payload bytes received.
    pub bytes_received_replication: u64,
    /// Bytes physically written to the local device by this rank (own data
    /// plus received replicas; content-address hits write nothing).
    pub bytes_written_local: u64,
    /// Payload bytes memcpy'd between buffers on this rank during the dump
    /// (the allocator copy accounting; 0 on the zero-copy path except for
    /// unavoidable gathers). RMA window writes — the modelled network
    /// transfer — are not counted.
    pub bytes_copied: u64,
    /// Locally unique chunks classified for erasure coding by the
    /// redundancy policy (0 under pure replication).
    pub chunks_coded: u64,
    /// Stripes this rank encoded and fanned out in the stripe-assembly
    /// phase (each coded chunk/blob is striped by exactly one designated
    /// rank, or by every holder when uncovered — shard puts are
    /// idempotent).
    pub stripes_assembled: u64,
    /// Parity bytes this rank generated (`m × shard_len` per assembled
    /// stripe). The dedup-credit metric: naturally duplicated chunks skip
    /// parity generation entirely, so coll-dedup drives this strictly
    /// below the baselines under the same `Rs` policy.
    pub parity_bytes: u64,
    /// Shard payload bytes sent during stripe assembly (data + parity).
    pub bytes_sent_stripes: u64,
    /// Reduction statistics (`Some` only for coll-dedup).
    pub reduction: Option<ReductionStats>,
}

impl DumpStats {
    /// Total chunks sent to all partners.
    pub fn total_chunks_sent(&self) -> u64 {
        self.chunks_sent.iter().sum()
    }
}

/// World-level aggregation of one dump (all ranks, same call).
#[derive(Debug, Clone, Default)]
pub struct WorldDumpStats {
    /// Strategy that produced these statistics.
    pub strategy: Option<Strategy>,
    /// Per-rank statistics, indexed by rank.
    pub ranks: Vec<DumpStats>,
    /// Entries in the global view (0 for baselines).
    pub view_entries: u64,
    /// Chunk size used.
    pub chunk_size: usize,
}

impl WorldDumpStats {
    /// Assemble from per-rank stats (as returned by `WorldConfig::launch`).
    pub fn from_ranks(strategy: Strategy, chunk_size: usize, ranks: Vec<DumpStats>) -> Self {
        let view_entries = ranks
            .first()
            .and_then(|r| r.reduction.as_ref())
            .map_or(0, |r| r.view_entries);
        Self {
            strategy: Some(strategy),
            ranks,
            view_entries,
            chunk_size,
        }
    }

    /// Total dataset size across ranks.
    pub fn total_data_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.buffer_bytes).sum()
    }

    /// The paper's "total size of unique content identified" (Fig. 3(a)):
    /// * `no-dedup` — the full dataset (no duplication identified);
    /// * `local-dedup` — Σ per-rank locally-unique bytes;
    /// * `coll-dedup` — view entries counted once globally, plus each
    ///   rank's uncovered unique bytes.
    ///
    /// View entries are assumed to be full chunks (a tail chunk in the view
    /// overcounts by less than one chunk size — negligible at evaluation
    /// scales and impossible when buffers are page-aligned, as in the
    /// paper's AC-FTE setting).
    pub fn unique_content_bytes(&self) -> u64 {
        match self.strategy {
            Some(Strategy::NoDedup) | None => self.total_data_bytes(),
            Some(Strategy::LocalDedup) => self.ranks.iter().map(|r| r.bytes_locally_unique).sum(),
            Some(Strategy::CollDedup) => {
                self.view_entries * self.chunk_size as u64
                    + self.ranks.iter().map(|r| r.bytes_uncovered).sum::<u64>()
            }
        }
    }

    /// Average replication bytes sent per process (Figs. 4(b)/5(b)).
    pub fn avg_sent_bytes(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks
            .iter()
            .map(|r| r.bytes_sent_replication)
            .sum::<u64>() as f64
            / self.ranks.len() as f64
    }

    /// Maximum replication bytes sent by any process.
    pub fn max_sent_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.bytes_sent_replication)
            .max()
            .unwrap_or(0)
    }

    /// Maximum replication bytes received by any process (Figs. 4(c)/5(c)).
    pub fn max_recv_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.bytes_received_replication)
            .max()
            .unwrap_or(0)
    }

    /// Maximum reduction traffic injected by any rank (Figs. 3(b)/(c) input).
    pub fn max_reduction_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .filter_map(|r| r.reduction.as_ref())
            .map(|r| r.traffic_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Maximum bytes hashed by any rank.
    pub fn max_hashed_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_hashed).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_stats(
        buffer: u64,
        local_unique: u64,
        uncovered: u64,
        sent: u64,
        recv: u64,
    ) -> DumpStats {
        DumpStats {
            buffer_bytes: buffer,
            bytes_locally_unique: local_unique,
            bytes_uncovered: uncovered,
            bytes_sent_replication: sent,
            bytes_received_replication: recv,
            ..Default::default()
        }
    }

    #[test]
    fn unique_content_no_dedup_is_total() {
        let w = WorldDumpStats {
            strategy: Some(Strategy::NoDedup),
            ranks: vec![rank_stats(100, 40, 40, 0, 0), rank_stats(200, 50, 50, 0, 0)],
            view_entries: 0,
            chunk_size: 10,
        };
        assert_eq!(w.unique_content_bytes(), 300);
    }

    #[test]
    fn unique_content_local_dedup_sums_local_unique() {
        let w = WorldDumpStats {
            strategy: Some(Strategy::LocalDedup),
            ranks: vec![rank_stats(100, 40, 40, 0, 0), rank_stats(200, 50, 50, 0, 0)],
            view_entries: 0,
            chunk_size: 10,
        };
        assert_eq!(w.unique_content_bytes(), 90);
    }

    #[test]
    fn unique_content_coll_dedup_counts_view_once() {
        let w = WorldDumpStats {
            strategy: Some(Strategy::CollDedup),
            ranks: vec![rank_stats(100, 40, 10, 0, 0), rank_stats(200, 50, 20, 0, 0)],
            view_entries: 3,
            chunk_size: 10,
        };
        // 3 view chunks × 10 + 10 + 20 uncovered.
        assert_eq!(w.unique_content_bytes(), 60);
    }

    #[test]
    fn traffic_aggregates() {
        let w = WorldDumpStats {
            strategy: Some(Strategy::CollDedup),
            ranks: vec![rank_stats(0, 0, 0, 100, 60), rank_stats(0, 0, 0, 50, 90)],
            view_entries: 0,
            chunk_size: 1,
        };
        assert!((w.avg_sent_bytes() - 75.0).abs() < 1e-9);
        assert_eq!(w.max_sent_bytes(), 100);
        assert_eq!(w.max_recv_bytes(), 90);
    }

    #[test]
    fn from_ranks_lifts_view_entries() {
        let mut r = rank_stats(0, 0, 0, 0, 0);
        r.reduction = Some(ReductionStats {
            view_entries: 7,
            ..Default::default()
        });
        let w = WorldDumpStats::from_ranks(Strategy::CollDedup, 4096, vec![r]);
        assert_eq!(w.view_entries, 7);
        assert_eq!(w.chunk_size, 4096);
    }

    #[test]
    fn empty_world_is_zero() {
        let w = WorldDumpStats::default();
        assert_eq!(w.avg_sent_bytes(), 0.0);
        assert_eq!(w.max_sent_bytes(), 0);
        assert_eq!(w.unique_content_bytes(), 0);
    }
}
