//! Per-rank traffic instrumentation.
//!
//! The paper's evaluation hinges on traffic measurements: Figures 4(b)/5(b)
//! plot the average and maximal amount of data each process sends to its
//! partners, and Figures 4(c)/5(c) the maximal receive size. The runtime
//! therefore byte-accounts every transfer, split by transport class, with
//! relaxed atomics (counters are monotonic and only read after a join or a
//! barrier, so no ordering is required).

use std::sync::atomic::{AtomicU64, Ordering};

/// Transport class of a transfer, for attribution in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Matched point-to-point send/recv.
    PointToPoint,
    /// Traffic generated inside a collective implementation.
    Collective,
    /// One-sided RMA `put`.
    Rma,
}

/// Atomic counters for one rank.
#[derive(Debug, Default)]
pub struct RankCounters {
    p2p_sent: AtomicU64,
    p2p_recv: AtomicU64,
    coll_sent: AtomicU64,
    coll_recv: AtomicU64,
    rma_put: AtomicU64,
    /// Bytes written into this rank's RMA windows by peers.
    rma_recv: AtomicU64,
    msgs_sent: AtomicU64,
}

impl RankCounters {
    pub(crate) fn count_send(&self, transport: Transport, bytes: u64) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        match transport {
            Transport::PointToPoint => self.p2p_sent.fetch_add(bytes, Ordering::Relaxed),
            Transport::Collective => self.coll_sent.fetch_add(bytes, Ordering::Relaxed),
            Transport::Rma => self.rma_put.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    pub(crate) fn count_recv(&self, transport: Transport, bytes: u64) {
        match transport {
            Transport::PointToPoint => self.p2p_recv.fetch_add(bytes, Ordering::Relaxed),
            Transport::Collective => self.coll_recv.fetch_add(bytes, Ordering::Relaxed),
            Transport::Rma => self.rma_recv.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    /// Snapshot into a plain struct.
    pub fn snapshot(&self) -> RankTraffic {
        RankTraffic {
            p2p_sent: self.p2p_sent.load(Ordering::Relaxed),
            p2p_recv: self.p2p_recv.load(Ordering::Relaxed),
            coll_sent: self.coll_sent.load(Ordering::Relaxed),
            coll_recv: self.coll_recv.load(Ordering::Relaxed),
            rma_put: self.rma_put.load(Ordering::Relaxed),
            rma_recv: self.rma_recv.load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
        }
    }
}

/// Immutable traffic snapshot for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Bytes sent over matched point-to-point messages.
    pub p2p_sent: u64,
    /// Bytes received over matched point-to-point messages.
    pub p2p_recv: u64,
    /// Bytes this rank injected inside collectives.
    pub coll_sent: u64,
    /// Bytes this rank received inside collectives.
    pub coll_recv: u64,
    /// Bytes this rank `put` into remote windows.
    pub rma_put: u64,
    /// Bytes peers `put` into this rank's windows.
    pub rma_recv: u64,
    /// Message count (sends + puts).
    pub msgs_sent: u64,
}

impl RankTraffic {
    /// Total bytes leaving this rank.
    pub fn total_sent(&self) -> u64 {
        self.p2p_sent + self.coll_sent + self.rma_put
    }

    /// Total bytes arriving at this rank.
    pub fn total_recv(&self) -> u64 {
        self.p2p_recv + self.coll_recv + self.rma_recv
    }
}

/// World-wide traffic report: one entry per rank.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Per-rank snapshots, indexed by rank.
    pub ranks: Vec<RankTraffic>,
}

impl TrafficReport {
    /// Sum of bytes sent across all ranks.
    pub fn total_sent(&self) -> u64 {
        self.ranks.iter().map(RankTraffic::total_sent).sum()
    }

    /// Sum of bytes received across all ranks.
    pub fn total_recv(&self) -> u64 {
        self.ranks.iter().map(RankTraffic::total_recv).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_transport() {
        let c = RankCounters::default();
        c.count_send(Transport::PointToPoint, 10);
        c.count_send(Transport::Collective, 20);
        c.count_send(Transport::Rma, 30);
        c.count_recv(Transport::PointToPoint, 1);
        c.count_recv(Transport::Rma, 3);
        let s = c.snapshot();
        assert_eq!(s.p2p_sent, 10);
        assert_eq!(s.coll_sent, 20);
        assert_eq!(s.rma_put, 30);
        assert_eq!(s.p2p_recv, 1);
        assert_eq!(s.rma_recv, 3);
        assert_eq!(s.msgs_sent, 3);
        assert_eq!(s.total_sent(), 60);
        assert_eq!(s.total_recv(), 4);
    }

    #[test]
    fn report_aggregates() {
        let report = TrafficReport {
            ranks: vec![
                RankTraffic {
                    p2p_sent: 5,
                    p2p_recv: 2,
                    ..Default::default()
                },
                RankTraffic {
                    p2p_sent: 7,
                    p2p_recv: 10,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(report.total_sent(), 12);
        assert_eq!(report.total_recv(), 12);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = TrafficReport::default();
        assert_eq!(r.total_sent(), 0);
        assert_eq!(r.total_recv(), 0);
    }
}
