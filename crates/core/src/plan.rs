//! Per-rank chunk planning (the Load computation of Algorithm 1).
//!
//! After the global view is broadcast, every rank decides the fate of each
//! locally unique chunk:
//!
//! * **in the view, me designated** — keep it locally; if fewer than `K`
//!   ranks are designated, the `K - D` missing replicas are split
//!   round-robin over the `D` designated ranks and my share goes to my
//!   first partners;
//! * **in the view, me not designated** — discard: either `K` ranks keep it
//!   already, or the under-replicated designated ranks top it up to `K`
//!   copies themselves — either way `K` copies materialize without me;
//! * **not in the view** — treated as unique ("considering the rest of them
//!   unique even if they are not"): keep it and send to all `K-1` partners.
//!
//! The resulting `Load` vector follows the paper's convention: `Load[0]` is
//! the number of chunks stored locally, `Load[j]` the number sent to
//! partner `j`.

use replidedup_hash::Fingerprint;
use replidedup_mpi::Rank;

use crate::global::GlobalView;
use crate::local::LocalIndex;

/// Outcome of planning one rank's chunks against the global view.
#[derive(Debug, Clone, Default)]
pub struct ChunkPlan {
    /// Fingerprints stored locally (designated + treated-unique), sorted.
    pub keep: Vec<Fingerprint>,
    /// `send_lists[j-1]` = fingerprints sent to partner `j` (1-based).
    pub send_lists: Vec<Vec<Fingerprint>>,
    /// Fingerprints discarded because `K` copies materialize elsewhere.
    pub discarded: Vec<Fingerprint>,
    /// The paper's `Load` vector: `load[0] == keep.len()`,
    /// `load[j] == send_lists[j-1].len()`.
    pub load: Vec<u64>,
}

impl ChunkPlan {
    /// Total chunks this rank sends to all partners.
    pub fn total_send_chunks(&self) -> u64 {
        self.load[1..].iter().sum()
    }
}

/// Build the chunk plan for rank `me`. `k` must already be clamped to the
/// world size.
pub fn plan_chunks(me: Rank, local: &LocalIndex, view: &GlobalView, k: u32) -> ChunkPlan {
    assert!(k >= 1, "replication factor must be at least 1");
    let partners = (k - 1) as usize;
    let mut plan = ChunkPlan {
        keep: Vec::new(),
        send_lists: vec![Vec::new(); partners],
        discarded: Vec::new(),
        load: vec![0; k as usize],
    };
    // Iterate in fingerprint order for reproducible plans.
    let mut fps: Vec<Fingerprint> = local.unique.keys().copied().collect();
    fps.sort_unstable();
    for fp in fps {
        match view.lookup(&fp) {
            Some(entry) => {
                match entry.ranks.binary_search(&me) {
                    Ok(idx) => {
                        plan.keep.push(fp);
                        let d = entry.ranks.len() as u32;
                        if d < k {
                            // Round-robin the K-D missing replicas over the
                            // D designated ranks; my share is every D-th.
                            let missing = k - d;
                            let mine = (0..missing).filter(|i| i % d == idx as u32).count();
                            for j in 0..mine {
                                plan.send_lists[j].push(fp);
                            }
                        }
                    }
                    Err(_) => {
                        // K copies materialize without me (see module docs).
                        plan.discarded.push(fp);
                    }
                }
            }
            None => {
                plan.keep.push(fp);
                for list in &mut plan.send_lists {
                    list.push(fp);
                }
            }
        }
    }
    plan.load[0] = plan.keep.len() as u64;
    for (j, list) in plan.send_lists.iter().enumerate() {
        plan.load[j + 1] = list.len() as u64;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalEntry;
    use replidedup_hash::{FixedChunker, Sha1ChunkHasher};

    fn index_of(buf: &[u8], cs: usize) -> LocalIndex {
        LocalIndex::new(&Sha1ChunkHasher, buf, &FixedChunker::new(cs))
    }

    fn view(entries: &[GlobalEntry]) -> GlobalView {
        GlobalView::from_entries(entries)
    }

    #[test]
    fn unique_chunk_goes_everywhere() {
        let buf = vec![1u8; 8]; // one chunk of 8
        let idx = index_of(&buf, 8);
        let plan = plan_chunks(0, &idx, &GlobalView::default(), 3);
        assert_eq!(plan.load, vec![1, 1, 1]);
        assert_eq!(plan.keep.len(), 1);
        assert_eq!(plan.send_lists[0].len(), 1);
        assert_eq!(plan.send_lists[1].len(), 1);
        assert!(plan.discarded.is_empty());
    }

    #[test]
    fn non_designated_holder_discards() {
        let buf = vec![1u8; 8];
        let idx = index_of(&buf, 8);
        let fp = idx.in_order[0];
        let v = view(&[GlobalEntry {
            fp,
            freq: 5,
            ranks: &[1, 2, 3],
        }]);
        let plan = plan_chunks(0, &idx, &v, 3);
        assert_eq!(plan.load, vec![0, 0, 0]);
        assert_eq!(plan.discarded, vec![fp]);
    }

    #[test]
    fn fully_designated_chunk_is_kept_not_sent() {
        let buf = vec![1u8; 8];
        let idx = index_of(&buf, 8);
        let fp = idx.in_order[0];
        let v = view(&[GlobalEntry {
            fp,
            freq: 3,
            ranks: &[0, 1, 2],
        }]);
        let plan = plan_chunks(0, &idx, &v, 3);
        assert_eq!(plan.load, vec![1, 0, 0]);
    }

    #[test]
    fn round_robin_splits_missing_replicas() {
        // D=2 designated, K=5 → 3 missing replicas; rank 0 (idx 0) takes
        // i=0 and i=2 (2 partners), rank 4 (idx 1) takes i=1 (1 partner).
        let buf = vec![1u8; 8];
        let idx = index_of(&buf, 8);
        let fp = idx.in_order[0];
        let v = view(&[GlobalEntry {
            fp,
            freq: 2,
            ranks: &[0, 4],
        }]);
        let plan0 = plan_chunks(0, &idx, &v, 5);
        assert_eq!(plan0.load, vec![1, 1, 1, 0, 0]);
        let plan4 = plan_chunks(4, &idx, &v, 5);
        assert_eq!(plan4.load, vec![1, 1, 0, 0, 0]);
        // Total new copies = D kept + 3 sent = 5 = K.
        let sent: u64 = plan0.total_send_chunks() + plan4.total_send_chunks();
        assert_eq!(sent, 3);
    }

    #[test]
    fn sole_designated_rank_tops_up_everything() {
        let buf = vec![1u8; 8];
        let idx = index_of(&buf, 8);
        let fp = idx.in_order[0];
        let v = view(&[GlobalEntry {
            fp,
            freq: 1,
            ranks: &[2],
        }]);
        let plan = plan_chunks(2, &idx, &v, 4);
        assert_eq!(
            plan.load,
            vec![1, 1, 1, 1],
            "K-1 replicas all from the sole holder"
        );
    }

    #[test]
    fn k1_plans_store_only() {
        let buf = vec![7u8; 16];
        let idx = index_of(&buf, 8);
        let plan = plan_chunks(0, &idx, &GlobalView::default(), 1);
        assert_eq!(plan.load, vec![1]); // one unique chunk, no partners
        assert!(plan.send_lists.is_empty());
        assert_eq!(plan.total_send_chunks(), 0);
    }

    #[test]
    fn mixed_plan_counts_are_consistent() {
        // Buffer with 4 distinct chunks; two covered by the view.
        let mut buf = Vec::new();
        for i in 0..4u8 {
            buf.extend_from_slice(&[i; 8]);
        }
        let idx = index_of(&buf, 8);
        let f0 = idx.in_order[0];
        let f1 = idx.in_order[1];
        let v = view(&[
            GlobalEntry {
                fp: f0,
                freq: 4,
                ranks: &[0, 1, 2],
            }, // me designated, full
            GlobalEntry {
                fp: f1,
                freq: 4,
                ranks: &[1, 2, 3],
            }, // me not designated
        ]);
        let plan = plan_chunks(0, &idx, &v, 3);
        // keep: f0 + two uncovered; discard: f1; uncovered send to both.
        assert_eq!(plan.load, vec![3, 2, 2]);
        assert_eq!(plan.discarded, vec![f1]);
        assert_eq!(plan.keep.len(), 3);
    }
}
