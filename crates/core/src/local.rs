//! Phase one of the two-phase deduplication strategy: local dedup.
//!
//! "In the first phase, each process identifies the duplicate chunks of its
//! own dataset and keeps only one copy, which results in a set of locally
//! unique fingerprints." (Section III-B)
//!
//! The [`LocalIndex`] also remembers, for every locally unique fingerprint,
//! the first chunk index where it occurs, so the exchange phase can slice
//! the chunk bytes back out of the caller's buffer without copying the
//! dataset.

use replidedup_hash::{
    fingerprint_ranges, fingerprint_ranges_parallel, ChunkHasher, ChunkRange, Chunker, Fingerprint,
    FpHashMap,
};

/// Result of locally deduplicating one rank's buffer.
///
/// Chunk geometry is carried as explicit per-chunk byte ranges rather than
/// a fixed stride, so content-defined chunkers (variable-length chunks)
/// flow through the same index as the paper's fixed-size pages.
#[derive(Debug, Clone)]
pub struct LocalIndex {
    /// Fingerprint of every chunk, in buffer order (the manifest recipe).
    pub in_order: Vec<Fingerprint>,
    /// Byte range of every chunk, parallel to `in_order`.
    pub ranges: Vec<ChunkRange>,
    /// Locally unique fingerprints mapped to the first chunk index holding
    /// their bytes and the number of local occurrences.
    pub unique: FpHashMap<LocalChunk>,
    /// Total buffer length in bytes.
    pub total_len: usize,
}

/// Per-unique-fingerprint bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalChunk {
    /// First chunk index (into the buffer) holding these bytes.
    pub first_index: u32,
    /// How many chunks of this buffer carry this fingerprint.
    pub occurrences: u32,
}

impl LocalIndex {
    /// Chunk `buf` with `chunker`, fingerprint every chunk, and
    /// deduplicate locally.
    pub fn new(hasher: &(dyn ChunkHasher + Sync), buf: &[u8], chunker: &dyn Chunker) -> Self {
        Self::build(hasher, buf, chunker, false)
    }

    /// [`LocalIndex::new`], hashing across all cores when `parallel` is
    /// set. Kept only because the benchmark's `benchmark/src/sut.rs` still
    /// calls it; it is folded into [`LocalIndex::new`] once the
    /// benchmark-only change of ROADMAP item 14(a) moves that call there.
    /// Nothing outside this file may call it (`tests/source_gates.rs`).
    pub fn build(
        hasher: &(dyn ChunkHasher + Sync),
        buf: &[u8],
        chunker: &dyn Chunker,
        parallel: bool,
    ) -> Self {
        let ranges = chunker.chunks(buf);
        let in_order = if parallel {
            fingerprint_ranges_parallel(hasher, buf, &ranges)
        } else {
            fingerprint_ranges(hasher, buf, &ranges)
        };
        let mut unique: FpHashMap<LocalChunk> = FpHashMap::default();
        unique.reserve(in_order.len());
        for (idx, fp) in in_order.iter().enumerate() {
            unique
                .entry(*fp)
                .and_modify(|c| c.occurrences += 1)
                .or_insert(LocalChunk {
                    first_index: idx as u32,
                    occurrences: 1,
                });
        }
        Self {
            in_order,
            ranges,
            unique,
            total_len: buf.len(),
        }
    }

    /// Number of chunks in the buffer (duplicates included).
    pub fn chunk_count(&self) -> usize {
        self.in_order.len()
    }

    /// Number of locally unique chunks.
    pub fn unique_count(&self) -> usize {
        self.unique.len()
    }

    /// Byte range of chunk `index` within the original buffer.
    pub fn chunk_range(&self, index: u32) -> std::ops::Range<usize> {
        let r = self.ranges[index as usize];
        r.start..r.end
    }

    /// Per-chunk byte lengths in buffer order (the manifest's geometry).
    pub fn chunk_lens(&self) -> Vec<u32> {
        self.ranges.iter().map(|r| r.len() as u32).collect()
    }

    /// Borrow the bytes of the canonical (first) occurrence of `fp`.
    /// Returns `None` when the fingerprint is not local.
    pub fn chunk_bytes<'a>(&self, buf: &'a [u8], fp: &Fingerprint) -> Option<&'a [u8]> {
        let c = self.unique.get(fp)?;
        Some(&buf[self.chunk_range(c.first_index)])
    }

    /// Total bytes of locally unique content (Figure 3(a)'s `local-dedup`
    /// series sums this over ranks). Tail chunks count their true length.
    pub fn unique_bytes(&self, buf_len: usize) -> u64 {
        debug_assert_eq!(buf_len, self.total_len);
        self.unique
            .values()
            .map(|c| self.chunk_range(c.first_index).len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_hash::{FixedChunker, GearChunker, GearParams, Sha1ChunkHasher};

    fn build(buf: &[u8], cs: usize) -> LocalIndex {
        LocalIndex::new(&Sha1ChunkHasher, buf, &FixedChunker::new(cs))
    }

    #[test]
    fn all_identical_chunks_dedup_to_one() {
        let buf = vec![9u8; 32 * 1024];
        let idx = build(&buf, 4096);
        assert_eq!(idx.chunk_count(), 8);
        assert_eq!(idx.unique_count(), 1);
        let c = idx.unique.values().next().unwrap();
        assert_eq!(c.first_index, 0);
        assert_eq!(c.occurrences, 8);
        assert_eq!(idx.unique_bytes(buf.len()), 4096);
    }

    #[test]
    fn all_distinct_chunks_stay_distinct() {
        let mut buf = vec![0u8; 4 * 16];
        for (i, chunk) in buf.chunks_mut(16).enumerate() {
            chunk[0] = i as u8;
        }
        let idx = build(&buf, 16);
        assert_eq!(idx.unique_count(), 4);
        assert_eq!(idx.unique_bytes(buf.len()), 64);
    }

    #[test]
    fn first_occurrence_is_recorded() {
        // Layout: A B A B A — uniques are A(idx 0, ×3) and B(idx 1, ×2).
        let mut buf = Vec::new();
        for i in 0..5 {
            buf.extend_from_slice(&[if i % 2 == 0 { 1u8 } else { 2 }; 8]);
        }
        let idx = build(&buf, 8);
        assert_eq!(idx.unique_count(), 2);
        let a = idx.unique[&idx.in_order[0]];
        let b = idx.unique[&idx.in_order[1]];
        assert_eq!((a.first_index, a.occurrences), (0, 3));
        assert_eq!((b.first_index, b.occurrences), (1, 2));
    }

    #[test]
    fn chunk_bytes_returns_canonical_slice() {
        let mut buf = vec![5u8; 16];
        buf.extend_from_slice(&[7u8; 16]);
        let idx = build(&buf, 16);
        let fp_b = idx.in_order[1];
        assert_eq!(idx.chunk_bytes(&buf, &fp_b).unwrap(), &[7u8; 16]);
        assert!(idx
            .chunk_bytes(&buf, &replidedup_hash::Fingerprint::ZERO)
            .is_none());
    }

    #[test]
    fn tail_chunk_counts_true_length() {
        let buf = vec![3u8; 20]; // chunks of 16: one full, one 4-byte tail
        let idx = build(&buf, 16);
        assert_eq!(idx.chunk_count(), 2);
        assert_eq!(
            idx.unique_count(),
            2,
            "tail content differs in length, so in hash"
        );
        assert_eq!(idx.unique_bytes(20), 20);
        assert_eq!(idx.chunk_range(1), 16..20);
    }

    #[test]
    fn empty_buffer() {
        let idx = build(&[], 4096);
        assert_eq!(idx.chunk_count(), 0);
        assert_eq!(idx.unique_count(), 0);
        assert_eq!(idx.unique_bytes(0), 0);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let buf: Vec<u8> = (0..64 * 1024u32).map(|i| (i / 4096) as u8 % 4).collect();
        let fixed = FixedChunker::new(4096);
        let seq = LocalIndex::new(&Sha1ChunkHasher, &buf, &fixed);
        let par = LocalIndex::build(&Sha1ChunkHasher, &buf, &fixed, true);
        assert_eq!(seq.in_order, par.in_order);
        assert_eq!(seq.unique_count(), par.unique_count());
    }

    #[test]
    fn variable_length_chunks_index_by_range() {
        // A gear-chunked buffer with a repeated region: the index must
        // track true per-chunk geometry, and `unique_bytes` must sum the
        // variable lengths, not a stride.
        let mut buf: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        let len = buf.len();
        buf.extend_from_within(..len); // exact duplicate half
        let chunker = GearChunker::new(GearParams {
            min_size: 128,
            avg_size: 512,
            max_size: 4096,
        });
        let idx = LocalIndex::new(&Sha1ChunkHasher, &buf, &chunker);
        assert_eq!(idx.ranges.len(), idx.in_order.len());
        assert_eq!(idx.chunk_lens().len(), idx.chunk_count());
        let summed: u64 = idx.chunk_lens().iter().map(|&l| l as u64).sum();
        assert_eq!(summed, buf.len() as u64, "ranges tile the buffer");
        assert!(
            idx.unique_count() < idx.chunk_count(),
            "duplicate half must dedup"
        );
        assert!(idx.unique_bytes(buf.len()) < buf.len() as u64);
        for i in 0..idx.chunk_count() as u32 {
            let r = idx.chunk_range(i);
            assert_eq!(r.len(), idx.chunk_lens()[i as usize] as usize);
        }
    }
}
