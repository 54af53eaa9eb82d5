//! Hashing, fingerprinting and chunking substrate for `replidedup`.
//!
//! The IPDPS'15 collective deduplication scheme identifies naturally
//! distributed duplicates by splitting each rank's dataset into small
//! fixed-size chunks and representing every chunk by a cryptographic
//! fingerprint. This crate provides everything below that line:
//!
//! * [`Sha1`] — RFC 3174 SHA-1, the hash the paper uses (via OpenSSL in the
//!   original prototype), with three kernels picked at run time: a 16-lane
//!   AVX-512 kernel for batches ([`Sha1::digest_many`], 2.7–3.2 GiB/s on
//!   4 KiB pages on a 2-vCPU Xeon), a SHA-NI kernel for one message on
//!   x86-64 CPUs with the SHA extensions (1.2–1.5 GiB/s on the same host)
//!   and a portable scalar kernel everywhere else (~300 MiB/s); all give
//!   identical digests,
//! * [`Fingerprint`] — a 160-bit chunk identity with cheap `HashMap` keying,
//! * [`ChunkHasher`] — the pluggable hash-function trait the paper calls for
//!   ("our approach fully supports other hash functions"), with the SHA-1
//!   backend [`Sha1ChunkHasher`], whose batch method
//!   [`ChunkHasher::fingerprint_all`] runs the 16-lane kernel,
//! * [`chunk`] — fixed-size chunking (chunk == memory page in the paper) and
//!   gear-hash content-defined chunking ([`gear`], the related-work
//!   alternative, provided as an extension),
//! * [`fingerprint_ranges`] — fingerprints every chunk a [`Chunker`] cut.

// Hashing runs on every byte a dump fingerprints: no unwrap/expect
// outside tests (`clippy.toml` lets test code unwrap/expect), and
// `unsafe` only in the SHA-NI and AVX-512 kernels, allowed per module,
// where every block carries a `SAFETY` comment.
#![deny(
    unsafe_code,
    unsafe_op_in_unsafe_fn,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::undocumented_unsafe_blocks
)]

pub mod chunk;
pub mod fingerprint;
pub mod gear;
pub mod sha1;

pub use chunk::{chunk_ranges, ChunkRange, Chunker, ChunkerKind, FixedChunker, ResolvedChunker};
pub use fingerprint::{Fingerprint, FpBuildHasher, FpHashMap, FpHashSet};
pub use gear::{GearChunker, GearParams};
pub use sha1::Sha1;

/// A pluggable chunk hash function producing a [`Fingerprint`].
///
/// The paper uses SHA-1 ("a crypto-grade hash function specifically designed
/// to minimize the chance of collisions") but explicitly supports other
/// hash functions; a session picks one with `ReplicatorBuilder::hasher`.
pub trait ChunkHasher: Send + Sync {
    /// Human-readable algorithm name (used in experiment logs).
    fn name(&self) -> &'static str;
    /// Fingerprint a single chunk.
    fn fingerprint(&self, chunk: &[u8]) -> Fingerprint;

    /// Fingerprint every chunk of `chunks`, in order. Each equals
    /// [`ChunkHasher::fingerprint`] of its chunk; the default calls it once
    /// per chunk, and a hasher with a batch kernel overrides it.
    fn fingerprint_all(&self, chunks: &[&[u8]]) -> Vec<Fingerprint> {
        chunks.iter().map(|c| self.fingerprint(c)).collect()
    }
}

/// SHA-1 backed [`ChunkHasher`] — the paper's default.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sha1ChunkHasher;

impl ChunkHasher for Sha1ChunkHasher {
    fn name(&self) -> &'static str {
        "sha1"
    }

    fn fingerprint(&self, chunk: &[u8]) -> Fingerprint {
        Fingerprint::from_bytes(Sha1::digest(chunk))
    }

    /// Sixteen chunks at a time where the CPU allows ([`Sha1::digest_many`]).
    fn fingerprint_all(&self, chunks: &[&[u8]]) -> Vec<Fingerprint> {
        Sha1::digest_many(chunks)
            .into_iter()
            .map(Fingerprint::from_bytes)
            .collect()
    }
}

/// Fingerprint each of `ranges` (as produced by a [`Chunker`]) over `buf`
/// on this thread, in one [`ChunkHasher::fingerprint_all`] batch.
pub fn fingerprint_ranges(
    hasher: &dyn ChunkHasher,
    buf: &[u8],
    ranges: &[ChunkRange],
) -> Vec<Fingerprint> {
    let chunks: Vec<&[u8]> = ranges.iter().map(|r| r.slice(buf)).collect();
    hasher.fingerprint_all(&chunks)
}

/// Fingerprint each of `ranges` over `buf` across all cores.
///
/// Shards the *range list* (not the byte buffer) into contiguous runs,
/// one scoped worker per run, so variable-length chunks never straddle a
/// shard. Bit-identical to [`fingerprint_ranges`].
#[allow(
    clippy::disallowed_methods,
    reason = "removed with `LocalIndex::build` (ROADMAP item 14(b))"
)]
pub fn fingerprint_ranges_parallel(
    hasher: &(dyn ChunkHasher + Sync),
    buf: &[u8],
    ranges: &[ChunkRange],
) -> Vec<Fingerprint> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(ranges.len());
    if workers <= 1 {
        return fingerprint_ranges(hasher, buf, ranges);
    }
    let per_worker = ranges.len().div_ceil(workers);
    let mut out = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .chunks(per_worker)
            .map(|shard| scope.spawn(move || fingerprint_ranges(hasher, buf, shard)))
            .collect();
        for h in handles {
            out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha1_chunk_hasher_matches_raw_sha1() {
        let h = Sha1ChunkHasher;
        let fp = h.fingerprint(b"abc");
        assert_eq!(fp.as_bytes(), &Sha1::digest(b"abc"));
        assert_eq!(h.name(), "sha1");
    }

    #[test]
    fn fingerprint_buffer_handles_tail_chunk() {
        let buf = vec![7u8; 10];
        let fps = fingerprint_ranges(&Sha1ChunkHasher, &buf, &chunk_ranges(buf.len(), 4));
        assert_eq!(fps.len(), 3);
        assert_eq!(fps[0], fps[1], "identical full chunks share fingerprints");
        assert_ne!(fps[0], fps[2], "short tail chunk hashes differently");
    }

    #[test]
    fn fingerprint_ranges_matches_fixed_buffer_path() {
        let buf = vec![7u8; 10];
        let fps = fingerprint_ranges(&Sha1ChunkHasher, &buf, &chunk_ranges(buf.len(), 4));
        let by_stride: Vec<_> = buf
            .chunks(4)
            .map(|c| Sha1ChunkHasher.fingerprint(c))
            .collect();
        assert_eq!(fps, by_stride);
    }

    #[test]
    fn fingerprint_ranges_parallel_matches_sequential_on_variable_chunks() {
        let buf: Vec<u8> = (0..120_000u32).map(|i| (i % 251) as u8).collect();
        let ranges = GearChunker::new(GearParams {
            min_size: 64,
            avg_size: 256,
            max_size: 2048,
        })
        .chunks(&buf);
        assert!(ranges.len() > 8, "want enough chunks to shard");
        let seq = fingerprint_ranges(&Sha1ChunkHasher, &buf, &ranges);
        let par = fingerprint_ranges_parallel(&Sha1ChunkHasher, &buf, &ranges);
        assert_eq!(seq, par);
    }

    #[test]
    fn fingerprint_ranges_empty() {
        assert!(fingerprint_ranges(&Sha1ChunkHasher, &[], &[]).is_empty());
    }
}
