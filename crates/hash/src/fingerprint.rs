//! Chunk fingerprints and fingerprint-keyed collections.
//!
//! A [`Fingerprint`] "uniquely" represents a chunk (the paper abuses the
//! term: collisions are theoretically possible but negligible). Because
//! fingerprints are already uniformly distributed hash output, keying a
//! `HashMap` by them does not need a second quality hash — [`FpBuildHasher`]
//! just lifts the first eight digest bytes into the table hash, which the
//! perf guide for this domain calls the `nohash` pattern.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A 160-bit chunk identity (SHA-1-sized; other [`crate::ChunkHasher`]s
/// widen to the same size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint([u8; 20]);

impl Fingerprint {
    /// Width of a fingerprint in bytes (used by the wire codec and the
    /// traffic model: the reduction exchanges `F * (SIZE + metadata)` bytes
    /// per merge step).
    pub const SIZE: usize = 20;

    /// Wrap a raw digest.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Self(bytes)
    }

    /// Borrow the raw digest.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// First eight digest bytes as a little-endian integer; used as the
    /// table hash and for cheap deterministic tie-breaking.
    pub fn prefix64(&self) -> u64 {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }

    /// A fingerprint that is all zeros — handy sentinel for tests.
    pub const ZERO: Fingerprint = Fingerprint([0; 20]);

    /// Deterministically derive a fingerprint from an integer. Test helper:
    /// *not* a hash of the integer's chunk content.
    pub fn synthetic(n: u64) -> Self {
        let mut b = [0u8; 20];
        b[..8].copy_from_slice(&n.to_le_bytes());
        b[8..16].copy_from_slice(&n.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        Self(b)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({self})")
    }
}

impl fmt::Display for Fingerprint {
    /// Short hex form (first 8 bytes) — full digests make logs unreadable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Identity hasher for fingerprint keys: the digest is already uniform.
#[derive(Default)]
pub struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Called once per key with the 20 digest bytes; fold in the first 8.
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        self.0 ^= u64::from_le_bytes(prefix);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
    }
}

/// `BuildHasher` for fingerprint-keyed maps.
pub type FpBuildHasher = BuildHasherDefault<FpHasher>;

/// `HashMap` keyed by [`Fingerprint`] with the identity hasher.
pub type FpHashMap<V> = std::collections::HashMap<Fingerprint, V, FpBuildHasher>;

/// `HashSet` of [`Fingerprint`]s with the identity hasher.
pub type FpHashSet = std::collections::HashSet<Fingerprint, FpBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix64_reads_first_bytes() {
        let mut b = [0u8; 20];
        b[..8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(Fingerprint::from_bytes(b).prefix64(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn display_is_short_hex() {
        let fp = Fingerprint::synthetic(0x01);
        let s = format!("{fp}");
        assert_eq!(s.len(), 16);
        assert!(s.starts_with("01"));
    }

    #[test]
    fn synthetic_is_injective_on_small_range() {
        let mut set = FpHashSet::default();
        for n in 0..10_000u64 {
            assert!(set.insert(Fingerprint::synthetic(n)));
        }
    }

    #[test]
    fn fp_map_basic_ops() {
        let mut m: FpHashMap<u32> = FpHashMap::default();
        let a = Fingerprint::synthetic(1);
        let b = Fingerprint::synthetic(2);
        m.insert(a, 10);
        m.insert(b, 20);
        *m.entry(a).or_insert(0) += 1;
        assert_eq!(m[&a], 11);
        assert_eq!(m[&b], 20);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn ordering_is_lexicographic_on_digest() {
        let lo = Fingerprint::from_bytes([0u8; 20]);
        let mut hi_bytes = [0u8; 20];
        hi_bytes[0] = 1;
        let hi = Fingerprint::from_bytes(hi_bytes);
        assert!(lo < hi);
        assert_eq!(lo, Fingerprint::ZERO);
    }
}
