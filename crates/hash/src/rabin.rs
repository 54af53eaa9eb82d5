//! Rabin fingerprinting and content-defined chunking (CDC).
//!
//! The paper uses *static* (fixed-size) chunking but surveys content-defined
//! approaches — a sliding window hashed at each step with Rabin's method,
//! cutting a chunk wherever the window hash matches a mask (LBFS-style).
//! This module provides that alternative so chunk-size sensitivity studies
//! (called "an interesting topic in itself" by the paper) can be run against
//! the same dedup pipeline.
//!
//! The implementation is the classic polynomial rolling hash over GF(2):
//! an irreducible degree-63 polynomial, precomputed push/pop tables, O(1)
//! per-byte roll.

use super::chunk::{ChunkRange, Chunker};

/// Parameters for Rabin-based CDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RabinParams {
    /// Sliding window width in bytes (LBFS used 48).
    pub window: usize,
    /// A chunk boundary is declared when `hash & mask == mask_value`.
    /// With `mask = 2^k - 1` the expected chunk size is `2^k` bytes.
    pub mask: u64,
    /// Target value the masked hash must take at a cut point.
    pub mask_value: u64,
    /// Minimum chunk size (suppresses pathological tiny chunks).
    pub min_size: usize,
    /// Maximum chunk size (forces a cut on incompressible data).
    pub max_size: usize,
}

impl Default for RabinParams {
    fn default() -> Self {
        // Expected chunk ~4 KiB, matching the paper's fixed chunk size.
        Self {
            window: 48,
            mask: (1 << 12) - 1,
            mask_value: (1 << 12) - 1,
            min_size: 1 << 10,
            max_size: 1 << 15,
        }
    }
}

/// Irreducible polynomial of degree 53 over GF(2) used by the rolling hash
/// (same family as LBFS). Bit i set means coefficient of x^i.
const POLY: u64 = 0x003D_A335_8B4D_C173;

/// Degree of [`POLY`].
const POLY_DEGREE: u32 = 53;

/// Rolling Rabin hasher over a fixed-width window.
#[derive(Clone)]
pub struct RabinHasher {
    /// table mapping the outgoing byte to its contribution, for O(1) pop.
    pop_table: [u64; 256],
    /// table for appending a byte: precomputed (hash_high_byte -> folded).
    push_table: [u64; 256],
    window: usize,
    hash: u64,
    /// Ring buffer of the last `window` bytes.
    ring: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl std::fmt::Debug for RabinHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RabinHasher")
            .field("window", &self.window)
            .field("hash", &self.hash)
            .field("filled", &self.filled)
            .finish()
    }
}

/// Multiply-free modular reduction step: fold the single overflow bit back
/// through POLY. Callers guarantee `h < 2^(POLY_DEGREE + 1)`.
#[inline]
fn poly_mod_step(mut h: u64) -> u64 {
    if (h >> POLY_DEGREE) & 1 != 0 {
        // POLY has bit POLY_DEGREE set, so this clears it and folds the rest.
        h ^= POLY;
    }
    debug_assert!(h < (1 << POLY_DEGREE));
    h
}

/// Shift `h` left by 8 bits modulo POLY.
#[inline]
fn shift8_mod(h: u64, shift_table: &[u64; 256]) -> u64 {
    let top = (h >> (POLY_DEGREE - 8)) as usize & 0xff;
    ((h << 8) & ((1 << POLY_DEGREE) - 1)) ^ shift_table[top]
}

impl RabinHasher {
    /// Build a hasher with the given window width.
    ///
    /// # Panics
    /// If `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        // push_table[t] = (t << POLY_DEGREE) mod POLY, so appending a byte is
        // hash = ((hash << 8) | byte) mod POLY in O(1).
        let mut push_table = [0u64; 256];
        for (t, entry) in push_table.iter_mut().enumerate() {
            let mut h = t as u64;
            for _ in 0..POLY_DEGREE {
                h <<= 1;
                h = poly_mod_step(h);
            }
            *entry = h;
        }
        // pop_table[b] = (b << (8*(window-1))) mod POLY: the contribution the
        // oldest byte holds in the current hash, i.e. just before the next
        // shift would push it out of the window.
        let mut pop_table = [0u64; 256];
        for (b, entry) in pop_table.iter_mut().enumerate() {
            let mut h = b as u64;
            for _ in 0..window - 1 {
                h = shift8_mod(h, &push_table);
            }
            *entry = h;
        }
        Self {
            pop_table,
            push_table,
            window,
            hash: 0,
            ring: vec![0; window],
            pos: 0,
            filled: 0,
        }
    }

    /// Reset to the empty-window state.
    pub fn reset(&mut self) {
        self.hash = 0;
        self.pos = 0;
        self.filled = 0;
        self.ring.fill(0);
    }

    /// Slide one byte into the window (and the oldest byte out, once full).
    #[inline]
    pub fn roll(&mut self, byte: u8) -> u64 {
        let outgoing = self.ring[self.pos];
        self.ring[self.pos] = byte;
        self.pos = (self.pos + 1) % self.window;
        if self.filled < self.window {
            self.filled += 1;
        } else {
            self.hash ^= self.pop_table[outgoing as usize];
        }
        self.hash = shift8_mod(self.hash, &self.push_table) ^ u64::from(byte);
        self.hash = poly_mod_step(self.hash);
        self.hash
    }

    /// Current window hash.
    pub fn value(&self) -> u64 {
        self.hash
    }
}

/// Content-defined chunker driven by a [`RabinHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CdcChunker {
    /// Cut-point and size parameters.
    pub params: RabinParams,
}

impl CdcChunker {
    /// Chunker with explicit parameters.
    ///
    /// # Panics
    /// If `min_size` is zero or exceeds `max_size`, or the window is zero.
    pub fn new(params: RabinParams) -> Self {
        assert!(params.window > 0, "window must be positive");
        assert!(params.min_size > 0, "min_size must be positive");
        assert!(
            params.min_size <= params.max_size,
            "min_size must be <= max_size"
        );
        Self { params }
    }
}

impl Chunker for CdcChunker {
    /// Scan for cut points without materializing a ring buffer.
    ///
    /// Equivalent to rolling a fresh [`RabinHasher`] from every chunk
    /// start (the reference loop pinned by
    /// `optimized_scan_matches_reference_hasher_loop`), but exploits that
    /// the hash only depends on the trailing `window` bytes: the first
    /// `min_size - window` bytes of each chunk are skipped without
    /// hashing, and the steady-state loop reads the outgoing byte
    /// straight from the buffer instead of a modulo-indexed ring.
    fn chunks(&self, buf: &[u8]) -> Vec<ChunkRange> {
        let p = self.params;
        let win = p.window;
        // Built once per call: the tables depend only on the window.
        let hasher = RabinHasher::new(win);
        let (push, pop) = (&hasher.push_table, &hasher.pop_table);
        let mut out = Vec::new();
        let mut start = 0usize;
        let len = buf.len();
        while start < len {
            let end_max = (start + p.max_size).min(len);
            // Earliest admissible chunk end. At or past `end_max` the cut
            // is forced (max_size or buffer tail), hash regardless.
            let first_cut = start + p.min_size;
            if first_cut >= end_max {
                out.push(ChunkRange {
                    start,
                    end: end_max,
                });
                start = end_max;
                continue;
            }
            let mut cut = end_max;
            let mut hash = 0u64;
            // Warm-up: fill the window (no outgoing byte yet). Starts
            // late enough that the window is exactly full at `first_cut`.
            let warm_start = first_cut.saturating_sub(win).max(start);
            let fill_end = (warm_start + win).min(end_max);
            let mut i = warm_start;
            let mut found = false;
            while i < fill_end {
                hash = shift8_mod(hash, push) ^ u64::from(buf[i]);
                hash = poly_mod_step(hash);
                i += 1;
                if i >= first_cut && (hash & p.mask) == p.mask_value {
                    cut = i;
                    found = true;
                    break;
                }
            }
            // Steady state: window full, every position is admissible
            // (`i >= warm_start + win >= first_cut`).
            while !found && i < end_max {
                hash ^= pop[buf[i - win] as usize];
                hash = shift8_mod(hash, push) ^ u64::from(buf[i]);
                hash = poly_mod_step(hash);
                i += 1;
                if (hash & p.mask) == p.mask_value {
                    cut = i;
                    break;
                }
            }
            out.push(ChunkRange { start, end: cut });
            start = cut;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_hash_matches_fresh_hash_of_window() {
        // After rolling a long stream, the hash must equal the hash of just
        // the final `window` bytes — the defining property of a rolling hash.
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(37) % 256) as u8)
            .collect();
        let window = 16;
        let mut a = RabinHasher::new(window);
        for &b in &data {
            a.roll(b);
        }
        let mut b = RabinHasher::new(window);
        for &x in &data[data.len() - window..] {
            b.roll(x);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn hash_stays_below_poly_degree() {
        let mut h = RabinHasher::new(8);
        for i in 0..10_000u32 {
            let v = h.roll((i % 256) as u8);
            assert!(v < (1 << POLY_DEGREE));
        }
    }

    #[test]
    fn cdc_tiles_buffer_exactly() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let chunks = CdcChunker::default().chunks(&data);
        assert!(!chunks.is_empty());
        assert_eq!(chunks[0].start, 0);
        assert_eq!(chunks.last().unwrap().end, data.len());
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn cdc_respects_min_and_max_sizes() {
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(0x9E3779B9) >> 11) as u8)
            .collect();
        let params = RabinParams {
            window: 32,
            mask: (1 << 8) - 1,
            mask_value: (1 << 8) - 1,
            min_size: 512,
            max_size: 4096,
        };
        let chunks = CdcChunker::new(params).chunks(&data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= 4096, "chunk {i} too big: {}", c.len());
            if i + 1 != chunks.len() {
                assert!(c.len() >= 512, "chunk {i} too small: {}", c.len());
            }
        }
    }

    #[test]
    fn cdc_boundaries_are_content_defined() {
        // Shift-resistance: inserting a prefix realigns boundaries after the
        // insertion point, so most chunk *contents* reappear.
        let base: Vec<u8> = (0..60_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
            .collect();
        let mut shifted = vec![0xAB; 137];
        shifted.extend_from_slice(&base);
        let chunker = CdcChunker::default();
        let set_a: std::collections::HashSet<Vec<u8>> = chunker
            .chunks(&base)
            .iter()
            .map(|c| c.slice(&base).to_vec())
            .collect();
        let chunks_b = chunker.chunks(&shifted);
        let reused = chunks_b
            .iter()
            .filter(|c| set_a.contains(c.slice(&shifted)))
            .count();
        // At least half the shifted file's chunks must literally reappear.
        assert!(
            reused * 2 >= chunks_b.len(),
            "only {reused}/{} chunks reused after shift",
            chunks_b.len()
        );
    }

    #[test]
    fn cdc_empty_input() {
        assert!(CdcChunker::default().chunks(&[]).is_empty());
    }

    #[test]
    fn optimized_scan_matches_reference_hasher_loop() {
        // The production scan skips min-size prefixes and reads the
        // outgoing byte straight from the buffer; this reference rolls a
        // fresh RabinHasher over every byte of every chunk. Both must cut
        // identically — the cut points are on-disk format.
        fn reference_chunks(p: RabinParams, buf: &[u8]) -> Vec<ChunkRange> {
            let mut out = Vec::new();
            let mut hasher = RabinHasher::new(p.window);
            let mut start = 0usize;
            for (i, &byte) in buf.iter().enumerate() {
                let h = hasher.roll(byte);
                let size = i + 1 - start;
                if (size >= p.min_size && (h & p.mask) == p.mask_value) || size >= p.max_size {
                    out.push(ChunkRange { start, end: i + 1 });
                    start = i + 1;
                    hasher.reset();
                }
            }
            if start < buf.len() {
                out.push(ChunkRange {
                    start,
                    end: buf.len(),
                });
            }
            out
        }
        let data: Vec<u8> = (0..300_001u32) // odd length: exercise the tail
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        for params in [
            RabinParams::default(),
            // min_size smaller than the window: partial-window cuts.
            RabinParams {
                window: 32,
                mask: (1 << 6) - 1,
                mask_value: (1 << 6) - 1,
                min_size: 16,
                max_size: 1024,
            },
            // min_size == max_size: every cut is forced.
            RabinParams {
                window: 8,
                mask: 3,
                mask_value: 3,
                min_size: 128,
                max_size: 128,
            },
        ] {
            assert_eq!(
                CdcChunker::new(params).chunks(&data),
                reference_chunks(params, &data),
                "optimized scan diverged for {params:?}"
            );
        }
    }

    #[test]
    fn cdc_uniform_data_cuts_at_max_size() {
        // All-zero data never matches a nontrivial mask value, so every cut
        // comes from max_size.
        let data = vec![0u8; 100_000];
        let params = RabinParams {
            window: 48,
            mask: 0xff,
            mask_value: 0xff,
            min_size: 256,
            max_size: 1024,
        };
        let chunks = CdcChunker::new(params).chunks(&data);
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len(), 1024);
        }
    }

    #[test]
    #[should_panic(expected = "min_size must be <= max_size")]
    fn bad_params_panic() {
        CdcChunker::new(RabinParams {
            window: 8,
            mask: 1,
            mask_value: 1,
            min_size: 10,
            max_size: 5,
        });
    }
}
