//! Gear-based content-defined chunking (the fast CDC family).
//!
//! The gear construction (Ddelta/FastCDC lineage, and the skip-and-scan
//! structure of SeqCDC, arXiv 2505.21194) rolls a hash without an explicit
//! window: the hash is
//!
//! ```text
//! h = (h << 1) + GEAR[byte]
//! ```
//!
//! so each byte's contribution shifts out of the top after 64 steps — an
//! implicit 64-byte window with one add and one shift per byte. Cut points
//! are declared where the *high* bits of `h` are all zero (the high bits
//! mix the most history; the low bits depend only on the last few bytes).
//!
//! Two SeqCDC-style accelerations keep the scan fast:
//!
//! * **min-size skipping** — no hashing inside the first `min_size` bytes
//!   of a chunk; the hash warms up from zero at the skip point (its
//!   effective window is entirely inside the region being scanned, so cut
//!   points remain content-defined),
//! * **a branch-light unrolled inner loop** — four hash steps per
//!   iteration with one combined cut test (`min` of the masked lanes is
//!   zero iff any lane matched), the scalar analogue of SeqCDC's
//!   vectorized predicate: the hot path is straight-line table adds, and
//!   the branch is taken once per ~`avg_size` bytes.

use super::chunk::{ChunkRange, Chunker};

/// Parameters for gear-based CDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GearParams {
    /// Minimum chunk size; the scanner skips this many bytes of every
    /// chunk without hashing (SeqCDC's "skipping" phase).
    pub min_size: usize,
    /// Expected chunk size *beyond* `min_size`; must be a power of two.
    /// The cut mask keeps `log2(avg_size)` high bits, so the expected
    /// chunk length is `min_size + avg_size`.
    pub avg_size: usize,
    /// Maximum chunk size (forces a cut on mask-dodging data).
    pub max_size: usize,
}

impl Default for GearParams {
    fn default() -> Self {
        // Expected chunk ~1 KiB + 4 KiB mask target, same scale as the
        // paper's 4 KiB page.
        Self {
            min_size: 1 << 10,
            avg_size: 1 << 12,
            max_size: 1 << 15,
        }
    }
}

impl GearParams {
    /// Cut mask: the top `log2(avg_size)` bits of the hash. A cut is
    /// declared where `h & mask == 0`.
    #[inline]
    pub fn mask(&self) -> u64 {
        let bits = self.avg_size.trailing_zeros();
        debug_assert!(self.avg_size.is_power_of_two());
        ((1u64 << bits) - 1) << (64 - bits)
    }

    /// Check parameter invariants, reporting the first violation.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.min_size == 0 {
            return Err("gear min_size must be positive");
        }
        if !self.avg_size.is_power_of_two() || self.avg_size < 2 {
            return Err("gear avg_size must be a power of two >= 2");
        }
        if self.avg_size > (1 << 48) {
            return Err("gear avg_size too large for the cut mask");
        }
        if self.min_size > self.max_size {
            return Err("gear min_size must be <= max_size");
        }
        Ok(())
    }
}

/// Build the 256-entry gear table at compile time from a fixed splitmix64
/// stream. The table is part of the on-disk format: changing it moves
/// every cut point and invalidates stored fingerprints, which is exactly
/// what the golden-vector test in `tests/chunking.rs` guards.
const fn build_gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x7265_706c_6964_6564; // b"replided"
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        table[i] = z;
        i += 1;
    }
    table
}

/// Per-byte mixing table; see [`build_gear_table`].
pub(crate) const GEAR_TABLE: [u64; 256] = build_gear_table();

/// Content-defined chunker on the gear rolling hash.
#[derive(Debug, Clone, Copy, Default)]
pub struct GearChunker {
    /// Cut-point and size parameters.
    pub params: GearParams,
}

impl GearChunker {
    /// Chunker with explicit parameters.
    ///
    /// # Panics
    /// If the parameters violate [`GearParams::validate`].
    pub fn new(params: GearParams) -> Self {
        if let Err(why) = params.validate() {
            panic!("{why}");
        }
        Self { params }
    }

    /// Find the cut point for the chunk starting at `start`: the end
    /// offset (exclusive) of the chunk, in buffer coordinates.
    #[inline]
    fn cut_point(&self, buf: &[u8], start: usize) -> usize {
        let p = self.params;
        let n = buf.len();
        let hard_end = n.min(start + p.max_size);
        let scan_from = start + p.min_size;
        if scan_from >= hard_end {
            // Remainder fits inside min_size (tail) or min == max.
            return hard_end;
        }
        let mask = p.mask();
        let region = &buf[scan_from..hard_end];
        let mut h: u64 = 0;

        // Unrolled hot loop: four hash steps, one combined test. The
        // minimum of the masked lanes is zero iff any lane hit the mask,
        // so the common case is branch-free straight-line code.
        let mut i = 0;
        let quads = region.len() & !3;
        while i < quads {
            let h0 = (h << 1).wrapping_add(GEAR_TABLE[region[i] as usize]);
            let h1 = (h0 << 1).wrapping_add(GEAR_TABLE[region[i + 1] as usize]);
            let h2 = (h1 << 1).wrapping_add(GEAR_TABLE[region[i + 2] as usize]);
            let h3 = (h2 << 1).wrapping_add(GEAR_TABLE[region[i + 3] as usize]);
            let hit = (h0 & mask).min(h1 & mask).min(h2 & mask).min(h3 & mask);
            if hit == 0 {
                // Rare path: resolve which lane cut first.
                let lanes = [h0, h1, h2, h3];
                for (lane, &hv) in lanes.iter().enumerate() {
                    if hv & mask == 0 {
                        return scan_from + i + lane + 1;
                    }
                }
                unreachable!("combined test hit but no lane matched");
            }
            h = h3;
            i += 4;
        }
        for (off, &b) in region[quads..].iter().enumerate() {
            h = (h << 1).wrapping_add(GEAR_TABLE[b as usize]);
            if h & mask == 0 {
                return scan_from + quads + off + 1;
            }
        }
        hard_end
    }
}

impl Chunker for GearChunker {
    fn chunks(&self, buf: &[u8]) -> Vec<ChunkRange> {
        let estimate = buf.len() / (self.params.min_size + self.params.avg_size) + 1;
        let mut out = Vec::with_capacity(estimate);
        let mut start = 0;
        while start < buf.len() {
            let end = self.cut_point(buf, start);
            out.push(ChunkRange { start, end });
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect()
    }

    #[test]
    fn gear_tiles_buffer_exactly() {
        let data = noisy(100_000);
        let chunks = GearChunker::default().chunks(&data);
        assert!(!chunks.is_empty());
        assert_eq!(chunks[0].start, 0);
        assert_eq!(chunks.last().unwrap().end, data.len());
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn gear_respects_min_and_max_sizes() {
        let data = noisy(200_000);
        let params = GearParams {
            min_size: 512,
            avg_size: 1024,
            max_size: 4096,
        };
        let chunks = GearChunker::new(params).chunks(&data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= 4096, "chunk {i} too big: {}", c.len());
            if i + 1 != chunks.len() {
                assert!(c.len() >= 512, "chunk {i} too small: {}", c.len());
            }
        }
    }

    #[test]
    fn gear_is_deterministic() {
        let data = noisy(50_000);
        let a = GearChunker::default().chunks(&data);
        let b = GearChunker::default().chunks(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn gear_boundaries_are_content_defined() {
        let base = noisy(60_000);
        let mut shifted = vec![0xAB; 137];
        shifted.extend_from_slice(&base);
        let chunker = GearChunker::default();
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
        assert!(
            reused * 2 >= chunks_b.len(),
            "only {reused}/{} chunks reused after shift",
            chunks_b.len()
        );
    }

    #[test]
    fn gear_empty_input() {
        assert!(GearChunker::default().chunks(&[]).is_empty());
    }

    #[test]
    fn gear_uniform_data_cuts_at_max_size() {
        // Constant data: the hash saturates to a fixed orbit whose masked
        // high bits never hit zero for this table, so max_size governs.
        let data = vec![0u8; 100_000];
        let params = GearParams {
            min_size: 256,
            avg_size: 512,
            max_size: 1024,
        };
        let chunks = GearChunker::new(params).chunks(&data);
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len(), 1024);
        }
    }

    #[test]
    fn unrolled_loop_matches_reference_scalar_scan() {
        // The quad-unrolled cut search must find exactly the cut a naive
        // byte-at-a-time scan finds.
        let data = noisy(30_011); // odd length exercises the tail loop
        let params = GearParams {
            min_size: 64,
            avg_size: 256,
            max_size: 2048,
        };
        let got = GearChunker::new(params).chunks(&data);
        // Reference implementation: no unrolling, no skipping shortcuts.
        let mask = params.mask();
        let mut want = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let hard_end = data.len().min(start + params.max_size);
            let mut end = hard_end;
            let mut h: u64 = 0;
            let scan_from = (start + params.min_size).min(hard_end);
            for (off, &b) in data[scan_from..hard_end].iter().enumerate() {
                h = (h << 1).wrapping_add(GEAR_TABLE[b as usize]);
                if h & mask == 0 {
                    end = scan_from + off + 1;
                    break;
                }
            }
            want.push(ChunkRange { start, end });
            start = end;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn gear_table_is_frozen() {
        // Spot-check the table; a change here moves every cut point and
        // invalidates stored fingerprints.
        assert_eq!(GEAR_TABLE.len(), 256);
        let mut distinct = GEAR_TABLE.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 256, "table entries must be distinct");
    }

    #[test]
    #[should_panic(expected = "min_size must be <= max_size")]
    fn bad_params_panic() {
        GearChunker::new(GearParams {
            min_size: 10,
            avg_size: 8,
            max_size: 5,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_avg_panics() {
        GearChunker::new(GearParams {
            min_size: 1,
            avg_size: 3,
            max_size: 10,
        });
    }
}
