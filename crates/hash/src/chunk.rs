//! Chunking of rank-local datasets.
//!
//! The paper splits the dataset into "small fixed sized chunks" whose size
//! matches the system page size (4 KiB) because its AC-FTE demonstrator
//! captures memory pages. The library is explicitly meant to "be easily
//! adapted to work with arbitrarily large chunk sizes", so the chunker is a
//! trait with a fixed-size implementation here and a content-defined one in
//! [`crate::gear`].

use super::gear::{GearChunker, GearParams};

/// Default chunk size: one 4 KiB memory page, as in the paper.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// A half-open byte range `[start, end)` identifying one chunk of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// Byte offset of the chunk start.
    pub start: usize,
    /// Byte offset one past the chunk end.
    pub end: usize,
}

impl ChunkRange {
    /// Chunk length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range is empty (never produced by the chunkers).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Borrow the chunk bytes out of the backing buffer.
    pub fn slice<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.start..self.end]
    }
}

/// Splits a buffer into chunk ranges.
pub trait Chunker {
    /// Produce the chunk ranges covering `buf` exactly, in order.
    fn chunks(&self, buf: &[u8]) -> Vec<ChunkRange>;
}

/// Fixed-size chunking (paper default, chunk == memory page).
#[derive(Debug, Clone, Copy)]
pub struct FixedChunker {
    /// Chunk size in bytes; the last chunk may be shorter.
    pub chunk_size: usize,
}

impl Default for FixedChunker {
    fn default() -> Self {
        Self {
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl FixedChunker {
    /// Fixed-size chunker with the given chunk size.
    ///
    /// # Panics
    /// If `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Self { chunk_size }
    }

    /// Number of chunks a buffer of `len` bytes yields.
    pub fn chunk_count(&self, len: usize) -> usize {
        len.div_ceil(self.chunk_size)
    }
}

impl Chunker for FixedChunker {
    fn chunks(&self, buf: &[u8]) -> Vec<ChunkRange> {
        chunk_ranges(buf.len(), self.chunk_size)
    }
}

/// Which chunking algorithm a dump runs, with its parameters.
///
/// This is the value that travels through `DumpConfig`: a small `Copy`
/// descriptor rather than a trait object, so configs stay `Copy` and the
/// choice can be compared, logged, and validated before any buffer is
/// touched. [`ChunkerKind::resolve`] turns it into a runnable
/// [`ResolvedChunker`] at dump time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ChunkerKind {
    /// Fixed-size chunking at the config's `chunk_size` (paper default).
    #[default]
    Fixed,
    /// Gear-hash CDC with SeqCDC-style skipping ([`crate::gear`]).
    Gear(GearParams),
}

impl ChunkerKind {
    /// Short label for logs, bench reports, and test names.
    pub fn label(&self) -> &'static str {
        match self {
            ChunkerKind::Fixed => "fixed",
            ChunkerKind::Gear(_) => "gear",
        }
    }

    /// Check the embedded parameters, reporting the first violation.
    /// `Fixed` is always valid here — its chunk size lives in the dump
    /// config and is validated there.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            ChunkerKind::Fixed => Ok(()),
            ChunkerKind::Gear(p) => p.validate(),
        }
    }

    /// Largest chunk this kind can emit, given the config's fixed chunk
    /// size. Sizes the fixed exchange-record cell (`record_size`) so one
    /// cell always fits any chunk payload.
    pub fn max_chunk_len(&self, fixed_size: usize) -> usize {
        match self {
            ChunkerKind::Fixed => fixed_size,
            ChunkerKind::Gear(p) => p.max_size,
        }
    }

    /// Instantiate the runnable chunker. `fixed_size` is the config's
    /// `chunk_size`, used only by [`ChunkerKind::Fixed`].
    ///
    /// # Panics
    /// If the parameters are invalid (call [`ChunkerKind::validate`]
    /// first) or `fixed_size` is zero for the fixed kind.
    pub fn resolve(&self, fixed_size: usize) -> ResolvedChunker {
        match self {
            ChunkerKind::Fixed => ResolvedChunker::Fixed(FixedChunker::new(fixed_size)),
            ChunkerKind::Gear(p) => ResolvedChunker::Gear(GearChunker::new(*p)),
        }
    }
}

/// A [`ChunkerKind`] instantiated into a runnable chunker (enum dispatch
/// keeps the dump path free of boxing).
#[derive(Debug, Clone, Copy)]
pub enum ResolvedChunker {
    /// Fixed-size chunking.
    Fixed(FixedChunker),
    /// Gear CDC.
    Gear(GearChunker),
}

impl Chunker for ResolvedChunker {
    fn chunks(&self, buf: &[u8]) -> Vec<ChunkRange> {
        match self {
            ResolvedChunker::Fixed(c) => c.chunks(buf),
            ResolvedChunker::Gear(c) => c.chunks(buf),
        }
    }
}

/// Fixed-size chunk ranges covering `len` bytes.
pub fn chunk_ranges(len: usize, chunk_size: usize) -> Vec<ChunkRange> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(chunk_size));
    let mut start = 0;
    while start < len {
        let end = (start + chunk_size).min(len);
        out.push(ChunkRange { start, end });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple() {
        let r = chunk_ranges(8192, 4096);
        assert_eq!(
            r,
            vec![
                ChunkRange {
                    start: 0,
                    end: 4096
                },
                ChunkRange {
                    start: 4096,
                    end: 8192
                }
            ]
        );
    }

    #[test]
    fn tail_chunk_is_short() {
        let r = chunk_ranges(10, 4);
        assert_eq!(r.len(), 3);
        assert_eq!(r[2], ChunkRange { start: 8, end: 10 });
        assert_eq!(r[2].len(), 2);
        assert!(!r[2].is_empty());
    }

    #[test]
    fn empty_buffer_yields_no_chunks() {
        assert!(chunk_ranges(0, 4096).is_empty());
    }

    #[test]
    fn ranges_tile_the_buffer() {
        for len in [1usize, 5, 4095, 4096, 4097, 12_288] {
            let r = chunk_ranges(len, 4096);
            assert_eq!(r[0].start, 0);
            assert_eq!(r.last().unwrap().end, len);
            for w in r.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous tiling");
            }
        }
    }

    #[test]
    fn fixed_chunker_trait_and_count() {
        let c = FixedChunker::new(4);
        let buf = [0u8; 10];
        assert_eq!(c.chunks(&buf).len(), 3);
        assert_eq!(c.chunk_count(10), 3);
        assert_eq!(c.chunk_count(0), 0);
        assert_eq!(c.chunk_count(8), 2);
    }

    #[test]
    fn default_is_page_sized() {
        assert_eq!(FixedChunker::default().chunk_size, 4096);
    }

    #[test]
    fn slice_borrows_correct_bytes() {
        let buf: Vec<u8> = (0..10).collect();
        let r = ChunkRange { start: 4, end: 8 };
        assert_eq!(r.slice(&buf), &[4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_size_panics() {
        FixedChunker::new(0);
    }

    #[test]
    fn kind_labels_and_default() {
        assert_eq!(ChunkerKind::default(), ChunkerKind::Fixed);
        assert_eq!(ChunkerKind::Fixed.label(), "fixed");
        assert_eq!(ChunkerKind::Gear(GearParams::default()).label(), "gear");
    }

    #[test]
    fn kind_validate_catches_bad_params() {
        assert!(ChunkerKind::Fixed.validate().is_ok());
        assert!(ChunkerKind::Gear(GearParams::default()).validate().is_ok());
        let bad_gear = GearParams {
            min_size: 0,
            avg_size: 64,
            max_size: 128,
        };
        assert!(ChunkerKind::Gear(bad_gear).validate().is_err());
    }

    #[test]
    fn kind_max_chunk_len_sizes_the_record_cell() {
        assert_eq!(ChunkerKind::Fixed.max_chunk_len(4096), 4096);
        let g = GearParams::default();
        assert_eq!(ChunkerKind::Gear(g).max_chunk_len(4096), g.max_size);
    }

    #[test]
    fn resolved_chunkers_match_their_direct_implementations() {
        let buf: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        assert_eq!(
            ChunkerKind::Fixed.resolve(4096).chunks(&buf),
            FixedChunker::new(4096).chunks(&buf)
        );
        assert_eq!(
            ChunkerKind::Gear(GearParams::default())
                .resolve(4096)
                .chunks(&buf),
            GearChunker::default().chunks(&buf)
        );
    }
}
