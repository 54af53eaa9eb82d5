//! Page-tracked heap: the AC-FTE / jemalloc substitute.
//!
//! The paper's prototype integrates with the AC-FTE fault-tolerance runtime,
//! which transparently captures "all memory pages that were allocated by the
//! application during its runtime" (via a jemalloc-based allocator) and
//! passes them to `DUMP_OUTPUT`; chunks are matched with 4 KiB memory pages.
//!
//! [`TrackedHeap`] reproduces that capture model: applications allocate
//! page-aligned regions from an arena, all writes go through the heap (which
//! tracks dirty pages at page granularity, like an `mprotect`-based
//! tracker), and [`TrackedHeap::snapshot_bytes`] serializes the allocation
//! table plus the raw arena — page-aligned, so chunk == page exactly as in
//! the paper.

/// Default page size (matches the paper's chunk size).
pub const PAGE_SIZE: usize = 4096;

/// Snapshot bytes before the region table: the header page count, the
/// page size and the region count, 8 bytes each.
const TABLE_START: usize = 24;
/// Snapshot bytes per region-table entry: offset, length, live flag.
const REGION_BYTES: usize = 17;

/// Handle to an allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    /// Byte offset into the arena (page aligned).
    offset: u64,
    /// Requested length in bytes.
    len: u64,
    live: bool,
}

/// A page-granular arena with dirty tracking.
#[derive(Debug, Clone)]
pub struct TrackedHeap {
    page_size: usize,
    arena: Vec<u8>,
    regions: Vec<Region>,
    dirty: Vec<bool>,
}

impl Default for TrackedHeap {
    fn default() -> Self {
        Self::new(PAGE_SIZE)
    }
}

impl TrackedHeap {
    /// Empty heap with the given page size.
    ///
    /// # Panics
    /// If `page_size` is zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            arena: Vec::new(),
            regions: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Page size of this heap.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Allocate a zero-filled region of `len` bytes (rounded up to whole
    /// pages in the arena). Returns a stable handle.
    pub fn alloc(&mut self, len: usize) -> RegionId {
        let offset = self.arena.len() as u64;
        let padded = len.div_ceil(self.page_size) * self.page_size;
        self.arena.resize(self.arena.len() + padded, 0);
        let pages = padded / self.page_size;
        self.dirty.extend(std::iter::repeat_n(true, pages));
        self.regions.push(Region {
            offset,
            len: len as u64,
            live: true,
        });
        RegionId(self.regions.len() as u32 - 1)
    }

    /// Free a region: its pages are zeroed (zero pages deduplicate well,
    /// which mirrors what a real allocator's madvised-away pages look like
    /// in a transparent checkpoint) and marked dead.
    ///
    /// # Panics
    /// If the region is already dead.
    pub fn free(&mut self, id: RegionId) {
        let r = &mut self.regions[id.0 as usize];
        assert!(r.live, "double free of {id:?}");
        r.live = false;
        let (offset, len) = (r.offset as usize, r.len as usize);
        let padded = len.div_ceil(self.page_size) * self.page_size;
        self.arena[offset..offset + padded].fill(0);
        self.mark_dirty(offset, padded);
    }

    fn region(&self, id: RegionId) -> &Region {
        let r = &self.regions[id.0 as usize];
        assert!(r.live, "use of freed region {id:?}");
        r
    }

    /// Immutable view of a region's bytes.
    pub fn read(&self, id: RegionId) -> &[u8] {
        let r = self.region(id);
        &self.arena[r.offset as usize..(r.offset + r.len) as usize]
    }

    /// Write `data` into the region at `offset`, marking touched pages dirty.
    ///
    /// # Panics
    /// On out-of-bounds writes.
    pub fn write(&mut self, id: RegionId, offset: usize, data: &[u8]) {
        let r = *self.region(id);
        assert!(
            offset + data.len() <= r.len as usize,
            "write of {} bytes at {offset} overruns region of {}",
            data.len(),
            r.len
        );
        let start = r.offset as usize + offset;
        self.arena[start..start + data.len()].copy_from_slice(data);
        self.mark_dirty(start, data.len().max(1));
    }

    /// Mutable access to the whole region; conservatively dirties all of
    /// its pages (page-granular tracking, like a write-protection fault
    /// would give a real runtime).
    pub fn as_mut_slice(&mut self, id: RegionId) -> &mut [u8] {
        let r = *self.region(id);
        let (start, len) = (r.offset as usize, r.len as usize);
        self.mark_dirty(start, len.max(1));
        &mut self.arena[start..start + len]
    }

    fn mark_dirty(&mut self, start: usize, len: usize) {
        let first = start / self.page_size;
        let last = (start + len - 1) / self.page_size;
        for p in first..=last {
            self.dirty[p] = true;
        }
    }

    /// Number of pages in the arena.
    pub fn page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of pages written since the last [`Self::clear_dirty`].
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Reset dirty tracking (a checkpoint runtime calls this after a dump).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(false);
    }

    /// Raw arena bytes (page-aligned; what AC-FTE's transparent mode dumps).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Serialize allocation table + arena into one page-aligned buffer.
    /// The metadata header occupies whole pages so the arena's page/chunk
    /// alignment is preserved inside the snapshot.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.page_size as u64).to_le_bytes());
        meta.extend_from_slice(&(self.regions.len() as u64).to_le_bytes());
        for r in &self.regions {
            meta.extend_from_slice(&r.offset.to_le_bytes());
            meta.extend_from_slice(&r.len.to_le_bytes());
            meta.push(u8::from(r.live));
        }
        // The header holds the page-count prefix and then the metadata.
        let header_pages = (8 + meta.len()).div_ceil(self.page_size);
        let mut out = vec![0u8; header_pages * self.page_size + self.arena.len()];
        // First 8 bytes: header page count, so restore knows where the
        // arena starts; then the metadata.
        out[..8].copy_from_slice(&(header_pages as u64).to_le_bytes());
        out[8..8 + meta.len()].copy_from_slice(&meta);
        out[header_pages * self.page_size..].copy_from_slice(&self.arena);
        out
    }

    /// Rebuild a heap from [`Self::snapshot_bytes`] output.
    ///
    /// Every size and offset comes from the snapshot, so each is checked
    /// before use: the region table must fit inside the header pages, the
    /// header inside the buffer, and every region inside the arena.
    ///
    /// # Errors
    /// Returns a message when the snapshot is malformed.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, String> {
        let take8 = |at: usize| -> Result<u64, String> {
            at.checked_add(8)
                .and_then(|end| bytes.get(at..end))
                .and_then(|s| <[u8; 8]>::try_from(s).ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| "snapshot truncated".to_string())
        };
        let size = |what: &str, v: u64| {
            usize::try_from(v).map_err(|_| format!("snapshot {what} {v} overflows usize"))
        };
        let header_pages = size("header page count", take8(0)?)?;
        let page_size = size("page size", take8(8)?)?;
        if page_size == 0 {
            return Err("snapshot has zero page size".into());
        }
        let region_count = size("region count", take8(16)?)?;
        let arena_start = header_pages
            .checked_mul(page_size)
            .filter(|&start| start <= bytes.len())
            .ok_or("snapshot header overruns buffer")?;
        // The table lies inside the header, which bounds the allocation
        // below by the bytes actually present.
        region_count
            .checked_mul(REGION_BYTES)
            .and_then(|table| table.checked_add(TABLE_START))
            .filter(|&end| end <= arena_start)
            .ok_or("snapshot region table overruns its header")?;
        let arena_len = bytes.len() - arena_start;
        let mut regions = Vec::with_capacity(region_count);
        for i in 0..region_count {
            let at = TABLE_START + i * REGION_BYTES;
            let (offset, len) = (take8(at)?, take8(at + 8)?);
            let live = bytes[at + 16] != 0;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| len.div_ceil(page_size).checked_mul(page_size))
                .zip(usize::try_from(offset).ok())
                .and_then(|(padded, offset)| offset.checked_add(padded));
            if end.is_none_or(|end| end > arena_len) {
                return Err(format!("region {i} overruns restored arena"));
            }
            regions.push(Region { offset, len, live });
        }
        let arena = bytes[arena_start..].to_vec();
        Ok(Self {
            page_size,
            dirty: vec![false; arena.len() / page_size],
            arena,
            regions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_zeroed() {
        let mut h = TrackedHeap::new(16);
        let a = h.alloc(10);
        let b = h.alloc(17);
        assert_eq!(h.read(a), &[0; 10]);
        assert_eq!(h.read(b).len(), 17);
        assert_eq!(h.arena().len(), 16 + 32, "regions rounded to pages");
        assert_eq!(h.page_count(), 3);
    }

    #[test]
    fn write_and_read_roundtrip() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(20);
        h.write(r, 3, &[1, 2, 3]);
        assert_eq!(&h.read(r)[3..6], &[1, 2, 3]);
        assert_eq!(&h.read(r)[..3], &[0, 0, 0]);
    }

    #[test]
    fn dirty_tracking_is_page_granular() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(64); // 4 pages
        h.clear_dirty();
        assert_eq!(h.dirty_page_count(), 0);
        h.write(r, 0, &[1]);
        assert_eq!(h.dirty_page_count(), 1);
        h.write(r, 15, &[1, 1]); // straddles pages 0 and 1
        assert_eq!(h.dirty_page_count(), 2);
        h.as_mut_slice(r)[63] = 9;
        assert_eq!(h.dirty_page_count(), 4, "as_mut_slice dirties the region");
    }

    #[test]
    fn free_zeroes_pages() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(16);
        h.write(r, 0, &[7; 16]);
        h.free(r);
        assert_eq!(&h.arena()[..16], &[0; 16]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(8);
        h.free(r);
        h.free(r);
    }

    #[test]
    #[should_panic(expected = "use of freed region")]
    fn use_after_free_panics() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(8);
        h.free(r);
        h.read(r);
    }

    #[test]
    #[should_panic(expected = "overruns region")]
    fn out_of_bounds_write_panics() {
        let mut h = TrackedHeap::new(16);
        let r = h.alloc(8);
        h.write(r, 6, &[1, 2, 3]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut h = TrackedHeap::new(16);
        let a = h.alloc(20);
        let b = h.alloc(5);
        h.write(a, 0, b"hello world");
        h.write(b, 0, b"abc");
        let freed = h.alloc(16);
        h.free(freed);
        let snap = h.snapshot_bytes();
        assert_eq!(snap.len() % 16, 0, "snapshot is page aligned");
        let restored = TrackedHeap::restore_bytes(&snap).unwrap();
        assert_eq!(restored.read(a), h.read(a));
        assert_eq!(restored.read(b), h.read(b));
        assert_eq!(restored.page_size(), 16);
        assert_eq!(restored.arena(), h.arena());
    }

    #[test]
    fn restored_heap_can_keep_allocating() {
        let mut h = TrackedHeap::new(16);
        let a = h.alloc(8);
        h.write(a, 0, &[9; 8]);
        let mut r = TrackedHeap::restore_bytes(&h.snapshot_bytes()).unwrap();
        let b = r.alloc(8);
        r.write(b, 0, &[1; 8]);
        assert_eq!(r.read(a), &[9; 8]);
        assert_eq!(r.read(b), &[1; 8]);
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(TrackedHeap::restore_bytes(&[]).is_err());
        assert!(TrackedHeap::restore_bytes(&[0; 12]).is_err());
        // Header page count pointing past the end.
        let mut h = TrackedHeap::new(16);
        h.alloc(8);
        let mut snap = h.snapshot_bytes();
        snap[0] = 0xFF;
        assert!(TrackedHeap::restore_bytes(&snap).is_err());
    }

    /// A valid snapshot with 8-byte fields overwritten, each given as
    /// `(index, value)`: 0–2 are the header page count, page size and
    /// region count, 3 and 4 the first region's offset and length.
    fn hostile(fields: &[(usize, u64)]) -> Vec<u8> {
        let mut h = TrackedHeap::new(16);
        h.alloc(20);
        let mut snap = h.snapshot_bytes();
        for &(i, v) in fields {
            snap[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        snap
    }

    /// Every header value a malformed snapshot can carry is an `Err`, never
    /// a panic or an abort: huge counts, sizes whose products overflow, and
    /// regions past the arena.
    #[test]
    fn hostile_headers_are_errors_not_panics() {
        let max = u64::MAX;
        let cases = [
            vec![(2, max)],          // region count: capacity overflow
            vec![(2, max / 17 + 1)], // region count × entry size overflows
            vec![(2, 1 << 40)],      // region table past the header
            vec![(0, max)],          // header pages × page size overflows
            vec![(0, 1 << 40), (1, 1 << 30)],
            vec![(1, max)],      // page size past the buffer
            vec![(0, 0)],        // header holds no table
            vec![(3, max)],      // region offset overflows
            vec![(3, max - 15)], // offset + padded length overflows
            vec![(4, max)],      // length rounds past usize
            vec![(4, max - 3)],
            vec![(3, 16), (4, 64)], // region past the arena
        ];
        for fields in cases {
            let snap = hostile(&fields);
            let got = std::panic::catch_unwind(|| TrackedHeap::restore_bytes(&snap));
            assert!(matches!(got, Ok(Err(_))), "{fields:?}: {got:?}");
        }
        assert!(TrackedHeap::restore_bytes(&hostile(&[])).is_ok());
    }

    /// Page sizes so small that the table spills past the header's first
    /// page still round-trip, the empty heap included.
    #[test]
    fn tiny_page_snapshots_keep_their_table_in_the_header() {
        for page in [1usize, 8, 16, 24] {
            for regions in 0..4 {
                let mut h = TrackedHeap::new(page);
                for r in 0..regions {
                    let id = h.alloc(r * 5 + 1);
                    h.write(id, 0, &[r as u8 + 1]);
                }
                let r = TrackedHeap::restore_bytes(&h.snapshot_bytes()).unwrap();
                assert_eq!(r.arena(), h.arena(), "page {page}, {regions} regions");
                assert_eq!(r.regions, h.regions, "page {page}, {regions} regions");
            }
        }
    }

    #[test]
    fn empty_heap_snapshot_roundtrips() {
        let h = TrackedHeap::new(32);
        let snap = h.snapshot_bytes();
        let r = TrackedHeap::restore_bytes(&snap).unwrap();
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.page_size(), 32);
    }
}
