//! A small pooled-buffer allocator for receive-side and reassembly
//! buffers.
//!
//! The dump/restore pipeline needs a handful of large scratch vectors per
//! run — the RMA window backing store, the restore reassembly buffer,
//! legacy staging buffers. Allocating them fresh every generation
//! round-trips the system allocator with multi-megabyte requests; the pool
//! keeps returned buffers on a shelf and hands them back out. Buffers that
//! get *frozen* into long-lived [`bytes::Bytes`] (a committed window, a
//! restored image) simply never come back — the pool is a recycler, not an
//! owner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Maximum number of buffers kept on the shelf; beyond that, returns are
/// dropped to the allocator. Dump/restore uses a few buffers per rank, so
/// a small shelf already captures all the reuse there is.
const MAX_SHELVED: usize = 64;

/// Counters describing how well the pool is doing its job. Reported in
/// `BENCH_*.json` as the allocation metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take` calls satisfied from the shelf (an allocation avoided).
    pub hits: u64,
    /// `take` calls that had to allocate fresh.
    pub misses: u64,
    /// Buffers handed back via `put_back`.
    pub returned: u64,
    /// Total capacity (bytes) served from the shelf instead of the
    /// allocator.
    pub bytes_reused: u64,
}

/// A shelf of reusable `Vec<u8>` buffers. Thread-safe; one global instance
/// ([`global_pool`]) is shared by every rank in the in-process runtime.
#[derive(Debug, Default)]
pub struct BufferPool {
    shelf: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    bytes_reused: AtomicU64,
}

impl BufferPool {
    /// Fresh, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer with at least `capacity` bytes of capacity.
    /// Best-fit over the shelf; allocates fresh on a miss.
    pub fn take(&self, capacity: usize) -> Vec<u8> {
        let reused = {
            let mut shelf = self.shelf();
            // Best fit: the smallest shelved buffer that is big enough,
            // so one huge buffer is not burned on a tiny request.
            let best = shelf
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= capacity)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            best.map(|i| shelf.swap_remove(i))
        };
        match reused {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "shelved buffers are stored cleared");
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_reused
                    .fetch_add(buf.capacity() as u64, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a buffer to the shelf. Contents are discarded (the buffer is
    /// cleared); zero-capacity buffers and overflow beyond the shelf limit
    /// go back to the allocator.
    pub fn put_back(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.returned.fetch_add(1, Ordering::Relaxed);
        let mut shelf = self.shelf();
        if shelf.len() < MAX_SHELVED {
            shelf.push(buf);
        }
    }

    /// Lock the shelf. It holds only cleared buffers, so a guard recovered
    /// from a lock another thread poisoned is consistent.
    fn shelf(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.shelf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
        }
    }

    /// Reset counters (the shelf itself is kept). The benchmark harness
    /// resets between scenarios so each reports its own reuse.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.returned.store(0, Ordering::Relaxed);
        self.bytes_reused.store(0, Ordering::Relaxed);
    }
}

/// The process-wide pool used by the pipeline's scratch allocations.
pub fn global_pool() -> &'static BufferPool {
    static POOL: OnceLock<BufferPool> = OnceLock::new();
    POOL.get_or_init(BufferPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_miss_then_hit() {
        let pool = BufferPool::new();
        let buf = pool.take(4096);
        assert!(buf.capacity() >= 4096);
        assert_eq!(pool.stats().misses, 1);
        pool.put_back(buf);
        let again = pool.take(1024);
        assert!(again.capacity() >= 4096, "best-fit reuses the big buffer");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returned), (1, 1, 1));
        assert!(s.bytes_reused >= 4096);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let pool = BufferPool::new();
        pool.put_back(Vec::with_capacity(100));
        pool.put_back(Vec::with_capacity(10_000));
        pool.put_back(Vec::with_capacity(1000));
        let buf = pool.take(500);
        assert!(buf.capacity() >= 500 && buf.capacity() < 10_000);
    }

    #[test]
    fn too_small_shelf_entries_do_not_satisfy() {
        let pool = BufferPool::new();
        pool.put_back(Vec::with_capacity(16));
        let buf = pool.take(1 << 20);
        assert!(buf.capacity() >= 1 << 20);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn returned_buffers_come_back_cleared() {
        let pool = BufferPool::new();
        let mut buf = pool.take(64);
        buf.extend_from_slice(b"dirty");
        pool.put_back(buf);
        let buf = pool.take(8);
        assert!(buf.is_empty());
    }

    #[test]
    fn zero_capacity_returns_are_dropped() {
        let pool = BufferPool::new();
        pool.put_back(Vec::new());
        assert_eq!(pool.stats().returned, 0);
    }

    #[test]
    fn shelf_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_SHELVED + 10) {
            pool.put_back(Vec::with_capacity(8));
        }
        assert_eq!(pool.shelf.lock().unwrap().len(), MAX_SHELVED);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global_pool() as *const BufferPool;
        let b = global_pool() as *const BufferPool;
        assert_eq!(a, b);
    }
}
