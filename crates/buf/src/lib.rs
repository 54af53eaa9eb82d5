//! Zero-copy payload plumbing for the replidedup hot path.
//!
//! The paper's argument is about *bytes moved*: `coll-dedup` wins because
//! the dump phase ships fewer bytes. A reproduction that memcpys every
//! payload three times between chunking and storage would measure its own
//! allocator, not the algorithm. This crate provides the three pieces the
//! hot path needs to avoid that:
//!
//! * [`Chunk`] — a reference-counted, immutable payload. Slicing a chunk
//!   out of the application buffer shares the allocation; the same bytes
//!   flow through `Comm` sends, window RMA and storage puts without a
//!   per-hop `Vec<u8>` clone.
//! * [`BufferPool`] — a small free-list for receive-side and reassembly
//!   buffers, so repeated dumps/restores recycle their scratch space
//!   instead of round-tripping the system allocator.
//! * copy accounting ([`record_copy`], [`thread_bytes_copied`],
//!   [`process_bytes_copied`]) — every *deliberate* memcpy on the hot path
//!   is recorded, which is what `DumpStats::bytes_copied` and the
//!   benchmark's `buf.bytes_copied` report and the tracer exports as the
//!   `alloc_bytes_copied` counter. If a refactor reintroduces a staging
//!   copy, `tests/zerocopy.rs` fails on the exact count.

mod chunk;
mod pool;

pub use chunk::Chunk;
pub use pool::{global_pool, BufferPool, PoolStats};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide total of recorded copy bytes (all threads).
static PROCESS_COPIED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread total, so each rank (one thread in the in-process
    /// runtime) can attribute its own copies to its trace stream.
    static THREAD_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` bytes memcpy'd on the hot path. Call this at every site that
/// deliberately copies payload bytes (staging buffers, `Vec<u8>` shims,
/// scatter-gather coalescing) — *not* for modelled transfers like window
/// RMA, which are the network traffic the paper counts separately.
pub fn record_copy(n: usize) {
    let n = n as u64;
    PROCESS_COPIED.fetch_add(n, Ordering::Relaxed);
    THREAD_COPIED.with(|c| c.set(c.get() + n));
}

/// Total bytes recorded by [`record_copy`] on the *calling thread* since
/// it started. Ranks snapshot this around a pipeline run and emit the
/// delta as the `alloc_bytes_copied` trace counter.
pub fn thread_bytes_copied() -> u64 {
    THREAD_COPIED.with(Cell::get)
}

/// Total bytes recorded by [`record_copy`] process-wide (all ranks).
/// Monotonic: callers measure deltas.
pub fn process_bytes_copied() -> u64 {
    PROCESS_COPIED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_accounting_is_per_thread_and_process_wide() {
        let t0 = thread_bytes_copied();
        let p0 = process_bytes_copied();
        record_copy(100);
        record_copy(28);
        assert_eq!(thread_bytes_copied() - t0, 128);
        assert!(process_bytes_copied() - p0 >= 128);
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                let t = thread_bytes_copied();
                record_copy(7);
                thread_bytes_copied() - t
            })
            .join()
            .unwrap()
        });
        assert_eq!(other, 7);
        // The sibling thread's copies never leak into this thread's view.
        assert_eq!(thread_bytes_copied() - t0, 128);
    }
}
