//! One-sided communication (MPI-style RMA windows).
//!
//! The paper's exchange phase avoids receive-side buffering by having every
//! partner `put` its chunks directly at a precomputed offset in the
//! target's window ("expose a designated memory region to each partner in a
//! consistent fashion"). The window is sized exactly from the gathered load
//! information, "avoiding any waste" — important because the application
//! occupies most of the memory at checkpoint time.
//!
//! Semantics mirror `MPI_Win_create` / `MPI_Put` / `MPI_Win_fence`:
//! creation is collective, `put` is one-sided and completes at the next
//! fence, and local reads are only valid after a fence. In this runtime a
//! `put` is a locked `memcpy` into the target buffer, so the fence reduces
//! to a barrier. Creation needs no messages of its own: each rank deposits
//! its handle in the world's `Exposures` table, passes the opening fence
//! and reads its peers' handles from the table.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use replidedup_buf::{global_pool, Chunk};

use crate::comm::{Comm, Rank};
use crate::fault::{CommError, FaultRuntime};

/// Lock `m`, ignoring poisoning: no holder of an exposure or table lock
/// can panic between writes, so the data behind a poisoned lock is whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared backing buffer of one rank's window. Backed by the global
/// [`BufferPool`](replidedup_buf::BufferPool): creation takes a recycled
/// buffer, and dropping the window returns it — unless
/// [`Window::take_local`] already froze it into long-lived [`Bytes`].
pub struct WinBuf {
    data: Mutex<Vec<u8>>,
    size: usize,
}

impl Drop for WinBuf {
    fn drop(&mut self) {
        if let Ok(buf) = self.data.get_mut() {
            global_pool().put_back(std::mem::take(buf));
        }
    }
}

impl std::fmt::Debug for WinBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WinBuf").field("size", &self.size).finish()
    }
}

/// The world-shared table through which window creation exchanges handles.
/// An entry is keyed by the collective sequence number of its create's
/// opening fence, so a fast rank can deposit its next window before a slow
/// peer has read the previous one. The last reader removes the entry; the
/// entry of a create that a rank death interrupted stays until the world
/// ends.
#[derive(Default)]
pub(crate) struct Exposures(Mutex<HashMap<u64, Exposure>>);

/// One create's handles, indexed by rank, and how many ranks have yet to
/// read them.
struct Exposure {
    handles: Vec<Option<Arc<WinBuf>>>,
    unread: u32,
}

impl Exposures {
    fn deposit(&self, seq: u64, world: u32, rank: Rank, handle: Arc<WinBuf>) {
        let mut table = lock(&self.0);
        let entry = table.entry(seq).or_insert_with(|| Exposure {
            handles: vec![None; world as usize],
            unread: world,
        });
        entry.handles[rank as usize] = Some(handle);
    }

    /// Every rank's handle for create `seq`, or [`CommError::MissingExposure`]
    /// naming the first rank that deposited none.
    fn read(&self, seq: u64, rank: Rank) -> Result<Vec<Arc<WinBuf>>, CommError> {
        let mut table = lock(&self.0);
        // This rank's own deposit keeps the entry alive until it reads.
        let Some(entry) = table.get_mut(&seq) else {
            return Err(CommError::MissingExposure { rank, peer: rank });
        };
        let handles = (0..)
            .zip(&entry.handles)
            .map(|(peer, handle)| {
                handle
                    .clone()
                    .ok_or(CommError::MissingExposure { rank, peer })
            })
            .collect::<Result<Vec<_>, _>>()?;
        entry.unread -= 1;
        if entry.unread == 0 {
            table.remove(&seq);
        }
        Ok(handles)
    }
}

/// A collectively created RMA window: every rank exposes `local_size` bytes
/// and can `put` into any peer's exposure.
pub struct Window {
    rank: Rank,
    handles: Vec<Arc<WinBuf>>,
    counters: Arc<Vec<crate::stats::RankCounters>>,
    fault_rt: Option<Arc<FaultRuntime>>,
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("rank", &self.rank)
            .field("world", &self.handles.len())
            .finish()
    }
}

impl Comm {
    /// Collectively create a window exposing `local_size` bytes on this
    /// rank (sizes may differ per rank). Must be called by every rank.
    /// Kept for the benchmark seam (`benchmark/src/sut.rs`).
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn win_create(&mut self, local_size: usize) -> Window {
        self.try_win_create(local_size)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::win_create`]: the opening fence detects rank deaths
    /// and fails with [`CommError`] instead of timing out.
    pub fn try_win_create(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.enter_phase("win_create");
        let out = self.try_win_create_inner(local_size);
        self.exit_phase("win_create");
        out
    }

    fn try_win_create_inner(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.tracer()
            .gauge_bytes("win_local_bytes", local_size as u64);
        let (me, n) = (self.rank(), self.size());
        // Pool-backed exposure: recycled buffers arrive cleared, so the
        // resize zero-fills and every window starts all-zero (put offsets
        // may leave gaps that readers expect to be zero).
        let mut backing = global_pool().take(local_size);
        backing.resize(local_size, 0);
        let mine = Arc::new(WinBuf {
            data: Mutex::new(backing),
            size: local_size,
        });
        // Deposit under the sequence number the opening fence is about to
        // take: it is the same on every rank, and the create uses one
        // collective sequence slot whether it succeeds or fails.
        let seq = self.op_seq + 1;
        self.exposures.deposit(seq, n, me, mine);
        // Opening fence: no rank may put before every rank has exposed. A
        // dissemination barrier completes on a rank only after every rank
        // entered it, so every handle is in the table; a rank that died
        // before depositing fails the fence instead.
        self.try_barrier()?;
        Ok(Window {
            rank: me,
            handles: self.exposures.read(seq, me)?,
            counters: Arc::clone(self.counters()),
            fault_rt: self.fault_rt().cloned(),
        })
    }
}

impl Window {
    /// One-sided write of a [`Chunk`] into `target`'s window at `offset`.
    /// The local side performs no staging copy: the chunk's bytes are the
    /// RMA transfer's source buffer. Kept for the benchmark seam
    /// (`benchmark/src/sut.rs`); library code uses
    /// [`Window::try_put_vectored`].
    ///
    /// # Panics
    /// If the target is dead or the write would overrun its exposure.
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn put_chunk(&self, target: Rank, offset: usize, chunk: &Chunk) {
        self.try_put_vectored(target, offset, &[chunk])
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Scatter-gather one-sided write: `parts` land back-to-back at
    /// `offset` in `target`'s window under a single exposure lock. This is
    /// how a record header on the stack and a payload still inside the
    /// application buffer travel as *one* RMA transfer with no local
    /// coalescing copy.
    ///
    /// A put to a crashed rank's exposure fails fast with
    /// [`CommError::RankFailed`] (the memory behind a dead node's window is
    /// gone).
    ///
    /// # Panics
    /// If the write would overrun the target's exposure — an out-of-bounds
    /// RMA access corrupts unrelated memory on real hardware, so the
    /// simulated runtime fails fast instead.
    pub fn try_put_vectored(
        &self,
        target: Rank,
        offset: usize,
        parts: &[&[u8]],
    ) -> Result<(), CommError> {
        if let Some(rt) = &self.fault_rt {
            if rt.is_dead(target) {
                return Err(CommError::RankFailed { rank: target });
            }
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let buf = &self.handles[target as usize];
        assert!(
            offset + total <= buf.size,
            "rank {}: put of {total} bytes at offset {offset} overruns window of {} on rank {target}",
            self.rank,
            buf.size
        );
        let mut guard = lock(&buf.data);
        let mut at = offset;
        for part in parts {
            guard[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        drop(guard);
        if target != self.rank {
            self.counters[self.rank as usize]
                .count_send(crate::stats::Transport::Rma, total as u64);
            self.counters[target as usize].count_recv(crate::stats::Transport::Rma, total as u64);
        }
        Ok(())
    }

    /// Synchronization fence: completes all outstanding one-sided accesses
    /// in this epoch. Local reads of data put by peers are valid only after
    /// a fence. Must be called by every rank. Kept for the benchmark seam
    /// (`benchmark/src/sut.rs`); library code uses [`Window::try_fence`].
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn fence(&self, comm: &mut Comm) {
        self.try_fence(comm).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Window::fence`]: fails with [`CommError::RankFailed`]
    /// when a rank died before or during the fence.
    pub fn try_fence(&self, comm: &mut Comm) -> Result<(), CommError> {
        comm.enter_phase("win_fence");
        let out = comm.try_barrier();
        comm.exit_phase("win_fence");
        out
    }

    /// Steal the local exposure as frozen [`Bytes`] without copying (valid
    /// after the *closing* fence — no further puts may target this rank).
    /// The window's backing buffer moves into the returned `Bytes`; the
    /// exposure is left empty, so later RMA access to this rank's window
    /// is a bounds violation by construction.
    pub fn take_local(&self) -> Bytes {
        Bytes::from(std::mem::take(&mut *lock(
            &self.handles[self.rank as usize].data,
        )))
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use replidedup_buf::Chunk;

    use crate::comm::WorldConfig;
    use crate::fault::{CommError, FaultPlan, FaultTrigger};

    #[test]
    fn put_lands_at_offset() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(8);
                if comm.rank() == 0 {
                    win.try_put_vectored(1, 2, &[&[1, 2, 3]]).unwrap();
                }
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        assert_eq!(out.results[1], vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(out.results[0], vec![0; 8]);
    }

    #[test]
    fn heterogeneous_window_sizes() {
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let me = comm.rank() as usize;
                let win = comm.win_create(me * 4);
                // Everyone writes one byte into rank 2's window, disjointly.
                if me < 2 {
                    win.put_chunk(2, me, &Chunk::from(vec![me as u8 + 10]));
                }
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        let sizes: Vec<usize> = out.results.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![0, 4, 8]);
        assert_eq!(out.results[2][..2], [10, 11]);
    }

    #[test]
    fn disjoint_concurrent_puts_all_land() {
        let out = WorldConfig::default()
            .launch(8, |comm| {
                let n = comm.size() as usize;
                let win = comm.win_create(if comm.rank() == 0 { n } else { 0 });
                let mine = Chunk::from(vec![comm.rank() as u8 + 1]);
                win.put_chunk(0, comm.rank() as usize, &mine);
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        assert_eq!(out.results[0], (1..=8u8).collect::<Vec<_>>());
    }

    #[test]
    fn self_put_is_not_counted_as_traffic() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.try_put_vectored(0, 0, &[&[1, 2, 3, 4]]).unwrap();
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        assert_eq!(out.results[0], vec![1, 2, 3, 4]);
        assert_eq!(out.traffic.ranks[0].rma_put, 0);
        assert_eq!(out.traffic.ranks[0].rma_recv, 0);
    }

    #[test]
    fn rma_traffic_is_attributed_to_both_sides() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(100);
                if comm.rank() == 0 {
                    win.put_chunk(1, 0, &Chunk::from(vec![0xAA; 64]));
                }
                win.fence(comm);
            })
            .expect_all();
        assert_eq!(out.traffic.ranks[0].rma_put, 64);
        assert_eq!(out.traffic.ranks[1].rma_recv, 64);
        assert_eq!(out.traffic.ranks[1].rma_put, 0);
    }

    #[test]
    fn successive_windows_do_not_cross_talk() {
        // Back-to-back creates with no fence between them: a fast rank
        // deposits its next window while a slow peer still reads the last
        // one, so the exposure table must key entries by sequence number.
        const WINDOWS: u8 = 32;
        for config in [
            WorldConfig::default(),
            WorldConfig::default().with_workers(1),
        ] {
            let out = config
                .launch(4, |comm| {
                    let (me, n) = (comm.rank(), comm.size());
                    let windows: Vec<_> = (0..WINDOWS)
                        .map(|w| {
                            let win = comm.win_create(2);
                            win.try_put_vectored((me + 1) % n, 0, &[&[me as u8, w]])
                                .unwrap();
                            win
                        })
                        .collect();
                    windows
                        .iter()
                        .map(|win| {
                            win.fence(comm);
                            win.take_local().to_vec()
                        })
                        .collect::<Vec<_>>()
                })
                .expect_all();
            for (me, locals) in out.results.iter().enumerate() {
                let left = ((me + 3) % 4) as u8;
                for (w, local) in (0..WINDOWS).zip(locals) {
                    assert_eq!(*local, vec![left, w], "rank {me} window {w}");
                }
            }
        }
    }

    #[test]
    fn rank_dying_before_create_fails_every_survivor() {
        for workers in [None, Some(1)] {
            let plan = FaultPlan::new(29).crash(1, FaultTrigger::PhaseStart("win_create".into()));
            let mut config = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(2))
                .with_faults(plan);
            if let Some(w) = workers {
                config = config.with_workers(w);
            }
            let out = config.launch(4, |comm| comm.try_win_create(8).err());
            assert_eq!(out.crashed_ranks(), vec![1], "workers {workers:?}");
            for rank in [0usize, 2, 3] {
                assert_eq!(
                    out.outcomes[rank].as_completed(),
                    Some(&Some(CommError::RankFailed { rank: 1 })),
                    "rank {rank}, workers {workers:?}"
                );
            }
        }
    }

    #[test]
    fn misordered_create_is_a_typed_error() {
        // Rank 0 calls a barrier where its peers create a window: the
        // barrier is their opening fence, so it completes, but rank 0
        // deposited nothing.
        let out = WorldConfig::default()
            .launch(3, |comm| {
                if comm.rank() == 0 {
                    comm.try_barrier().err()
                } else {
                    comm.try_win_create(4).err()
                }
            })
            .expect_all();
        assert_eq!(out.results[0], None);
        for rank in 1..3 {
            assert_eq!(
                out.results[rank as usize],
                Some(CommError::MissingExposure { rank, peer: 0 })
            );
        }
    }

    #[test]
    #[should_panic(expected = "overruns window")]
    fn out_of_bounds_put_panics() {
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.put_chunk(0, 2, &Chunk::from(vec![0; 4]));
            })
            .expect_all();
    }

    #[test]
    fn vectored_put_lands_parts_back_to_back() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(8);
                if comm.rank() == 0 {
                    win.try_put_vectored(1, 1, &[&[1, 2], &[3], &[4, 5]])
                        .unwrap();
                }
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        assert_eq!(out.results[1], vec![0, 1, 2, 3, 4, 5, 0, 0]);
        // The vectored put counts once, as the sum of its parts.
        assert_eq!(out.traffic.ranks[0].rma_put, 5);
        assert_eq!(out.traffic.ranks[1].rma_recv, 5);
    }

    #[test]
    fn chunk_put_and_get_roundtrip() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(4);
                if comm.rank() == 0 {
                    let app_buffer = Chunk::from(vec![7u8, 8, 9, 10]);
                    win.put_chunk(1, 0, &app_buffer.slice(1..3));
                }
                win.fence(comm);
                win.take_local().to_vec()
            })
            .expect_all();
        assert_eq!(out.results[1], vec![8, 9, 0, 0]);
    }

    #[test]
    fn take_local_is_zero_copy_and_empties_the_exposure() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(4);
                win.try_put_vectored(0, 0, &[&[1, 2, 3, 4]]).unwrap();
                win.fence(comm);
                let copied_before = replidedup_buf::thread_bytes_copied();
                let frozen = win.take_local();
                let copied = replidedup_buf::thread_bytes_copied() - copied_before;
                (frozen.to_vec(), win.take_local().len(), copied)
            })
            .expect_all();
        let (frozen, left, copied_by_steal) = &out.results[0];
        assert_eq!(*frozen, vec![1, 2, 3, 4]);
        assert_eq!(*left, 0, "exposure stolen");
        // The steal records no copy: the backing Vec moves into the Bytes.
        assert_eq!(*copied_by_steal, 0);
    }

    #[test]
    fn dropped_windows_recycle_their_backing() {
        use replidedup_buf::global_pool;
        // Warm the shelf, then show a same-sized window reuses it.
        let size = 1 << 16;
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(size);
                win.fence(comm);
            })
            .expect_all();
        let before = global_pool().stats();
        WorldConfig::default()
            .launch(1, |comm| {
                let win = comm.win_create(size);
                win.fence(comm);
            })
            .expect_all();
        let after = global_pool().stats();
        assert!(
            after.hits > before.hits,
            "second window must come from the pool shelf"
        );
    }

    #[test]
    fn zero_sized_window_is_legal() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let win = comm.win_create(0);
                win.fence(comm);
                win.take_local().len()
            })
            .expect_all();
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn rma_to_dead_rank_fails_fast() {
        let plan = FaultPlan::new(21).crash(1, FaultTrigger::PhaseStart("doomed".into()));
        let config = WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan);
        let out = config.launch(3, |comm| {
            let win = comm.try_win_create(8).expect("all ranks alive at create");
            if comm.rank() == 1 {
                // Wait for explicit acks so the crash strictly follows every
                // rank finishing win_create (otherwise a survivor still in
                // the opening fence would see the death and fail creation).
                comm.try_recv_chunk(0, 99).unwrap();
                comm.try_recv_chunk(2, 99).unwrap();
                comm.enter_phase("doomed");
                comm.exit_phase("doomed");
                return (Ok(()), Ok(()));
            }
            comm.try_send_bytes(1, 99, bytes::Bytes::from_static(b"ok"))
                .unwrap();
            while comm.failed_ranks().is_empty() {
                comm.sleep(Duration::from_millis(1));
            }
            let put = win.try_put_vectored(1, 0, &[&[1, 2]]);
            let fence = win.try_fence(comm);
            (put, fence)
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        for rank in [0usize, 2] {
            let (put, fence) = out.outcomes[rank].as_completed().unwrap();
            assert_eq!(*put, Err(CommError::RankFailed { rank: 1 }), "rank {rank}");
            assert_eq!(
                *fence,
                Err(CommError::RankFailed { rank: 1 }),
                "rank {rank}"
            );
        }
    }
}
