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
//! creation is collective (handles are exchanged out-of-band, as a real MPI
//! implementation registers memory out-of-band), `put` is one-sided and
//! completes at the next fence, and local reads are only valid after a
//! fence. In this runtime a `put` is a locked `memcpy` into the target
//! buffer, so the fence reduces to a barrier.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use replidedup_buf::{global_pool, Chunk};

use crate::comm::{Comm, CtrlMsg, Rank};
use crate::fault::{CommError, FaultRuntime};

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
    pub fn win_create(&mut self, local_size: usize) -> Window {
        self.try_win_create(local_size)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::win_create`]: the handle handshake and the opening
    /// fence detect rank deaths and fail with [`CommError`] instead of
    /// timing out.
    pub fn try_win_create(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.enter_phase("win_create");
        let out = self.try_win_create_inner(local_size);
        self.exit_phase("win_create");
        out
    }

    fn try_win_create_inner(&mut self, local_size: usize) -> Result<Window, CommError> {
        self.tracer()
            .gauge_bytes("win_local_bytes", local_size as u64);
        // Window and collective sequence numbers must advance exactly once
        // per call on every rank, even when this rank bails out early:
        // survivors that fail at different points must still agree on the
        // tag namespace of their next operation.
        self.win_seq += 1;
        let seq = self.win_seq;
        let epoch = match self.coll_entry_guard() {
            Ok(epoch) => epoch,
            Err(e) => {
                self.next_op(); // the closing fence's sequence slot
                return Err(e);
            }
        };
        let me = self.rank();
        let n = self.size();
        // Pool-backed exposure: recycled buffers arrive cleared, so the
        // resize zero-fills and every window starts all-zero (put offsets
        // may leave gaps that readers expect to be zero).
        let mut backing = global_pool().take(local_size);
        backing.resize(local_size, 0);
        let mine = Arc::new(WinBuf {
            data: Mutex::new(backing),
            size: local_size,
        });
        for dst in 0..n {
            if dst != me {
                self.ctrl_send(
                    dst,
                    CtrlMsg::Win {
                        src: me,
                        seq,
                        handle: Arc::clone(&mine),
                    },
                );
            }
        }
        let mut handles: Vec<Option<Arc<WinBuf>>> = (0..n).map(|_| None).collect();
        handles[me as usize] = Some(mine);
        for src in 0..n {
            if src != me {
                match self.try_ctrl_recv_win(src, seq, epoch) {
                    Ok(h) => handles[src as usize] = Some(h),
                    Err(e) => {
                        self.next_op(); // the closing fence's sequence slot
                        return Err(e);
                    }
                }
            }
        }
        let window = Window {
            rank: me,
            handles: handles
                .into_iter()
                .map(|h| h.expect("all handles collected"))
                .collect(),
            counters: Arc::clone(self.counters()),
            fault_rt: self.fault_rt().cloned(),
        };
        // Opening fence: no rank may put before every rank has exposed.
        self.try_barrier()?;
        Ok(window)
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
        let mut guard = buf.data.lock().unwrap();
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
        Bytes::from(std::mem::take(
            &mut *self.handles[self.rank as usize].data.lock().unwrap(),
        ))
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
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let w1 = comm.win_create(2);
                let w2 = comm.win_create(2);
                if comm.rank() == 0 {
                    w1.try_put_vectored(1, 0, &[&[1, 1]]).unwrap();
                    w2.try_put_vectored(1, 0, &[&[2, 2]]).unwrap();
                }
                w1.fence(comm);
                w2.fence(comm);
                (w1.take_local().to_vec(), w2.take_local().to_vec())
            })
            .expect_all();
        assert_eq!(out.results[1].0, vec![1, 1]);
        assert_eq!(out.results[1].1, vec![2, 2]);
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
