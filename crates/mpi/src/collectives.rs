//! MPI-style collectives built on matched point-to-point messages.
//!
//! The paper relies on three collectives: an `ALLREDUCE` with a user-defined
//! merge operator (the fingerprint reduction, "efficient — logarithmic in
//! the number of processes"), an `ALLGATHER` (load dissemination for the
//! rank shuffle), and an implicit barrier/fence around the RMA exchange.
//! These are exactly the collectives this module provides, implemented with
//! the textbook algorithms an MPI library would pick at these message sizes:
//!
//! * barrier — dissemination (⌈log₂ N⌉ rounds),
//! * allreduce — recursive doubling with pre/post folding for
//!   non-power-of-two worlds,
//! * allgather — ring (exact N-1 steps, bandwidth-optimal).
//!
//! All internal messages are tagged under the reserved tag space and
//! namespaced by the per-rank collective sequence number, so a collective
//! can never consume a message belonging to an earlier or later operation.
//!
//! Every collective has a fallible `try_*` form that surfaces rank deaths
//! as [`CommError`] instead of panicking. Failure semantics: at entry each
//! rank snapshots the death epoch and refuses to start if any rank is
//! already dead; a death *during* the collective fails every blocked
//! receive. Survivors of an interrupted collective may diverge (some
//! completed it, some got an error — exactly like real MPI), but all of
//! them fail deterministically at the *next* collective's entry guard, so
//! divergence never propagates further than one operation.

use bytes::Bytes;

use crate::comm::Comm;
use crate::fault::CommError;
use crate::stats::Transport;
use crate::wire::Wire;

impl Comm {
    /// Block until every rank has entered the barrier. Kept for the
    /// benchmark seam (`benchmark/src/sut.rs`); library code uses
    /// [`Comm::try_barrier`].
    pub fn barrier(&mut self) {
        self.try_barrier().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Comm::barrier`]: fails with [`CommError::RankFailed`]
    /// when a rank is dead at entry or dies while the barrier runs.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.enter_phase("coll_barrier");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.barrier_impl(op, epoch));
        self.exit_phase("coll_barrier");
        out
    }

    /// All-reduce with a user operator; see the `allreduce_impl` internals
    /// in this module for algorithm and determinism guarantees. Kept for
    /// the benchmark seam (`benchmark/src/sut.rs`); the mini-apps' dot
    /// products and `reduce_global_view` call it too.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.try_allreduce(value, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T, F>(&mut self, value: T, op: F) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.enter_phase("coll_allreduce");
        let seq = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.allreduce_impl(value, op, seq, epoch));
        self.exit_phase("coll_allreduce");
        out
    }

    /// All-gather: every rank contributes one value and receives the full
    /// rank-ordered vector. Kept for the benchmark seam
    /// (`benchmark/src/sut.rs`).
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.try_allgather(value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allgather`].
    pub fn try_allgather<T: Wire>(&mut self, value: T) -> Result<Vec<T>, CommError> {
        self.enter_phase("coll_allgather");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|epoch| self.allgather_impl(value, op, epoch));
        self.exit_phase("coll_allgather");
        out
    }
}

impl Comm {
    /// Dissemination barrier, ⌈log₂ N⌉ rounds.
    fn barrier_impl(&mut self, op: u64, epoch: Option<u64>) -> Result<(), CommError> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let me = self.rank();
        let mut round = 0u32;
        let mut dist = 1u32;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            let tag = Self::coll_tag(op, round);
            self.try_send_raw(dst, tag, Bytes::new(), Transport::Collective)?;
            self.try_recv_raw_guarded(src, tag, Transport::Collective, epoch)?;
            round += 1;
            dist <<= 1;
        }
        Ok(())
    }

    /// All-reduce with a user operator. `op(a, b)` must be associative and
    /// commutative up to the equivalence the caller cares about. The
    /// reduction order is deterministic (operands are presented
    /// lower-aggregate-side first), so even an order-sensitive operator
    /// yields bit-identical results on every rank and across runs; in
    /// power-of-two worlds the order is exactly rank order.
    fn allreduce_impl<T, F>(
        &mut self,
        value: T,
        op: F,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = self.size();
        if n == 1 {
            return Ok(value);
        }
        let me = self.rank();
        let p2 = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
        let rem = n - p2;

        let mut acc = value;
        // Fold phase: ranks >= p2 hand their value to rank - p2.
        if me >= p2 {
            let tag = Self::coll_tag(seq, 0);
            self.try_send_raw(me - p2, tag, acc.to_bytes(), Transport::Collective)?;
            // Wait for the final result in the unfold phase.
            let tag = Self::coll_tag(seq, u32::MAX);
            let payload = self.try_recv_raw_guarded(me - p2, tag, Transport::Collective, epoch)?;
            return Ok(T::from_bytes(&payload)
                .unwrap_or_else(|e| panic!("rank {me} failed to decode allreduce result: {e}")));
        }
        if me < rem {
            let tag = Self::coll_tag(seq, 0);
            let payload = self.try_recv_raw_guarded(me + p2, tag, Transport::Collective, epoch)?;
            let other = T::from_bytes(&payload)
                .unwrap_or_else(|e| panic!("rank {me} failed to decode fold operand: {e}"));
            // Lower-rank operand first: acc belongs to me < me + p2.
            acc = op(acc, other);
        }
        // Recursive doubling among ranks 0..p2.
        let mut round = 1u32;
        let mut dist = 1u32;
        while dist < p2 {
            let partner = me ^ dist;
            let tag = Self::coll_tag(seq, round);
            self.try_send_raw(partner, tag, acc.to_bytes(), Transport::Collective)?;
            let payload = self.try_recv_raw_guarded(partner, tag, Transport::Collective, epoch)?;
            let other = T::from_bytes(&payload)
                .unwrap_or_else(|e| panic!("rank {me} failed to decode allreduce operand: {e}"));
            acc = if me < partner {
                op(acc, other)
            } else {
                op(other, acc)
            };
            round += 1;
            dist <<= 1;
        }
        // Unfold phase: hand the final value back to the folded ranks.
        if me < rem {
            let tag = Self::coll_tag(seq, u32::MAX);
            self.try_send_raw(me + p2, tag, acc.to_bytes(), Transport::Collective)?;
        }
        Ok(acc)
    }

    /// All-gather: every rank contributes one value and receives the full
    /// rank-ordered vector. Ring algorithm: N-1 steps, each rank forwards
    /// the block it received in the previous step.
    fn allgather_impl<T: Wire>(
        &mut self,
        value: T,
        seq: u64,
        epoch: Option<u64>,
    ) -> Result<Vec<T>, CommError> {
        let n = self.size();
        let me = self.rank();
        let mut blocks: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
        blocks[me as usize] = Some(value.to_bytes());
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for step in 0..n - 1 {
            let tag = Self::coll_tag(seq, step);
            // Forward the block that originated at rank (me - step).
            let origin_out = ((me + n - step) % n) as usize;
            let payload = blocks[origin_out]
                .clone()
                .expect("block to forward is present by induction");
            self.try_send_raw(right, tag, payload, Transport::Collective)?;
            let origin_in = ((me + n - step - 1) % n) as usize;
            let incoming = self.try_recv_raw_guarded(left, tag, Transport::Collective, epoch)?;
            blocks[origin_in] = Some(incoming);
        }
        Ok(blocks
            .into_iter()
            .enumerate()
            .map(|(i, block)| {
                let bytes = block.expect("ring completed: every block present");
                T::from_bytes(&bytes).unwrap_or_else(|e| {
                    panic!("rank {me} failed to decode allgather block {i}: {e}")
                })
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::WorldConfig;
    use crate::fault::{CommError, FaultPlan, FaultTrigger};
    use std::time::Duration;

    #[test]
    fn barrier_all_sizes() {
        for n in [1u32, 2, 3, 4, 7, 8, 13] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    for _ in 0..3 {
                        comm.barrier();
                    }
                    comm.rank()
                })
                .expect_all();
            assert_eq!(out.results.len(), n as usize);
        }
    }

    #[test]
    fn allreduce_sum_matches_closed_form() {
        for n in [1u32, 2, 3, 4, 5, 6, 7, 8, 12, 17] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    comm.allreduce(u64::from(comm.rank()) + 1, |a, b| a + b)
                })
                .expect_all();
            let expect = u64::from(n) * (u64::from(n) + 1) / 2;
            for r in out.results {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_noncommutative_is_deterministic_and_complete() {
        // Concatenation: every rank must see the identical merge order and
        // the result must contain each contribution exactly once. In
        // power-of-two worlds the order is additionally rank order.
        for n in [2u32, 3, 5, 8, 11, 16] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    comm.allreduce(vec![comm.rank()], |mut a, b| {
                        a.extend(b);
                        a
                    })
                })
                .expect_all();
            let first = out.results[0].clone();
            for r in &out.results {
                assert_eq!(*r, first, "n={n}: ranks disagree on merge order");
            }
            let mut sorted = first.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..n).collect::<Vec<_>>(),
                "n={n}: missing contributions"
            );
            if n.is_power_of_two() {
                assert_eq!(first, (0..n).collect::<Vec<_>>(), "n={n}: not rank ordered");
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = WorldConfig::default()
            .launch(6, |comm| comm.allreduce(comm.rank(), |a, b| a.max(b)))
            .expect_all();
        assert!(out.results.iter().all(|&r| r == 5));
    }

    #[test]
    fn allgather_all_sizes() {
        for n in [1u32, 2, 3, 4, 7, 9, 16] {
            let out = WorldConfig::default()
                .launch(n, |comm| comm.allgather(u64::from(comm.rank()) * 3))
                .expect_all();
            let expect: Vec<u64> = (0..u64::from(n)).map(|r| r * 3).collect();
            for r in out.results {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allgather_heterogeneous_payload_sizes() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let v: Vec<u8> = vec![comm.rank() as u8; comm.rank() as usize * 3];
                comm.allgather(v)
            })
            .expect_all();
        for r in out.results {
            assert_eq!(r.len(), 4);
            for (i, v) in r.iter().enumerate() {
                assert_eq!(v.len(), i * 3);
                assert!(v.iter().all(|&b| b == i as u8));
            }
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Back-to-back collectives must not steal each other's messages.
        let out = WorldConfig::default()
            .launch(5, |comm| {
                let sum = comm.allreduce(1u64, |a, b| a + b);
                comm.barrier();
                let all = comm.allgather(comm.rank());
                (sum, all.len() as u64)
            })
            .expect_all();
        for r in out.results {
            assert_eq!(r, (5, 5));
        }
    }

    #[test]
    fn traffic_conservation_across_collectives() {
        let out = WorldConfig::default()
            .launch(7, |comm| {
                comm.allreduce(vec![comm.rank(); 10], |a, _| a);
                comm.allgather(comm.rank());
                comm.barrier();
            })
            .expect_all();
        assert_eq!(out.traffic.total_sent(), out.traffic.total_recv());
    }

    #[test]
    fn allreduce_large_world() {
        let out = WorldConfig::default()
            .launch(64, |comm| comm.allreduce(1u64, |a, b| a + b))
            .expect_all();
        assert!(out.results.iter().all(|&r| r == 64));
    }

    fn fault_config(plan: FaultPlan) -> WorldConfig {
        WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan)
    }

    #[test]
    fn collectives_fail_typed_when_a_rank_dies_mid_operation() {
        // Rank 2 dies at the start of the collective; every survivor gets
        // a RankFailed error instead of hanging or panicking.
        let plan = FaultPlan::new(11).crash(2, FaultTrigger::PhaseStart("coll_allreduce".into()));
        let out = fault_config(plan).launch(5, |comm| comm.try_allreduce(1u64, |a, b| a + b));
        assert_eq!(out.crashed_ranks(), vec![2]);
        for (rank, o) in out.outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(
                o.as_completed(),
                Some(&Err(CommError::RankFailed { rank: 2 })),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn next_collective_entry_fails_after_divergence() {
        // Rank 1 dies between two barriers: whatever each survivor saw of
        // the first barrier, all of them must fail the second at entry.
        let plan = FaultPlan::new(12).crash(1, FaultTrigger::PhaseEnd("coll_barrier".into()));
        let out = fault_config(plan).launch(4, |comm| {
            let first = comm.try_barrier();
            let second = comm.try_barrier();
            (first, second)
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        for (rank, o) in out.outcomes.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            let (_, second) = o.as_completed().unwrap();
            assert_eq!(
                *second,
                Err(CommError::RankFailed { rank: 1 }),
                "rank {rank}"
            );
        }
    }
}
