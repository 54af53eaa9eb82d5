//! MPI-style collectives built on matched point-to-point messages.
//!
//! The paper relies on three collectives: an `ALLREDUCE` with a user-defined
//! merge operator (the fingerprint reduction, "efficient — logarithmic in
//! the number of processes"), an `ALLGATHER` (load dissemination for the
//! rank shuffle), and an implicit barrier/fence around the RMA exchange.
//! This module provides those three, implemented with the textbook
//! algorithms an MPI library would pick at these message sizes, and one
//! more for recovery:
//!
//! * barrier — dissemination (⌈log₂ N⌉ rounds),
//! * allreduce — recursive doubling with pre/post folding for
//!   non-power-of-two worlds,
//! * allgather — Bruck (⌈log₂ N⌉ rounds of one frame each; every rank
//!   still sends N - 1 blocks, the bytes a ring allgather sends),
//! * gather-scatter — flat: every rank sends its value to a root, which
//!   runs one plan over them all and sends each rank its own entry. The
//!   recovery collectives plan with it, so a plan is computed once and a
//!   rank receives only its part: bytes grow with N, not N² as when every
//!   rank allgathers the world's inputs and plans alone. It is flat, not a
//!   tree, because the root decodes every value anyway; a tree would add
//!   copies without cutting the root's work.
//!
//! All internal messages are tagged under the reserved tag space and
//! namespaced by the per-rank collective sequence number, so a collective
//! can never consume a message belonging to an earlier or later operation.
//!
//! Every collective has a fallible `try_*` form that surfaces rank deaths
//! as [`CommError`] instead of panicking. Failure semantics: at entry each
//! rank refuses to start if any rank is already dead; a death *during* the
//! collective fails every blocked receive. Survivors of an interrupted
//! collective may diverge (some completed it, some got an error — exactly
//! like real MPI), but the first rank whose receive failed revokes the
//! world: every rank's next receive with no queued match fails, and every
//! next collective fails at its entry guard, so divergence never
//! propagates further than one operation.

use bytes::Bytes;

use crate::comm::{Comm, Rank};
use crate::fault::CommError;
use crate::stats::Transport;
use crate::wire::{Frame, Wire, WireError};

/// Allreduce round of the unfold step, which hands the result back to the
/// ranks folded in before recursive doubling. Doubling rounds count up
/// from 1 and stay far below it.
const UNFOLD_ROUND: u16 = u16::MAX;

/// Decode a peer's collective value, naming both ranks on failure.
fn decode<T: Wire>(payload: &[u8], rank: Rank, peer: Rank) -> Result<T, CommError> {
    T::from_bytes(payload).map_err(|error| CommError::Undecodable { rank, peer, error })
}

impl Comm {
    /// Block until every rank has entered the barrier. Kept for the
    /// benchmark seam (`benchmark/src/sut.rs`); library code uses
    /// [`Comm::try_barrier`].
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn barrier(&mut self) {
        self.try_barrier().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Comm::barrier`]: fails with [`CommError::RankFailed`]
    /// when a rank is dead at entry or dies while the barrier runs.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.enter_phase("coll_barrier");
        let op = self.next_op();
        let out = self.coll_entry_guard().and_then(|()| self.barrier_impl(op));
        self.exit_phase("coll_barrier");
        out
    }

    /// All-reduce with a user operator; see the `allreduce_impl` internals
    /// in this module for algorithm and determinism guarantees. Kept for
    /// the benchmark seam (`benchmark/src/sut.rs`); the mini-apps' dot
    /// products call it too.
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.try_allreduce(value, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allreduce`]; a peer's value that does not decode
    /// fails with [`CommError::Undecodable`].
    pub fn try_allreduce<T, F>(&mut self, value: T, op: F) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.enter_phase("coll_allreduce");
        let seq = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|()| self.allreduce_impl(value, op, seq));
        self.exit_phase("coll_allreduce");
        out
    }

    /// All-gather: every rank contributes one value and receives the full
    /// rank-ordered vector. Kept for the benchmark seam
    /// (`benchmark/src/sut.rs`).
    #[allow(clippy::panic, reason = "benchmark seam")]
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.try_allgather(value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allgather`]; a block that does not decode fails
    /// with [`CommError::Undecodable`].
    pub fn try_allgather<T: Wire>(&mut self, value: T) -> Result<Vec<T>, CommError> {
        self.enter_phase("coll_allgather");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|()| self.allgather_impl(value, op));
        self.exit_phase("coll_allgather");
        out
    }

    /// Gather-scatter: every rank sends `value` to `root`, which calls
    /// `plan` once on the rank-ordered values and sends each rank its own
    /// entry of the result; every rank returns its entry. `plan` runs on
    /// the root only, and must return one entry per rank.
    ///
    /// A value that does not decode at the root fails the root with
    /// [`CommError::Undecodable`], and a plan of the wrong length fails it
    /// with [`CommError::NoPlanEntry`]; either way the root tells every
    /// other rank, which fails with [`CommError::NoPlanEntry`] at once
    /// instead of waiting out the receive timeout. A death during the call
    /// fails every rank still waiting with [`CommError::RankFailed`].
    pub fn try_gather_scatter<T: Wire, U: Wire>(
        &mut self,
        root: Rank,
        value: T,
        plan: impl FnOnce(Vec<T>) -> Vec<U>,
    ) -> Result<U, CommError> {
        self.enter_phase("coll_gather_scatter");
        let op = self.next_op();
        let out = self
            .coll_entry_guard()
            .and_then(|()| self.gather_scatter_impl(root, value, plan, op));
        self.exit_phase("coll_gather_scatter");
        out
    }
}

impl Comm {
    /// Dissemination barrier, ⌈log₂ N⌉ rounds.
    fn barrier_impl(&mut self, op: u64) -> Result<(), CommError> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let me = self.rank();
        let mut round = 0u16;
        let mut dist = 1u32;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            let tag = Self::coll_tag(op, round);
            self.try_send_raw(dst, tag, Bytes::new(), Transport::Collective)?;
            self.try_recv_raw_guarded(src, tag, Transport::Collective)?;
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
    fn allreduce_impl<T, F>(&mut self, value: T, op: F, seq: u64) -> Result<T, CommError>
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
            let tag = Self::coll_tag(seq, UNFOLD_ROUND);
            let payload = self.try_recv_raw_guarded(me - p2, tag, Transport::Collective)?;
            return decode(&payload, me, me - p2);
        }
        if me < rem {
            let tag = Self::coll_tag(seq, 0);
            let payload = self.try_recv_raw_guarded(me + p2, tag, Transport::Collective)?;
            let other = decode(&payload, me, me + p2)?;
            // Lower-rank operand first: acc belongs to me < me + p2.
            acc = op(acc, other);
        }
        // Recursive doubling among ranks 0..p2.
        let mut round = 1u16;
        let mut dist = 1u32;
        while dist < p2 {
            let partner = me ^ dist;
            let tag = Self::coll_tag(seq, round);
            self.try_send_raw(partner, tag, acc.to_bytes(), Transport::Collective)?;
            let payload = self.try_recv_raw_guarded(partner, tag, Transport::Collective)?;
            let other = decode(&payload, me, partner)?;
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
            let tag = Self::coll_tag(seq, UNFOLD_ROUND);
            self.try_send_raw(me + p2, tag, acc.to_bytes(), Transport::Collective)?;
        }
        Ok(acc)
    }

    /// All-gather: every rank contributes one value and receives the full
    /// rank-ordered vector. Bruck's algorithm: `held[i]` is the block that
    /// started at rank `me + i`, and in round `r` (`d = 2^r`) a rank sends
    /// its first `min(d, N - d)` blocks to `me - d` and appends the ones
    /// `me + d` sends it. That is ⌈log₂ N⌉ rounds of one frame each, one
    /// zero-copy segment per block with no length headers, so the world
    /// sends (N - 1) · Σ|block| bytes, as a ring allgather does.
    fn allgather_impl<T: Wire>(&mut self, value: T, seq: u64) -> Result<Vec<T>, CommError> {
        let n = self.size();
        let me = self.rank();
        let mut held = Vec::with_capacity(n as usize);
        held.push(value.to_bytes());
        let mut round = 0u16;
        let mut dist = 1u32;
        while dist < n {
            let count = dist.min(n - dist) as usize;
            let (dst, src) = ((me + n - dist) % n, (me + dist) % n);
            let tag = Self::coll_tag(seq, round);
            let mut frame = Frame::new();
            for block in &held[..count] {
                frame.push(block.clone());
            }
            self.try_send_frame_raw(dst, tag, frame, Transport::Collective)?;
            let segments = self
                .try_recv_frame_guarded(src, tag, Transport::Collective)?
                .into_segments();
            if segments.len() != count {
                return Err(CommError::Undecodable {
                    rank: me,
                    peer: src,
                    error: WireError::Malformed {
                        what: "allgather round frame",
                    },
                });
            }
            held.extend(segments);
            round += 1;
            dist <<= 1;
        }
        // `held` is rotated by `me`; decode in rank order so the lowest
        // undecodable origin is the one reported.
        (0..n)
            .map(|origin| decode(&held[((origin + n - me) % n) as usize], me, origin))
            .collect()
    }

    /// Flat gather-scatter. Round 0 carries every non-root's value to the
    /// root, received in rank order; round 1 carries each non-root its
    /// entry as a one-segment frame, or an empty frame when the root has
    /// none to give (a value that did not decode, or a plan of the wrong
    /// length). The root sends to every rank before it reports a failed
    /// send, so a dead rank never costs a live one its entry.
    fn gather_scatter_impl<T: Wire, U: Wire>(
        &mut self,
        root: Rank,
        value: T,
        plan: impl FnOnce(Vec<T>) -> Vec<U>,
        seq: u64,
    ) -> Result<U, CommError> {
        let (n, me) = (self.size(), self.rank());
        assert!(
            root < n,
            "gather-scatter root {root} outside a world of {n}"
        );
        let (gather, scatter) = (Self::coll_tag(seq, 0), Self::coll_tag(seq, 1));
        if me != root {
            self.try_send_raw(root, gather, value.to_bytes(), Transport::Collective)?;
            let mut entry = self
                .try_recv_frame_guarded(root, scatter, Transport::Collective)?
                .into_segments();
            return match (entry.pop(), entry.is_empty()) {
                (Some(bytes), true) => decode(&bytes, me, root),
                _ => Err(CommError::NoPlanEntry { rank: me, root }),
            };
        }
        // Receive every value before deciding, so no peer's message is
        // left behind; the first undecodable one is the failure reported.
        let mut values = Vec::with_capacity(n as usize);
        let mut failed = None;
        for src in (0..n).filter(|&src| src != root) {
            let bytes = self.try_recv_raw_guarded(src, gather, Transport::Collective)?;
            match decode(&bytes, me, src) {
                Ok(v) => values.push(v),
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        let mut entries = match failed {
            None => {
                values.insert(root as usize, value);
                Some(plan(values)).filter(|e| e.len() == n as usize)
            }
            Some(_) => None,
        }
        .map(Vec::into_iter);
        let (mut mine, mut sent) = (None, Ok(()));
        for dst in 0..n {
            let entry = entries.as_mut().and_then(Iterator::next);
            if dst == root {
                mine = entry;
                continue;
            }
            let frame = entry.map_or_else(Frame::new, |e| Frame::single(e.to_bytes()));
            sent = sent.and(self.try_send_frame_raw(dst, scatter, frame, Transport::Collective));
        }
        sent?;
        match (mine, failed) {
            (Some(entry), _) => Ok(entry),
            (None, Some(e)) => Err(e),
            (None, None) => Err(CommError::NoPlanEntry { rank: me, root }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::UNFOLD_ROUND;
    use crate::comm::{Comm, WorldConfig};
    use crate::fault::{CommError, FaultPlan, FaultTrigger};
    use crate::stats::Transport;
    use crate::wire::{Frame, Wire, WireError, WireResult};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Every (sequence, round) pair a run can produce, the unfold step
    /// included, maps to its own tag: no round can reach into the
    /// sequence bits.
    #[test]
    fn collective_tags_are_distinct_per_sequence_and_round() {
        let rounds: Vec<u16> = (0..=40)
            .chain([1_000, UNFOLD_ROUND - 1, UNFOLD_ROUND])
            .collect();
        let mut seen = HashSet::new();
        for seq in [1u64, 2, 3, 255, 65_535, 65_536, 65_537, 1 << 40] {
            for &round in &rounds {
                assert!(
                    seen.insert(Comm::coll_tag(seq, round)),
                    "seq {seq} round {round} aliases an earlier tag"
                );
            }
        }
    }

    /// Encodes fine, never decodes.
    struct Undecodable;

    impl Wire for Undecodable {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.push(0);
        }

        fn decode(_input: &mut &[u8]) -> WireResult<Self> {
            Err(WireError::Malformed {
                what: "Undecodable",
            })
        }
    }

    #[test]
    fn undecodable_values_fail_collectives_typed() {
        let error = WireError::Malformed {
            what: "Undecodable",
        };
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let reduced = comm.try_allreduce(Undecodable, |a, _| a).err();
                let gathered = comm.try_allgather(Undecodable).err();
                let (me, n) = (comm.rank(), comm.size());
                comm.try_send_val((me + 1) % n, 5, &Undecodable).unwrap();
                let received = comm.try_recv_val::<Undecodable>((me + n - 1) % n, 5).err();
                (me, reduced, gathered, received)
            })
            .expect_all();
        for (me, reduced, gathered, received) in out.results {
            // The first recursive-doubling partner is `me ^ 1`; the
            // allgather decodes its blocks in rank order, from rank 0.
            assert_eq!(
                reduced,
                Some(CommError::Undecodable {
                    rank: me,
                    peer: me ^ 1,
                    error: error.clone(),
                })
            );
            assert_eq!(
                gathered,
                Some(CommError::Undecodable {
                    rank: me,
                    peer: 0,
                    error: error.clone(),
                })
            );
            assert_eq!(
                received,
                Some(CommError::Undecodable {
                    rank: me,
                    peer: (me + 3) % 4,
                    error: error.clone(),
                })
            );
        }
    }

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

    /// Encodes as its bare bytes, with no length prefix, so an empty
    /// block is an empty segment on the wire.
    #[derive(Debug, PartialEq)]
    struct Raw(Vec<u8>);

    impl Wire for Raw {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }

        fn decode(input: &mut &[u8]) -> WireResult<Self> {
            Ok(Raw(std::mem::take(input).to_vec()))
        }
    }

    /// Rank `r`'s block: sizes 0, 2, 4, 1, 3 repeating, so every world
    /// past one rank mixes sizes and rank 0's block is empty.
    fn block(rank: u32) -> Raw {
        Raw(vec![rank as u8; (rank as usize * 7) % 5])
    }

    #[test]
    fn allgather_is_log_depth_and_sends_the_rings_bytes() {
        for n in [1u32, 2, 3, 5, 7, 8, 13, 16, 128] {
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    let before = comm.traffic().msgs_sent;
                    let all = comm.allgather(block(comm.rank()));
                    (all, comm.traffic().msgs_sent - before)
                })
                .expect_all();
            let expect: Vec<Raw> = (0..n).map(block).collect();
            let rounds = u64::from(n.next_power_of_two().trailing_zeros());
            for (rank, (all, msgs)) in out.results.iter().enumerate() {
                assert_eq!(*all, expect, "n={n} rank {rank}: blocks out of rank order");
                assert_eq!(
                    *msgs, rounds,
                    "n={n} rank {rank}: not one message per round"
                );
            }
            let total: u64 = expect.iter().map(|b| b.0.len() as u64).sum();
            let sent: u64 = out.traffic.ranks.iter().map(|t| t.coll_sent).sum();
            assert_eq!(
                sent,
                u64::from(n - 1) * total,
                "n={n}: not the ring's bytes"
            );
        }
    }

    #[test]
    fn a_round_frame_with_the_wrong_segment_count_is_undecodable() {
        let out = WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    return comm.try_allgather(0u32).err();
                }
                // Round 0 of a two-rank allgather carries one block; send
                // rank 0 a frame of two in its place.
                let tag = Comm::coll_tag(comm.op_seq + 1, 0);
                let mut frame = Frame::new();
                frame.push(1u32.to_bytes());
                frame.push(2u32.to_bytes());
                comm.try_send_frame_raw(0, tag, frame, Transport::Collective)
                    .err()
            })
            .expect_all();
        assert_eq!(
            out.results,
            vec![
                Some(CommError::Undecodable {
                    rank: 0,
                    peer: 1,
                    error: WireError::Malformed {
                        what: "allgather round frame",
                    },
                }),
                None,
            ]
        );
    }

    #[test]
    fn gather_scatter_plans_once_at_the_root_over_rank_ordered_values() {
        for n in [1u32, 2, 3, 8, 128] {
            let plans = AtomicUsize::new(0);
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    let before = comm.traffic();
                    let entry = comm
                        .try_gather_scatter(0, u64::from(comm.rank()) * 3, |values| {
                            plans.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(
                                values,
                                (0..u64::from(n)).map(|r| r * 3).collect::<Vec<_>>()
                            );
                            values.iter().map(|v| vec![*v; 2]).collect()
                        })
                        .unwrap();
                    let after = comm.traffic();
                    (entry, after.msgs_sent - before.msgs_sent)
                })
                .expect_all();
            assert_eq!(plans.load(Ordering::SeqCst), 1, "n={n}: the plan runs once");
            for (rank, (entry, msgs)) in (0u64..).zip(out.results) {
                assert_eq!(entry, vec![rank * 3; 2], "n={n}: rank {rank}'s own entry");
                let expect = if rank == 0 { u64::from(n) - 1 } else { 1 };
                assert_eq!(msgs, expect, "n={n} rank {rank}: flat, one message a side");
            }
        }
    }

    /// Every survivor of a gather-scatter whose root or a non-root dies
    /// fails typed, long before a 10 s receive timeout.
    #[test]
    fn gather_scatter_fails_fast_when_its_root_or_a_peer_dies() {
        let timeout = Duration::from_secs(10);
        for victim in [0u32, 3] {
            let plan = FaultPlan::new(14).crash(
                victim,
                FaultTrigger::PhaseStart("coll_gather_scatter".into()),
            );
            let out = WorldConfig::default()
                .with_recv_timeout(timeout)
                .with_faults(plan)
                .launch(5, |comm| {
                    let start = Instant::now();
                    let got = comm.try_gather_scatter(0, comm.rank(), |v| v);
                    (got, start.elapsed())
                });
            assert_eq!(out.crashed_ranks(), vec![victim]);
            for (rank, o) in out.outcomes.iter().enumerate() {
                if rank as u32 == victim {
                    continue;
                }
                let (got, waited) = o.as_completed().unwrap();
                assert_eq!(
                    *got,
                    Err(CommError::RankFailed { rank: victim }),
                    "victim {victim} rank {rank}"
                );
                assert!(
                    *waited < timeout / 10,
                    "victim {victim} rank {rank}: {waited:?}"
                );
            }
        }
    }

    /// An undecodable value, and a plan of the wrong length, fail every
    /// rank typed and at once.
    #[test]
    fn gather_scatter_failures_at_the_root_reach_every_rank_at_once() {
        let timeout = Duration::from_secs(10);
        let error = WireError::Malformed {
            what: "Undecodable",
        };
        let out = WorldConfig::default()
            .with_recv_timeout(timeout)
            .launch(4, |comm| {
                let start = Instant::now();
                let undecodable = comm
                    .try_gather_scatter(0, Undecodable, |_| vec![0u8; 4])
                    .err();
                let short = comm.try_gather_scatter(0, 1u8, |v| v[1..].to_vec()).err();
                let fine = comm.try_gather_scatter(0, comm.rank(), |v| v);
                (undecodable, short, fine, start.elapsed())
            })
            .expect_all();
        for (rank, (undecodable, short, fine, waited)) in (0u32..).zip(out.results) {
            let expect = if rank == 0 {
                CommError::Undecodable {
                    rank: 0,
                    peer: 1,
                    error: error.clone(),
                }
            } else {
                CommError::NoPlanEntry { rank, root: 0 }
            };
            assert_eq!(undecodable, Some(expect), "rank {rank}");
            assert_eq!(short, Some(CommError::NoPlanEntry { rank, root: 0 }));
            assert_eq!(fine, Ok(rank), "a failed call leaves the next one intact");
            assert!(waited < timeout / 10, "rank {rank}: {waited:?}");
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
    fn allgather_fails_typed_when_a_rank_dies_mid_operation() {
        // Non-power-of-two worlds, where Bruck's last round is partial:
        // every survivor fails the allgather and then the next
        // collective's entry guard, and none hangs.
        for (n, victim) in [(5u32, 2u32), (7, 4)] {
            let plan =
                FaultPlan::new(13).crash(victim, FaultTrigger::PhaseStart("coll_allgather".into()));
            let out = fault_config(plan).launch(n, |comm| {
                let gathered = comm.try_allgather(comm.rank()).map(drop);
                (gathered, comm.try_barrier())
            });
            assert_eq!(out.crashed_ranks(), vec![victim], "n={n}");
            let failed = || Err(CommError::RankFailed { rank: victim });
            for (rank, o) in out.outcomes.iter().enumerate() {
                if rank as u32 == victim {
                    continue;
                }
                assert_eq!(
                    o.as_completed(),
                    Some(&(failed(), failed())),
                    "n={n} rank {rank}"
                );
            }
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
