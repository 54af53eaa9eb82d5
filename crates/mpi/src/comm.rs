//! The thread-rank world and per-rank communicator.
//!
//! `replidedup` runs each MPI-style rank as an OS thread inside one process.
//! Point-to-point messaging uses one unbounded `std::sync::mpsc` channel
//! per rank with MPI's matching semantics: a receive names `(source, tag)` and
//! messages that arrive before their matching receive are stashed in an
//! unexpected-message queue, exactly like an MPI implementation's UMQ.
//!
//! Why threads instead of real MPI: the reproduction target is the paper's
//! *algorithms and traffic*, not its wire protocol. An in-process runtime
//! executes the identical collective call sequence, measures exact per-rank
//! byte counts, and sidesteps the immature state of Rust MPI bindings; the
//! `replidedup-sim` crate converts measured traffic into cluster-scale
//! timings.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use bytes::Bytes;
use replidedup_trace::{Tracer, WorldTrace};

use crate::fault::{
    CommError, Fault, FaultAction, FaultPlan, FaultRuntime, FaultTrigger, InjectedCrash,
};
use crate::sched;
use crate::stats::{RankCounters, TrafficReport, Transport};
use crate::window::Exposures;
use crate::wire::{self, Chunk, Frame, Wire};

/// Rank index within a world (MPI `comm_rank`).
pub type Rank = u32;

/// Message tag. User tags must not have the top bit set; the runtime
/// reserves that space for collective-internal messages.
pub type Tag = u64;

/// Top bit marks runtime-internal tags.
pub(crate) const INTERNAL_TAG: Tag = 1 << 63;

/// Wake-notice tag: a rank that dies or revokes the world posts one empty
/// message with this tag to every peer, so ranks blocked in their mailbox
/// wait re-check the shared fault state.
/// Never stashed in the unexpected-message queue, never user-visible.
pub(crate) const WAKE_TAG: Tag = INTERNAL_TAG | (1 << 62);

/// A matched point-to-point message. The payload is a scatter-gather
/// [`Frame`]: bulk segments stay zero-copy views of the sender's
/// allocations all the way into the receiver's hands.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    pub src: Rank,
    pub tag: Tag,
    pub payload: Frame,
}

/// Configuration for a world run. The one launch entry point is
/// [`WorldConfig::launch`]; everything a run can vary — fault schedule,
/// tracing, receive timeout — lives here.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// How long a blocking receive may wait before the runtime declares the
    /// program deadlocked and panics. Generous default; tests lower it.
    pub recv_timeout: Duration,
    /// Record per-rank phase traces. Off by default: every rank then runs
    /// with the zero-cost no-op [`Tracer`].
    pub trace: bool,
    /// Deterministic fault schedule to enforce during the run. `None`
    /// (the default) keeps the fault machinery entirely out of the hot
    /// paths.
    pub faults: Option<FaultPlan>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(120),
            trace: false,
            faults: None,
        }
    }
}

impl WorldConfig {
    /// Default configuration with phase tracing switched on.
    pub fn traced() -> Self {
        Self {
            trace: true,
            ..Self::default()
        }
    }

    /// Override the deadlock timeout (fault tests use ~2 s instead of the
    /// generous 120 s default so failure paths resolve in seconds).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Install a fault schedule for the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Ignored: every rank runs on its own OS thread. Kept only because
    /// the benchmark's `benchmark/src/sut.rs` still calls it; it is deleted
    /// once the benchmark-only change of ROADMAP item 14(a) drops that
    /// call. Nothing else may call it (`tests/source_gates.rs`).
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Launch `size` ranks running `f` under this configuration and wait
    /// for the world to finish. This is the single launch entry point:
    /// injected crash faults surface as [`RankOutcome::Crashed`] values
    /// (never unwinds the caller), real panics from a rank propagate, and
    /// [`Launch::expect_all`] recovers the strict "every rank completed"
    /// contract.
    ///
    /// # Panics
    /// If `size == 0`, or if a rank panics for any reason other than an
    /// injected crash fault.
    pub fn launch<T, F>(&self, size: u32, f: F) -> Launch<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        launch_world(size, self, f)
    }
}

/// Result of a world run: one value per rank plus the traffic report.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank traffic snapshot taken after all ranks returned.
    pub traffic: TrafficReport,
    /// Per-rank phase traces when [`WorldConfig::trace`] was set.
    pub trace: Option<WorldTrace>,
}

/// How one rank's thread ended under [`WorldConfig::launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome<T> {
    /// The rank ran to completion and returned this value.
    Completed(T),
    /// The rank died to an injected crash fault.
    Crashed {
        /// The rank that crashed.
        rank: Rank,
    },
}

impl<T> RankOutcome<T> {
    /// The completed value, if the rank survived.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            RankOutcome::Crashed { .. } => None,
        }
    }

    /// Borrow the completed value, if the rank survived.
    pub fn as_completed(&self) -> Option<&T> {
        match self {
            RankOutcome::Completed(v) => Some(v),
            RankOutcome::Crashed { .. } => None,
        }
    }

    /// Whether the rank died to an injected crash.
    pub fn is_crashed(&self) -> bool {
        matches!(self, RankOutcome::Crashed { .. })
    }
}

/// Result of a [`WorldConfig::launch`]: per-rank outcomes (a crashed rank
/// has no return value) plus traffic and traces. Crashed ranks' traces end
/// with their `fault.injected` span.
#[derive(Debug)]
pub struct Launch<T> {
    /// Per-rank outcomes, indexed by rank.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Per-rank traffic snapshot taken after all ranks ended.
    pub traffic: TrafficReport,
    /// Per-rank phase traces when [`WorldConfig::trace`] was set.
    pub trace: Option<WorldTrace>,
}

impl<T> Launch<T> {
    /// Ranks that died to injected crashes, ascending.
    pub fn crashed_ranks(&self) -> Vec<Rank> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                RankOutcome::Crashed { rank } => Some(*rank),
                RankOutcome::Completed(_) => None,
            })
            .collect()
    }

    /// Demand that every rank completed, yielding plain per-rank results.
    ///
    /// # Panics
    /// If any rank died to an injected crash fault — use the
    /// [`Launch::outcomes`] directly to observe crashes as values.
    pub fn expect_all(self) -> RunOutput<T> {
        let results = self
            .outcomes
            .into_iter()
            .map(|o| match o {
                RankOutcome::Completed(v) => v,
                RankOutcome::Crashed { rank } => panic!(
                    "rank {rank} died to an injected crash fault; \
                     inspect Launch::outcomes to observe crashes"
                ),
            })
            .collect();
        RunOutput {
            results,
            traffic: self.traffic,
            trace: self.trace,
        }
    }
}

/// How one rank's closure ended, as carried back over `join`. The `Comm`
/// rides along so every rank's receiver stays alive until all threads have
/// joined — otherwise a fast-exiting rank's dropped channel would turn
/// peers' sends into spurious teardown errors.
enum ThreadEnd<T> {
    Done(T, Option<Vec<replidedup_trace::Event>>),
    Crashed(Rank, Option<Vec<replidedup_trace::Event>>),
    Panicked(Box<dyn std::any::Any + Send + 'static>),
}

/// Injected crashes unwind with a private payload; keep the default panic
/// hook from spamming stderr for them. Installed once, process-wide, and
/// delegates to the previous hook for every real panic.
fn silence_injected_crash_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The world launcher behind [`WorldConfig::launch`]: builds the per-rank
/// channel mesh, runs every rank body on its own thread through
/// [`sched::run_tasks`], and assembles outcomes, traffic, and traces after
/// all ranks ended.
fn launch_world<T, F>(size: u32, config: &WorldConfig, f: F) -> Launch<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(size > 0, "world size must be positive");
    let fault_rt: Option<Arc<FaultRuntime>> = config.faults.as_ref().map(|plan| {
        silence_injected_crash_panics();
        Arc::new(FaultRuntime::new(
            size,
            plan.on_crash.clone(),
            plan.on_transient.clone(),
        ))
    });
    let counters: Arc<Vec<RankCounters>> =
        Arc::new((0..size).map(|_| RankCounters::default()).collect());

    let (data_senders, data_receivers): (Vec<_>, Vec<_>) =
        (0..size).map(|_| channel::<Message>()).unzip();
    let data_senders = Arc::new(data_senders);
    let exposures = Arc::new(Exposures::default());

    let f = &f;
    let tasks: Vec<_> = data_receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| {
            let rank = rank as Rank;
            let data_senders = Arc::clone(&data_senders);
            let exposures = Arc::clone(&exposures);
            let counters = Arc::clone(&counters);
            let fault_rt = fault_rt.clone();
            let my_faults: Vec<Fault> = config
                .faults
                .as_ref()
                .map(|p| {
                    p.faults
                        .iter()
                        .filter(|ft| ft.rank == rank)
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            let config = config.clone();
            move || {
                let mut comm = Comm {
                    rank,
                    size,
                    data_senders,
                    receiver,
                    pending: HashMap::new(),
                    exposures,
                    counters,
                    op_seq: 0,
                    recv_timeout: config.recv_timeout,
                    tracer: if config.trace {
                        Tracer::enabled()
                    } else {
                        Tracer::disabled()
                    },
                    fault_rt,
                    my_faults,
                    msg_ops: 0,
                    tag_ns: 0,
                };
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                let end = match caught {
                    Ok(v) => ThreadEnd::Done(v, comm.tracer.take_events()),
                    Err(payload) => match payload.downcast::<InjectedCrash>() {
                        Ok(crash) => ThreadEnd::Crashed(crash.rank, crash.events),
                        Err(other) => ThreadEnd::Panicked(other),
                    },
                };
                // Return the comm alongside the outcome: its receivers must
                // outlive every peer's last send.
                (end, comm)
            }
        })
        .collect();

    // All ranks end (and their channels stay alive) before run_tasks
    // returns, exactly like the scoped-join it replaces.
    let ends: Vec<ThreadEnd<T>> = sched::run_tasks("rank", tasks)
        .into_iter()
        .map(|j| match j {
            Ok((end, _comm)) => end,
            // The task catches panics from `f`; reaching here means the
            // runtime itself failed (e.g. trace collection found a leaked
            // span). Re-raise as-is.
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect();

    let mut outcomes = Vec::with_capacity(size as usize);
    let mut streams = Vec::with_capacity(size as usize);
    let mut panic_payload = None;
    for end in ends {
        match end {
            ThreadEnd::Done(v, ev) => {
                outcomes.push(RankOutcome::Completed(v));
                streams.push(ev.unwrap_or_default());
            }
            ThreadEnd::Crashed(rank, ev) => {
                outcomes.push(RankOutcome::Crashed { rank });
                streams.push(ev.unwrap_or_default());
            }
            ThreadEnd::Panicked(payload) => {
                if panic_payload.is_none() {
                    panic_payload = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = panic_payload {
        // Re-raise with the original payload so callers (and
        // #[should_panic] tests) see the rank's own message.
        std::panic::resume_unwind(payload);
    }

    let traffic = TrafficReport {
        ranks: counters.iter().map(|c| c.snapshot()).collect(),
    };
    let trace = if config.trace {
        Some(WorldTrace::from_rank_events(streams))
    } else {
        None
    };
    Launch {
        outcomes,
        traffic,
        trace,
    }
}

/// Per-rank communicator handle. Not `Clone`: each rank owns exactly one.
pub struct Comm {
    rank: Rank,
    size: u32,
    data_senders: Arc<Vec<Sender<Message>>>,
    receiver: Receiver<Message>,
    /// Unexpected-message queue: messages that arrived before their receive.
    pending: HashMap<(Rank, Tag), VecDeque<Frame>>,
    /// The world's window-handle table (see [`crate::window`]).
    pub(crate) exposures: Arc<Exposures>,
    counters: Arc<Vec<RankCounters>>,
    /// Collective sequence number; SPMD programs call collectives in the
    /// same order on every rank, so this stays globally consistent and
    /// namespaces the internal tags of successive collectives.
    pub(crate) op_seq: u64,
    recv_timeout: Duration,
    /// Per-rank phase recorder (the no-op sink unless the world enabled
    /// tracing). Owned by this rank: recording never takes a lock.
    tracer: Tracer,
    /// Shared fault state for the world; `None` when no plan is installed,
    /// which keeps every fault check a single branch.
    fault_rt: Option<Arc<FaultRuntime>>,
    /// This rank's still-pending faults (removed once fired).
    my_faults: Vec<Fault>,
    /// Message operations (sends + receives, collective internals
    /// included) performed so far; drives `FaultTrigger::MessageCount`.
    msg_ops: u64,
    /// Session tag namespace, pre-shifted into the reserved high bits
    /// (see [`crate::wire::session_tag`]). Folded into every user tag on
    /// send and receive so overlapping sessions on one communicator can
    /// never match each other's stale messages. 0 = default namespace.
    tag_ns: Tag,
}

impl Comm {
    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Borrow this rank's phase recorder (a no-op sink unless tracing was
    /// enabled via [`WorldConfig::trace`] or [`Comm::set_tracing`]).
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Switch phase tracing on or off mid-run. Enabling starts a fresh
    /// recording; disabling discards anything not yet collected.
    ///
    /// # Panics
    /// If called while a span is open.
    pub fn set_tracing(&mut self, enabled: bool) {
        assert_eq!(
            self.tracer.depth(),
            0,
            "cannot toggle tracing inside an open span"
        );
        if enabled != self.tracer.is_enabled() {
            self.tracer = if enabled {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            };
        }
    }

    /// Drain this rank's recorded trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<replidedup_trace::Event> {
        self.tracer.take_events().unwrap_or_default()
    }

    // ---- session tag namespaces ----

    /// Scope all subsequent user tags to session `ns`. Messages sent under
    /// one namespace are invisible to receives under another, so two
    /// sessions interleaved on this communicator (or a session started
    /// after a crashed one left stale messages queued) can never cross
    /// wires. Namespace 0 is the default (unlabeled) session.
    pub fn set_tag_namespace(&mut self, ns: u16) {
        self.tag_ns = wire::session_tag(ns, 0);
    }

    /// Fold the active session namespace into a user tag.
    fn ns_tag(&self, tag: Tag) -> Tag {
        debug_assert_eq!(
            tag & wire::SESSION_TAG_MASK,
            0,
            "user tag {tag:#x} collides with the session namespace bits"
        );
        self.tag_ns | tag
    }

    /// Borrow the shared per-rank counters (used by [`crate::window`]).
    pub(crate) fn counters(&self) -> &Arc<Vec<RankCounters>> {
        &self.counters
    }

    /// Shared fault state, if a plan is installed (used by [`crate::window`]).
    pub(crate) fn fault_rt(&self) -> Option<&Arc<FaultRuntime>> {
        self.fault_rt.as_ref()
    }

    // ---- fault injection ----

    /// Ranks that have died to injected crashes, ascending. Empty without
    /// a fault plan.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.fault_rt
            .as_ref()
            .map(|rt| rt.dead_ranks())
            .unwrap_or_default()
    }

    /// Sleep for `dur`: a rank that is only waiting (a rate limiter's
    /// debt, a retry backoff, an injected delay). Every non-test sleep
    /// goes through here, so a future change to how waiting ranks are
    /// scheduled has one place to hook; the root `clippy.toml` disallows
    /// `std::thread::sleep` elsewhere.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sanctioned sleep of a rank"
    )]
    pub fn sleep(&self, dur: Duration) {
        std::thread::sleep(dur);
    }

    /// Open the phase span `name`, firing any `PhaseStart(name)` fault of
    /// this rank first (so a rank crashing "at the start of exchange"
    /// never opens the span). Pair with [`Comm::exit_phase`].
    pub fn enter_phase(&mut self, name: &'static str) {
        self.maybe_inject_phase(name, true);
        self.tracer.enter(name);
    }

    /// Close the phase span `name`, then fire any `PhaseEnd(name)` fault
    /// of this rank (the span stays balanced even when the rank dies at
    /// the boundary).
    pub fn exit_phase(&mut self, name: &'static str) {
        self.tracer.exit(name);
        self.maybe_inject_phase(name, false);
    }

    fn maybe_inject_phase(&mut self, name: &str, at_start: bool) {
        if self.my_faults.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.my_faults.len() {
            let hit = match (&mut self.my_faults[i].trigger, at_start) {
                (FaultTrigger::PhaseStart(p), true) => p == name,
                (FaultTrigger::PhaseEnd(p), false) => p == name,
                // Occurrence countdown held in the fault itself: each
                // matching phase start decrements in place, and the fault
                // fires on the opening that takes the count to zero.
                (FaultTrigger::PhaseStartNth(p, n), true) if p == name => {
                    *n = n.saturating_sub(1);
                    *n == 0
                }
                _ => false,
            };
            if hit {
                let fault = self.my_faults.remove(i);
                self.fire(fault.action);
            } else {
                i += 1;
            }
        }
    }

    /// Count one message operation and fire any `MessageCount` fault whose
    /// threshold it reaches.
    fn maybe_inject_msg(&mut self) {
        self.msg_ops += 1;
        if self.my_faults.is_empty() {
            return;
        }
        let ops = self.msg_ops;
        let mut i = 0;
        while i < self.my_faults.len() {
            if matches!(self.my_faults[i].trigger, FaultTrigger::MessageCount(n) if n <= ops) {
                let fault = self.my_faults.remove(i);
                self.fire(fault.action);
            } else {
                i += 1;
            }
        }
    }

    fn fire(&mut self, action: FaultAction) {
        match action {
            FaultAction::Delay(dur) => self.sleep(dur),
            FaultAction::Crash => self.crash_now(),
            FaultAction::Transient(ops) => {
                // Storage degradation is the harness's job: hand the budget
                // to the plan's hook (a no-op without one — the runtime
                // owns no storage to make flaky).
                if let Some(hook) = self
                    .fault_rt
                    .as_ref()
                    .and_then(|rt| rt.on_transient.clone())
                {
                    hook(self.rank, ops);
                }
            }
        }
    }

    /// Kill this rank: record the death (flag first — peers that observe
    /// it are guaranteed to find every earlier message already queued),
    /// run the crash hook, wake every peer, balance the trace with a
    /// `fault.injected` span, and unwind with the private payload
    /// [`WorldConfig::launch`] catches.
    fn crash_now(&mut self) -> ! {
        let rank = self.rank;
        if let Some(rt) = &self.fault_rt {
            rt.mark_dead(rank);
            if let Some(hook) = &rt.on_crash {
                hook(rank);
            }
        }
        self.wake_peers();
        self.tracer.enter("fault.injected");
        self.tracer.exit("fault.injected");
        self.tracer.close_open_spans();
        let events = self.tracer.take_events();
        std::panic::panic_any(InjectedCrash { rank, events });
    }

    /// Post a wake notice to every peer, after a change to the shared
    /// fault state a blocked peer must see. A peer may already be gone;
    /// notices are best-effort wakeups.
    fn wake_peers(&self) {
        for dst in (0..self.size).filter(|&dst| dst != self.rank) {
            let _ = self.data_senders[dst as usize].send(Message {
                src: self.rank,
                tag: WAKE_TAG,
                payload: Frame::new(),
            });
        }
    }

    /// Collective entry guard: refuse to start if any rank is already dead
    /// (ranks whose last collective diverged — some completed it, some
    /// errored — all fail here on the next one, keeping survivors in
    /// lockstep). A death *during* the collective fails its receives.
    pub(crate) fn coll_entry_guard(&self) -> Result<(), CommError> {
        match self.fault_rt.as_ref().and_then(|rt| rt.first_dead()) {
            Some(rank) => Err(CommError::RankFailed { rank }),
            None => Ok(()),
        }
    }

    /// Snapshot this rank's traffic counters.
    pub fn traffic(&self) -> crate::stats::RankTraffic {
        self.counters[self.rank as usize].snapshot()
    }

    // ---- point-to-point ----
    //
    // Sends never block; a receive blocks until its `(src, tag)` match
    // arrives. Both fail with `CommError::RankFailed` when the peer is (or
    // dies while we wait) a crashed rank, and a receive fails with
    // `CommError::DeadlockSuspected` once the receive timeout expires.

    /// Send an owned buffer without copying: a receiver's
    /// [`Comm::try_recv_chunk`] observes the very same allocation.
    pub fn try_send_bytes(&mut self, dst: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        self.try_send_frame(dst, tag, Frame::single(payload))
    }

    /// Send a scatter-gather [`Frame`]: header segments and attached
    /// payloads travel as-is, with no coalescing memcpy on either side.
    pub fn try_send_frame(&mut self, dst: Rank, tag: Tag, frame: Frame) -> Result<(), CommError> {
        assert_eq!(
            tag & INTERNAL_TAG,
            0,
            "tag {tag:#x} uses the reserved internal bit"
        );
        let tag = self.ns_tag(tag);
        self.try_send_frame_raw(dst, tag, frame, Transport::PointToPoint)
    }

    /// Encode and send a typed value.
    pub fn try_send_val<T: Wire>(
        &mut self,
        dst: Rank,
        tag: Tag,
        value: &T,
    ) -> Result<(), CommError> {
        self.try_send_bytes(dst, tag, value.to_bytes())
    }

    pub(crate) fn try_send_raw(
        &mut self,
        dst: Rank,
        tag: Tag,
        payload: Bytes,
        transport: Transport,
    ) -> Result<(), CommError> {
        self.try_send_frame_raw(dst, tag, Frame::single(payload), transport)
    }

    pub(crate) fn try_send_frame_raw(
        &mut self,
        dst: Rank,
        tag: Tag,
        payload: Frame,
        transport: Transport,
    ) -> Result<(), CommError> {
        self.maybe_inject_msg();
        if let Some(rt) = &self.fault_rt {
            if rt.is_dead(dst) {
                return Err(CommError::RankFailed { rank: dst });
            }
        }
        let bytes = payload.len() as u64;
        self.counters[self.rank as usize].count_send(transport, bytes);
        self.data_senders[dst as usize]
            .send(Message {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| CommError::WorldTornDown { rank: self.rank })
    }

    /// Matched receive as a [`Chunk`]: zero-copy when the sender's frame
    /// had a single segment (every [`Comm::try_send_bytes`]); a
    /// multi-segment frame is coalesced here (recorded) — use
    /// [`Comm::try_recv_frame`] to avoid that.
    pub fn try_recv_chunk(&mut self, src: Rank, tag: Tag) -> Result<Chunk, CommError> {
        Ok(Chunk::from(self.try_recv_frame(src, tag)?.gather()))
    }

    /// Matched receive of a scatter-gather [`Frame`] exactly as the sender
    /// shaped it.
    pub fn try_recv_frame(&mut self, src: Rank, tag: Tag) -> Result<Frame, CommError> {
        assert_eq!(
            tag & INTERNAL_TAG,
            0,
            "tag {tag:#x} uses the reserved internal bit"
        );
        let tag = self.ns_tag(tag);
        self.try_recv_frame_guarded(src, tag, Transport::PointToPoint)
    }

    /// Receive and decode a typed value; a payload that does not decode as
    /// `T` fails with [`CommError::Undecodable`].
    pub fn try_recv_val<T: Wire>(&mut self, src: Rank, tag: Tag) -> Result<T, CommError> {
        let bytes = self.try_recv_frame(src, tag)?.gather();
        T::from_bytes(&bytes).map_err(|error| CommError::Undecodable {
            rank: self.rank,
            peer: src,
            error,
        })
    }

    /// Guarded matched receive. When no message matches yet, one rule
    /// decides whether to wait: a dead source fails the receive; so does
    /// any death for a collective's receive (its communication pattern is
    /// broken even if this source is alive), or any death once the world
    /// is revoked. A collective's receive that fails revokes the world:
    /// the collective may have completed on some ranks, and those must not
    /// wait on the ones it failed on.
    ///
    /// Ordering argument for the death guards: a crashing rank marks its
    /// dead flag only after every message it ever sent is already queued,
    /// so "drain the queue non-blockingly, then check the flags" cannot
    /// miss a message that happened-before the death.
    pub(crate) fn try_recv_raw_guarded(
        &mut self,
        src: Rank,
        tag: Tag,
        transport: Transport,
    ) -> Result<Bytes, CommError> {
        Ok(self.try_recv_frame_guarded(src, tag, transport)?.gather())
    }

    pub(crate) fn try_recv_frame_guarded(
        &mut self,
        src: Rank,
        tag: Tag,
        transport: Transport,
    ) -> Result<Frame, CommError> {
        self.maybe_inject_msg();
        // Unexpected-message-queue fast path: an already-matched message
        // predates any death and is always delivered.
        if let Some(queue) = self.pending.get_mut(&(src, tag)) {
            if let Some(payload) = queue.pop_front() {
                if queue.is_empty() {
                    self.pending.remove(&(src, tag));
                }
                self.counters[self.rank as usize].count_recv(transport, payload.len() as u64);
                return Ok(payload);
            }
        }
        let (rank, waited) = (self.rank, self.recv_timeout);
        let timed_out = CommError::DeadlockSuspected {
            rank,
            src,
            tag,
            waited,
        };
        let deadline = Instant::now() + waited;
        loop {
            // Drain everything already queued before consulting the flags.
            let msg = match self.receiver.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Disconnected) => return Err(CommError::WorldTornDown { rank }),
                Err(TryRecvError::Empty) => {
                    if let Some(failed) = self.recv_failure(src, transport) {
                        return Err(failed);
                    }
                    // The one blocking channel wait.
                    let left = deadline.saturating_duration_since(Instant::now());
                    match self.receiver.recv_timeout(left) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => return Err(timed_out),
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::WorldTornDown { rank })
                        }
                    }
                }
            };
            if let Some(payload) = self.absorb(msg, src, tag, transport) {
                return Ok(payload);
            }
        }
    }

    /// How a receive from `src` that found no queued match fails instead
    /// of waiting, if it must (the rule of [`Comm::try_recv_raw_guarded`]).
    /// A collective's receive that fails revokes the world, and the rank
    /// that revokes it first wakes every peer.
    fn recv_failure(&self, src: Rank, transport: Transport) -> Option<CommError> {
        let rt = self.fault_rt.as_ref()?;
        let collective = transport == Transport::Collective;
        let rank = if rt.is_dead(src) {
            src
        } else if collective || rt.is_revoked() {
            rt.first_dead()?
        } else {
            return None;
        };
        if collective && rt.revoke() {
            self.wake_peers();
        }
        Some(CommError::RankFailed { rank })
    }

    /// Match or stash one incoming message.
    fn absorb(&mut self, msg: Message, src: Rank, tag: Tag, transport: Transport) -> Option<Frame> {
        if msg.src == src && msg.tag == tag {
            self.counters[self.rank as usize].count_recv(transport, msg.payload.len() as u64);
            return Some(msg.payload);
        }
        self.stash(msg);
        None
    }

    /// Queue a message no receive has matched yet. Wake notices only wake
    /// the caller's wait loop and are never stashed.
    fn stash(&mut self, msg: Message) {
        if msg.tag != WAKE_TAG {
            self.pending
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg.payload);
        }
    }

    /// Internal tag for round `round` of the collective numbered `op_seq`.
    /// The round owns the low 16 bits and the sequence number the bits
    /// above, so distinct (sequence, round) pairs never share a tag.
    pub(crate) fn coll_tag(op_seq: u64, round: u16) -> Tag {
        INTERNAL_TAG | (op_seq << 16) | u64::from(round)
    }

    /// Bump and return the collective sequence number.
    pub(crate) fn next_op(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                assert_eq!(comm.rank(), 0);
                assert_eq!(comm.size(), 1);
                42u32
            })
            .expect_all();
        assert_eq!(out.results, vec![42]);
        assert_eq!(out.traffic.total_sent(), 0);
    }

    #[test]
    fn results_are_rank_ordered() {
        let out = WorldConfig::default()
            .launch(8, |comm| comm.rank() * 10)
            .expect_all();
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ping_pong() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    comm.try_send_bytes(1, 7, Bytes::from_static(b"ping"))
                        .unwrap();
                    comm.try_recv_chunk(1, 8).unwrap().to_vec()
                } else {
                    let m = comm.try_recv_chunk(0, 7).unwrap();
                    assert_eq!(&m[..], b"ping");
                    comm.try_send_bytes(0, 8, Bytes::from_static(b"pong"))
                        .unwrap();
                    m.to_vec()
                }
            })
            .expect_all();
        assert_eq!(out.results[0], b"pong");
        assert_eq!(out.results[1], b"ping");
        assert_eq!(out.traffic.total_sent(), 8);
        assert_eq!(out.traffic.total_recv(), 8);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    comm.try_send_bytes(1, 1, Bytes::from_static(b"first"))
                        .unwrap();
                    comm.try_send_bytes(1, 2, Bytes::from_static(b"second"))
                        .unwrap();
                    0
                } else {
                    // Receive in the opposite order of sending.
                    let b = comm.try_recv_chunk(0, 2).unwrap();
                    let a = comm.try_recv_chunk(0, 1).unwrap();
                    assert_eq!(&a[..], b"first");
                    assert_eq!(&b[..], b"second");
                    1
                }
            })
            .expect_all();
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    for i in 0..10u8 {
                        comm.try_send_bytes(1, 5, Bytes::from(vec![i])).unwrap();
                    }
                    Vec::new()
                } else {
                    (0..10)
                        .map(|_| comm.try_recv_chunk(0, 5).unwrap()[0])
                        .collect::<Vec<u8>>()
                }
            })
            .expect_all();
        assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn typed_send_recv() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    comm.try_send_val(1, 3, &vec![(1u32, 2u64), (3, 4)])
                        .unwrap();
                    Vec::new()
                } else {
                    comm.try_recv_val::<Vec<(u32, u64)>>(0, 3).unwrap()
                }
            })
            .expect_all();
        assert_eq!(out.results[1], vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn traffic_is_conserved() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let dst = (comm.rank() + 1) % comm.size();
                let src = (comm.rank() + comm.size() - 1) % comm.size();
                comm.try_send_bytes(dst, 1, Bytes::from_static(&[0u8; 100]))
                    .unwrap();
                comm.try_recv_chunk(src, 1).unwrap();
            })
            .expect_all();
        assert_eq!(out.traffic.total_sent(), out.traffic.total_recv());
        assert_eq!(out.traffic.total_sent(), 400);
    }

    #[test]
    #[should_panic(expected = "reserved internal bit")]
    fn internal_tag_rejected_for_users() {
        WorldConfig::default()
            .launch(2, |comm| {
                if comm.rank() == 0 {
                    comm.try_send_bytes(1, INTERNAL_TAG | 1, Bytes::from_static(b"nope"))
                        .unwrap();
                } else {
                    // Rank 1 must not block forever while rank 0 panics.
                }
            })
            .expect_all();
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn deadlock_is_detected() {
        let config = WorldConfig {
            recv_timeout: Duration::from_millis(100),
            ..Default::default()
        };
        config
            .launch(1, |comm| {
                // Receive that can never be matched.
                comm.try_recv_chunk(0, 1).unwrap_or_else(|e| panic!("{e}"));
            })
            .expect_all();
    }

    #[test]
    fn many_ranks_spawn() {
        let out = WorldConfig::default()
            .launch(128, |comm| comm.rank())
            .expect_all();
        assert_eq!(out.results.len(), 128);
        assert_eq!(out.results[127], 127);
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "the test's point is a wait the runtime cannot see"
    )]
    fn ranks_meeting_outside_comm_all_arrive() {
        // Every rank is its own OS thread, so a wait the runtime does not
        // see (here a plain condvar rendezvous) still lets every peer run.
        // A runnable-set bound smaller than the world would time it out:
        // one shared deadline, so the ranks that never got to run fail at
        // once instead of each waiting out a timeout of its own.
        const RANKS: u32 = 64;
        let meeting = (std::sync::Mutex::new(0u32), std::sync::Condvar::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let out = WorldConfig::default()
            .launch(RANKS, |_comm| {
                let (count, arrived) = &meeting;
                let mut count = count.lock().unwrap();
                *count += 1;
                arrived.notify_all();
                let left = deadline.saturating_duration_since(Instant::now());
                let (count, _) = arrived
                    .wait_timeout_while(count, left, |n| *n < RANKS)
                    .unwrap();
                *count == RANKS
            })
            .expect_all();
        assert!(out.results.iter().all(|&met| met), "a rank never arrived");
    }

    #[test]
    fn pooled_world_observes_injected_crashes() {
        let plan = FaultPlan::new(1).crash(1, FaultTrigger::MessageCount(1));
        let out = fault_config(plan).launch(8, |comm| {
            if comm.rank() == 1 {
                let _ = comm.try_send_bytes(0, 1, Bytes::from_static(b"boom"));
                unreachable!("rank 1 must crash on its first message op");
            }
            comm.rank()
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        assert_eq!(out.outcomes.len(), 8);
    }

    #[test]
    fn tag_namespaces_isolate_sessions() {
        let config = WorldConfig::default().with_recv_timeout(Duration::from_millis(100));
        let out = config.launch(2, |comm| {
            if comm.rank() == 0 {
                comm.set_tag_namespace(1);
                comm.try_send_bytes(1, 5, Bytes::from_static(b"session-one"))
                    .unwrap();
                true
            } else {
                // A receive scoped to session 2 must never match session
                // 1's message, even though (src, user tag) agree.
                comm.set_tag_namespace(2);
                assert!(matches!(
                    comm.try_recv_chunk(0, 5),
                    Err(CommError::DeadlockSuspected { .. })
                ));
                // Rescoped to session 1, the stashed message matches.
                comm.set_tag_namespace(1);
                assert_eq!(&comm.try_recv_chunk(0, 5).unwrap()[..], b"session-one");
                true
            }
        });
        assert!(out.expect_all().results.iter().all(|&ok| ok));
    }

    fn fault_config(plan: FaultPlan) -> WorldConfig {
        WorldConfig::default()
            .with_recv_timeout(Duration::from_secs(2))
            .with_faults(plan)
    }

    #[test]
    fn try_recv_reports_deadlock_with_context() {
        let config = WorldConfig::default().with_recv_timeout(Duration::from_millis(50));
        let out = config
            .launch(1, |comm| comm.try_recv_chunk(0, 9))
            .expect_all();
        match &out.results[0] {
            Err(CommError::DeadlockSuspected { rank, src, tag, .. }) => {
                assert_eq!((*rank, *src, *tag), (0, 0, 9));
            }
            other => panic!("expected DeadlockSuspected, got {other:?}"),
        }
    }

    #[test]
    fn injected_crash_becomes_an_outcome() {
        let plan = FaultPlan::new(1).crash(1, FaultTrigger::MessageCount(1));
        let out = fault_config(plan).launch(3, |comm| {
            if comm.rank() == 1 {
                // First message op trips the fault before anything sends.
                let _ = comm.try_send_bytes(0, 1, Bytes::from_static(b"never arrives"));
                unreachable!("rank 1 must crash on its first message op");
            }
            comm.rank()
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        assert_eq!(out.outcomes[0], RankOutcome::Completed(0));
        assert_eq!(out.outcomes[1], RankOutcome::Crashed { rank: 1 });
        assert_eq!(out.outcomes[2], RankOutcome::Completed(2));
    }

    #[test]
    fn send_to_dead_rank_fails_fast() {
        let plan = FaultPlan::new(2).crash(1, FaultTrigger::PhaseStart("work".into()));
        let out = fault_config(plan).launch(2, |comm| {
            if comm.rank() == 1 {
                comm.enter_phase("work");
                comm.exit_phase("work");
                return Ok(());
            }
            // Wait for the death, then observe the typed failure.
            while comm.failed_ranks().is_empty() {
                comm.sleep(Duration::from_millis(1));
            }
            comm.try_send_bytes(1, 3, Bytes::from_static(b"too late"))
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        assert_eq!(
            out.outcomes[0].as_completed(),
            Some(&Err(CommError::RankFailed { rank: 1 }))
        );
    }

    #[test]
    fn nth_phase_start_fires_on_the_exact_occurrence() {
        let plan = FaultPlan::new(17).crash(1, FaultTrigger::PhaseStartNth("step".into(), 3));
        let out = fault_config(plan).launch(2, |comm| {
            let mut opened = 0u32;
            for _ in 0..5 {
                comm.enter_phase("step");
                opened += 1;
                comm.exit_phase("step");
            }
            (comm.rank(), opened)
        });
        assert_eq!(out.crashed_ranks(), vec![1]);
        // Rank 1 survived two full openings and died entering the third.
        assert_eq!(out.outcomes[0], RankOutcome::Completed((0, 5)));
        assert!(out.outcomes[1].is_crashed());
    }

    #[test]
    fn nth_phase_start_with_count_one_matches_plain_start() {
        let plan = FaultPlan::new(18).crash(0, FaultTrigger::PhaseStartNth("go".into(), 1));
        let out = fault_config(plan).launch(1, |comm| {
            comm.enter_phase("go");
            comm.exit_phase("go");
        });
        assert_eq!(out.crashed_ranks(), vec![0]);
    }

    #[test]
    fn recv_from_dying_rank_wakes_and_fails_fast() {
        let plan = FaultPlan::new(3).crash(1, FaultTrigger::PhaseEnd("prep".into()));
        let started = Instant::now();
        let out = fault_config(plan).launch(2, |comm| {
            if comm.rank() == 1 {
                comm.sleep(Duration::from_millis(50));
                comm.enter_phase("prep");
                comm.exit_phase("prep");
                return Ok(Chunk::new());
            }
            comm.try_recv_chunk(1, 4)
        });
        assert_eq!(
            out.outcomes[0].as_completed(),
            Some(&Err(CommError::RankFailed { rank: 1 }))
        );
        // The wake notice wakes the receive long before the 2 s timeout.
        assert!(started.elapsed() < Duration::from_millis(1500));
    }

    #[test]
    fn message_sent_before_death_is_still_delivered() {
        let plan = FaultPlan::new(4).crash(1, FaultTrigger::PhaseEnd("send".into()));
        let out = fault_config(plan).launch(2, |comm| {
            if comm.rank() == 1 {
                comm.enter_phase("send");
                comm.try_send_bytes(0, 5, Bytes::from_static(b"last words"))
                    .unwrap();
                comm.exit_phase("send");
                return Vec::new();
            }
            // Give the crash time to land first: the queued message must
            // still win over the death flag.
            while comm.failed_ranks().is_empty() {
                comm.sleep(Duration::from_millis(1));
            }
            comm.try_recv_chunk(1, 5).unwrap().to_vec()
        });
        assert_eq!(out.outcomes[0].as_completed().unwrap(), b"last words");
    }

    #[test]
    fn delay_fault_stalls_without_killing() {
        let plan =
            FaultPlan::new(5).delay(0, FaultTrigger::MessageCount(1), Duration::from_millis(80));
        let started = Instant::now();
        let out = fault_config(plan).launch(2, |comm| {
            if comm.rank() == 0 {
                comm.try_send_bytes(1, 6, Bytes::from_static(b"slow"))
                    .unwrap();
            } else {
                assert_eq!(&comm.try_recv_chunk(0, 6).unwrap()[..], b"slow");
            }
            comm.rank()
        });
        assert!(out.crashed_ranks().is_empty());
        assert_eq!(out.outcomes.len(), 2);
        assert!(started.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn crash_hook_runs_on_dying_rank() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let died = Arc::new(AtomicU32::new(u32::MAX));
        let seen = Arc::clone(&died);
        let plan = FaultPlan::new(6)
            .crash(2, FaultTrigger::MessageCount(1))
            .on_crash(move |rank| seen.store(rank, Ordering::SeqCst));
        let out = fault_config(plan).launch(3, |comm| {
            if comm.rank() == 2 {
                let _ = comm.try_send_bytes(0, 1, Bytes::from_static(b"x"));
            }
            comm.rank()
        });
        assert_eq!(out.crashed_ranks(), vec![2]);
        assert_eq!(died.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn transient_hook_fires_with_budget_and_rank_survives() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let armed = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&armed);
        let plan = FaultPlan::new(8)
            .transient(1, FaultTrigger::PhaseStart("fetch".into()), 3)
            .on_transient(move |rank, ops| {
                seen.store((u64::from(rank) << 32) | u64::from(ops), Ordering::SeqCst)
            });
        let out = fault_config(plan).launch(2, |comm| {
            comm.enter_phase("fetch");
            comm.exit_phase("fetch");
            comm.rank()
        });
        assert!(out.crashed_ranks().is_empty(), "transient is not a crash");
        assert_eq!(armed.load(Ordering::SeqCst), (1 << 32) | 3);
    }

    #[test]
    fn live_and_failed_rank_views() {
        let plan = FaultPlan::new(7).crash(0, FaultTrigger::PhaseStart("go".into()));
        let out = fault_config(plan).launch(3, |comm| {
            if comm.rank() == 0 {
                comm.enter_phase("go");
                comm.exit_phase("go");
            }
            while comm.failed_ranks().is_empty() {
                comm.sleep(Duration::from_millis(1));
            }
            comm.failed_ranks()
        });
        for rank in [1, 2] {
            assert_eq!(out.outcomes[rank].as_completed().unwrap(), &vec![0]);
        }
    }

    #[test]
    fn a_split_barrier_fails_survivors_waiting_on_live_peers() {
        // Four-rank dissemination barrier: rank 0 sends to 1 and then to 2,
        // and dies 50 ms later at its last receive. Rank 1 stalls 200 ms
        // before its first send, so ranks 2 and 3, blocked on it, see the
        // death and fail, while rank 1 then finds every message it needs
        // queued and completes. Afterwards each survivor waits on a live
        // peer that never sends: the split revoked the world, so none of
        // them may wait out the timeout.
        const TIMEOUT: Duration = Duration::from_secs(10);
        let last_recv = FaultTrigger::MessageCount(4);
        let plan = FaultPlan::new(10)
            .delay(0, last_recv.clone(), Duration::from_millis(50))
            .crash(0, last_recv)
            .delay(1, FaultTrigger::MessageCount(1), Duration::from_millis(200));
        let config = WorldConfig::default()
            .with_recv_timeout(TIMEOUT)
            .with_faults(plan);
        let out = config.launch(4, |comm| {
            let barrier = comm.try_barrier();
            let peer = comm.rank() % 3 + 1;
            let t0 = Instant::now();
            let recv = comm.try_recv_chunk(peer, 7).map(|_| ());
            (barrier, recv, t0.elapsed())
        });
        assert_eq!(out.crashed_ranks(), vec![0]);
        let dead = Err(CommError::RankFailed { rank: 0 });
        for rank in 1..4 {
            let (barrier, recv, took) = out.outcomes[rank].as_completed().unwrap();
            let split = if rank == 1 { &Ok(()) } else { &dead };
            assert_eq!(barrier, split, "rank {rank}'s barrier");
            assert_eq!(recv, &dead, "rank {rank}'s receive");
            assert!(
                *took < Duration::from_millis(100),
                "rank {rank} waited {took:?} on a live peer"
            );
        }
    }

    #[test]
    fn same_plan_replays_the_same_crashes() {
        let run = || {
            let plan = FaultPlan::seeded(99, 4, 2, &["a", "b"]);
            fault_config(plan)
                .launch(4, |comm| {
                    for p in ["a", "b"] {
                        comm.enter_phase(p);
                        comm.exit_phase(p);
                    }
                    comm.rank()
                })
                .crashed_ranks()
        };
        let first = run();
        assert_eq!(first.len(), 2);
        assert_eq!(first, run());
    }

    #[test]
    #[should_panic(expected = "died to an injected crash fault")]
    fn expect_all_refuses_crashed_ranks() {
        let plan = FaultPlan::new(8).crash(0, FaultTrigger::MessageCount(1));
        fault_config(plan)
            .launch(1, |comm| {
                let _ = comm.try_send_bytes(0, 1, Bytes::from_static(b"boom"));
            })
            .expect_all();
    }
}
