//! The thread-rank world and per-rank communicator.
//!
//! `replidedup` runs each MPI-style rank as an OS thread inside one process.
//! Point-to-point messaging uses one unbounded crossbeam channel per rank
//! with MPI's matching semantics: a receive names `(source, tag)` and
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
use std::num::NonZeroUsize;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use bytes::Bytes;
use replidedup_trace::{Tracer, WorldTrace};

use crate::fault::{
    CommError, Fault, FaultAction, FaultPlan, FaultRuntime, FaultTrigger, InjectedCrash,
};
use crate::sched::{self, SchedSlot};
use crate::stats::{RankCounters, TrafficReport, Transport};
use crate::window::WinBuf;
use crate::wire::{self, Chunk, Frame, Wire};

/// Rank index within a world (MPI `comm_rank`).
pub type Rank = u32;

/// Message tag. User tags must not have the top bit set; the runtime
/// reserves that space for collective-internal messages.
pub type Tag = u64;

/// Top bit marks runtime-internal tags.
pub(crate) const INTERNAL_TAG: Tag = 1 << 63;

/// Death-notice tag: a crashing rank posts one empty message with this tag
/// to every peer so blocked receives wake up and re-check the dead flags.
/// Never stashed in the unexpected-message queue, never user-visible.
pub(crate) const DEATH_TAG: Tag = INTERNAL_TAG | (1 << 62);

/// A matched point-to-point message. The payload is a scatter-gather
/// [`Frame`]: bulk segments stay zero-copy views of the sender's
/// allocations all the way into the receiver's hands.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    pub src: Rank,
    pub tag: Tag,
    pub payload: Frame,
}

/// Out-of-band control messages (RMA window registration). Real MPI also
/// exchanges window handles out-of-band during `MPI_Win_create`.
#[derive(Clone)]
pub(crate) enum CtrlMsg {
    Win {
        src: Rank,
        seq: u64,
        handle: Arc<WinBuf>,
    },
    /// Death notice on the control channel (wakes `win_create` handshakes).
    Dead { src: Rank },
}

/// Configuration for a world run. The one launch entry point is
/// [`WorldConfig::launch`]; everything a run can vary — worker pool size,
/// fault schedule, tracing, receive timeout — lives here.
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
    /// Bound on simultaneously *runnable* ranks. `None` (the default) is
    /// classic thread-per-rank execution; `Some(w)` multiplexes all ranks
    /// onto `w` worker slots via [`crate::sched`], parking ranks at
    /// blocking collective/RMA edges. Results and trace span sets are
    /// identical either way — only wall-clock interleaving changes.
    pub workers: Option<NonZeroUsize>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(120),
            trace: false,
            faults: None,
            workers: None,
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

    /// Bound the worker pool to `workers` runnable ranks (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers.max(1));
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
/// channel mesh, hands every rank body to the [`sched`] executor (bounded
/// worker pool when `config.workers` is set, thread-per-rank otherwise),
/// and assembles outcomes, traffic, and traces after all ranks ended.
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

    let mut data_senders = Vec::with_capacity(size as usize);
    let mut data_receivers = Vec::with_capacity(size as usize);
    let mut ctrl_senders = Vec::with_capacity(size as usize);
    let mut ctrl_receivers = Vec::with_capacity(size as usize);
    for _ in 0..size {
        let (ts, tr) = channel::<Message>();
        data_senders.push(ts);
        data_receivers.push(tr);
        let (cs, cr) = channel::<CtrlMsg>();
        ctrl_senders.push(cs);
        ctrl_receivers.push(cr);
    }
    let data_senders = Arc::new(data_senders);
    let ctrl_senders = Arc::new(ctrl_senders);

    let f = &f;
    let tasks: Vec<_> = data_receivers
        .into_iter()
        .zip(ctrl_receivers)
        .enumerate()
        .map(|(rank, (receiver, ctrl_receiver))| {
            let rank = rank as Rank;
            let data_senders = Arc::clone(&data_senders);
            let ctrl_senders = Arc::clone(&ctrl_senders);
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
            move |slot: SchedSlot| {
                let mut comm = Comm {
                    rank,
                    size,
                    data_senders,
                    receiver,
                    ctrl_senders,
                    ctrl_receiver,
                    pending: HashMap::new(),
                    pending_ctrl: HashMap::new(),
                    counters,
                    op_seq: 0,
                    win_seq: 0,
                    recv_timeout: config.recv_timeout,
                    tracer: if config.trace {
                        Tracer::enabled()
                    } else {
                        Tracer::disabled()
                    },
                    fault_rt,
                    my_faults,
                    msg_ops: 0,
                    sched: slot,
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
    let ends: Vec<ThreadEnd<T>> = sched::run_tasks("rank", config.workers, tasks)
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
    ctrl_senders: Arc<Vec<Sender<CtrlMsg>>>,
    ctrl_receiver: Receiver<CtrlMsg>,
    /// Unexpected-message queue: messages that arrived before their receive.
    pending: HashMap<(Rank, Tag), VecDeque<Frame>>,
    pending_ctrl: HashMap<(Rank, u64), Arc<WinBuf>>,
    counters: Arc<Vec<RankCounters>>,
    /// Collective sequence number; SPMD programs call collectives in the
    /// same order on every rank, so this stays globally consistent and
    /// namespaces the internal tags of successive collectives.
    pub(crate) op_seq: u64,
    pub(crate) win_seq: u64,
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
    /// This rank's scheduler slot: blocking waits park through it so a
    /// bounded worker pool can run a peer. A no-op in unpooled worlds.
    sched: SchedSlot,
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

    /// Sleep for `dur` with the worker slot released, so a pooled world
    /// keeps running peers underneath a rank that is only waiting (a rate
    /// limiter's debt, a retry backoff, an injected delay). Every non-test
    /// sleep goes through here: the root `clippy.toml` disallows
    /// `std::thread::sleep` elsewhere.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sleep that parks its worker slot"
    )]
    pub fn sleep(&self, dur: Duration) {
        self.sched.park_while(|| std::thread::sleep(dur));
    }

    // ---- survivor fence ----
    //
    // The runtime's analogue of ULFM's failure agreement: closing an
    // operation that may have degraded, survivors learn exactly which ranks
    // died before finishing it, independent of thread scheduling. Every
    // rank calls `fence_arrive` or `fence_wait` once per fenced operation,
    // so the n-th call on each rank names the same fence. Without a fault
    // plan nobody can die and both are no-ops.

    /// Reach this rank's next fence without waiting for anyone.
    pub fn fence_arrive(&mut self) {
        if let Some(rt) = &self.fault_rt {
            rt.arrive(self.rank);
        }
    }

    /// Reach this rank's next fence, then wait until every rank has reached
    /// it or died, and return the ranks that died first, ascending. The wait
    /// parks the worker slot and is bounded by the receive timeout; on
    /// expiry the answer covers the deaths seen so far.
    pub fn fence_wait(&mut self) -> Vec<Rank> {
        let Some(rt) = &self.fault_rt else {
            return Vec::new();
        };
        let generation = rt.arrive(self.rank);
        self.sched
            .park_while(|| rt.await_fence(generation, self.recv_timeout))
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
    /// run the crash hook, wake every peer on both channels, balance the
    /// trace with a `fault.injected` span, and unwind with the private
    /// payload [`WorldConfig::launch`] catches.
    fn crash_now(&mut self) -> ! {
        let rank = self.rank;
        if let Some(rt) = &self.fault_rt {
            rt.mark_dead(rank);
            if let Some(hook) = &rt.on_crash {
                hook(rank);
            }
        }
        for dst in 0..self.size {
            if dst == rank {
                continue;
            }
            // A peer may already be gone; notices are best-effort wakeups.
            let _ = self.data_senders[dst as usize].send(Message {
                src: rank,
                tag: DEATH_TAG,
                payload: Frame::new(),
            });
            let _ = self.ctrl_senders[dst as usize].send(CtrlMsg::Dead { src: rank });
        }
        self.tracer.enter("fault.injected");
        self.tracer.exit("fault.injected");
        self.tracer.close_open_spans();
        let events = self.tracer.take_events();
        std::panic::panic_any(InjectedCrash { rank, events });
    }

    /// Collective entry guard: snapshot the death epoch, then refuse to
    /// start if any rank is already dead (ranks whose last collective
    /// diverged — some completed it, some errored — all fail here on the
    /// next one, keeping survivors in lockstep). Receives inside the
    /// collective pass the snapshot so deaths *during* it surface too.
    pub(crate) fn coll_entry_guard(&self) -> Result<Option<u64>, CommError> {
        match &self.fault_rt {
            Some(rt) => {
                let snap = rt.epoch();
                match rt.first_dead() {
                    Some(rank) => Err(CommError::RankFailed { rank }),
                    None => Ok(Some(snap)),
                }
            }
            None => Ok(None),
        }
    }

    pub(crate) fn ctrl_send(&self, dst: Rank, msg: CtrlMsg) {
        self.ctrl_senders[dst as usize]
            .send(msg)
            .expect("world torn down mid-operation");
    }

    /// Fallible window-handle handshake. `coll_epoch` as in
    /// [`Comm::try_recv_raw_guarded`].
    pub(crate) fn try_ctrl_recv_win(
        &mut self,
        src: Rank,
        seq: u64,
        coll_epoch: Option<u64>,
    ) -> Result<Arc<WinBuf>, CommError> {
        if let Some(handle) = self.pending_ctrl.remove(&(src, seq)) {
            return Ok(handle);
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            // Drain queued ctrl messages before consulting death flags: a
            // handle sent before the sender died is already queued.
            loop {
                match self.ctrl_receiver.try_recv() {
                    Ok(msg) => {
                        if let Some(handle) = self.absorb_ctrl(msg, src, seq) {
                            return Ok(handle);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        return Err(CommError::WorldTornDown { rank: self.rank })
                    }
                }
            }
            if let Some(rt) = &self.fault_rt {
                if rt.is_dead(src) {
                    return Err(CommError::RankFailed { rank: src });
                }
                if let Some(snap) = coll_epoch {
                    if let Some(rank) = rt.newly_dead(snap) {
                        return Err(CommError::RankFailed { rank });
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::DeadlockSuspected {
                    rank: self.rank,
                    src,
                    tag: INTERNAL_TAG | seq,
                    waited: self.recv_timeout,
                });
            }
            // Blocking RMA-handshake edge: park the worker slot while the
            // control channel sleeps so a pooled peer can run.
            let received = {
                let (sched, ctrl_receiver) = (&self.sched, &self.ctrl_receiver);
                sched.park_while(|| ctrl_receiver.recv_timeout(deadline - now))
            };
            match received {
                Ok(msg) => {
                    if let Some(handle) = self.absorb_ctrl(msg, src, seq) {
                        return Ok(handle);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::DeadlockSuspected {
                        rank: self.rank,
                        src,
                        tag: INTERNAL_TAG | seq,
                        waited: self.recv_timeout,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::WorldTornDown { rank: self.rank })
                }
            }
        }
    }

    /// Match or stash one ctrl message; death notices are pure wakeups.
    fn absorb_ctrl(&mut self, msg: CtrlMsg, src: Rank, seq: u64) -> Option<Arc<WinBuf>> {
        match msg {
            CtrlMsg::Win {
                src: s,
                seq: q,
                handle,
            } => {
                if s == src && q == seq {
                    return Some(handle);
                }
                self.pending_ctrl.insert((s, q), handle);
                None
            }
            CtrlMsg::Dead { src: dead } => {
                debug_assert!(self.fault_rt.as_ref().is_some_and(|rt| rt.is_dead(dead)));
                None
            }
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
        self.try_recv_frame_guarded(src, tag, Transport::PointToPoint, None)
    }

    /// Receive and decode a typed value. Only communication errors are
    /// values.
    ///
    /// # Panics
    /// If the payload does not decode as `T` — a type mismatch is a
    /// programming error in an SPMD program, not a recoverable condition.
    pub fn try_recv_val<T: Wire>(&mut self, src: Rank, tag: Tag) -> Result<T, CommError> {
        let bytes = self.try_recv_frame(src, tag)?.gather();
        Ok(T::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!(
                "rank {} failed to decode message from {src} tag {tag}: {e}",
                self.rank
            )
        }))
    }

    /// Guarded matched receive. `coll_epoch` is the death-epoch snapshot a
    /// collective took at entry: when set, *any* new death fails the
    /// receive (the collective's communication pattern is broken even if
    /// this particular source is alive).
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
        coll_epoch: Option<u64>,
    ) -> Result<Bytes, CommError> {
        Ok(self
            .try_recv_frame_guarded(src, tag, transport, coll_epoch)?
            .gather())
    }

    pub(crate) fn try_recv_frame_guarded(
        &mut self,
        src: Rank,
        tag: Tag,
        transport: Transport,
        coll_epoch: Option<u64>,
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
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            // Drain everything already queued before consulting the flags.
            loop {
                match self.receiver.try_recv() {
                    Ok(msg) => {
                        if let Some(payload) = self.absorb(msg, src, tag, transport) {
                            return Ok(payload);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        return Err(CommError::WorldTornDown { rank: self.rank })
                    }
                }
            }
            if let Some(rt) = &self.fault_rt {
                if rt.is_dead(src) {
                    return Err(CommError::RankFailed { rank: src });
                }
                if let Some(snap) = coll_epoch {
                    if let Some(rank) = rt.newly_dead(snap) {
                        return Err(CommError::RankFailed { rank });
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::DeadlockSuspected {
                    rank: self.rank,
                    src,
                    tag,
                    waited: self.recv_timeout,
                });
            }
            // Blocking collective/p2p edge: park the worker slot while the
            // data channel sleeps so a pooled peer can run.
            let received = {
                let (sched, receiver) = (&self.sched, &self.receiver);
                sched.park_while(|| receiver.recv_timeout(deadline - now))
            };
            match received {
                Ok(msg) => {
                    if let Some(payload) = self.absorb(msg, src, tag, transport) {
                        return Ok(payload);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::DeadlockSuspected {
                        rank: self.rank,
                        src,
                        tag,
                        waited: self.recv_timeout,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::WorldTornDown { rank: self.rank })
                }
            }
        }
    }

    /// Match, stash, or discard one incoming message. Death notices wake
    /// the caller's guard loop and are never stashed.
    fn absorb(&mut self, msg: Message, src: Rank, tag: Tag, transport: Transport) -> Option<Frame> {
        if msg.tag == DEATH_TAG {
            debug_assert!(self.fault_rt.as_ref().is_some_and(|rt| rt.is_dead(msg.src)));
            return None;
        }
        if msg.src == src && msg.tag == tag {
            self.counters[self.rank as usize].count_recv(transport, msg.payload.len() as u64);
            return Some(msg.payload);
        }
        self.pending
            .entry((msg.src, msg.tag))
            .or_default()
            .push_back(msg.payload);
        None
    }

    /// Internal tag for round `round` of the collective numbered `op_seq`.
    pub(crate) fn coll_tag(op_seq: u64, round: u32) -> Tag {
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
    fn pooled_world_matches_thread_per_rank() {
        let body = |comm: &mut Comm| {
            let sum = comm.allreduce(u64::from(comm.rank()), |a, b| a + b);
            let dst = (comm.rank() + 1) % comm.size();
            let src = (comm.rank() + comm.size() - 1) % comm.size();
            comm.try_send_val(dst, 4, &comm.rank()).unwrap();
            let from = comm.try_recv_val::<Rank>(src, 4).unwrap();
            (sum, from)
        };
        let unpooled = WorldConfig::default().launch(32, body).expect_all();
        let pooled = WorldConfig::default()
            .with_workers(3)
            .launch(32, body)
            .expect_all();
        assert_eq!(unpooled.results, pooled.results);
        assert_eq!(
            unpooled.traffic.total_sent(),
            pooled.traffic.total_sent(),
            "scheduling must not change traffic"
        );
    }

    #[test]
    fn sleeping_ranks_release_their_worker_slot() {
        // 4 ranks on 1 worker: parked sleeps overlap, so the world takes
        // about one sleep, not four back to back.
        let started = Instant::now();
        WorldConfig::default()
            .with_workers(1)
            .launch(4, |comm| comm.sleep(Duration::from_millis(200)))
            .expect_all();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(600),
            "sleeps serialized: {took:?}"
        );
    }

    #[test]
    fn oversubscribed_pool_completes_heavy_collectives() {
        // 64 ranks on 2 workers: every collective edge must park, or the
        // world deadlocks well before the recv timeout.
        let out = WorldConfig::default()
            .with_workers(2)
            .with_recv_timeout(Duration::from_secs(30))
            .launch(64, |comm| {
                let mut acc = 0u64;
                for round in 0..4 {
                    acc += comm.allreduce(u64::from(comm.rank()) + round, |a, b| a + b);
                    comm.barrier();
                }
                acc
            })
            .expect_all();
        let per_round: u64 = (0..64u64).sum();
        assert!(out.results.iter().all(|&v| v >= 4 * per_round));
    }

    #[test]
    fn pooled_world_observes_injected_crashes() {
        let plan = FaultPlan::new(1).crash(1, FaultTrigger::MessageCount(1));
        let out = fault_config(plan).with_workers(2).launch(8, |comm| {
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
        // The death notice wakes the receive long before the 2 s timeout.
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
    fn fence_waits_for_a_lagging_rank_to_arrive_or_die() {
        // Rank 3 lags, then dies before its fence; rank 2 lags and arrives.
        // Survivors that reach the fence first must still name rank 3 —
        // and only rank 3 — however the threads are scheduled.
        let plan = FaultPlan::new(9).crash(3, FaultTrigger::PhaseStart("late".into()));
        let out = fault_config(plan).launch(4, |comm| {
            if comm.rank() >= 2 {
                comm.sleep(Duration::from_millis(100));
            }
            comm.enter_phase("late");
            comm.exit_phase("late");
            if comm.rank() == 2 {
                comm.fence_arrive();
                return Vec::new();
            }
            comm.fence_wait()
        });
        assert_eq!(out.crashed_ranks(), vec![3]);
        for rank in [0, 1] {
            assert_eq!(out.outcomes[rank].as_completed().unwrap(), &vec![3]);
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
