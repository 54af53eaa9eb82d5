//! Deterministic fault injection for the thread-rank runtime.
//!
//! The paper's premise is that node-local storage fails; a reproduction is
//! only credible if it can *exercise* that failure mid-collective, not just
//! between completed operations. A [`FaultPlan`] describes, ahead of time
//! and reproducibly, which ranks die (or stall) and *when*: at a named
//! phase boundary (the Algorithm-1 phases the tracer already knows about)
//! or after a fixed number of message operations. The plan is handed to
//! [`crate::WorldConfig`] and enforced by the communicator itself, so the
//! injected schedule is a pure function of the seed and the program — the
//! same seed replays the identical fault schedule.
//!
//! A crashed rank stops participating: its thread unwinds with a private
//! payload [`crate::WorldConfig::launch`] catches, a shared per-world
//! `FaultRuntime` marks it dead, and every peer is woken with a wake
//! notice so blocked receives fail fast with a typed [`CommError`] instead
//! of waiting out the deadlock timeout. A collective receive that fails on
//! a death revokes the world, so ranks the split collective left behind
//! in a receive from a live peer fail fast too.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::comm::{Rank, Tag};
use crate::wire::WireError;

/// When a planned fault fires on its rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Immediately before the named phase span opens on the rank
    /// (phases are the names passed to [`crate::Comm::enter_phase`]).
    PhaseStart(String),
    /// Immediately after the named phase span closes on the rank.
    PhaseEnd(String),
    /// Immediately before the n-th (1-based) opening of the named phase
    /// span on the rank. Incremental collectives such as healing re-enter
    /// the same phase every step; this trigger picks a specific occurrence
    /// (e.g. "kill the healer the second time it starts transferring").
    /// `PhaseStartNth(p, 1)` behaves exactly like `PhaseStart(p)`.
    PhaseStartNth(String, u32),
    /// When the rank's cumulative count of message operations (sends plus
    /// receives, collective internals included) reaches this value.
    MessageCount(u64),
}

impl fmt::Display for FaultTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTrigger::PhaseStart(p) => write!(f, "start:{p}"),
            FaultTrigger::PhaseEnd(p) => write!(f, "end:{p}"),
            FaultTrigger::PhaseStartNth(p, n) => write!(f, "start:{p}#{n}"),
            FaultTrigger::MessageCount(n) => write!(f, "msg:{n}"),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The rank dies: it stops participating in every subsequent operation.
    Crash,
    /// Straggler injection: the rank sleeps once for this long, then
    /// continues normally.
    Delay(Duration),
    /// Transient storage-failure injection: the plan's `on_transient` hook
    /// fires on the rank's thread with this budget of operations. The hook
    /// typically arms the rank's storage node to fail its next N reads
    /// recoverably, exercising retry paths; without a hook the action is a
    /// no-op (the runtime itself has no storage to degrade).
    Transient(u32),
}

/// One planned fault: an action on a rank at a trigger point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The rank the fault is injected on.
    pub rank: Rank,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub action: FaultAction,
}

/// Callback invoked on the dying rank's thread at the instant of an
/// injected crash, before any peer can observe the death. Tests use it to
/// fail the rank's storage node atomically with the process death.
pub type CrashHook = Arc<dyn Fn(Rank) + Send + Sync>;

/// Callback invoked on a rank's thread when a [`FaultAction::Transient`]
/// fault fires, with the rank and the planned operation budget. Tests use
/// it to arm the rank's storage node with that many transient read
/// failures (`Cluster::inject_transient` in `replidedup-storage`).
pub type TransientHook = Arc<dyn Fn(Rank, u32) + Send + Sync>;

/// A deterministic fault schedule for one world run.
///
/// Equality and `Debug` ignore the crash hook: two plans with the same seed
/// and fault list describe the same schedule.
#[derive(Clone, Default)]
pub struct FaultPlan {
    /// Seed that generated (or labels) this plan; replaying with an equal
    /// plan reproduces the identical schedule.
    pub seed: u64,
    /// The planned faults, in no particular order (each fires on its own
    /// rank at its own trigger).
    pub faults: Vec<Fault>,
    pub(crate) on_crash: Option<CrashHook>,
    pub(crate) on_transient: Option<TransientHook>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .field("on_crash", &self.on_crash.as_ref().map(|_| ".."))
            .field("on_transient", &self.on_transient.as_ref().map(|_| ".."))
            .finish()
    }
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.faults == other.faults
    }
}

impl Eq for FaultPlan {}

/// SplitMix64: tiny, high-quality, dependency-free generator; the standard
/// choice for seeding deterministic test schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Empty plan labeled with `seed`; add faults with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Add one fault.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Add a crash of `rank` at `trigger`.
    pub fn crash(self, rank: Rank, trigger: FaultTrigger) -> Self {
        self.with_fault(Fault {
            rank,
            trigger,
            action: FaultAction::Crash,
        })
    }

    /// Add a one-shot delay of `rank` at `trigger`.
    pub fn delay(self, rank: Rank, trigger: FaultTrigger, dur: Duration) -> Self {
        self.with_fault(Fault {
            rank,
            trigger,
            action: FaultAction::Delay(dur),
        })
    }

    /// Add a transient-storage fault on `rank` at `trigger` with an `ops`
    /// budget (delivered to the `on_transient` hook when it fires).
    pub fn transient(self, rank: Rank, trigger: FaultTrigger, ops: u32) -> Self {
        self.with_fault(Fault {
            rank,
            trigger,
            action: FaultAction::Transient(ops),
        })
    }

    /// Install a callback that runs on the dying rank's thread at the
    /// instant of each injected crash (e.g. to fail the rank's storage
    /// node). The hook does not participate in equality.
    pub fn on_crash(mut self, hook: impl Fn(Rank) + Send + Sync + 'static) -> Self {
        self.on_crash = Some(Arc::new(hook));
        self
    }

    /// Install a callback that runs on the faulted rank's thread when a
    /// [`FaultAction::Transient`] fires (e.g. to arm the rank's storage
    /// node with that many recoverable read failures). The hook does not
    /// participate in equality.
    pub fn on_transient(mut self, hook: impl Fn(Rank, u32) + Send + Sync + 'static) -> Self {
        self.on_transient = Some(Arc::new(hook));
        self
    }

    /// Derive a plan of `crashes` distinct rank crashes from `seed`: each
    /// victim rank and its phase boundary (start or end of one of `phases`)
    /// are chosen by a SplitMix64 stream, so the same
    /// `(seed, world, crashes, phases)` always yields the same plan.
    pub fn seeded(seed: u64, world: u32, crashes: u32, phases: &[&str]) -> Self {
        assert!(world > 0, "world size must be positive");
        assert!(!phases.is_empty(), "seeded plan needs phase names");
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let crashes = crashes.min(world);
        // Fisher–Yates prefix: the first `crashes` entries are a uniform
        // sample of distinct ranks.
        let mut ranks: Vec<Rank> = (0..world).collect();
        for i in 0..crashes as usize {
            let j = i + (splitmix64(&mut state) as usize) % (world as usize - i);
            ranks.swap(i, j);
        }
        let mut plan = Self::new(seed);
        for &rank in &ranks[..crashes as usize] {
            let phase = phases[(splitmix64(&mut state) as usize) % phases.len()].to_string();
            let trigger = if splitmix64(&mut state) & 1 == 0 {
                FaultTrigger::PhaseStart(phase)
            } else {
                FaultTrigger::PhaseEnd(phase)
            };
            plan = plan.crash(rank, trigger);
        }
        plan
    }

    /// Parse the `--fault-plan` CLI syntax: `SEED[:ITEM[;ITEM]...]` where
    /// each `ITEM` is
    ///
    /// * `crash:RANK@TRIGGER` — crash `RANK` at `TRIGGER`,
    /// * `delay:RANK:MILLIS@TRIGGER` — stall `RANK` once for `MILLIS` ms,
    /// * `transient:RANK:OPS@TRIGGER` — arm `RANK`'s storage with `OPS`
    ///   recoverable read failures (via the `on_transient` hook),
    ///
    /// and `TRIGGER` is `start:PHASE`, `end:PHASE` or `msg:N`. A bare
    /// `SEED` yields an empty plan (callers typically combine it with
    /// [`FaultPlan::seeded`]).
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let bad = |what: &str| FaultSpecError(format!("{what} in fault plan {spec:?}"));
        let (seed_str, rest) = match spec.split_once(':') {
            Some((s, r)) => (s, Some(r)),
            None => (spec, None),
        };
        let seed: u64 = seed_str
            .parse()
            .map_err(|_| bad("seed must be an unsigned integer"))?;
        let mut plan = Self::new(seed);
        let Some(rest) = rest else { return Ok(plan) };
        for item in rest.split(';').filter(|i| !i.is_empty()) {
            let (action_str, trigger_str) = item
                .split_once('@')
                .ok_or_else(|| bad("fault item needs ACTION@TRIGGER"))?;
            let trigger = match trigger_str.split_once(':') {
                Some(("start", p)) if !p.is_empty() => match p.split_once('#') {
                    Some((phase, nth)) if !phase.is_empty() => FaultTrigger::PhaseStartNth(
                        phase.to_string(),
                        nth.parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| bad("start:PHASE#N needs an occurrence >= 1"))?,
                    ),
                    Some(_) => return Err(bad("start:PHASE#N needs a phase name")),
                    None => FaultTrigger::PhaseStart(p.to_string()),
                },
                Some(("end", p)) if !p.is_empty() => FaultTrigger::PhaseEnd(p.to_string()),
                Some(("msg", n)) => FaultTrigger::MessageCount(
                    n.parse().map_err(|_| bad("msg trigger needs a count"))?,
                ),
                _ => {
                    return Err(bad(
                        "trigger must be start:PHASE, start:PHASE#N, end:PHASE or msg:N",
                    ))
                }
            };
            let parts: Vec<&str> = action_str.split(':').collect();
            let fault = match parts.as_slice() {
                ["crash", r] => Fault {
                    rank: r.parse().map_err(|_| bad("crash needs a rank"))?,
                    trigger,
                    action: FaultAction::Crash,
                },
                ["delay", r, ms] => Fault {
                    rank: r.parse().map_err(|_| bad("delay needs a rank"))?,
                    trigger,
                    action: FaultAction::Delay(Duration::from_millis(
                        ms.parse().map_err(|_| bad("delay needs milliseconds"))?,
                    )),
                },
                ["transient", r, ops] => Fault {
                    rank: r.parse().map_err(|_| bad("transient needs a rank"))?,
                    trigger,
                    action: FaultAction::Transient(
                        ops.parse()
                            .map_err(|_| bad("transient needs an op count"))?,
                    ),
                },
                _ => {
                    return Err(bad(
                        "action must be crash:RANK, delay:RANK:MS or transient:RANK:OPS",
                    ))
                }
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }
}

/// A `--fault-plan` specification that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// Typed communication failures: what the runtime returns from the `try_*`
/// operations instead of panicking (the infallible wrappers panic with the
/// same message).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommError {
    /// The operation involves a rank that has crashed (injected fault), or
    /// a collective split on that rank's death and revoked the world.
    RankFailed {
        /// The dead rank.
        rank: Rank,
    },
    /// A blocking receive exhausted the deadlock timeout.
    DeadlockSuspected {
        /// The rank whose receive timed out.
        rank: Rank,
        /// The awaited source rank.
        src: Rank,
        /// The awaited tag.
        tag: Tag,
        /// How long the receive waited.
        waited: Duration,
    },
    /// A peer's channel disappeared mid-operation (the world is being torn
    /// down, e.g. because another rank panicked for real).
    WorldTornDown {
        /// The rank that observed the teardown.
        rank: Rank,
    },
    /// A collective or a typed receive got a value that does not decode
    /// as its operand type. The rank returns at once; peers still waiting
    /// on it fail at their receive timeout or at the next collective.
    Undecodable {
        /// The rank that received the value.
        rank: Rank,
        /// The rank whose value it was.
        peer: Rank,
        /// What the decoder rejected.
        error: WireError,
    },
    /// A gather-scatter's root sent this rank no entry: a value did not
    /// decode at the root, or the root's plan returned a number of entries
    /// other than the world size. The root returns the decode error
    /// itself, or this variant naming itself for a plan of the wrong
    /// length; every other rank returns this variant at once.
    NoPlanEntry {
        /// The rank left without an entry.
        rank: Rank,
        /// The gather-scatter's root.
        root: Rank,
    },
    /// A window creation passed its opening fence, but a peer deposited no
    /// window there: the ranks called collectives in different orders.
    MissingExposure {
        /// The rank creating the window.
        rank: Rank,
        /// The rank whose window is missing.
        peer: Rank,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} has failed"),
            CommError::DeadlockSuspected {
                rank,
                src,
                tag,
                waited,
            } => write!(
                f,
                "rank {rank} timed out after {waited:?} waiting for message from rank {src} \
                 tag {tag:#x} (likely deadlock: mismatched send/recv or collective ordering)"
            ),
            CommError::WorldTornDown { rank } => {
                write!(f, "rank {rank}: world torn down mid-operation")
            }
            CommError::Undecodable { rank, peer, error } => {
                write!(
                    f,
                    "rank {rank} could not decode rank {peer}'s value: {error}"
                )
            }
            CommError::NoPlanEntry { rank, root } => write!(
                f,
                "rank {rank} got no entry from the gather-scatter plan at root {root}"
            ),
            CommError::MissingExposure { rank, peer } => write!(
                f,
                "rank {rank} found no window from rank {peer} after the opening fence \
                 (mismatched collective ordering)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Shared per-world fault state. The atomic dead flags are the ground
/// truth; the wake notices ranks post on every channel are pure wakeups
/// (each flag is set *before* any notice is sent, so a woken
/// receiver always observes it).
pub(crate) struct FaultRuntime {
    dead: Vec<AtomicBool>,
    /// Set once some collective receive failed on a death: the world's
    /// collectives have split, so from then on every receive with no
    /// queued match fails (ULFM's revoke). The revoker read a dead flag
    /// first, and `revoke`'s release pairs with `is_revoked`'s acquire,
    /// so a rank that sees the world revoked also sees that death.
    revoked: AtomicBool,
    pub(crate) on_crash: Option<CrashHook>,
    pub(crate) on_transient: Option<TransientHook>,
}

impl FaultRuntime {
    pub(crate) fn new(
        world: u32,
        on_crash: Option<CrashHook>,
        on_transient: Option<TransientHook>,
    ) -> Self {
        Self {
            dead: (0..world).map(|_| AtomicBool::new(false)).collect(),
            revoked: AtomicBool::new(false),
            on_crash,
            on_transient,
        }
    }

    pub(crate) fn is_dead(&self, rank: Rank) -> bool {
        self.dead[rank as usize].load(Ordering::Acquire)
    }

    pub(crate) fn mark_dead(&self, rank: Rank) {
        self.dead[rank as usize].store(true, Ordering::Release);
    }

    /// Revoke the world; true for the one call that revoked it.
    pub(crate) fn revoke(&self) -> bool {
        !self.revoked.swap(true, Ordering::AcqRel)
    }

    pub(crate) fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::Acquire)
    }

    /// The lowest dead rank, if any.
    pub(crate) fn first_dead(&self) -> Option<Rank> {
        (0..self.dead.len() as u32).find(|&r| self.is_dead(r))
    }

    /// All dead ranks, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<Rank> {
        (0..self.dead.len() as u32)
            .filter(|&r| self.is_dead(r))
            .collect()
    }
}

/// Panic payload of an injected crash; the launcher catches it and turns the
/// rank's outcome into [`crate::RankOutcome::Crashed`] instead of
/// propagating the unwind.
pub(crate) struct InjectedCrash {
    pub(crate) rank: Rank,
    pub(crate) events: Option<Vec<replidedup_trace::Event>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let phases = ["alpha", "beta", "gamma"];
        let a = FaultPlan::seeded(42, 8, 2, &phases);
        let b = FaultPlan::seeded(42, 8, 2, &phases);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 2);
        // Distinct victims.
        assert_ne!(a.faults[0].rank, a.faults[1].rank);
        assert!(a.faults.iter().all(|f| f.rank < 8));
        assert!(a.faults.iter().all(|f| f.action == FaultAction::Crash));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let phases = ["alpha", "beta", "gamma", "delta"];
        let plans: Vec<FaultPlan> = (0..16)
            .map(|s| FaultPlan::seeded(s, 16, 3, &phases))
            .collect();
        let distinct = plans
            .iter()
            .filter(|p| plans.iter().filter(|q| q == p).count() == 1)
            .count();
        assert!(distinct > 8, "seeded plans barely vary: {distinct}/16");
    }

    #[test]
    fn crash_count_is_clamped_to_world() {
        let plan = FaultPlan::seeded(1, 3, 10, &["p"]);
        assert_eq!(plan.faults.len(), 3);
    }

    #[test]
    fn parse_roundtrips_the_cli_syntax() {
        let plan = FaultPlan::parse("42:crash:3@end:exchange;delay:1:250@start:commit").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.faults,
            vec![
                Fault {
                    rank: 3,
                    trigger: FaultTrigger::PhaseEnd("exchange".into()),
                    action: FaultAction::Crash,
                },
                Fault {
                    rank: 1,
                    trigger: FaultTrigger::PhaseStart("commit".into()),
                    action: FaultAction::Delay(Duration::from_millis(250)),
                },
            ]
        );
        let msg = FaultPlan::parse("7:crash:0@msg:100").unwrap();
        assert_eq!(
            msg.faults[0].trigger,
            FaultTrigger::MessageCount(100),
            "{msg:?}"
        );
    }

    #[test]
    fn parse_transient_action() {
        let plan = FaultPlan::parse("9:transient:2:5@start:restore.retry").unwrap();
        assert_eq!(
            plan.faults,
            vec![Fault {
                rank: 2,
                trigger: FaultTrigger::PhaseStart("restore.retry".into()),
                action: FaultAction::Transient(5),
            }]
        );
        assert!(FaultPlan::parse("9:transient:2@start:p").is_err());
        assert!(FaultPlan::parse("9:transient:2:x@start:p").is_err());
    }

    #[test]
    fn parse_nth_phase_start_trigger() {
        let plan = FaultPlan::parse("3:crash:1@start:heal.transfer#2").unwrap();
        assert_eq!(
            plan.faults,
            vec![Fault {
                rank: 1,
                trigger: FaultTrigger::PhaseStartNth("heal.transfer".into(), 2),
                action: FaultAction::Crash,
            }]
        );
        assert_eq!(
            plan.faults[0].trigger.to_string(),
            "start:heal.transfer#2",
            "Display round-trips the CLI syntax"
        );
        for bad in [
            "3:crash:1@start:p#0",
            "3:crash:1@start:p#",
            "3:crash:1@start:#2",
            "3:crash:1@start:p#x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_bare_seed_is_empty_plan() {
        let plan = FaultPlan::parse("1234").unwrap();
        assert_eq!(plan.seed, 1234);
        assert!(plan.faults.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "x",
            "1:crash:0",
            "1:crash@start:p",
            "1:crash:0@never:p",
            "1:delay:0@start:p",
            "1:boom:0@start:p",
            "1:crash:0@msg:many",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn plan_equality_ignores_the_hook() {
        let a = FaultPlan::new(5).crash(0, FaultTrigger::MessageCount(1));
        let b = a.clone().on_crash(|_| {});
        assert_eq!(a, b);
    }

    #[test]
    fn comm_error_display_keeps_timeout_wording() {
        // The panicking collectives panic with this Display; the runtime's
        // long-standing "timed out" deadlock wording must survive.
        let e = CommError::DeadlockSuspected {
            rank: 2,
            src: 0,
            tag: 7,
            waited: Duration::from_secs(1),
        };
        assert!(e.to_string().contains("timed out"));
        assert!(e.to_string().contains("rank 0"));
    }

    #[test]
    fn fault_runtime_tracks_deaths_in_order() {
        let rt = FaultRuntime::new(4, None, None);
        assert_eq!(rt.first_dead(), None);
        rt.mark_dead(2);
        rt.mark_dead(0);
        assert!(rt.is_dead(2) && rt.is_dead(0) && !rt.is_dead(1));
        assert_eq!(rt.dead_ranks(), vec![0, 2]);
        assert_eq!(rt.first_dead(), Some(0));
    }
}
