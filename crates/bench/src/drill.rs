//! Scripted recovery drills: fail → heal under live traffic → verify.
//!
//! Each drill row runs one operator playbook end to end against a fresh
//! cluster: dump a target generation, time a foreground dump alone on
//! the healthy cluster (the baseline), inject the scenario's damage,
//! then race a **rate-limited background healer** of the target
//! generation against a foreground dump of the next generation — two
//! worlds, two thread pools, one cluster, exactly like the continuous
//! healing deployment of DESIGN.md §16. The row records the healer's
//! wall time (`recovery_ms`), the payload it moved (`heal_bytes`), and
//! the foreground dump's contended-vs-baseline slowdown, then verifies
//! both the healed and the freshly dumped generation byte-exactly.
//!
//! Scenarios ([`DRILL_SCENARIOS`]):
//!
//! * `node-loss` — as many disks as the policy tolerates are replaced
//!   with empty ones;
//! * `healer-crash` — a disk is replaced, a first healer is killed the
//!   moment its *second* transfer window opens
//!   (`start:heal.transfer#2`), and the timed recovery resumes from the
//!   cursor that healer persisted before dying;
//! * `dump-crash` — a dump of a newer generation crashes a rank
//!   mid-commit and takes its node's storage with it;
//! * `corruption` — stored chunk copies and stripe shards are bit-rotted
//!   in place, so the scrub step must quarantine before healing;
//! * `gc-pressure` — the target generation sits on top of superseded
//!   ones, and the healer's gc step must collect them all before
//!   mending a replaced disk.
//!
//! Timing rows are inherently noisy at laptop scale; the hard gates are
//! `converged` and `restore_verified`, while [`DRILL_NOISE_BAND`] only
//! classifies the foreground slowdown in reports.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use replidedup_core::{
    HealCursor, HealOptions, HealReport, RateLimit, RedundancyPolicy, Replicator, Strategy,
};
use replidedup_mpi::wire::Wire;
use replidedup_mpi::{FaultPlan, FaultTrigger, WorldConfig};
use replidedup_storage::{Cluster, Placement};

use crate::workloads::{make_buffers, AppKind};

/// Every drill dumps HPCCG content in the paper's 4 KiB pages.
const APP: AppKind = AppKind::hpccg();
const CHUNK_SIZE: usize = 4096;

/// One scripted recovery drill: fail → heal under live traffic →
/// verify, for one (scenario, strategy, policy) cell of the drill
/// matrix.
#[derive(Debug, Clone)]
pub struct DrillScenario {
    /// Drill scenario label (one of [`DRILL_SCENARIOS`]).
    pub scenario: String,
    /// Strategy label (`no-dedup` / `coll-dedup`).
    pub strategy: String,
    /// Redundancy-policy label (`rep3` / `rs4+2` / `auto4+2`).
    pub policy: String,
    /// Bounded healer steps driven to convergence, counted across
    /// resumes by the persisted cursor.
    pub heal_steps: u64,
    /// Payload bytes the healer re-replicated or reconstructed.
    pub heal_bytes: u64,
    /// Wall time of the (resumed) background heal, milliseconds.
    pub recovery_ms: f64,
    /// Foreground dump wall time while the healer ran, over the same
    /// dump alone on the healthy cluster.
    pub foreground_slowdown: f64,
    /// The healer reached `Done` with nothing unrepairable (and, for gc
    /// drills, every superseded generation collected).
    pub converged: bool,
    /// Healed and foreground generations both restored byte-exactly.
    pub restore_verified: bool,
}

/// Every scripted recovery scenario, in report order.
pub const DRILL_SCENARIOS: [&str; 5] = [
    "node-loss",
    "healer-crash",
    "dump-crash",
    "corruption",
    "gc-pressure",
];

/// Foreground-slowdown band under which a contended dump counts as
/// unaffected by the rate-limited healer. Deliberately wide: the drills
/// time two thread-pool worlds racing on one machine, so the signal is
/// "same order of magnitude", not micro-benchmark precision.
pub const DRILL_NOISE_BAND: f64 = 3.0;

/// The redundancy policies every scenario is drilled under, with the
/// node losses each tolerates by construction.
pub fn drill_policies() -> [(RedundancyPolicy, u32); 3] {
    [
        (RedundancyPolicy::Replicate(3), 2),
        (RedundancyPolicy::Rs { k: 4, m: 2 }, 2),
        (
            RedundancyPolicy::Auto {
                k: 4,
                m: 2,
                replicate_below: 1 << 10,
            },
            2,
        ),
    ]
}

/// Run the drill matrix: every scenario × strategy × policy on a world
/// of `ranks` ranks (at least 6).
pub fn run_drill_matrix(ranks: u32) -> Vec<DrillScenario> {
    DRILL_SCENARIOS
        .iter()
        .filter_map(|scenario| run_drill(ranks, scenario))
        .flatten()
        .collect()
}

/// Run one named scenario across every strategy × policy. `None` for an
/// unknown scenario name (see [`DRILL_SCENARIOS`]).
pub fn run_drill(ranks: u32, scenario: &str) -> Option<Vec<DrillScenario>> {
    if !DRILL_SCENARIOS.contains(&scenario) {
        return None;
    }
    let mut rows = Vec::new();
    for strategy in [Strategy::CollDedup, Strategy::NoDedup] {
        for policy in drill_policies() {
            rows.push(run_drill_row(ranks, scenario, strategy, policy));
        }
    }
    Some(rows)
}

/// Healer knobs shared by every drill: windows small enough that even
/// smoke workloads take several steps per stage (resumability needs
/// multiple windows), and a generous-but-real rate limit so the
/// throttling path is always exercised.
fn drill_heal_options(gc_before: Option<u64>) -> HealOptions {
    HealOptions {
        chunk_batch: 32,
        owner_batch: 2,
        rate: Some(RateLimit {
            bytes_per_sec: 64 << 20,
            burst_bytes: 1 << 20,
        }),
        gc_before,
    }
}

fn build_replicator<'a>(
    strategy: Strategy,
    cluster: &'a Cluster,
    policy: RedundancyPolicy,
    heal: HealOptions,
) -> Replicator<'a> {
    Replicator::builder(strategy)
        .cluster(cluster)
        .replication(3)
        .chunk_size(CHUNK_SIZE)
        .with_policy(policy)
        .heal_options(heal)
        .build()
        .expect("drill configs are valid")
}

/// Per-generation content: the shared workload with one byte of
/// generation skew, so generations dedup against each other but restore
/// distinguishably.
fn gen_bufs(base: &[Vec<u8>], generation: u64) -> Vec<Vec<u8>> {
    base.iter()
        .map(|b| {
            let mut b = b.clone();
            if let Some(first) = b.first_mut() {
                *first ^= (generation as u8).wrapping_mul(0x3B);
            }
            b
        })
        .collect()
}

/// One drill row: dump, baseline, damage, heal-while-dumping, verify.
fn run_drill_row(
    ranks: u32,
    scenario: &str,
    strategy: Strategy,
    (policy, tolerance): (RedundancyPolicy, u32),
) -> DrillScenario {
    // One rank per node; rs4+2 stripes need six distinct devices.
    let n = ranks.max(6);
    let base = make_buffers(APP, n);

    // Generation script: gc-pressure heals gen 3 on top of two buried
    // superseded generations; every other scenario heals gen 1.
    let stale: &[u64] = if scenario == "gc-pressure" {
        &[1, 2]
    } else {
        &[]
    };
    let target = stale.len() as u64 + 1;
    let base_gen = target + 1;
    let crash_gen = target + 2;
    let fg_gen = target + 3;
    let heal = drill_heal_options((scenario == "gc-pressure").then_some(target));

    let cluster = Arc::new(Cluster::new(Placement::one_per_node(n)));
    let repl = build_replicator(strategy, &cluster, policy, heal);

    for &gen in stale {
        let bufs = gen_bufs(&base, gen);
        let out = WorldConfig::default()
            .launch(n, |comm| {
                repl.dump(comm, gen, &bufs[comm.rank() as usize])
                    .map(|_| ())
            })
            .expect_all();
        assert!(out.results.iter().all(Result::is_ok), "stale dump {gen}");
    }
    let bufs_target = gen_bufs(&base, target);
    let out = WorldConfig::default()
        .launch(n, |comm| {
            repl.dump(comm, target, &bufs_target[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    assert!(out.results.iter().all(Result::is_ok), "target dump");

    // Baseline: the foreground dump alone, on the healthy cluster.
    let bufs_base = gen_bufs(&base, base_gen);
    let t0 = Instant::now();
    let out = WorldConfig::default()
        .launch(n, |comm| {
            repl.dump(comm, base_gen, &bufs_base[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    let baseline = t0.elapsed();
    assert!(out.results.iter().all(Result::is_ok), "baseline dump");

    let start_cursor = inject_damage(
        scenario, &cluster, strategy, policy, heal, target, crash_gen, &base, tolerance, n,
    );

    // The timed recovery: a rate-limited background healer mends the
    // target generation while the foreground dumps the next one.
    let healer = {
        let cluster = Arc::clone(&cluster);
        let start = start_cursor.clone();
        replidedup_mpi::sched::spawn("drill-healer", move || {
            let repl = build_replicator(strategy, &cluster, policy, heal);
            let t0 = Instant::now();
            let out = WorldConfig::default()
                .launch(n, |comm| {
                    let mut cursor = start.clone();
                    repl.heal_from(comm, &mut cursor).map(|r| (cursor, r))
                })
                .expect_all();
            (t0.elapsed(), out.results)
        })
    };
    let bufs_fg = gen_bufs(&base, fg_gen);
    let t0 = Instant::now();
    let out = WorldConfig::default()
        .launch(n, |comm| {
            repl.dump(comm, fg_gen, &bufs_fg[comm.rank() as usize])
                .map(|_| ())
        })
        .expect_all();
    let contended = t0.elapsed();
    let fg_ok = out.results.iter().all(Result::is_ok);
    let (recovery, heal_results) = healer.join().expect("healer thread");

    let mut converged = heal_results.iter().all(Result::is_ok);
    let mut heal_steps = 0u64;
    let mut heal_bytes = 0u64;
    if let Some(Ok((cursor, report))) = heal_results.first() {
        converged &= cursor.is_done() && report.is_fully_healed();
        heal_steps = cursor.steps_taken;
        heal_bytes = report.heal_bytes();
        // The gc drill additionally demands every superseded generation
        // was actually collected before the mend.
        if !stale.is_empty() {
            converged &= report.gc.generations_collected == stale.len() as u64;
        }
    } else {
        converged = false;
    }

    let mut verified = fg_ok;
    for (gen, expect) in [(target, &bufs_target), (fg_gen, &bufs_fg)] {
        let out = WorldConfig::default()
            .launch(n, |comm| repl.restore(comm, gen))
            .expect_all();
        for (rank, r) in out.results.iter().enumerate() {
            verified &= r.as_ref().is_ok_and(|b| b == &expect[rank]);
        }
    }

    DrillScenario {
        scenario: scenario.to_string(),
        strategy: strategy.label().to_string(),
        policy: policy.label(),
        heal_steps,
        heal_bytes,
        recovery_ms: recovery.as_secs_f64() * 1e3,
        foreground_slowdown: contended.as_secs_f64() / baseline.as_secs_f64().max(1e-12),
        converged,
        restore_verified: verified,
    }
}

/// Apply the scenario's damage to the committed target generation and
/// return the cursor the timed recovery starts from (a fresh cursor for
/// most scenarios; the dead healer's persisted cursor for
/// `healer-crash`).
#[allow(clippy::too_many_arguments)]
fn inject_damage(
    scenario: &str,
    cluster: &Arc<Cluster>,
    strategy: Strategy,
    policy: RedundancyPolicy,
    heal: HealOptions,
    target: u64,
    crash_gen: u64,
    base: &[Vec<u8>],
    tolerance: u32,
    n: u32,
) -> HealCursor {
    match scenario {
        "node-loss" => {
            // Replace exactly as many disks as the policy tolerates.
            for node in 0..tolerance {
                cluster.fail_node(node);
                cluster.revive_node(node);
            }
            HealCursor::new(target)
        }
        "healer-crash" => {
            cluster.fail_node(n - 1);
            cluster.revive_node(n - 1);
            // A first healer runs with rank 0 persisting the cursor
            // after every completed step — exactly as an operator would
            // — and is killed the moment its second transfer window
            // opens. Killing a healer process leaves disks intact, so
            // there is no storage hook.
            let persisted = Arc::new(Mutex::new(Vec::new()));
            let plan = FaultPlan::new(23).crash(
                n / 2,
                FaultTrigger::PhaseStartNth("heal.transfer".into(), 2),
            );
            let config = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(2))
                .with_faults(plan);
            let store = Arc::clone(&persisted);
            let hc = Arc::clone(cluster);
            let out = config.launch(n, move |comm| {
                let repl = build_replicator(strategy, &hc, policy, heal);
                let mut cursor = HealCursor::new(target);
                let mut report = HealReport::default();
                while let Ok(true) = repl.heal_step(comm, &mut cursor, &mut report) {
                    if comm.rank() == 0 {
                        *store.lock().expect("cursor store") = cursor.to_bytes().to_vec();
                    }
                }
            });
            // The drill only means something if the heal reached a
            // second transfer window for the kill to land in.
            assert_eq!(
                out.crashed_ranks(),
                vec![n / 2],
                "the healer kill must fire"
            );
            let snapshot = persisted.lock().expect("cursor store").clone();
            HealCursor::from_bytes(&snapshot).unwrap_or_else(|_| HealCursor::new(target))
        }
        "dump-crash" => {
            // A dump of a newer generation crashes one rank mid-commit
            // and its node's storage dies with it; the replacement disk
            // comes up empty.
            let bufs = gen_bufs(base, crash_gen);
            let hook = Arc::clone(cluster);
            let plan = FaultPlan::new(31)
                .crash(n / 2, FaultTrigger::PhaseStart("commit".into()))
                .on_crash(move |rank| hook.fail_node(hook.node_of(rank)));
            let config = WorldConfig::default()
                .with_recv_timeout(Duration::from_secs(2))
                .with_faults(plan);
            let hc = Arc::clone(cluster);
            config.launch(n, move |comm| {
                let repl = build_replicator(strategy, &hc, policy, heal);
                let _ = repl.dump(comm, crash_gen, &bufs[comm.rank() as usize]);
            });
            for node in 0..n {
                if !cluster.is_alive(node) {
                    cluster.revive_node(node);
                }
            }
            HealCursor::new(target)
        }
        "corruption" => {
            // Bit-rot in place: one stored copy of a handful of chunks
            // plus one shard of up to two stripes, all on node 0 — the
            // scrub step must quarantine them before the heal can close
            // the deficits from surviving redundancy. A cell with
            // neither chunks nor stripes (no-dedup with pure
            // replication keeps only whole blobs) loses a disk instead.
            let mut injected = 0u32;
            if let Ok(fps) = cluster.chunk_fps(0, None, usize::MAX) {
                for fp in fps.into_iter().take(4) {
                    if cluster.corrupt_chunk(0, &fp).unwrap_or(false) {
                        injected += 1;
                    }
                }
            }
            let mut hit_stripes = Vec::new();
            for (key, meta) in cluster
                .shard_inventory(0, .., |_| true, usize::MAX)
                .unwrap_or_default()
            {
                if hit_stripes.len() >= 2 || hit_stripes.contains(&key) {
                    continue;
                }
                hit_stripes.push(key);
                if cluster.corrupt_shard(0, key, meta.index).unwrap_or(false) {
                    injected += 1;
                }
            }
            if injected == 0 {
                cluster.fail_node(1);
                cluster.revive_node(1);
            }
            HealCursor::new(target)
        }
        "gc-pressure" => {
            // The damage is a replaced disk; the pressure is the two
            // superseded generations the healer's gc step (gc_before =
            // target) must collect before mending.
            cluster.fail_node(1);
            cluster.revive_node(1);
            HealCursor::new(target)
        }
        other => panic!("unknown drill scenario {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two resumability scenarios under coll-dedup with replicated and
    /// coded redundancy: cursor persistence, the kill-and-resume path and
    /// RS reconstruction, small enough for every test run.
    #[test]
    fn smoke_drills_converge_and_restore_byte_exact() {
        let [rep3, rs42, _] = drill_policies();
        for scenario in ["node-loss", "healer-crash"] {
            for policy in [rep3, rs42] {
                let d = run_drill_row(6, scenario, Strategy::CollDedup, policy);
                let cell = format!("{} {} {}", d.scenario, d.strategy, d.policy);
                assert!(d.converged, "{cell}: drill must converge");
                assert!(d.restore_verified, "{cell}: restores must verify");
                assert!(d.heal_steps > 0, "{cell}: healer must take steps");
            }
        }
    }
}
