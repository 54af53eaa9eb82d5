//! The experiment harness: one function per table/figure of the paper.
//!
//! Every experiment follows the same recipe:
//! 1. generate checkpoint buffers by running the real mini-app,
//! 2. run the collective dump in-process and *measure* bytes/chunks,
//! 3. feed the measurements to the Shamrock cost model to recover
//!    paper-scale times (volume inflated by the documented scale factor,
//!    dedup ratios taken as measured).
//!
//! The returned structs carry everything the `repro` binary prints and the
//! CSV writers serialize, so integration tests can assert the paper's
//! qualitative claims (who wins, by roughly what factor) directly.

use std::time::Instant;

use replidedup_apps::SyntheticWorkload;
use replidedup_core::{DumpConfig, RedundancyPolicy, Replicator, Strategy, WorldDumpStats};
use replidedup_hash::Sha1ChunkHasher;
use replidedup_mpi::{RankTraffic, WorldConfig, WorldTrace};
use replidedup_sim::{AppScenario, ClusterModel, DumpMeasurement, CM1, HPCCG};
use replidedup_storage::{Cluster, Placement};

use crate::workloads::{make_buffers, AppKind};

/// Ranks per node, as on the paper's testbed.
pub const RANKS_PER_NODE: u32 = 12;

/// Outcome of one in-process collective dump.
#[derive(Debug)]
pub struct DumpRun {
    /// World-level per-rank statistics.
    pub stats: WorldDumpStats,
    /// Unique bytes held across all node stores after the dump.
    pub cluster_unique_bytes: u64,
    /// Raw device usage across all nodes after the dump.
    pub cluster_device_bytes: u64,
}

/// Run one collective dump over pre-generated buffers.
pub fn dump_world(buffers: &[Vec<u8>], cfg: DumpConfig) -> DumpRun {
    let n = buffers.len() as u32;
    let cluster = Cluster::new(Placement::pack(n, RANKS_PER_NODE));
    let repl = Replicator::builder(cfg.strategy)
        .with_config(cfg)
        .cluster(&cluster)
        .hasher(&Sha1ChunkHasher)
        .build()
        .expect("experiment configs are valid");
    let out = WorldConfig::default()
        .launch(n, |comm| {
            repl.dump(comm, 1, &buffers[comm.rank() as usize])
                .expect("dump succeeds")
        })
        .expect_all();
    DumpRun {
        stats: WorldDumpStats::from_ranks(cfg.strategy, cfg.chunk_size, out.results),
        cluster_unique_bytes: cluster.total_unique_bytes(),
        cluster_device_bytes: cluster.total_device_bytes(),
    }
}

/// Run one collective dump with per-rank phase tracing switched on;
/// returns the run plus the world-aggregated trace (min/median/max per
/// Algorithm-1 phase across ranks).
pub fn dump_world_traced(buffers: &[Vec<u8>], cfg: DumpConfig) -> (DumpRun, WorldTrace) {
    let n = buffers.len() as u32;
    let cluster = Cluster::new(Placement::pack(n, RANKS_PER_NODE));
    let repl = Replicator::builder(cfg.strategy)
        .with_config(cfg)
        .cluster(&cluster)
        .hasher(&Sha1ChunkHasher)
        .build()
        .expect("experiment configs are valid");
    let out = WorldConfig::traced()
        .launch(n, |comm| {
            repl.dump(comm, 1, &buffers[comm.rank() as usize])
                .expect("dump succeeds")
        })
        .expect_all();
    let trace = out.trace.expect("tracing was enabled");
    let run = DumpRun {
        stats: WorldDumpStats::from_ranks(cfg.strategy, cfg.chunk_size, out.results),
        cluster_unique_bytes: cluster.total_unique_bytes(),
        cluster_device_bytes: cluster.total_device_bytes(),
    };
    (run, trace)
}

fn scenario_of(app: AppKind) -> AppScenario {
    match app {
        AppKind::Hpccg { .. } => HPCCG,
        AppKind::Cm1 { .. } => CM1,
        // Synthetic and CDC micro-workloads reuse the HPCCG envelope.
        AppKind::Synthetic(_) | AppKind::ShiftedDup { .. } | AppKind::InsertHeavy { .. } => HPCCG,
    }
}

fn measured_bytes_per_rank(stats: &WorldDumpStats) -> u64 {
    let n = stats.ranks.len().max(1) as u64;
    stats.total_data_bytes() / n
}

/// Modeled paper-scale dump time for a measured run.
pub fn modeled_dump_seconds(app: AppKind, stats: &WorldDumpStats, f_threshold: u64) -> f64 {
    let scenario = scenario_of(app);
    let scale = scenario.scale_from(measured_bytes_per_rank(stats).max(1));
    let m = DumpMeasurement::from_stats(stats, f_threshold);
    ClusterModel::default().dump_time(&m, scale).total()
}

/// Strategy set of the evaluation, in the paper's order.
pub const STRATEGIES: [Strategy; 3] =
    [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup];

// ------------------------------------------------------------------
// Figure 2 — partner-selection worked example
// ------------------------------------------------------------------

/// Figure 2 result: max receive size under naive vs load-aware selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// The shuffle the load-aware strategy computed.
    pub shuffle: Vec<u32>,
    /// Max chunks received by any rank, naive ring.
    pub naive_max: u64,
    /// Max chunks received by any rank, shuffled ring.
    pub shuffled_max: u64,
}

/// Reproduce Figure 2: six ranks, K=3, two heavy senders (100 chunks per
/// partner), four light ones (10 per partner).
pub fn fig2() -> Fig2 {
    use replidedup_core::{identity_shuffle, rank_shuffle, window_plan};
    let heavy = vec![0u64, 100, 100];
    let light = vec![0u64, 10, 10];
    let loads = vec![
        heavy.clone(),
        heavy,
        light.clone(),
        light.clone(),
        light.clone(),
        light,
    ];
    let max_recv = |shuffle: &[u32]| {
        window_plan(shuffle, &loads, 3)
            .recv_counts
            .into_iter()
            .max()
            .unwrap_or(0)
    };
    let shuffled = rank_shuffle(&loads, 3);
    Fig2 {
        naive_max: max_recv(&identity_shuffle(6)),
        shuffled_max: max_recv(&shuffled),
        shuffle: shuffled,
    }
}

// ------------------------------------------------------------------
// Figure 3(a) — total size of unique content
// ------------------------------------------------------------------

/// One bar group of Figure 3(a).
#[derive(Debug, Clone)]
pub struct Fig3aRow {
    /// Configuration label, e.g. "HPCCG-408".
    pub config: String,
    /// Total dataset size across ranks (== the no-dedup bar).
    pub total_bytes: u64,
    /// Unique content identified per strategy (paper order).
    pub unique_bytes: [u64; 3],
}

impl Fig3aRow {
    /// Unique content as a percentage of the dataset, per strategy.
    pub fn percent(&self) -> [f64; 3] {
        self.unique_bytes.map(|u| {
            if self.total_bytes == 0 {
                0.0
            } else {
                100.0 * u as f64 / self.total_bytes as f64
            }
        })
    }
}

/// Reproduce Figure 3(a): HPCCG-196, CM1-256, HPCCG-408, CM1-408.
pub fn fig3a(proc_scale: f64) -> Vec<Fig3aRow> {
    let configs = [
        (AppKind::hpccg(), 196u32),
        (AppKind::cm1(), 256),
        (AppKind::hpccg(), 408),
        (AppKind::cm1(), 408),
    ];
    configs
        .iter()
        .map(|&(app, procs)| {
            let n = scaled_procs(procs, proc_scale);
            let buffers = make_buffers(app, n);
            let mut unique = [0u64; 3];
            let mut total = 0u64;
            for (i, &strategy) in STRATEGIES.iter().enumerate() {
                let cfg = DumpConfig::paper_defaults(strategy);
                let run = dump_world(&buffers, cfg);
                unique[i] = run.stats.unique_content_bytes();
                total = run.stats.total_data_bytes();
            }
            Fig3aRow {
                config: format!("{}-{procs}", app.label()),
                total_bytes: total,
                unique_bytes: unique,
            }
        })
        .collect()
}

/// Scale a paper process count by `proc_scale` (quick mode runs smaller
/// worlds; 1.0 reproduces the paper's counts exactly).
pub fn scaled_procs(procs: u32, proc_scale: f64) -> u32 {
    ((f64::from(procs) * proc_scale).round() as u32).max(2)
}

// ------------------------------------------------------------------
// Figures 3(b)/3(c) — reduction overhead vs process count
// ------------------------------------------------------------------

/// One x-axis point of Figure 3(b) or 3(c).
#[derive(Debug, Clone)]
pub struct Fig3bcRow {
    /// Process count.
    pub procs: u32,
    /// Baseline: local dedup only (hash time, no collective reduction).
    pub local_seconds: f64,
    /// Hash + reduction time for K ∈ {2, 4, 6}.
    pub coll_seconds: [f64; 3],
}

/// Reproduce Figure 3(b) (HPCCG) or 3(c) (CM1): overhead of the collective
/// hash value reduction, threshold F = 2^17.
pub fn fig3bc(app: AppKind, proc_scale: f64) -> Vec<Fig3bcRow> {
    let proc_counts = [16u32, 64, 128, 196, 264, 408];
    let scenario = scenario_of(app);
    let model = ClusterModel::default();
    proc_counts
        .iter()
        .map(|&procs| {
            let n = scaled_procs(procs, proc_scale);
            let buffers = make_buffers(app, n);
            let mut coll = [0.0f64; 3];
            let mut local = 0.0;
            for (i, &k) in [2u32, 4, 6].iter().enumerate() {
                let cfg = DumpConfig::paper_defaults(Strategy::CollDedup).with_replication(k);
                let run = dump_world(&buffers, cfg);
                let scale = scenario.scale_from(measured_bytes_per_rank(&run.stats).max(1));
                let m = DumpMeasurement::from_stats(&run.stats, cfg.f_threshold as u64);
                let t = model.dump_time(&m, scale);
                coll[i] = t.hash + t.reduce;
                if i == 0 {
                    local = t.hash; // local dedup = hashing only, scale free
                }
            }
            Fig3bcRow {
                procs,
                local_seconds: local,
                coll_seconds: coll,
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Table I — completion time with a replication factor of 3
// ------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Tab1Row {
    /// Process count (paper scale).
    pub procs: u32,
    /// Completion seconds for no-dedup / local-dedup / coll-dedup.
    pub completion: [f64; 3],
    /// Baseline (no checkpointing) completion seconds.
    pub baseline: f64,
}

impl Tab1Row {
    /// Checkpointing overhead over the baseline, per strategy.
    pub fn overhead(&self) -> [f64; 3] {
        self.completion.map(|c| c - self.baseline)
    }
}

/// Reproduce one application's half of Table I (K = 3).
pub fn tab1(app: AppKind, proc_scale: f64) -> Vec<Tab1Row> {
    let scenario = scenario_of(app);
    scenario
        .proc_counts
        .iter()
        .map(|&procs| {
            let n = scaled_procs(procs, proc_scale);
            let buffers = make_buffers(app, n);
            let mut completion = [0.0f64; 3];
            for (i, &strategy) in STRATEGIES.iter().enumerate() {
                let cfg = DumpConfig::paper_defaults(strategy);
                let run = dump_world(&buffers, cfg);
                let dump_s = modeled_dump_seconds(app, &run.stats, cfg.f_threshold as u64);
                completion[i] = scenario.completion_time(procs, dump_s);
            }
            Tab1Row {
                procs,
                completion,
                baseline: scenario.baseline.time(procs),
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Figures 4/5 (a,b) — replication-factor sweep at 408 processes
// ------------------------------------------------------------------

/// One K point of Figures 4(a)+4(b) or 5(a)+5(b).
#[derive(Debug, Clone)]
pub struct FigKRow {
    /// Replication factor.
    pub k: u32,
    /// Increase in execution time over the baseline, per strategy (s).
    pub overhead_seconds: [f64; 3],
    /// Average replica bytes sent per process (paper scale), per strategy.
    pub avg_sent: [f64; 3],
    /// Maximum replica bytes sent by any process (paper scale).
    pub max_sent: [f64; 3],
}

/// Reproduce Figures 4(a,b) (HPCCG) or 5(a,b) (CM1): K = 1..6 at 408
/// processes.
pub fn fig_k_sweep(app: AppKind, proc_scale: f64) -> Vec<FigKRow> {
    let scenario = scenario_of(app);
    let n = scaled_procs(408, proc_scale);
    let buffers = make_buffers(app, n);
    (1..=6u32)
        .map(|k| {
            let mut overhead = [0.0f64; 3];
            let mut avg_sent = [0.0f64; 3];
            let mut max_sent = [0.0f64; 3];
            for (i, &strategy) in STRATEGIES.iter().enumerate() {
                let cfg = DumpConfig::paper_defaults(strategy).with_replication(k);
                let run = dump_world(&buffers, cfg);
                let scale = scenario.scale_from(measured_bytes_per_rank(&run.stats).max(1));
                let dump_s = modeled_dump_seconds(app, &run.stats, cfg.f_threshold as u64);
                overhead[i] = f64::from(scenario.checkpoints) * dump_s;
                avg_sent[i] = run.stats.avg_sent_bytes() * scale;
                max_sent[i] = run.stats.max_sent_bytes() as f64 * scale;
            }
            FigKRow {
                k,
                overhead_seconds: overhead,
                avg_sent,
                max_sent,
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Figures 4(c)/5(c) — impact of rank shuffling
// ------------------------------------------------------------------

/// One K point of Figure 4(c) or 5(c).
#[derive(Debug, Clone)]
pub struct FigShuffleRow {
    /// Replication factor.
    pub k: u32,
    /// Max bytes received by any process without shuffling (paper scale).
    pub no_shuffle_max_recv: f64,
    /// Max bytes received by any process with shuffling (paper scale).
    pub shuffle_max_recv: f64,
}

impl FigShuffleRow {
    /// Reduction of the maximal receive size thanks to shuffling (%).
    pub fn reduction_percent(&self) -> f64 {
        if self.no_shuffle_max_recv == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.shuffle_max_recv / self.no_shuffle_max_recv)
        }
    }
}

/// Reproduce Figure 4(c) (HPCCG) or 5(c) (CM1): coll-dedup max receive
/// size with and without rank shuffling, K = 2..6 at 408 processes.
pub fn fig_shuffle(app: AppKind, proc_scale: f64) -> Vec<FigShuffleRow> {
    let scenario = scenario_of(app);
    let n = scaled_procs(408, proc_scale);
    let buffers = make_buffers(app, n);
    (2..=6u32)
        .map(|k| {
            let mut max_recv = [0.0f64; 2];
            for (i, shuffle) in [false, true].into_iter().enumerate() {
                let cfg = DumpConfig::paper_defaults(Strategy::CollDedup)
                    .with_replication(k)
                    .with_shuffle(shuffle);
                let run = dump_world(&buffers, cfg);
                let scale = scenario.scale_from(measured_bytes_per_rank(&run.stats).max(1));
                max_recv[i] = run.stats.max_recv_bytes() as f64 * scale;
            }
            FigShuffleRow {
                k,
                no_shuffle_max_recv: max_recv[0],
                shuffle_max_recv: max_recv[1],
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Ranks sweep — thread-per-rank scale-out, validated against the model
// ------------------------------------------------------------------

/// World sizes of the scale-out sweep: small sanity points, the paper's
/// 408-process configuration, and a 512-rank headroom point.
pub const RANKS_SWEEP_POINTS: [u32; 7] = [8, 32, 64, 128, 256, 408, 512];

/// Agreement band between the transport-layer traffic measurement and the
/// content-level prediction, in percent. The gap between the two
/// accounting paths is wire frame headers and per-record control bytes
/// the content counters cannot see; empirically the paths agree to a few
/// percent, so 15% flags a real leak, not noise.
pub const SIM_TRAFFIC_BAND_PCT: f64 = 15.0;

/// The four strategy settings of the paper's evaluation, as
/// `(label, strategy, shuffle)`: the three [`Strategy`] values plus the
/// `coll-no-shuffle` ablation.
pub const RANKS_SWEEP_STRATEGIES: [(&str, Strategy, bool); 4] = [
    ("no-dedup", Strategy::NoDedup, true),
    ("local-dedup", Strategy::LocalDedup, true),
    ("coll-dedup", Strategy::CollDedup, true),
    ("coll-no-shuffle", Strategy::CollDedup, false),
];

/// One `(ranks, strategy)` cell of the scale-out sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RanksRow {
    /// World size of this run.
    pub ranks: u32,
    /// Strategy label (paper naming, incl. `coll-no-shuffle`).
    pub strategy: String,
    /// Wall-clock seconds of the in-process dump collective.
    pub wall_seconds: f64,
    /// Transport-layer wire bytes: point-to-point sends plus RMA puts,
    /// summed over ranks (collective traffic excluded — the cross-check
    /// targets the replication/stripe exchange).
    pub measured_wire_bytes: u64,
    /// Parity bytes at rest on the cluster's devices after the dump.
    pub measured_parity_bytes: u64,
    /// Content-level predicted wire bytes (replication + stripe fan-out).
    pub predicted_wire_bytes: u64,
    /// Content-level predicted parity bytes.
    pub predicted_parity_bytes: u64,
    /// Symmetric deviation between measurement and prediction (%).
    pub deviation_pct: f64,
    /// Did measurement and prediction agree within
    /// [`SIM_TRAFFIC_BAND_PCT`]?
    pub sim_within_band: bool,
    /// Paper-scale modeled dump seconds for this measured run.
    pub modeled_seconds: f64,
}

/// The sweep's checkpoint content: a dialed-in synthetic workload whose
/// per-rank buffer (~120 KiB) mixes globally shared, group-shared,
/// rank-private and locally repeated chunks, so every strategy and the
/// erasure coder all have work to do at every world size.
pub fn ranks_sweep_workload(chunk_size: usize) -> SyntheticWorkload {
    SyntheticWorkload {
        chunk_size,
        global_chunks: 4,
        grouped_chunks: 8,
        group_size: 4,
        private_chunks: 12,
        local_dup_chunks: 2,
        local_repeat: 3,
        seed: 0x5241_4e4b_5357_5045, // b"RANKSWPE"
    }
}

/// Dump configuration of the sweep: paper defaults for the strategy, the
/// requested shuffle setting, and the `Auto` redundancy policy (RS 4+2,
/// tiny chunks replicated) so parity traffic is exercised — the paper's
/// dedup credit makes coll-dedup generate strictly less of it.
pub fn ranks_sweep_config(strategy: Strategy, shuffle: bool) -> DumpConfig {
    DumpConfig::paper_defaults(strategy)
        .with_shuffle(shuffle)
        .with_policy(RedundancyPolicy::Auto {
            k: 4,
            m: 2,
            replicate_below: 1024,
        })
}

/// Run one `(ranks, strategy)` cell of the sweep, one thread per rank.
pub fn ranks_run(ranks: u32, label: &str, strategy: Strategy, shuffle: bool) -> RanksRow {
    let cfg = ranks_sweep_config(strategy, shuffle);
    let buffers: Vec<Vec<u8>> = {
        let w = ranks_sweep_workload(cfg.chunk_size);
        (0..ranks).map(|r| w.generate(r)).collect()
    };
    let cluster = Cluster::new(Placement::pack(ranks, RANKS_PER_NODE));
    let repl = Replicator::builder(cfg.strategy)
        .with_config(cfg)
        .cluster(&cluster)
        .hasher(&Sha1ChunkHasher)
        .build()
        .expect("sweep configs are valid");
    let world = WorldConfig::default();
    let t0 = Instant::now();
    let out = world
        .launch(ranks, |comm| {
            repl.dump(comm, 1, &buffers[comm.rank() as usize])
                .expect("sweep dump succeeds")
        })
        .expect_all();
    let wall_seconds = t0.elapsed().as_secs_f64();

    let measured_wire_bytes = out
        .traffic
        .ranks
        .iter()
        .map(|r: &RankTraffic| r.p2p_sent + r.rma_put)
        .sum();
    let measured_parity_bytes = cluster.total_parity_bytes();

    // Every sweep cell proves itself: a restore must hand every
    // rank its bytes back exactly (outside the timed window).
    let restored = world
        .launch(ranks, |comm| {
            Vec::from(repl.restore(comm, 1).expect("sweep restore succeeds"))
        })
        .expect_all();
    for (rank, bytes) in restored.results.iter().enumerate() {
        assert!(
            *bytes == buffers[rank],
            "{label} at {ranks} ranks: rank {rank} restored wrong bytes"
        );
    }

    let stats = WorldDumpStats::from_ranks(cfg.strategy, cfg.chunk_size, out.results);
    let f_threshold = cfg.f_threshold as u64;
    let m = DumpMeasurement::from_stats(&stats, f_threshold);
    let pred = ClusterModel::default().predicted_traffic(&m);
    RanksRow {
        ranks,
        strategy: label.to_string(),
        wall_seconds,
        measured_wire_bytes,
        measured_parity_bytes,
        predicted_wire_bytes: pred.wire_bytes(),
        predicted_parity_bytes: pred.parity_bytes,
        deviation_pct: pred.deviation_pct(measured_wire_bytes, measured_parity_bytes),
        sim_within_band: pred.within_band(
            measured_wire_bytes,
            measured_parity_bytes,
            SIM_TRAFFIC_BAND_PCT,
        ),
        modeled_seconds: modeled_dump_seconds(
            AppKind::Synthetic(ranks_sweep_workload(cfg.chunk_size)),
            &stats,
            f_threshold,
        ),
    }
}

/// The full scale-out sweep: every strategy setting at every point of
/// `points`.
pub fn ranks_sweep(points: &[u32]) -> Vec<RanksRow> {
    points
        .iter()
        .flat_map(|&ranks| {
            RANKS_SWEEP_STRATEGIES
                .iter()
                .map(move |&(label, strategy, shuffle)| ranks_run(ranks, label, strategy, shuffle))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper_numbers() {
        let f = fig2();
        assert_eq!(f.naive_max, 200);
        assert_eq!(f.shuffled_max, 110);
    }

    #[test]
    fn dump_world_shares_buffers_across_strategies() {
        let buffers = make_buffers(AppKind::hpccg(), 4);
        let a = dump_world(&buffers, DumpConfig::paper_defaults(Strategy::LocalDedup));
        let b = dump_world(&buffers, DumpConfig::paper_defaults(Strategy::CollDedup));
        assert_eq!(a.stats.total_data_bytes(), b.stats.total_data_bytes());
        assert!(b.stats.unique_content_bytes() <= a.stats.unique_content_bytes());
    }

    #[test]
    fn scaled_procs_rounds_and_clamps() {
        assert_eq!(scaled_procs(408, 1.0), 408);
        assert_eq!(scaled_procs(408, 0.1), 41);
        assert_eq!(scaled_procs(12, 0.05), 2);
    }

    #[test]
    fn tab1_small_scale_orders_strategies() {
        let rows = tab1(AppKind::hpccg(), 0.06); // ~25 procs max
        for row in &rows[1..] {
            // no-dedup ≥ local-dedup ≥ coll-dedup ≥ baseline.
            assert!(row.completion[0] >= row.completion[1], "{row:?}");
            assert!(row.completion[1] >= row.completion[2], "{row:?}");
            assert!(row.completion[2] >= row.baseline, "{row:?}");
        }
    }

    #[test]
    fn ranks_sweep_cross_checks_traffic_within_band() {
        for row in ranks_sweep(&[16]) {
            assert!(
                row.sim_within_band,
                "measured vs predicted traffic diverged: {row:?}"
            );
            assert!(row.measured_wire_bytes > 0, "{row:?}");
            assert!(
                row.measured_parity_bytes > 0,
                "the Auto policy must generate parity: {row:?}"
            );
        }
    }

    #[test]
    fn coll_dedup_sends_less_than_no_dedup_at_scale() {
        let rows = ranks_sweep(&[24]);
        let wire = |label: &str| {
            rows.iter()
                .find(|r| r.strategy == label)
                .map(|r| r.measured_wire_bytes)
                .unwrap()
        };
        assert!(wire("coll-dedup") < wire("no-dedup"));
        assert!(wire("coll-dedup") <= wire("local-dedup"));
    }

    #[test]
    fn shuffle_reduces_or_matches_max_receive() {
        let rows = fig_shuffle(AppKind::cm1(), 0.08); // ~33 procs
        for row in &rows {
            assert!(
                row.shuffle_max_recv <= row.no_shuffle_max_recv * 1.05,
                "k={}: shuffle made things clearly worse: {row:?}",
                row.k
            );
        }
    }
}
