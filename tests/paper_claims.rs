//! The paper's qualitative claims, asserted at test scale.
//!
//! Absolute numbers depend on the testbed; what must reproduce is the
//! *shape* of every result: which strategy wins, how costs move with the
//! replication factor, and what the shuffle buys. Each test corresponds to
//! one claim of Section V (mapped in EXPERIMENTS.md).

use std::sync::OnceLock;

use replidedup::bench::experiments::{
    dump_world, fig2, fig_k_sweep, fig_shuffle, tab1, FigKRow, STRATEGIES,
};
use replidedup::bench::workloads::{make_buffers, AppKind};
use replidedup::core::{DumpConfig, RedundancyPolicy, Replicator, Strategy};
use replidedup::hash::Sha1ChunkHasher;
use replidedup::mpi::WorldConfig;
use replidedup::storage::{Cluster, Placement};

/// Scale factor used throughout: paper's 408 procs → ~33, runs in seconds.
const SCALE: f64 = 0.08;

/// Each app's K sweep at [`SCALE`], run once for the two claims that read
/// it (Figures 4(a)/5(a) and 4(b)/5(b) are two views of one sweep).
fn k_sweeps() -> &'static [(AppKind, Vec<FigKRow>)] {
    static SWEEPS: OnceLock<Vec<(AppKind, Vec<FigKRow>)>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        [AppKind::hpccg(), AppKind::cm1()]
            .into_iter()
            .map(|app| (app, fig_k_sweep(app, SCALE)))
            .collect()
    })
}

#[test]
fn fig2_exact_numbers() {
    // "the maximum number of received chunks is lowered from 200 to 110".
    let f = fig2();
    assert_eq!(f.naive_max, 200);
    assert_eq!(f.shuffled_max, 110);
}

#[test]
fn fig3a_claim_dedup_hierarchy() {
    // "local-dedup identifies a large amount of data duplication [...]
    // going even further, coll-dedup manages a reduction down to as little
    // as 6% for HPCCG and 5% for CM1."
    for app in [AppKind::hpccg(), AppKind::cm1()] {
        let buffers = make_buffers(app, 33);
        let mut pct = Vec::new();
        for strategy in STRATEGIES {
            let run = dump_world(&buffers, DumpConfig::paper_defaults(strategy));
            pct.push(
                100.0 * run.stats.unique_content_bytes() as f64
                    / run.stats.total_data_bytes() as f64,
            );
        }
        assert!(
            (pct[0] - 100.0).abs() < 1e-9,
            "{}: no-dedup identifies nothing",
            app.label()
        );
        assert!(
            pct[1] < 60.0,
            "{}: local-dedup must find substantial duplication ({pct:?})",
            app.label()
        );
        assert!(
            pct[2] < 15.0,
            "{}: coll-dedup must reach single digits-ish ({pct:?})",
            app.label()
        );
        assert!(
            pct[2] < pct[1] / 2.0,
            "{}: coll must clearly beat local ({pct:?})",
            app.label()
        );
    }
}

#[test]
fn tab1_claim_ordering_and_speedups() {
    // Table I: coll-dedup beats local-dedup beats no-dedup at every scale;
    // at the largest scale the overhead gaps are severalfold.
    for app in [AppKind::hpccg(), AppKind::cm1()] {
        let rows = tab1(app, SCALE);
        for row in &rows {
            assert!(
                row.completion[0] > row.completion[1],
                "{}: {row:?}",
                app.label()
            );
            assert!(
                row.completion[1] > row.completion[2],
                "{}: {row:?}",
                app.label()
            );
            assert!(
                row.completion[2] >= row.baseline,
                "{}: {row:?}",
                app.label()
            );
        }
        let last = rows.last().expect("rows");
        let ovh = last.overhead();
        assert!(
            ovh[0] / ovh[2] > 4.0,
            "{}: no-dedup overhead must be severalfold coll-dedup's ({ovh:?})",
            app.label()
        );
        // At full scale the paper (and our repro) sees 2-2.8x; at this
        // test's ~33-rank scale the fixed hash+reduce floor compresses the
        // gap, so assert direction plus a modest margin here (the 408-rank
        // ratios are recorded in EXPERIMENTS.md from the repro run).
        assert!(
            ovh[1] / ovh[2] > 1.15,
            "{}: local-dedup overhead must exceed coll-dedup's ({ovh:?})",
            app.label()
        );
    }
}

#[test]
fn fig4a_5a_claim_k_scaling() {
    // "the scalability of no-dedup is poor when the replication factor
    // increases [...] coll-dedup exhibits excellent scalability: a
    // replication factor of six with coll-dedup is faster than a
    // minimalist replication scenario (factor two) with no-dedup and
    // local-dedup."
    for (app, rows) in k_sweeps() {
        let at = |k: u32| rows.iter().find(|r| r.k == k).expect("k present");
        // no-dedup overhead grows severalfold from K=1 to K=6.
        let growth = at(6).overhead_seconds[0] / at(1).overhead_seconds[0].max(1e-9);
        assert!(
            growth > 2.5,
            "{}: no-dedup K-growth too small: {growth}",
            app.label()
        );
        // coll-dedup stays nearly flat.
        let coll_growth = at(6).overhead_seconds[2] / at(2).overhead_seconds[2].max(1e-9);
        assert!(
            coll_growth < 2.5,
            "{}: coll-dedup must be nearly flat: {coll_growth}",
            app.label()
        );
        // Crossover: coll at K=6 cheaper than both baselines at K=2.
        assert!(
            at(6).overhead_seconds[2] < at(2).overhead_seconds[0],
            "{}: coll@K6 must beat no-dedup@K2",
            app.label()
        );
        // At full scale coll@K6 beats local@K2 outright; at ~33 ranks the
        // fixed reduction floor narrows it, so allow a small margin.
        assert!(
            at(6).overhead_seconds[2] < at(2).overhead_seconds[1] * 1.6,
            "{}: coll@K6 must be in the league of local-dedup@K2 ({} vs {})",
            app.label(),
            at(6).overhead_seconds[2],
            at(2).overhead_seconds[1]
        );
    }
}

#[test]
fn fig4b_5b_claim_traffic_reduction() {
    // "coll-dedup sends on the average [severalfold] less data to its
    // partners compared with local-dedup", with a growing avg/max gap.
    for (app, rows) in k_sweeps() {
        let at = |k: u32| rows.iter().find(|r| r.k == k).expect("k present");
        for k in [3u32, 6] {
            let r = at(k);
            assert!(
                r.avg_sent[2] * 2.0 < r.avg_sent[1],
                "{} K={k}: coll avg sent must be well below local ({:?})",
                app.label(),
                r.avg_sent
            );
            // no-dedup is uniform: avg == max.
            assert!(
                (r.max_sent[0] - r.avg_sent[0]).abs() < r.avg_sent[0] * 0.01 + 1.0,
                "{} K={k}: no-dedup send load must be uniform",
                app.label()
            );
            // coll-dedup is skewed: max well above avg.
            assert!(
                r.max_sent[2] > r.avg_sent[2] * 1.5,
                "{} K={k}: coll-dedup send load must be skewed",
                app.label()
            );
        }
    }
}

#[test]
fn fig4c_5c_claim_shuffle_helps_at_higher_k() {
    // "for a replication factor of two, there is no difference [...] with
    // increasing replication factor, the gap becomes clearly visible."
    for app in [AppKind::hpccg(), AppKind::cm1()] {
        let rows = fig_shuffle(app, SCALE);
        let at = |k: u32| rows.iter().find(|r| r.k == k).expect("k present");
        assert!(
            at(2).reduction_percent().abs() < 20.0,
            "{}: K=2 shuffle gain should be small ({:.1}%)",
            app.label(),
            at(2).reduction_percent()
        );
        let best = rows
            .iter()
            .map(|r| r.reduction_percent())
            .fold(f64::MIN, f64::max);
        assert!(
            best > 5.0,
            "{}: shuffling must visibly reduce the max receive size at some K (best {best:.1}%)",
            app.label()
        );
        for r in &rows {
            assert!(
                r.shuffle_max_recv <= r.no_shuffle_max_recv * 1.05,
                "{} K={}: shuffle must not hurt",
                app.label(),
                r.k
            );
        }
    }
}

#[test]
fn reduction_overhead_grows_slowly_with_k() {
    // Figures 3(b)/(c): "even if the list of designated ranks grows for
    // each fingerprint, the difference between the three coll-dedup curves
    // is small."
    use replidedup::bench::experiments::modeled_dump_seconds;
    let buffers = make_buffers(AppKind::hpccg(), 32);
    let mut totals = Vec::new();
    for k in [2u32, 4, 6] {
        let cfg = DumpConfig::paper_defaults(Strategy::CollDedup).with_replication(k);
        let run = dump_world(&buffers, cfg);
        totals.push(modeled_dump_seconds(AppKind::hpccg(), &run.stats, 1 << 17));
    }
    assert!(
        totals[2] < totals[0] * 2.0,
        "K=6 reduction must stay within 2x of K=2: {totals:?}"
    );
}

#[test]
fn ec_claim_rs_beats_replication_and_dedup_credit_cuts_parity() {
    // The erasure-coding extension's claims, as exact device-byte counts:
    // at equal two-loss tolerance, coll-dedup under RS 4+2 stores less
    // than coll-dedup under 3x replication, and the HMERGE dedup credit
    // cuts the parity RS 4+2 writes under no-dedup. Every cell survives
    // the loss of as many nodes as its policy claims to tolerate. One rank
    // per node: a stripe needs k + m = 6 distinct devices.
    const N: u32 = 6;
    let rep3 = RedundancyPolicy::Replicate(3);
    let rs42 = RedundancyPolicy::Rs { k: 4, m: 2 };
    let policies = [
        RedundancyPolicy::Replicate(2),
        rep3,
        rs42,
        RedundancyPolicy::Auto {
            k: 4,
            m: 2,
            replicate_below: 1 << 10,
        },
    ];
    for app in [AppKind::hpccg(), AppKind::insert_heavy()] {
        let buffers = make_buffers(app, N);
        // (strategy, policy) -> (device bytes, parity bytes)
        let mut stored = Vec::new();
        for policy in policies {
            for strategy in [Strategy::NoDedup, Strategy::CollDedup] {
                let cell = format!("{} {} {policy:?}", app.label(), strategy.label());
                let cluster = Cluster::new(Placement::one_per_node(N));
                let repl = Replicator::builder(strategy)
                    .with_config(DumpConfig::paper_defaults(strategy).with_policy(policy))
                    .cluster(&cluster)
                    .hasher(&Sha1ChunkHasher)
                    .build()
                    .expect("valid config");
                WorldConfig::default()
                    .launch(N, |comm| {
                        repl.dump(comm, 1, &buffers[comm.rank() as usize])
                            .expect("dump succeeds")
                    })
                    .expect_all();
                stored.push((
                    (strategy, policy),
                    (cluster.total_device_bytes(), cluster.total_parity_bytes()),
                ));

                for node in 0..policy.fault_tolerance() {
                    cluster.fail_node(node);
                    cluster.revive_node(node);
                }
                let out = WorldConfig::default()
                    .launch(N, |comm| repl.restore(comm, 1))
                    .expect_all();
                for (rank, restored) in out.results.iter().enumerate() {
                    assert!(
                        restored.as_ref().is_ok_and(|b| *b == buffers[rank]),
                        "{cell}: rank {rank} must restore byte-exact after {} losses",
                        policy.fault_tolerance()
                    );
                }
            }
        }
        let at = |strategy, policy| {
            stored
                .iter()
                .find(|(key, _)| *key == (strategy, policy))
                .expect("cell ran")
                .1
        };
        let (coll_rs_bytes, coll_rs_parity) = at(Strategy::CollDedup, rs42);
        let (coll_rep_bytes, _) = at(Strategy::CollDedup, rep3);
        let (_, no_dedup_rs_parity) = at(Strategy::NoDedup, rs42);
        assert!(
            coll_rs_bytes < coll_rep_bytes,
            "{}: rs4+2 stores {coll_rs_bytes} B, rep3 {coll_rep_bytes} B",
            app.label()
        );
        assert!(
            coll_rs_parity < no_dedup_rs_parity,
            "{}: coll-dedup parity {coll_rs_parity} B, no-dedup {no_dedup_rs_parity} B",
            app.label()
        );
    }
}
