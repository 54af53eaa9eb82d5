//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p replidedup-bench --release --bin repro -- [exp...] [--scale S] [--out DIR]
//!
//!   exp         one or more of: fig2 fig3a fig3b fig3c tab1 fig4 fig5 all
//!               (default: all; any other name exits 2)
//!   --scale     process-count scale factor (1.0 = paper's 408-rank worlds;
//!               default 1.0; use e.g. 0.25 for a quick pass)
//!   --out       CSV output directory (default: results)
//!   --trace-out write a phase trace of one coll-dedup dump (Algorithm 1
//!               phases, world min/median/max per phase) as JSON to PATH;
//!               PATH ending in .csv switches to CSV
//!   --fault-plan SEED[:ITEM[;ITEM]...] run the fault-injection demo: a
//!               coll-dedup dump under the given deterministic fault plan
//!               (ITEM = crash:RANK@TRIGGER | delay:RANK:MS@TRIGGER |
//!               transient:RANK:OPS@TRIGGER, TRIGGER = start:PHASE |
//!               end:PHASE | msg:N), then a fresh-world restore showing
//!               which data survived. A bare SEED derives a two-crash
//!               schedule from the seed.
//!   --fail-node N  self-healing demo: after a clean coll-dedup dump,
//!               fail node N and replace it with an empty device
//!               (repeatable; combine with --repair / --scrub)
//!   --scrub     run the collective integrity scrub and print its report
//!   --repair    run the collective heal, then verify that every chunk
//!               referenced by the dump is back to K copies and the
//!               restore is byte-exact; the demo exits 1 when the heal
//!               does not converge or a restore fails or is not exact
//!   --ranks N   scale-out sweep: run every sweep point up
//!               to N ranks (plus N itself) × the four paper strategies,
//!               cross-check measured replication + parity traffic against
//!               the sim cost model, print the table and write ranks.csv;
//!               exits non-zero if any point falls outside the sim band
//! ```
//!
//! Absolute times come from the Shamrock cost model fed with measured
//! traffic; see DESIGN.md §2 and EXPERIMENTS.md for the calibration.

use std::path::PathBuf;
use std::time::Instant;

use replidedup_bench::experiments as exp;
use replidedup_bench::report;
use replidedup_bench::workloads::AppKind;

/// Every experiment name `repro` accepts.
const EXPERIMENTS: [&str; 8] = [
    "fig2", "fig3a", "fig3b", "fig3c", "tab1", "fig4", "fig5", "all",
];

struct Args {
    exps: Vec<String>,
    scale: f64,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    fault_plan: Option<String>,
    fail_nodes: Vec<u32>,
    repair: bool,
    scrub: bool,
    ranks: Option<u32>,
}

fn parse_args() -> Args {
    let mut exps = Vec::new();
    let mut scale = 1.0f64;
    let mut out = PathBuf::from("results");
    let mut trace_out = None;
    let mut fault_plan = None;
    let mut fail_nodes = Vec::new();
    let mut repair = false;
    let mut scrub = false;
    let mut ranks = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive number"));
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| die("--out needs a directory")));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--trace-out needs a path")),
                ));
            }
            "--fault-plan" => {
                fault_plan = Some(
                    it.next()
                        .unwrap_or_else(|| die("--fault-plan needs SEED[:SPEC]")),
                );
            }
            "--fail-node" => {
                fail_nodes.push(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--fail-node needs a node id")),
                );
            }
            "--repair" => repair = true,
            "--scrub" => scrub = true,
            "--ranks" => {
                ranks = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 2)
                        .unwrap_or_else(|| die("--ranks needs a world size >= 2")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [{}]... \
                     [--scale S] [--out DIR] [--trace-out PATH] [--fault-plan SEED[:SPEC]] \
                     [--fail-node N]... [--scrub] [--repair] [--ranks N]",
                    EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other if EXPERIMENTS.contains(&other) => exps.push(other.to_string()),
            other if !other.starts_with('-') => die(&format!(
                "unknown experiment {other} (valid: {})",
                EXPERIMENTS.join(", ")
            )),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let healing = !fail_nodes.is_empty() || repair || scrub;
    if exps.is_empty() && trace_out.is_none() && fault_plan.is_none() && !healing && ranks.is_none()
    {
        exps.push("all".to_string());
    }
    if scale <= 0.0 {
        die("--scale must be positive");
    }
    Args {
        exps,
        scale,
        out,
        trace_out,
        fault_plan,
        fail_nodes,
        repair,
        scrub,
        ranks,
    }
}

/// Run the scale-out sweep: every sweep point up to
/// `max` ranks (plus `max` itself) × the four paper strategies, the
/// measured replication + parity traffic cross-checked against the sim
/// cost model. Writes `ranks.csv` and exits non-zero if any point falls
/// outside the noise band.
fn run_ranks_sweep(max: u32, out: &std::path::Path) {
    let points: Vec<u32> = exp::RANKS_SWEEP_POINTS
        .iter()
        .copied()
        .filter(|&p| p <= max)
        .chain((!exp::RANKS_SWEEP_POINTS.contains(&max)).then_some(max))
        .collect();
    println!("== ranks sweep: {points:?} ranks x 4 strategies, one thread per rank ==");
    let rows = exp::ranks_sweep(&points);
    let t = report::ranks_table(&rows);
    println!("{}", t.render());
    t.write_csv(&out.join("ranks.csv"))
        .expect("write ranks.csv");
    if let Some(bad) = rows.iter().find(|r| !r.sim_within_band) {
        die(&format!(
            "{} at {} ranks: measured traffic deviates {:.1} % from the sim model (band {:.0} %)",
            bad.strategy,
            bad.ranks,
            bad.deviation_pct,
            exp::SIM_TRAFFIC_BAND_PCT
        ));
    }
}

/// Run one traced coll-dedup dump over the HPCCG workload and write the
/// world-aggregated phase trace (JSON, or CSV for a `.csv` path).
fn write_trace(path: &PathBuf) {
    use replidedup_core::{DumpConfig, Strategy};
    let buffers = replidedup_bench::workloads::make_buffers(AppKind::hpccg(), 8);
    let cfg = DumpConfig::paper_defaults(Strategy::CollDedup).with_chunk_size(4096);
    let (_, trace) = exp::dump_world_traced(&buffers, cfg);
    let body = if path.extension().is_some_and(|e| e == "csv") {
        trace.to_csv()
    } else {
        trace.to_json()
    };
    std::fs::write(path, body).unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
    println!(
        "phase trace of one coll-dedup dump (8 ranks) -> {}",
        path.display()
    );
}

/// Run the deterministic fault-injection demo: a clean coll-dedup dump
/// of generation 1, then generation 2 under `spec`, reporting each rank's
/// outcome; then a restart (fresh world, failed nodes revived empty) that
/// asks storage for the newest complete generation and restores it. Exits
/// 1 when no generation is complete or any rank's restore fails or comes
/// back with other bytes.
fn run_fault_demo(spec: &str) {
    use replidedup_core::{Replicator, Strategy, DUMP_PHASES};
    use replidedup_mpi::{FaultPlan, RankOutcome, WorldConfig};
    use replidedup_storage::{Cluster, DumpId, Placement};
    use std::sync::Arc;
    use std::time::Duration;

    let parsed = FaultPlan::parse(spec).unwrap_or_else(|e| die(&format!("--fault-plan: {e}")));
    const N: u32 = 8;
    // A bare seed derives a two-crash schedule over the dump phases.
    let plan = if parsed.faults.is_empty() {
        FaultPlan::seeded(parsed.seed, N, 2, &DUMP_PHASES)
    } else {
        parsed
    };
    println!("== fault demo: coll-dedup dumps, {N} ranks, K = 3; generation 2 under the plan ==");
    for f in &plan.faults {
        println!("   fault: {f:?}");
    }
    let cluster = Arc::new(Cluster::new(Placement::one_per_node(N)));
    let crash_cluster = Arc::clone(&cluster);
    let transient_cluster = Arc::clone(&cluster);
    let plan = plan
        .on_crash(move |rank| crash_cluster.fail_node(crash_cluster.node_of(rank)))
        .on_transient(move |rank, ops| {
            let node = transient_cluster.node_of(rank);
            // A node already down has no reads left to fail.
            if transient_cluster.inject_transient(node, ops).is_ok() {
                println!("rank {rank}: armed {ops} transient read failures on node {node}");
            }
        });
    let config = WorldConfig::default()
        .with_recv_timeout(Duration::from_secs(10))
        .with_faults(plan);
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(3)
        .chunk_size(4096)
        .build()
        .expect("valid config");
    let buf_of = |gen: DumpId, rank: u32| vec![(gen as u8) * 100 + rank as u8; 64 * 1024];
    let clean = WorldConfig::default()
        .launch(N, |comm| {
            repl.dump(comm, 1, buf_of(1, comm.rank())).map(|_| ())
        })
        .expect_all();
    if let Some(Err(e)) = clean.results.into_iter().find(Result::is_err) {
        die(&format!("clean dump of generation 1: {e}"));
    }
    let out = config.launch(N, |comm| repl.dump(comm, 2, buf_of(2, comm.rank())));
    for (rank, o) in out.outcomes.iter().enumerate() {
        match o {
            RankOutcome::Crashed { .. } => println!("rank {rank}: crashed (injected)"),
            RankOutcome::Completed(Ok(_)) => println!("rank {rank}: dump of generation 2 done"),
            RankOutcome::Completed(Err(e)) => {
                println!("rank {rank}: dump of generation 2 failed: {e}")
            }
        }
    }
    // Restart: replacement hardware comes up empty, storage names the
    // newest complete generation, and a full-world restore reads it back.
    for node in 0..N {
        if !cluster.is_alive(node) {
            cluster.revive_node(node);
        }
    }
    let out = WorldConfig::default()
        .launch(N, |comm| {
            let found = repl.generations(comm)?;
            let restored = match found.complete {
                Some(gen) => Some((gen, repl.restore(comm, gen)?)),
                None => None,
            };
            Ok::<_, replidedup_core::ReplError>((found, restored))
        })
        .expect_all();
    let mut failed = false;
    for (rank, r) in (0u32..).zip(out.results) {
        match r {
            Ok((found, Some((gen, bytes)))) => {
                if rank == 0 {
                    let newest = found.newest.unwrap_or(gen);
                    println!("restart: generation {gen} is the newest complete one (newest stored: {newest})");
                }
                if bytes == buf_of(gen, rank) {
                    println!("rank {rank}: restored byte-exact");
                } else {
                    println!("rank {rank}: restored WRONG bytes");
                    failed = true;
                }
            }
            Ok((_, None)) => {
                println!("rank {rank}: no complete generation in storage");
                failed = true;
            }
            Err(e) => {
                println!("rank {rank}: restore failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The self-healing demo: a clean coll-dedup dump, node failures replaced
/// by empty devices, optional scrub, collective heal, and a final
/// verification that every chunk the dump references is back to `K`
/// copies and every rank restores byte-exactly. Exits 1 after its report
/// when the heal did not converge or any rank's restore failed or came
/// back with other bytes.
fn run_heal_demo(fail_nodes: &[u32], do_scrub: bool, do_repair: bool) {
    use replidedup_core::{Replicator, Strategy};
    use replidedup_mpi::WorldConfig;
    use replidedup_storage::{Cluster, Placement};

    const N: u32 = 8;
    const K: u32 = 3;
    println!("== self-healing demo: coll-dedup dump, {N} ranks, K = {K} ==");
    let mut failed = false;
    let cluster = Cluster::new(Placement::one_per_node(N));
    let repl = Replicator::builder(Strategy::CollDedup)
        .cluster(&cluster)
        .replication(K)
        .chunk_size(4096)
        .build()
        .expect("valid config");
    let buf_of = |rank: u32| vec![rank as u8 + 1; 64 * 1024];
    let out = WorldConfig::default()
        .launch(N, |comm| repl.dump(comm, 1, buf_of(comm.rank())))
        .expect_all();
    for (rank, r) in out.results.iter().enumerate() {
        if let Err(e) = r {
            die(&format!("rank {rank}: dump failed: {e}"));
        }
    }
    println!(
        "dump committed clean ({} bytes on devices)",
        cluster.total_device_bytes()
    );

    for &node in fail_nodes {
        if node >= N {
            die(&format!(
                "--fail-node {node}: demo cluster has nodes 0..{N}"
            ));
        }
        cluster.fail_node(node);
        cluster.revive_node(node);
        println!("node {node}: failed, replaced with an empty device");
    }

    if do_scrub {
        let out = WorldConfig::default()
            .launch(N, |comm| repl.scrub(comm))
            .expect_all();
        let report = out.results[0]
            .as_ref()
            .unwrap_or_else(|e| die(&format!("scrub failed: {e}")));
        println!(
            "scrub: {} chunks checked, {} corrupt, {} dangling, {} orphaned",
            report.chunks_checked,
            report.corrupt.len(),
            report.dangling.len(),
            report.orphans.len()
        );
    }

    if do_repair {
        let out = WorldConfig::default()
            .launch(N, |comm| repl.heal(comm, 1))
            .expect_all();
        let stats = out.results[0]
            .as_ref()
            .unwrap_or_else(|e| die(&format!("repair failed: {e}")));
        println!(
            "repair: {} chunk copies healed ({} bytes), {} recipes re-materialized, {} corrupt quarantined, {} heal steps",
            stats.chunks_healed,
            stats.bytes_re_replicated,
            stats.recipes_rematerialized,
            stats.corrupt_quarantined,
            stats.steps
        );
        if !stats.is_fully_healed() {
            failed = true;
            println!(
                "repair: NOT HEALED — {} chunks, {} recipes beyond repair (more than K-1 copies lost), {} payloads skipped (re-run the heal)",
                stats.unrepairable_chunks.len(),
                stats.unrepairable_recipes.len(),
                stats.payloads_skipped
            );
        }
        // Verify: every chunk referenced by every rank's manifest is back
        // to K live copies.
        let (mut total, mut at_k) = (0u64, 0u64);
        for rank in 0..N {
            let recipe = cluster
                .get_recipe(cluster.node_of(rank), rank, 1)
                .unwrap_or_else(|e| die(&format!("rank {rank}'s recipe after repair: {e}")));
            let chunks = recipe.manifest().map_or(&[][..], |m| &m.chunks);
            for fp in chunks {
                total += 1;
                if cluster.copies_of(fp) >= K {
                    at_k += 1;
                }
            }
        }
        println!("verify: {at_k}/{total} referenced chunks at K = {K} copies");
    }

    let out = WorldConfig::default()
        .launch(N, |comm| (comm.rank(), repl.restore(comm, 1)))
        .expect_all();
    for (rank, r) in out.results {
        let exact = matches!(&r, Ok(b) if *b == buf_of(rank));
        match r {
            Ok(_) if exact => println!("rank {rank}: restored byte-exact"),
            Ok(_) => println!("rank {rank}: restored WRONG bytes"),
            Err(e) => println!("rank {rank}: {e}"),
        }
        failed |= !exact;
    }
    if failed {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let want = |name: &str| args.exps.iter().any(|e| e == name || e == "all");
    let t0 = Instant::now();
    println!(
        "replidedup reproduction — process scale {:.2}\n",
        args.scale
    );

    if let Some(path) = &args.trace_out {
        write_trace(path);
    }
    if let Some(spec) = &args.fault_plan {
        run_fault_demo(spec);
    }
    if !args.fail_nodes.is_empty() || args.repair || args.scrub {
        run_heal_demo(&args.fail_nodes, args.scrub, args.repair);
    }
    if let Some(max) = args.ranks {
        run_ranks_sweep(max, &args.out);
    }

    if want("fig2") {
        let f = exp::fig2();
        let t = report::fig2_table(&f);
        println!("== Figure 2: naive vs load-aware partner selection ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig2.csv"))
            .expect("write fig2.csv");
    }
    if want("fig3a") {
        let rows = exp::fig3a(args.scale);
        let t = report::fig3a_table(&rows);
        println!("== Figure 3(a): total size of unique content ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig3a.csv"))
            .expect("write fig3a.csv");
    }
    if want("fig3b") {
        let rows = exp::fig3bc(AppKind::hpccg(), args.scale);
        let t = report::fig3bc_table(&rows);
        println!("== Figure 3(b): HPCCG reduction overhead (F = 2^17) ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig3b.csv"))
            .expect("write fig3b.csv");
    }
    if want("fig3c") {
        let rows = exp::fig3bc(AppKind::cm1(), args.scale);
        let t = report::fig3bc_table(&rows);
        println!("== Figure 3(c): CM1 reduction overhead (F = 2^17) ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig3c.csv"))
            .expect("write fig3c.csv");
    }
    if want("tab1") {
        for app in [AppKind::hpccg(), AppKind::cm1()] {
            let rows = exp::tab1(app, args.scale);
            let t = report::tab1_table(&rows);
            println!("== Table I ({}): completion time, K = 3 ==", app.label());
            println!("{}", t.render());
            t.write_csv(
                &args
                    .out
                    .join(format!("tab1_{}.csv", app.label().to_lowercase())),
            )
            .expect("write tab1 csv");
        }
    }
    if want("fig4") {
        let rows = exp::fig_k_sweep(AppKind::hpccg(), args.scale);
        let t = report::fig_k_table(&rows);
        println!("== Figures 4(a)+4(b): HPCCG, K = 1..6 at 408 procs ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig4ab.csv"))
            .expect("write fig4ab.csv");
        let rows = exp::fig_shuffle(AppKind::hpccg(), args.scale);
        let t = report::fig_shuffle_table(&rows);
        println!("== Figure 4(c): HPCCG, impact of rank shuffling ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig4c.csv"))
            .expect("write fig4c.csv");
    }
    if want("fig5") {
        let rows = exp::fig_k_sweep(AppKind::cm1(), args.scale);
        let t = report::fig_k_table(&rows);
        println!("== Figures 5(a)+5(b): CM1, K = 1..6 at 408 procs ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig5ab.csv"))
            .expect("write fig5ab.csv");
        let rows = exp::fig_shuffle(AppKind::cm1(), args.scale);
        let t = report::fig_shuffle_table(&rows);
        println!("== Figure 5(c): CM1, impact of rank shuffling ==");
        println!("{}", t.render());
        t.write_csv(&args.out.join("fig5c.csv"))
            .expect("write fig5c.csv");
    }

    println!(
        "done in {:.1}s — CSVs in {}",
        t0.elapsed().as_secs_f64(),
        args.out.display()
    );
}
