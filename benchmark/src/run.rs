//! One workload in this process: set-up, the timed cycles (tracing off)
//! or the traced pass with the layer probes, and the raw-sample files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::metrics::{self, END_TO_END, HEAL_PHASES, RESTORE_PHASES};
use crate::stats::{median, summarize};
use crate::sut::{self, Cycle, DumpCounts, Inputs, Sink, DUMP_PHASES};
use crate::trace::Recorder;
use crate::workload::{self, Spec};

const MIB: f64 = (1 << 20) as f64;
/// Set-ups per end-to-end run, each in a process of its own so that
/// one-time initialisation is paid, and seen, every time.
const SETUPS: usize = 3;
/// Fewest cycles (end to end) or traced/untraced pairs (traced pass) a
/// run measures, however short `--seconds` is.
const MIN_CYCLES: usize = 3;
const QUICK_CYCLES: usize = 2;

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// What one invocation reports: the contract's last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// At most four runnable rank bodies, fewer on a smaller machine.
pub fn workers() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Input generation, hand-over to the program's buffer type and one
/// untimed warm-up cycle (cycle 0), which also builds the cluster and
/// the replicator as every cycle does.
pub fn setup(opts: &Options) -> (Inputs, Cycle) {
    let inputs = Inputs::new(workload::generate(&opts.spec, opts.seed));
    let victims = workload::victims(opts.seed, 0, opts.spec.ranks);
    let warmup = sut::run_cycle(&opts.spec, &inputs, workers(), victims, false);
    (inputs, warmup)
}

/// `--setup-only`: what a child process prints.
pub fn setup_only(opts: &Options, process_start: Instant) -> f64 {
    let (_, warmup) = setup(opts);
    assert_eq!(warmup.failed, 0, "warm-up cycle failed");
    process_start.elapsed().as_secs_f64()
}

fn setup_in_child(opts: &Options) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--setup-only",
        "--workload",
        opts.spec.name,
        "--seed",
        &opts.seed.to_string(),
    ]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn set-up child");
    assert!(
        out.status.success(),
        "set-up child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up child prints its seconds")
}

fn cycles_for(opts: &Options, mut one: impl FnMut(u64)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut done = 0;
    loop {
        done += 1;
        one(done as u64);
        let enough = if opts.quick {
            done >= QUICK_CYCLES
        } else {
            done >= MIN_CYCLES && start.elapsed() >= budget
        };
        if enough {
            return;
        }
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn host_facts(opts: &Options) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::from(opts.spec.name)),
        ("ranks", Json::from(u64::from(opts.spec.ranks))),
        ("bytes_per_rank", Json::from(opts.spec.bytes_per_rank)),
        ("seed", Json::from(opts.seed)),
        ("quick", Json::from(opts.quick)),
        ("nproc", Json::from(nproc())),
        ("workers", Json::from(workers())),
        ("rustc", Json::from(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::from(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

fn samples_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    obj([
        ("n", Json::from(s.n)),
        ("q1", Json::from(s.q1)),
        ("median", Json::from(s.median)),
        ("q3", Json::from(s.q3)),
        ("samples", Json::from(samples.to_vec())),
    ])
}

fn counts_json(c: &DumpCounts) -> Json {
    obj([
        ("input_bytes", Json::from(c.input_bytes)),
        ("device_bytes", Json::from(c.device_bytes)),
        ("parity_bytes", Json::from(c.parity_bytes)),
        ("wire_bytes", Json::from(c.wire_bytes())),
        ("msgs", Json::from(c.msgs)),
        ("modeled_dump_s", Json::from(c.modeled_dump_s())),
    ])
}

fn write_json(file: String, value: &Json) {
    let path = out_dir().join(file);
    std::fs::write(&path, format!("{value}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// `--trace 0`: every end-to-end metric, tracing off.
pub fn end_to_end(opts: &Options, process_start: Instant) -> Outcome {
    let setups = if opts.quick { 1 } else { SETUPS };
    let mut setup_s: Vec<f64> = (1..setups).map(|_| setup_in_child(opts)).collect();
    let own_start = if setup_s.is_empty() {
        process_start
    } else {
        Instant::now()
    };
    let (inputs, warmup) = setup(opts);
    setup_s.push(own_start.elapsed().as_secs_f64());

    let mut cycles = Vec::new();
    cycles_for(opts, |id| {
        let victims = workload::victims(opts.seed, id, opts.spec.ranks);
        cycles.push(sut::run_cycle(
            &opts.spec,
            &inputs,
            workers(),
            victims,
            false,
        ));
    });

    let timings: Vec<(&str, Vec<f64>)> = (0..4)
        .map(|op| {
            (
                cycles[0].ops()[op].0,
                cycles.iter().map(|c| c.ops()[op].1.secs()).collect(),
            )
        })
        .collect();
    let op_median = |op: usize| median(&timings[op].1);
    let counts = &cycles[0].counts;
    let input = counts.input_bytes as f64;
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "dump_mibps" => input / MIB / op_median(0),
        "restore_mibps" => input / MIB / op_median(1),
        "heal_s" => op_median(2),
        "degraded_restore_mibps" => input / MIB / op_median(3),
        "stored_bytes_per_input_byte" => counts.device_bytes as f64 / input,
        "wire_bytes_per_input_byte" => counts.wire_bytes() as f64 / input,
        "modeled_dump_mibps" => input / MIB / counts.modeled_dump_s(),
        "peak_rss_mib" => peak_rss_mib(),
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name), m.unit))
        .collect();

    // For a given seed the counts must be the same on every cycle.
    let counts_repeat = cycles.iter().all(|c| c.counts == *counts) && warmup.counts == *counts;
    let attempted = cycles.iter().map(|c| c.attempted).sum();
    let failed = cycles.iter().map(|c| c.failed).sum::<u64>() + warmup.failed;

    for (op, samples) in &timings {
        let s = summarize(samples);
        println!(
            "{:>14} {op}_s: n={} q1={:.4} median={:.4} q3={:.4}",
            opts.spec.name, s.n, s.q1, s.median, s.q3
        );
    }
    let mut report = host_facts(opts);
    report.extend([
        ("counts_repeat", Json::from(counts_repeat)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("counts", counts_json(counts)),
        ("setup_s", samples_json(&setup_s)),
        (
            "ops",
            obj(timings
                .iter()
                .map(|(op, samples)| (format!("{op}_s"), samples_json(samples)))),
        ),
        (
            "metrics",
            obj(metrics.iter().map(|(n, v, _)| (n.as_str(), Json::from(*v)))),
        ),
    ]);
    write_json(format!("{}.json", opts.spec.name), &obj(report));

    Outcome {
        correct: failed == 0 && counts_repeat,
        attempted,
        failed,
        metrics,
    }
}

/// Collects what the probes report, and wraps their spans.
struct Collector {
    values: BTreeMap<String, f64>,
    recorder: Recorder,
}

impl Sink for Collector {
    fn metric(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn span(&mut self, name: &str, start: Instant, end: Instant) {
        self.recorder.span(name, start, end, None, None);
    }
}

/// `--trace 1`: every per-layer metric. Traced and untraced cycles
/// alternate so that both see the same machine; then the outside probes.
pub fn per_layer(opts: &Options, process_start: Instant) -> Outcome {
    let (inputs, warmup) = setup(opts);
    let mut out = Collector {
        values: BTreeMap::new(),
        recorder: Recorder::new(process_start),
    };
    let (mut untraced, mut traced, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    cycles_for(opts, |id| {
        let victims = workload::victims(opts.seed, id, opts.spec.ranks);
        for (tracing, into) in [(false, &mut untraced), (true, &mut traced)] {
            let cycle = sut::run_cycle(&opts.spec, &inputs, workers(), victims, tracing);
            out.recorder.cycle(id, tracing, &cycle);
            into.push(cycle);
        }
        let start = Instant::now();
        reference.push(sut::dump_only(
            &opts.spec,
            workload::Strategy::NoDedup,
            &inputs,
            workers(),
        ));
        out.recorder
            .span("dump.nodedup_ref", start, Instant::now(), None, Some(id));
    });
    let start = Instant::now();
    let own = sut::dump_only(&opts.spec, opts.spec.strategy, &inputs, workers());
    out.recorder
        .span("dump.only", start, Instant::now(), None, None);

    let counts = &traced[0].counts;
    let input_mib = counts.input_bytes as f64 / MIB;
    for phase in DUMP_PHASES {
        out.metric(
            &format!("core.dump.{phase}_ms"),
            median_of(&traced, |c| c.dump.phase_ms(phase)),
        );
    }
    for phase in RESTORE_PHASES {
        out.metric(
            &format!("core.restore.{phase}_ms"),
            median_of(&traced, |c| c.restore.phase_ms(phase)),
        );
    }
    for phase in HEAL_PHASES {
        out.metric(
            &format!("core.heal.{phase}_ms"),
            median_of(&traced, |c| c.heal.phase_ms(&format!("heal.{phase}"))),
        );
    }
    // Every rank's phase spans summed, over every rank's time in the dump.
    let phase_sum = |c: &Cycle| {
        DUMP_PHASES
            .iter()
            .filter_map(|p| c.dump.phase(p))
            .map(|p| p.sum_ms)
            .sum::<f64>()
            / 1e3
    };
    out.metric(
        "core.dump.phase_sum_over_wall",
        median_of(&traced, |c| phase_sum(c) / c.dump.rank_secs_sum),
    );
    let both_restores = |name: &str| {
        median_of(&traced, |c| {
            (c.restore.counter(name) + c.degraded_restore.counter(name)) as f64
        })
    };
    out.metric("core.restore.retries", both_restores("restore_retries"));
    out.metric(
        "core.restore.replica_fallbacks",
        both_restores("restore_replica_fallback"),
    );
    out.metric("core.heal.steps", traced[0].heal_steps as f64);
    out.metric("core.heal.bytes", traced[0].heal_bytes as f64);

    let dump_s = |cycles: &[Cycle]| cycles.iter().map(|c| c.dump.secs()).collect::<Vec<_>>();
    let (untraced_dump_s, traced_dump_s) = (dump_s(&untraced), dump_s(&traced));
    let (plain, with_trace) = (median(&untraced_dump_s), median(&traced_dump_s));
    out.metric("trace.overhead_pct", 100.0 * (with_trace - plain) / plain);
    let reference_s = median_of(&reference, |r| r.secs);
    out.metric("core.dump.nodedup_ref_mibps", input_mib / reference_s);

    for (name, value) in [
        ("hash.bytes_hashed", counts.bytes_hashed),
        ("hash.chunks_total", counts.chunks_total),
        (
            "hash.mean_chunk_bytes",
            counts.bytes_hashed / counts.chunks_total.max(1),
        ),
        ("buf.bytes_copied", own.process_bytes_copied),
        ("core.global.view_entries", counts.view_entries),
        ("core.global.view_bytes", counts.view_bytes),
        (
            "core.global.reduce_traffic_bytes",
            counts.reduce_traffic_bytes,
        ),
        ("mpi.dump_msgs", counts.msgs),
        ("mpi.dump_p2p_bytes", counts.p2p_bytes),
        ("mpi.dump_coll_bytes", counts.coll_bytes),
        ("mpi.dump_rma_bytes", counts.rma_bytes),
        ("storage.device_bytes", counts.device_bytes),
        ("storage.parity_bytes", counts.parity_bytes),
        ("storage.chunks_stored", counts.chunks_stored),
        ("ec.chunks_coded", counts.chunks_coded),
        ("ec.stripes_assembled", counts.stripes_assembled),
    ] {
        out.metric(name, value as f64);
    }
    out.metric("buf.pool_hit_ratio", own.pool_hit_ratio);
    out.metric("storage.scrub_mibps", own.scrub_mibps());
    for (part, secs) in ["hash", "reduce", "exchange", "write"]
        .iter()
        .zip(counts.modeled_s)
    {
        out.metric(&format!("sim.{part}_s"), secs);
    }
    sut::probe_layers(&opts.spec, &inputs, workers(), counts, &mut out);

    let all = || untraced.iter().chain(&traced);
    let attempted = all().map(|c| c.attempted).sum::<u64>()
        + (reference.len() as u64 + 1) * u64::from(opts.spec.ranks);
    let failed = all().map(|c| c.failed).sum::<u64>()
        + warmup.failed
        + own.failed
        + reference.iter().map(|r| r.failed).sum::<u64>();

    let mut report = host_facts(opts);
    report.extend([
        ("traced_cycles", Json::from(traced.len())),
        ("untraced_dump_s", samples_json(&untraced_dump_s)),
        ("traced_dump_s", samples_json(&traced_dump_s)),
        (
            "metrics",
            obj(out.values.iter().map(|(n, v)| (n.as_str(), Json::from(*v)))),
        ),
        ("spans", out.recorder.to_json()),
    ]);
    write_json(format!("{}.trace.json", opts.spec.name), &obj(report));

    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = *out
                .values
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, value, unit)
        })
        .collect();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}
