//! The repo benchmark. See README.md for what it measures and why, and
//! `../BENCHMARK.json` for the contract it is run under.
//!
//! ```text
//! replidedup-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! replidedup-benchmark [--aa] [--quick] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The second form
//! runs every workload, one child process at a time, and prints every
//! metric by name; with `--aa` it does so twice and compares the two
//! sets against the metrics' own bounds.

mod all;
mod json;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use run::Options;

/// The default `--seed`, and the default `--seconds` (`run_seconds` in
/// `../BENCHMARK.json`; a self-test holds them equal).
const DEFAULT_SEED: u64 = 20150525;
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    setup_only: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        quick: false,
        aa: false,
        setup_only: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("replidedup-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return all::run(args.aa, args.quick, args.seed, args.seconds);
    };
    let Some(spec) = workload::find(name) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("replidedup-benchmark: unknown workload {name}; one of {names:?}");
        return ExitCode::from(2);
    };
    let opts = Options {
        spec: if args.quick {
            workload::quick(spec)
        } else {
            spec
        },
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    if args.setup_only {
        println!("{}", run::setup_only(&opts, process_start));
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        run::per_layer(&opts, process_start)
    } else {
        run::end_to_end(&opts, process_start)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("valid JSON")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_emitted() {
        let file = benchmark_json();
        let workloads = names(file.get("workloads").expect("workloads"));
        assert_eq!(workloads, workload::WORKLOADS.map(|w| w.name));

        let listed = file
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .expect("a list");
        assert_eq!(listed.len(), metrics::END_TO_END.len());
        for (entry, m) in listed.iter().zip(&metrics::END_TO_END) {
            let field = |key| entry.get(key).and_then(Json::as_str).expect(key);
            assert_eq!(
                (field("name"), field("unit"), field("better")),
                (m.name, m.unit, m.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let listed = file
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .expect("a list");
        let emitted = metrics::per_layer();
        let key = |e: &Json, k| e.get(k).and_then(Json::as_str).expect(k).to_string();
        let listed: BTreeSet<_> = listed
            .iter()
            .map(|e| (key(e, "name"), key(e, "unit"), key(e, "better")))
            .collect();
        let emitted: BTreeSet<_> = emitted
            .iter()
            .map(|(n, u, b)| (n.clone(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(listed, emitted);

        let all = workloads
            .iter()
            .cloned()
            .chain(listed.iter().map(|m| m.0.clone()));
        let all: Vec<_> = all
            .chain(metrics::END_TO_END.iter().map(|m| m.name.to_string()))
            .collect();
        assert!(
            all.iter().all(|n| valid_name(n)),
            "names must match [A-Za-z0-9][A-Za-z0-9_.-]*"
        );
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used once"
        );
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert_eq!(
            names(file.get("end_to_end").unwrap())
                .iter()
                .filter(|n| *n == "setup_s")
                .count(),
            1
        );
    }

    /// The `--quick` tier end to end, in this process: byte-exact
    /// restores (a wrong byte counts as a failed rank-op), no failed
    /// operation, and every listed metric present on both passes.
    #[test]
    fn quick_tier_verifies_and_emits_every_metric() {
        for spec in workload::WORKLOADS.map(workload::quick) {
            let opts = Options {
                spec,
                seed: 5,
                seconds: 1.0,
                quick: true,
            };
            let e2e = run::end_to_end(&opts, Instant::now());
            assert!(
                e2e.correct && e2e.failed == 0 && e2e.attempted > 0,
                "{}",
                spec.name
            );
            let emitted: Vec<_> = e2e.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(
                emitted,
                metrics::END_TO_END.map(|m| m.name),
                "{}",
                spec.name
            );
            assert!(
                e2e.metrics.iter().all(|m| m.1 > 0.0),
                "{}: {:?}",
                spec.name,
                e2e.metrics
            );

            let layers = run::per_layer(&opts, Instant::now());
            assert!(layers.correct && layers.failed == 0, "{}", spec.name);
            let value = |name: &str| layers.metrics.iter().find(|m| m.0 == name).expect(name).1;
            let dedup = spec.strategy == workload::Strategy::CollDedup;
            assert_eq!(value("hash.bytes_hashed") > 0.0, dedup, "{}", spec.name);
            assert_eq!(
                value("core.global.view_entries") > 0.0,
                dedup,
                "{}",
                spec.name
            );
            let coded = spec.policy != workload::Policy::Replicate3;
            assert_eq!(value("ec.chunks_coded") > 0.0, coded, "{}", spec.name);
            assert_eq!(value("ec.stripes_assembled") > 0.0, coded, "{}", spec.name);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse(s.split_whitespace().map(String::from));
        let a = parse("--workload blob-ec --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("blob-ec"), 9, 2.5, true)
        );
        let a = parse("--aa --quick").unwrap();
        assert!(a.aa && a.quick && a.workload.is_none() && a.seed == DEFAULT_SEED);
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
