//! Every workload, one child process at a time (so `peak_rss_mib` is the
//! workload's own), every metric printed by name; and the A/A mode.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::workload::WORKLOADS;

/// One workload's reported values, in emission order.
struct Reported {
    ok: bool,
    metrics: Vec<(String, f64)>,
}

fn child(workload: &str, trace: bool, quick: bool, seed: u64, seconds: f64) -> Reported {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // stderr is inherited; stdout is passed on below, minus the last line.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (timings, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !timings.is_empty() {
        println!("{timings}");
    }
    let parsed = Json::parse(last).ok().filter(|_| out.status.success());
    let Some(result) = parsed else {
        println!(
            "{workload:>14} FAILED to report (exit {:?})",
            out.status.code()
        );
        return Reported {
            ok: false,
            metrics: Vec::new(),
        };
    };
    let num = |key| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let ok = result.get("correct") == Some(&Json::Bool(true)) && num("failed") == 0.0;
    println!(
        "{workload:>14} attempted={} failed={} correct={ok}",
        num("attempted"),
        num("failed")
    );
    let metrics = match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
                println!("{workload:>14} {name} = {value} {unit}");
                (name.clone(), value)
            })
            .collect(),
        _ => Vec::new(),
    };
    Reported { ok, metrics }
}

/// One full set: per workload, the end-to-end pass and the traced pass.
/// Returns the end-to-end values.
fn one_set(quick: bool, seed: u64, seconds: f64) -> (bool, Vec<Reported>) {
    let mut ok = true;
    let mut end_to_end = Vec::new();
    for w in WORKLOADS {
        let e2e = child(w.name, false, quick, seed, seconds);
        let layers = child(w.name, true, quick, seed, seconds);
        ok &= e2e.ok && layers.ok;
        end_to_end.push(e2e);
    }
    (ok, end_to_end)
}

pub fn run(aa: bool, quick: bool, seed: u64, seconds: f64) -> ExitCode {
    let (mut ok, first) = one_set(quick, seed, seconds);
    if aa {
        println!("--- A/A: the same code, a second set ---");
        let (second_ok, second) = one_set(quick, seed, seconds);
        ok &= second_ok;
        println!("--- A/A verdicts: second set against the first, per metric bound ---");
        for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
            for m in &END_TO_END {
                let find = |r: &Reported| {
                    r.metrics
                        .iter()
                        .find(|x| x.0 == m.name)
                        .map_or(f64::NAN, |x| x.1)
                };
                let (a, b) = (find(a), find(b));
                // How much worse the second set reads, as a share of the first.
                let worse = match m.better {
                    Better::Lower => (b - a) / a,
                    Better::Higher => (a - b) / a,
                };
                let pass = if m.exact { a == b } else { worse <= m.bound };
                ok &= pass;
                println!(
                    "{:>14} {:<28} A={a:<12.6} B={b:<12.6} worse={:+.2}% bound={}  {}",
                    w.name,
                    m.name,
                    100.0 * worse,
                    if m.exact {
                        "identical".to_string()
                    } else {
                        format!("{}%", 100.0 * m.bound)
                    },
                    if pass { "PASS" } else { "FAIL" },
                );
            }
        }
    }
    println!("{}", if ok { "ALL OK" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
