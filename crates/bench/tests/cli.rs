//! Exit codes of the `repro` command line: a usage error exits 2 before
//! running anything, `--help` exits 0, and the heal and fault demos exit 0
//! on a cluster that heals and restores, and 1 on one that cannot restore.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

#[test]
fn usage_errors_exit_2_and_help_exits_0() {
    let out = repro(&["fig9"]);
    assert_eq!(out.status.code(), Some(2), "unknown experiment");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig9") && err.contains("fig3a"), "{err}");
    assert_eq!(
        repro(&["--drill", "all"]).status.code(),
        Some(2),
        "no --drill"
    );
    assert_eq!(repro(&["--help"]).status.code(), Some(0));
}

/// README's two heal-demo command lines: the heal converges and all
/// eight ranks restore byte-exact, or the demo exits 1.
#[test]
fn heal_demos_restore_every_rank_byte_exact() {
    for args in [
        &["--fail-node", "2", "--scrub", "--repair"][..],
        &["--fail-node", "2", "--fail-node", "5", "--repair"],
    ] {
        let out = repro(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stdout}");
        assert_eq!(
            stdout.matches("restored byte-exact").count(),
            8,
            "{args:?}:\n{stdout}"
        );
    }
}

/// Three lost nodes are more than K − 1 = 2: without `--repair` a rank's
/// recipe is gone, its restore fails and the demo exits 1, naming the
/// failure once per line.
#[test]
fn heal_demo_past_tolerance_exits_1_naming_each_failure_once() {
    let out = repro(&["--fail-node", "2", "--fail-node", "3", "--fail-node", "4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let failed: Vec<&str> = stdout
        .lines()
        .filter(|line| line.contains("restore failed"))
        .collect();
    assert!(!failed.is_empty(), "{stdout}");
    for line in failed {
        assert_eq!(line.matches("restore failed").count(), 1, "{line}");
        assert!(line.starts_with("rank "), "{line}");
    }
}

/// The seeded fault demo runs both dumps and the restart to the end, and
/// the generation storage names restores byte-exact on all eight ranks.
#[test]
fn seeded_fault_demo_exits_0() {
    let out = repro(&["--fault-plan", "42"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout.matches("restored byte-exact").count(), 8, "{stdout}");
}
