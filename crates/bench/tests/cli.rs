//! Exit codes of the `repro` command line: a usage error exits 2 before
//! running anything, `--help` exits 0.

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
