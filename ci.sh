#!/usr/bin/env bash
# Full local CI gate: format, lints, build, tests. Mirrors
# .github/workflows/ci.yml so "ci.sh passes" == "CI is green".
#
#   ./ci.sh         the full gate
#   ./ci.sh drill   the full recovery-drill matrix only (all five
#                   scenarios x strategies x policies; tier-1 runs the
#                   smoke drill subset as a unit test of drill.rs)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "drill" ]]; then
  echo "== repro --drill all (full recovery-drill matrix) =="
  cargo run --release -p replidedup-bench --bin repro -- --drill all
  exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
# Includes the thread-spawn gate: clippy.toml disallows raw std::thread
# spawns, so every thread goes through crates/mpi/src/sched.rs, and raw
# std::thread::sleep, so every rank sleeps through Comm::sleep (which
# parks its worker slot), unless a site carries an
# #[allow(clippy::disallowed_methods, reason = "...")].
# Also the panic-free / unsafe gate, crate by crate: crates/hash denies
# unsafe_code, unsafe_op_in_unsafe_fn, clippy::unwrap_used,
# clippy::expect_used and clippy::undocumented_unsafe_blocks outside
# tests (clippy.toml allow-*-in-tests); its one unsafe site, the SHA-NI
# kernel, is allowed per module and carries SAFETY comments. crates/ec
# denies the same plus clippy::panic and clippy::unreachable, so RS
# decode/reconstruct surface every failure as a typed EcError against
# corrupt or incomplete shards; its one unsafe site is the AVX2 kernel.
# All of crates/core denies clippy::unwrap_used, clippy::expect_used,
# clippy::panic and clippy::unreachable outside tests, so dump, restore,
# the unattended healer, sessions and every decode of peers' bytes fail
# with typed errors, never panics. crates/mpi's collectives, sched and
# window modules deny the same four: a dead peer, an undecodable block or
# a misordered create is a CommError, a failed rank-thread spawn an Err
# result; only the benchmark seam's six panicking twins (allowed one by
# one), the documented overrun check and sched::spawn's one expect may
# panic.
cargo clippy --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# Neither the build nor clippy checks intra-doc links: a link to a
# deleted item, or from public docs to a private one, fails only here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (tier-1: umbrella suites + every crate) =="
# The root [workspace] default-members are "." and crates/*, so this one
# command runs the integration suites under tests/ (seeded chaos, healing,
# zero-copy, chunking, erasure coding, sessions — all fixed-seed, so
# reproducible bit-for-bit across CI machines) and every crate's own unit
# and property tests. Every source gate is among them:
# tests/zerocopy.rs::hot_path_sources_make_no_stray_copies fails on any
# .to_vec() in core's dump, restore, repair, heal and global sources;
# tests/source_gates.rs fails on a dead-code allowance in the self-healing
# and zero-copy modules, on a deprecated shim anywhere in crates/*/src or
# tests/, and on fixed-stride chunk math (`i * chunk_size`, `* 4096`) in
# the variable-length chunk paths.
cargo test -q

echo "== ranks-smoke (128-rank dump/restore on the pooled scheduler) =="
# One real scale point per CI run: 128 ranks multiplexed onto the worker
# pool, all four paper strategies, every restore byte-verified and the
# measured replication + parity traffic cross-checked against the sim
# cost model (repro exits non-zero on any out-of-band cell).
cargo run --release -p replidedup-bench --bin repro -- \
  --ranks 128 --out target/ranks-smoke

echo "== benchmark (build, self-tests, --quick run of every workload) =="
# The first three gates of benchmark/check.sh. The benchmark package
# calls the crates through benchmark/src/sut.rs; this catches an API
# change in crates/* that breaks it now rather than at the next bench run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick)
echo "$out" | tail -n 1 | grep -qx "ALL OK" || {
  echo "$out"
  echo "ci: FAIL — benchmark --quick run did not end in ALL OK" >&2
  exit 1
}

echo "== cargo test (vendored stand-ins) =="
# Tier-1 above already ran "." and crates/*; only vendor/* is left.
cargo test -q -p bytes -p proptest

echo "ci: all green"
