#!/usr/bin/env bash
# Full local CI gate: format, lints, build, tests. Mirrors
# .github/workflows/ci.yml so "ci.sh passes" == "CI is green".
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
# Includes the thread-spawn gate: clippy.toml disallows raw std::thread
# spawns, so every thread goes through crates/mpi/src/sched.rs, and the
# one-wait rule: raw std::thread::sleep and std::sync::Condvar are
# disallowed, so a rank blocks only in its mailbox wait or Comm::sleep,
# unless a site carries an #[allow(clippy::disallowed_methods, reason =
# "...")] or #[allow(clippy::disallowed_types, reason = "...")].
# Also the panic-free / unsafe gate: each crate states its lints once,
# in the #![deny] of its src/lib.rs and the comment above it.
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
# tests/, on fixed-stride chunk math (`i * chunk_size`, `* 4096`) in
# the variable-length chunk paths, on any use of the ignored
# WorldConfig worker setter outside its definition (the benchmark seam
# is its one caller), on a one-chunk fingerprint call in the dump's
# local index, restore's two verification sites, a node scrub's re-hash
# or the stripe pass's clean path (chunk_checks_hash_in_batches: all go
# through fingerprint_all), and on a decode or encode call in the stripe
# pass's clean path (the_stripe_clean_path_never_decodes: only a stripe
# that fails the in-cache parity check is decoded).
cargo test -q

echo "== ranks-smoke (128-rank dump/restore, one thread per rank) =="
# One real scale point per CI run: 128 rank threads, all four paper
# strategies, every restore byte-verified and the
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
