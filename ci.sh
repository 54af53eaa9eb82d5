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
# kernel, is allowed per module and carries SAFETY comments.
cargo clippy --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (tier-1: umbrella suites + every crate) =="
# The root [workspace] default-members are "." and crates/*, so this one
# command runs the integration suites under tests/ (seeded chaos, healing,
# zero-copy, chunking, erasure coding, sessions — all fixed-seed, so
# reproducible bit-for-bit across CI machines) and every crate's own unit
# and property tests.
cargo test -q

echo "== dead-code gate (self-healing + zero-copy modules) =="
# These modules must be fully wired into the public API — a stray
# #[allow(dead_code)] means something regressed to unreachable.
if grep -n '#\[allow(dead_code)\]' \
    crates/storage/src/scrub.rs \
    crates/core/src/repair.rs \
    crates/core/src/retry.rs \
    crates/buf/src/lib.rs \
    crates/buf/src/chunk.rs \
    crates/buf/src/pool.rs \
    crates/core/src/exchange.rs \
    crates/mpi/src/wire.rs \
    tests/repair.rs \
    tests/zerocopy.rs; then
  echo "ci: FAIL — #[allow(dead_code)] found in gated modules" >&2
  exit 1
fi

echo "== no-deprecated-shims gate =="
# The transitional &[u8] shims (dump_output/restore_output, Comm::send,
# Window::get/local_data) were removed after one release of deprecation;
# a #[deprecated] attribute reappearing in the workspace means a shim
# crept back instead of the API being designed right.
if grep -rn '#\[deprecated' crates/*/src tests; then
  echo "ci: FAIL — deprecated shim reintroduced; extend the API instead" >&2
  exit 1
fi

echo "== panic-free-decode gate (erasure coding) =="
# RS decode/reconstruct run against possibly corrupt or incomplete
# shards; every failure there must surface as a typed EcError, never a
# panic. The gate covers the whole crate's non-test code (everything
# above the `#[cfg(test)]` module) to keep the contract simple.
for f in crates/ec/src/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!'; then
    echo "ci: FAIL — panic path in replidedup-ec non-test code ($f)" >&2
    exit 1
  fi
done

echo "== panic-free gate (heal engine) =="
# The healer runs unattended against degraded, possibly corrupt
# clusters; every failure must surface as a typed error the operator's
# loop can retry, never a panic that kills the healer. Covers the engine
# (heal.rs) and the planner/scrub/error types it shares (repair.rs).
for f in crates/core/src/heal.rs crates/core/src/repair.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!'; then
    echo "ci: FAIL — panic path in heal-engine non-test code ($f)" >&2
    exit 1
  fi
done

echo "== stray-copy gate (hot-path modules) =="
# The dump/restore/heal hot paths moved to refcounted Chunk payloads;
# a .to_vec() creeping back in is a silent full-payload copy.
if grep -n '\.to_vec()' \
    crates/core/src/dump.rs \
    crates/core/src/restore.rs \
    crates/core/src/repair.rs \
    crates/core/src/heal.rs; then
  echo "ci: FAIL — .to_vec() payload copy in a zero-copy hot path" >&2
  exit 1
fi

echo "== stride-math gate (variable-length chunk paths) =="
# Chunk geometry is carried as explicit per-chunk lengths end to end; a
# hardcoded `i * chunk_size` (or `* 4096`) creeping back into a hot-path
# module silently re-assumes fixed-stride chunking. The fixed chunker
# itself (crates/hash) is the one legitimate home for stride math.
if grep -nE '\* *(cfg\.|self\.|idx\.)?chunk_size|chunk_size *\*|\* *4096|4096 *\*' \
    crates/core/src/dump.rs \
    crates/core/src/restore.rs \
    crates/core/src/exchange.rs \
    crates/core/src/local.rs \
    crates/core/src/offsets.rs \
    crates/core/src/plan.rs \
    crates/storage/src/manifest.rs \
    crates/storage/src/scrub.rs; then
  echo "ci: FAIL — fixed-stride chunk math outside the fixed chunker" >&2
  exit 1
fi

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
