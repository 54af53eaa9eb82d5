#!/usr/bin/env bash
# Gate for a PR that touches the benchmark: build, self-tests, a --quick
# run of every workload (both passes), the printed names against
# ../BENCHMARK.json, and the rule that such a PR touches nothing else.
#
#   benchmark/check.sh [BASE]     # BASE: the parent commit, default HEAD
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:-HEAD}
manifest=benchmark/Cargo.toml

echo "== build"
cargo build --release --offline --manifest-path $manifest

echo "== self-tests"
cargo test --release --offline --quiet --manifest-path $manifest

echo "== --quick run, every workload, both passes"
out=$(cargo run --release --offline --quiet --manifest-path $manifest -- --quick)
echo "$out" | tail -n 1 | grep -qx "ALL OK" || { echo "$out"; echo "quick run failed"; exit 1; }

echo "== printed names against BENCHMARK.json"
echo "$out" | python3 -c '
import json, re, sys
spec = json.load(open("BENCHMARK.json"))
want = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
got = {}
for line in sys.stdin:
    m = re.match(r"\s*(\S+) (\S+) = ", line)
    if m:
        got.setdefault(m.group(1), set()).add(m.group(2))
workloads = {w["name"] for w in spec["workloads"]}
assert set(got) == workloads, (sorted(got), sorted(workloads))
for w, names in got.items():
    assert names == want, (w, sorted(names ^ want))
print(len(workloads), "workloads x", len(want), "metrics: names match")
'

echo "== a benchmark PR touches only the benchmark"
if git rev-parse --git-dir >/dev/null 2>&1; then
    changed=$( { git diff --name-only "$base"; git ls-files --others --exclude-standard; } | sort -u)
    # The builder contract also lets such a PR edit these four.
    stray=$(echo "$changed" | grep -v -E '^(BENCHMARK\.json|benchmark/.*|\.gitignore|CHANGES\.md|ISSUE\.md|REVIEW\.md)$' || true)
    if [ -n "$stray" ]; then
        echo "files outside BENCHMARK.json and benchmark/:"
        echo "$stray"
        exit 1
    fi
else
    echo "(not a git checkout: skipped)"
fi
echo "check.sh: OK"
