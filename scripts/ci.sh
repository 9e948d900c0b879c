#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, and the test suite.
#
# Usage: scripts/ci.sh [--workspace]
#
# The default run mirrors the tier-1 check (`cargo test -q` on the root
# package); `--workspace` extends the test step to every crate, including
# the vendored shims.
set -euo pipefail
cd "$(dirname "$0")/.."

test_scope=()
if [[ "${1:-}" == "--workspace" ]]; then
    test_scope=(--workspace)
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q ${test_scope[*]:-}"
cargo test -q "${test_scope[@]}"

echo "==> cold/warm cache equivalence and invalidation matrix"
# The differential oracle: cached and uncached runs must be
# byte-identical at 1/2/4 threads, and every cache-key ingredient must
# invalidate exactly the entries it covers.
cargo test -q --test cache_equivalence --test cache_invalidation

echo "==> multi-dialect SQL backend: unit, round-trip proptest, and fault suites"
# The round-trip oracle (emit → parse is the identity in every dialect)
# plus the SQL parser's totality under mutated/truncated dumps.
cargo test -q -p cfinder-sql
cargo test -q --test sql_roundtrip

echo "==> SQL test-count floor"
# The cfinder-sql suite only grows: unit + integration tests must stay at
# or above the floor so coverage cannot be silently deleted.
sql_tests=$(cargo test -q -p cfinder-sql 2>/dev/null \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s}')
floor=48
if [[ "${sql_tests:-0}" -lt "$floor" ]]; then
    echo "FAIL: cfinder-sql ran ${sql_tests:-0} tests, below the floor of $floor" >&2
    exit 1
fi
echo "cfinder-sql: $sql_tests tests (floor $floor)"

echo "==> CHECK/DEFAULT inference: corpus calibration and metric goldens"
# The extension pattern families (PA_c1/PA_c2/PA_d1) must keep the
# planted per-app counts and the thread-count determinism goldens exact.
cargo test -q -p cfinder-corpus --test calibration --test metric_goldens

echo "==> explain provenance golden (incl. PA_c1/PA_c2/PA_d1)"
cargo test -q --test explain_golden

echo "==> cache fingerprint covers the inference option set"
# Flipping any analysis option (including check/default inference) must
# change the tool fingerprint, or stale cache entries would survive.
cargo test -q -p cfinder-core fingerprint

echo "==> inter-procedural summaries: flow crate + differential oracle"
# Call-graph extraction/composition proptests, then the off/on oracle:
# the paper configuration must be byte-identical across thread counts
# and hop-free; summaries-on must recover every planted helper-wrapped
# site with hop provenance and zero trap false positives. The shared
# guard grammar has two more oracles: every corpus app's stable_json
# digest (paper and default configurations, 1/2/4 threads) against its
# golden, and a proptest that an inline guard and the same guard in a
# helper infer the same constraints, with a hop only on the helper.
flow_unit=$(cargo test -q -p cfinder-flow 2>&1) || { echo "$flow_unit"; exit 1; }
interproc_oracle=$(cargo test -q --test interproc_oracle --test stable_json_digest \
    --test guard_grammar_oracle 2>&1) \
    || { echo "$interproc_oracle"; exit 1; }

echo "==> inter-procedural test-count floor"
# The summary-propagation surface only grows: flow unit/proptest suites
# plus the oracle must stay at or above the floor so coverage cannot be
# silently deleted.
interproc_tests=$(printf '%s\n%s\n' "$flow_unit" "$interproc_oracle" \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s}')
interproc_floor=90
if [[ "${interproc_tests:-0}" -lt "$interproc_floor" ]]; then
    echo "FAIL: interproc suites ran ${interproc_tests:-0} tests, below the floor of $interproc_floor" >&2
    exit 1
fi
echo "interproc suites: $interproc_tests tests (floor $interproc_floor)"

echo "==> fault-injection suite"
cargo test -q --test fault_injection

echo "==> fault-injection suite with live tracing and metrics"
# Same seeded corruption, but every analysis records spans and metrics:
# the observability layer must be as panic-free as the analyzer it
# instruments.
CFINDER_OBS_TEST=1 cargo test -q --test fault_injection

echo "==> daemon soak oracle (4 clients x 8 apps x 2 rounds) + fault-frame suite"
# The serve daemon: concurrent clients over the whole corpus must be
# byte-identical (stable_json) to one-shot in-process runs, with hostile
# frames and a mid-round source mutation interleaved; the fault suite
# proves every typed error code reachable and request-scoped, and the
# concurrency suite covers racing cache writers + ENOSPC-style
# degradation.
serve_unit=$(cargo test -q -p cfinder-serve 2>&1) || { echo "$serve_unit"; exit 1; }
serve_integration=$(CFINDER_SOAK_ROUNDS=2 cargo test -q \
    --test serve_soak --test serve_faults --test cache_concurrency 2>&1) \
    || { echo "$serve_integration"; exit 1; }

echo "==> daemon test-count floor"
# The serve surface only grows: unit + soak + fault + cache-concurrency
# tests must stay at or above the floor so coverage cannot be silently
# deleted.
serve_tests=$(printf '%s\n%s\n' "$serve_unit" "$serve_integration" \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s}')
serve_floor=20
if [[ "${serve_tests:-0}" -lt "$serve_floor" ]]; then
    echo "FAIL: daemon suites ran ${serve_tests:-0} tests, below the floor of $serve_floor" >&2
    exit 1
fi
echo "daemon suites: $serve_tests tests (floor $serve_floor)"

echo "==> query layer: differential oracle, 3VL pins, and plan goldens"
# The constraint-driven rewriter's soundness gate: every generated query
# must produce byte-identical results through the naive and rewritten
# plans at 1/2/4 threads, over conforming and NULL-heavy adversarial
# data; plan goldens pin each rewrite firing (and not firing without its
# enabling constraint).
minidb_unit=$(cargo test -q -p cfinder-minidb 2>&1) || { echo "$minidb_unit"; exit 1; }
minidb_integration=$(cargo test -q -p cfinder-minidb \
    --test query_oracle --test three_valued_logic --test plan_golden 2>&1) \
    || { echo "$minidb_integration"; exit 1; }

echo "==> query-layer test-count floor"
# Oracle + 3VL + golden coverage only grows: the combined minidb suites
# must stay at or above the floor so coverage cannot be silently deleted.
minidb_tests=$(printf '%s\n%s\n' "$minidb_unit" "$minidb_integration" \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s}')
minidb_floor=95
if [[ "${minidb_tests:-0}" -lt "$minidb_floor" ]]; then
    echo "FAIL: minidb suites ran ${minidb_tests:-0} tests, below the floor of $minidb_floor" >&2
    exit 1
fi
echo "minidb suites: $minidb_tests tests (floor $minidb_floor)"

echo "==> query-rewrite speedup gate (rewritten never slower; headline classes >= 1.5x)"
# The bench itself asserts the oracle (identical results) off the clock,
# that no class regresses, and that DISTINCT-drop and join elimination
# each clear 1.5x.
cargo bench -p cfinder-bench --bench query_rewrite

echo "==> observability overhead check (no-op vs traced vs profiled)"
# Includes the sampling-profiler configuration: the bench fails if
# tracing or tracing+sampling blows past its ceiling.
cargo bench -p cfinder-bench --bench obs_overhead

echo "==> perf smoke + BENCH schema validation + throughput gate"
# `perf --smoke` runs the cold+warm benchmark at quick scale, validates
# the emitted BENCH document against the schema, and gates throughput
# against the newest committed data point under bench/. The tolerance is
# deliberately loose (75%) because shared CI boxes are noisy; the
# committed series is where real trajectories are read from.
cargo build -q --release
perf_baseline=$(ls bench/BENCH_*.json 2>/dev/null | sort | tail -1 || true)
perf_out=$(mktemp -d)
if [[ -n "$perf_baseline" ]]; then
    ./target/release/cfinder perf --smoke --out "$perf_out" \
        --baseline "$perf_baseline" --tolerance 75
else
    ./target/release/cfinder perf --smoke --out "$perf_out"
fi
rm -rf "$perf_out"

echo "==> warm-cache speedup smoke (warm must be >= 5x faster than cold)"
# The bench itself asserts the speedup floor and byte-identical reports;
# a regression in either fails this step.
cargo bench -p cfinder-bench --bench cache_warm

echo "==> depth-limit guard under a reduced stack"
# 1.5 MiB is below the 2 MiB Rust default: the test only passes because
# the parser's recursion-depth guard fires before the stack runs out.
RUST_MIN_STACK=1572864 cargo test -q -p cfinder-pyast depth_limit

echo "CI green."
