#!/usr/bin/env bash
# bench_regress.sh — run the gated benchmark set, capture it to
# BENCH_<rev>.json, and compare against the committed baseline.
#
#   ./scripts/bench_regress.sh                 # gate against baseline
#   UPDATE_BASELINE=1 ./scripts/bench_regress.sh   # refresh baseline
#
# Environment:
#   BENCH_TOLERANCE  allowed relative drift (default 0.20 = ±20%)
#   BENCH_TIME       -benchtime for the timing benches (default 1s)
#
# The gated set is the observability- and performance-critical path:
# the end-to-end CheckSafe pair (uninstrumented vs observed — their
# ratio is the observer overhead) and its distinct-apps counterpart
# (one checker cycling 2 048 different apps), the frozen-CSR graph
# query mix and the Aho-Corasick lexicon screen (the two hot
# substrates under the pipeline), the ESA Similarity benches (warm =
# memoized vector path, cold = fresh interpretation, reference =
# legacy map path), the obs span microbenches, and the Table IV
# outcome bench whose custom metrics pin the paper's inconsistency
# precision/recall (-benchtime=1x: outcome run, ns/op not gated).
set -euo pipefail
cd "$(dirname "$0")/.."

rev=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
out="BENCH_${rev}.json"
baseline=testdata/bench_baseline.json
tol="${BENCH_TOLERANCE:-0.20}"

run_benches() {
  go test -run '^$' -bench 'CheckSafe|GraphQueryThroughput|LexiconMatch|Similarity(Warm|Cold|ReferenceMap)|Span(Nil|Metrics|JSONL)' \
    -benchmem -benchtime "${BENCH_TIME:-1s}" . ./internal/obs
  go test -run '^$' -bench 'TableIVInconsistency' -benchtime 1x .
}

if [[ "${UPDATE_BASELINE:-}" == 1 ]]; then
  mkdir -p testdata
  run_benches | go run ./cmd/benchcmp -capture "$baseline"
  echo "baseline refreshed: $baseline"
  exit 0
fi

run_benches | go run ./cmd/benchcmp -capture "$out" -baseline "$baseline" -tolerance "$tol"
