#!/usr/bin/env bash
# Tier-1 tests + engine micro-benchmarks, with the headline numbers written
# to BENCH_engine.json so the perf trajectory is tracked across PRs.
#
# Usage: bash benchmarks/run_benchmarks.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_engine.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Benchmarks must measure the engine, not a warm result store: the bench
# conftest clears the ambient store per run (REPRO_BENCH_CACHE=<dir> opts
# back in), and any inherited cache dir is dropped here for good measure.
unset REPRO_CACHE_DIR

echo "== tier-1 tests =="
python -m pytest -x -q --ignore=benchmarks

echo "== engine micro-benchmarks =="
python -m pytest -q \
    benchmarks/test_bench_engine_micro.py \
    benchmarks/test_bench_batch_engine.py \
    benchmarks/test_bench_compaction.py \
    benchmarks/test_bench_environment.py \
    benchmarks/test_bench_telemetry.py \
    benchmarks/test_bench_store.py \
    benchmarks/test_bench_aggregation.py \
    --benchmark-json="$RAW"

python benchmarks/summarize_engine_bench.py "$RAW" "$OUT"
echo "wrote $OUT"
