#!/usr/bin/env bash
# Regenerate every BENCH_*.json perf artifact in one sweep, then flatten
# them into benchmarks/results/bench_all.csv.
#
# Usage (from the repository root or from benchmarks/):
#
#     benchmarks/run_all.sh            # the eight JSON-writing benches
#     benchmarks/run_all.sh --all      # every bench_*.py (slow)
#
# Scale/gate knobs pass through the environment, same as pytest runs:
# REPRO_BENCH_SCALE, REPRO_BENCH_SAMPLES, REPRO_BENCH_MIN_SPEEDUP.
# Each bench runs to completion even if an earlier one fails; the exit
# status is the number of failed benches.

set -u

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO_ROOT="$(dirname "$HERE")"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"

# The benches that write BENCH_<name>.json at the repository root —
# keep in sync with the CI artifact list in .github/workflows/ci.yml.
JSON_BENCHES=(
    bench_rrset_engine.py
    bench_comic_kpt.py
    bench_forward_sim.py
    bench_oracle_store.py
    bench_comic_store.py
    bench_parallel_forward.py
    bench_oracle_serving.py
    bench_graph_scale.py
)

if [ "${1:-}" = "--all" ]; then
    mapfile -t BENCHES < <(cd "$HERE" && ls bench_*.py)
else
    BENCHES=("${JSON_BENCHES[@]}")
fi

failures=0
for bench in "${BENCHES[@]}"; do
    echo "== ${bench} =="
    if ! (cd "$HERE" && python -m pytest "$bench" -q); then
        echo "run_all: FAIL ${bench}"
        failures=$((failures + 1))
    fi
done

echo "== flatten to CSV =="
python "${HERE}/to_csv.py" "${HERE}/results/bench_all.csv" || failures=$((failures + 1))

if [ "$failures" -ne 0 ]; then
    echo "run_all: ${failures} bench(es) failed"
else
    echo "run_all: all benches passed"
fi
exit "$failures"
