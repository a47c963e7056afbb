#!/usr/bin/env bash
# One set of A/A runs, as the driver makes them: every workload RUNS times,
# each run at another seed (1..RUNS), tracing off, each appended to OUT as a
# record `compare` reads. With TRACE=1, one traced run per workload (seed 1)
# is appended as well.
#   bash benchmark/aa.sh OUT.jsonl [RUNS]
set -euo pipefail
out="$1"; runs="${2:-10}"
here="$(dirname "$0")"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for w in offline-ivf serve-online fleet-mutate offline-graph; do
  for seed in $(seq 1 "$runs"); do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --record "$out" >/dev/null
  done
  if [ "${TRACE:-0}" = 1 ]; then
    bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 --record "$out" >/dev/null
  fi
done
