#!/usr/bin/env bash
# Runs the benchmark RUNS times per workload, each run with another
# seed, and keeps each run's output as OUTDIR/<workload>/<seed>.out —
# one result set for `perfbench compare`. Run from the repository root:
#
#   bash perfbench/aa.sh OUTDIR RUNS FIRST_SEED [workload...]
#
# An A/A check makes two sets of the same code with different seeds and
# compares them:
#
#   bash perfbench/aa.sh .bench_build/aa/a 10 1
#   bash perfbench/aa.sh .bench_build/aa/b 10 101
#   .bench_build/perfbench compare .bench_build/aa/a .bench_build/aa/b
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 OUTDIR RUNS FIRST_SEED [workload...]" >&2
	exit 2
fi
outdir=$1 runs=$2 first=$3
shift 3
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(auto-eps pinned-eps service-mix)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

for w in "${workloads[@]}"; do
	mkdir -p "$outdir/$w"
	for ((i = 0; i < runs; i++)); do
		seed=$((first + i))
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$outdir/$w/$seed.out"
		tail -n 1 "$outdir/$w/$seed.out"
	done
done
