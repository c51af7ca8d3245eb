#!/usr/bin/env bash
# Run all four workloads twice on the same code and seed, and compare
# set B against set A with each metric's own bound: the repeatability
# check of this benchmark, and the way later changes read its numbers
# (run set A on the parent commit, set B on the change). One traced run
# per workload follows, checked by cmd/tracecheck.
#
#   bash bench/run.sh [seed] [seconds]
#
# Start it from the repository root. Result files land in bench/out/.
set -euo pipefail

seed="${1:-2014}"
seconds="${2:-30}"
workloads="paper_packet paper_analytic svc_mix cluster_sweep"
out=bench/out

mkdir -p "$out"
go build -o "$out/quartz-bench" ./bench
go build -o "$out/tracecheck" ./cmd/tracecheck

for set in a b; do
	for w in $workloads; do
		"$out/quartz-bench" -workload "$w" -seed "$seed" -seconds "$seconds" -out "$out/$set" | tee "$out/$set.$w.txt"
	done
done

status=0
for w in $workloads; do
	"$out/quartz-bench" -compare "$out/a/$w.json" "$out/b/$w.json" || status=1
done

for w in $workloads; do
	"$out/quartz-bench" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1 -out "$out" | tee "$out/traced.$w.txt"
	"$out/tracecheck" -require pass "$out/$w.trace.json" || status=1
done
exit $status
