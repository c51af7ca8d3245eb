#!/usr/bin/env bash
# Paired benchmark runs of two revisions, the way a small shared box
# needs them (choosing-metrics §8): the base revision and the change
# are exported side by side (git archive), and the
# repository's benchmark (BENCHMARK.json: bash bench/bench.sh) runs on
# them alternately — base first in even pairs, change first in odd
# ones — with a fresh seed per pair and the run length BENCHMARK.json
# fixes. Prints, per end-to-end metric, each side's median and
# quartiles, how many pairs the change won, the median of the per-pair
# ratios change/base with its sign-test interval (at least 90 %
# coverage; "resolved" only when it excludes 1), a verdict against the
# metric's BENCHMARK.json bound — "within bound" or "PAST BOUND" when
# the change's median is worse than the base's by more than the bound,
# "unresolved" when the per-pair ratios' own spread, (q3 - q1) / median,
# is wider than the bound and so cannot tell (each pair runs its own
# seed, so a metric that moves with the seed spreads both sides alike
# but not their ratio) — and whether the two sides' outputs_digest
# matched in every pair.
#
#   scripts/bench_pair.sh <base-rev> <workload> [pairs=10] [change-rev=HEAD]
#
# The change side is a committed revision, as the driver measures it;
# to measure work in progress, commit it first (or pass the commit
# `git stash create` prints). The copies go under ${TMPDIR:-/tmp} and
# are removed on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,25p' "$0" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
change_rev=${4:-HEAD}

repo=$(git rev-parse --show-toplevel)
cd "$repo"
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
# "<metric> <bound>" per end-to-end metric, in BENCHMARK.json's order.
bounds=$(awk '/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
  on && /"name"/ {gsub(/[",]/, "", $2); m = $2}
  on && /"bound"/ {gsub(/[",]/, "", $2); print m, $2}' BENCHMARK.json)
metrics=$(awk '{print $1}' <<<"$bounds")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
trap 'rm -rf "$work"' EXIT
for side in base change; do
  rev=${side}_rev
  mkdir "$work/$side"
  git archive "${!rev}" | tar -x -C "$work/$side"
  printf '%-6s %s\n' "$side" "$(git log -1 --format='%h %s' "${!rev}" | cut -c1-72)"
done
echo "workload $workload, $pairs pairs, $seconds s per run"

# run <side> <pair> <seed>: one benchmark run; its report lands in
# $work/<side>.<pair>.txt.
run() {
  (cd "$work/$1" && bash bench/bench.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
    >"$work/$1.$2.txt" 2>"$work/$1.$2.err" || {
    echo "pair $2: $1 run failed:" >&2
    tail -5 "$work/$1.$2.err" >&2
    exit 1
  }
}
# value <side> <pair> <metric>: the metric's value in that run's report.
value() { awk -v m="$3" '$1 == m {print $2; exit}' "$work/$1.$2.txt"; }

seed0=$(($(date +%s) % 100000))
digests_match=yes
for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
  for side in $order; do run "$side" "$i" "$seed"; done
  db=$(value base "$i" outputs_digest)
  dc=$(value change "$i" outputs_digest)
  same=same
  if [ "$db" != "$dc" ] || [ -z "$db" ]; then
    same=DIFFERENT
    digests_match=no
  fi
  printf 'pair %2d seed %-6d (%s first) outputs %s' "$i" "$seed" "${order%% *}" "$same"
  for m in $metrics; do printf '  %s %s -> %s' "$m" "$(value base "$i" "$m")" "$(value change "$i" "$m")"; done
  printf '\n'
done

# quartiles: q1, median, q3 of the numbers on stdin (linear interpolation).
quartiles() {
  sort -g | awk '{v[NR] = $1}
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

# ratio_interval: the median of the per-pair ratios on stdin and its
# sign-test interval, the order statistics r(k) and r(n+1-k) for the
# largest k whose Binomial(n, 1/2) coverage, P(k <= B <= n-k), is at
# least 90 %. The ratios differ from 1 only if the interval excludes it.
ratio_interval() {
  sort -g | awk '{r[NR] = $1}
    END {
      n = NR
      if (n == 0) exit
      med = n % 2 ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
      # cdf[i] = P(B <= i) for B ~ Binomial(n, 1/2).
      p = 0.5 ^ n; c = p; cdf[0] = c
      for (i = 1; i <= n; i++) { p = p * (n - i + 1) / i; c += p; cdf[i] = c }
      k = 0
      for (j = 1; 2 * j <= n; j++) if (1 - 2 * cdf[j - 1] >= 0.90) k = j
      if (k == 0) { printf "ratio median %.4f; %d pairs are too few for a 90 %% interval\n", med, n; exit }
      lo = r[k]; hi = r[n + 1 - k]
      printf "ratio median %.4f, interval [%.4f, %.4f] (r(%d), r(%d), coverage %.1f %%)%s\n", med, lo, hi, k, n + 1 - k, 100 * (1 - 2 * cdf[k - 1]), (hi < 1 || lo > 1) ? ", resolved" : ", not resolved"
    }'
}

echo
printf '%-20s %-34s %-34s %s\n' "metric (lower wins)" "base q1 / median / q3" "change q1 / median / q3" "change wins"
for m in $metrics; do
  wins=0
  ties=0
  for ((i = 0; i < pairs; i++)); do
    case $(awk -v b="$(value base "$i" "$m")" -v c="$(value change "$i" "$m")" 'BEGIN {print (c < b) ? "win" : (c == b) ? "tie" : "loss"}') in
      win) wins=$((wins + 1)) ;;
      tie) ties=$((ties + 1)) ;;
    esac
  done
  read -r b1 b2 b3 < <(for ((i = 0; i < pairs; i++)); do value base "$i" "$m"; done | quartiles)
  read -r c1 c2 c3 < <(for ((i = 0; i < pairs; i++)); do value change "$i" "$m"; done | quartiles)
  verdict=$(awk -v b="$b2" -v c="$c2" -v q1="$b1" -v q3="$b3" -v w="$wins" -v n="$pairs" 'BEGIN {
    if (b == 0) { print ""; exit }
    d = 100 * (c - b) / b
    s = sprintf("median %+.1f%%", d)
    if (n >= 10 && 10 * w >= 9 * n && b - c > q3 - q1) s = s ", a gain by the section-8 rule"
    print s }')
  printf '%-20s %-34s %-34s %d of %d (%d ties)  %s\n' "$m" "$b1 / $b2 / $b3" "$c1 / $c2 / $c3" "$wins" "$pairs" "$ties" "$verdict"
  ratios=$(for ((i = 0; i < pairs; i++)); do
    awk -v b="$(value base "$i" "$m")" -v c="$(value change "$i" "$m")" 'BEGIN {if (b != 0) printf "%.9g\n", c / b}'
  done)
  r1=0 r2=0 r3=0
  if [ -n "$ratios" ]; then
    printf '%-20s %s\n' "" "$(ratio_interval <<<"$ratios")"
    read -r r1 r2 r3 < <(quartiles <<<"$ratios")
  fi
  bound=$(awk -v m="$m" '$1 == m {print $2}' <<<"$bounds")
  printf '%-20s %s\n' "" "$(awk -v b="$b2" -v c="$c2" -v q1="$r1" -v med="$r2" -v q3="$r3" -v bound="$bound" 'BEGIN {
    if (b == 0 || med == 0) { print (c <= 0 ? "within bound" : "PAST BOUND") " (base median 0)"; exit }
    spread = (q3 - q1) / med; worse = (c - b) / b
    s = sprintf("bound %g: median %+.2f%%, ratio spread %.2f%%", bound, 100 * worse, 100 * spread)
    if (spread > bound) print s ": unresolved"
    else if (worse > bound) print s ": PAST BOUND"
    else print s ": within bound" }')"
done
echo "outputs_digest matched in every pair: $digests_match"
[ "$digests_match" = yes ]
