#!/usr/bin/env bash
# Non-test Go lines outside bench/, in total and per package: the size
# figure ROADMAP.md tracks from PR to PR. Locally: make loc.
set -euo pipefail
cd "$(dirname "$0")/.."
# Only files that exist: a tracked file deleted but not yet committed
# is gone from the count, not an error.
files=$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$' | grep -v '^bench/' |
    while IFS= read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done)
echo "$files" | xargs wc -l | awk '$2 != "total" {
    n = split($2, parts, "/"); pkg = n > 1 ? substr($2, 1, length($2) - length(parts[n]) - 1) : "."
    lines[pkg] += $1; total += $1
} END { for (p in lines) printf "%7d %s\n", lines[p], p; printf "%7d total\n", total }' | sort -k2
