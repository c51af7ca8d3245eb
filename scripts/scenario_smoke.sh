#!/usr/bin/env bash
# Validate every shipped scenario document: each file in
# examples/scenarios/ must parse, validate, and compile
# (quartzsim -scenario FILE -dry-run). CI runs this as the
# scenario-smoke step; locally: make scenario-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)/quartzsim"

echo "== build"
go build -o "$BIN" ./cmd/quartzsim

N=0
for f in examples/scenarios/*.json; do
    [[ -e "$f" ]] || continue
    N=$((N + 1))
    echo "== $f"
    "$BIN" -scenario "$f" -dry-run || {
        echo "scenario_smoke: FAIL: $f did not validate" >&2
        exit 1
    }
done

if [[ $N -lt 4 ]]; then
    echo "scenario_smoke: FAIL: only $N example scenarios found, want at least 4" >&2
    exit 1
fi

echo "scenario_smoke: OK ($N scenarios)"
