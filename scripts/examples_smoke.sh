#!/usr/bin/env bash
# Run every example program: each examples/*/main.go must exit 0 and
# print something, inside a timeout (`go build ./...` only proves they
# compile). They read their scenario documents relative to the
# repository root, so this runs from there. CI runs it as the
# examples-smoke step; locally: make examples-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

N=0
for main in examples/*/main.go; do
    dir="./$(dirname "$main")"
    N=$((N + 1))
    echo "== go run $dir"
    out="$(timeout 120 go run "$dir")" || {
        echo "examples_smoke: FAIL: $dir exited non-zero (or ran past 120 s)" >&2
        exit 1
    }
    if [[ -z "$out" ]]; then
        echo "examples_smoke: FAIL: $dir printed nothing" >&2
        exit 1
    fi
    echo "$out" | head -3
done

if [[ $N -lt 1 ]]; then
    echo "examples_smoke: FAIL: no example programs found" >&2
    exit 1
fi

echo "examples_smoke: OK ($N examples)"
