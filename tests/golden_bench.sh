#!/bin/sh
# Byte-identity gate: reruns a bench with fixed flags and compares its
# bench JSON (options, summary and tables; no timings) byte for byte
# against a checked-in golden copy from bench/baselines/golden/.
# LAGOVER_AUDIT builds add a summary key "audit_violations"; it must be
# 0 and is dropped before the comparison, so one golden serves both.
#
# Usage: golden_bench.sh BENCH_BINARY GOLDEN_JSON [bench flags...]
set -eu
bench=$1
golden=$2
shift 2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$bench" "$@" --bench-json "$out" > /dev/null
sed -z -i 's/,\n *"audit_violations": 0\n/\n/' "$out"
if ! cmp "$golden" "$out"; then
  diff -u "$golden" "$out" || true
  exit 1
fi
