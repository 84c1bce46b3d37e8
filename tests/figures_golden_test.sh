#!/usr/bin/env bash
# Pins the reproduction's tables (registered in ctest as figures_golden).
#
# Runs each figure bench (Fig. 10(a)/(c)/(d), and E5, E13/E14 and E15's
# quality tables) with --threads 4 and diffs its stdout against the
# committed file of the same name under the golden directory.  The benches
# print only the series tables and their "Expected shape:" lines (no
# timings), and their output is identical at every thread count, so any
# difference means a reproduced number moved.  To re-pin after an intended
# change, rerun the bench and commit its stdout as the new golden file.
#
#   $ tests/figures_golden_test.sh <bench-bin-dir> <golden-dir>
set -u

BIN="${1:?usage: figures_golden_test.sh <bench-bin-dir> <golden-dir>}"
GOLDEN="${2:?usage: figures_golden_test.sh <bench-bin-dir> <golden-dir>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failures=0
for bench in fig10a_correctness fig10c_latency fig10d_bandwidth \
             ablation_knowledge related_work_compare contention_compare; do
  if ! timeout 120 "$BIN/$bench" --threads 4 >"$TMP/$bench.txt" \
       2>"$TMP/$bench.err"; then
    echo "FAIL $bench: nonzero exit" >&2
    sed 's/^/  stderr: /' "$TMP/$bench.err" >&2
    failures=$((failures + 1))
  elif ! diff -u "$GOLDEN/$bench.txt" "$TMP/$bench.txt" >&2; then
    echo "FAIL $bench: stdout differs from $GOLDEN/$bench.txt" >&2
    failures=$((failures + 1))
  else
    echo "ok   $bench"
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures figure table(s) moved" >&2
  exit 1
fi
echo "all figure tables match their golden files"
