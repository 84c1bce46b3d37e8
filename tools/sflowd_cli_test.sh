#!/usr/bin/env bash
# CLI-contract test for sflowd (registered in ctest as sflowd_cli).
#
# Bad flags and out-of-range values must be usage errors — exit 2 with a
# one-line diagnostic, never an uncaught-exception backtrace and never a
# hang (every invocation runs under `timeout`).  A served round over a real
# socket must drain on SIGTERM: exit 0, print the serve summary and unlink
# the socket file.
set -u

SFLOWD="${1:?usage: sflowd_cli_test.sh <path-to-sflowd>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
SOCK="$TMP/sflowd.sock"

failures=0

# check <name> <expected-exit> <stderr-pattern> -- <args...>
check() {
  local name="$1" expected="$2" pattern="$3"
  shift 3
  [ "$1" = "--" ] && shift
  timeout 10 "$SFLOWD" "$@" >"$TMP/out" 2>"$TMP/err"
  local status=$?
  if [ "$status" -ne "$expected" ]; then
    echo "FAIL $name: exit $status, expected $expected" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    failures=$((failures + 1))
    return
  fi
  if [ -n "$pattern" ] && ! grep -q -- "$pattern" "$TMP/err"; then
    echo "FAIL $name: stderr does not match '$pattern'" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    failures=$((failures + 1))
    return
  fi
  if grep -q "terminate called" "$TMP/err"; then
    echo "FAIL $name: uncaught-exception backtrace on stderr" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   $name"
}

# Counts must be whole, in-range integers.  A negative --network-size used to
# wrap to ~2^64 nodes and spin in the topology generator.
check negative-network-size 2 "must be at least 1" -- \
  --socket "$SOCK" --network-size -3 --seed 1
check partial-network-size 2 "bad integer" -- \
  --socket "$SOCK" --network-size 12abc --seed 1
check zero-services 2 "must be at least 1" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --services 0
check negative-instances 2 "must be at least 1" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --instances-per-service -1
check negative-queue-depth 2 "must be at least 1" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --max-queue-depth -1
check zero-queue-depth 2 "must be at least 1" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --max-queue-depth 0
check partial-seed 2 "bad integer" -- \
  --socket "$SOCK" --network-size 12 --seed 1x
check negative-floor 2 "bad --floor" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --floor -1
check nan-floor 2 "bad --floor" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --floor nan
check partial-floor 2 "bad --floor" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --floor 0.5mbps

check unknown-algorithm 2 "unknown algorithm" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --algorithm bogus
check missing-socket 2 "--socket is required" -- --network-size 12 --seed 1
check missing-value 2 "missing value" -- --socket

# Removed modes and knobs are unknown flags, not silently ignored.
check removed-smoke 2 "unknown flag --smoke" -- --smoke
check removed-presolve-threads 2 "unknown flag --presolve-threads" -- \
  --socket "$SOCK" --network-size 12 --seed 1 --presolve-threads 2

# A serve round: listen, drain on SIGTERM, exit 0, unlink the socket.
timeout 20 "$SFLOWD" --socket "$SOCK" --network-size 12 --seed 7 \
  >"$TMP/serve.out" 2>"$TMP/serve.err" &
pid=$!
for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "FAIL serve: no socket at $SOCK after 10 s" >&2
  failures=$((failures + 1))
fi
kill -TERM "$pid"
wait "$pid"
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL serve: exit $status after SIGTERM, expected 0" >&2
  sed 's/^/  stderr: /' "$TMP/serve.err" >&2
  failures=$((failures + 1))
elif ! grep -q "sflowd: served 0 requests" "$TMP/serve.out"; then
  echo "FAIL serve: no serve summary on stdout" >&2
  sed 's/^/  stdout: /' "$TMP/serve.out" >&2
  failures=$((failures + 1))
elif [ -e "$SOCK" ]; then
  echo "FAIL serve: socket file left behind" >&2
  failures=$((failures + 1))
else
  echo "ok   serve"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures sflowd CLI check(s) failed" >&2
  exit 1
fi
echo "all sflowd CLI checks passed"
