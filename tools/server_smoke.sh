#!/usr/bin/env bash
# server_smoke.sh — end-to-end parity sweep for crsatd (DESIGN.md §15).
#
# Starts the daemon on a unix socket, drives 200+ mixed requests through
# `crsat_cli client`, and diffs every response (stdout bytes AND exit
# code) against the one-shot CLI run on the same schema. Two passes:
#
#   clean  — every response must be byte-identical. No exceptions.
#   chaos  — the daemon runs under a deterministic server-seam failpoint
#            schedule (accept skip, 1-byte reads, a forced admission
#            shed). Responses must still be byte-identical OR degrade to
#            the resource family (exit 3, PR 8 ladder rung 3: an honest
#            UNKNOWN, never a different answer).
#
# Ends with a graceful drain via the shutdown request; the daemon
# process must exit 0. CI runs this under ASan+UBSan (server-smoke job).
#
# Usage: tools/server_smoke.sh <crsat_cli> [<schema-dir>]
set -u

CLI=${1:?usage: server_smoke.sh <crsat_cli> [<schema-dir>]}
SCHEMA_DIR=${2:-examples/schemas}
ROUNDS=${ROUNDS:-6}

WORK=$(mktemp -d)
SOCK="$WORK/crsatd.sock"
trap 'kill $DAEMON_PID 2>/dev/null; rm -rf "$WORK"' EXIT

FAILURES=0
REQUESTS=0
DEGRADED=0

start_daemon() {
  "$CLI" serve --unix-socket "$SOCK" >"$WORK/daemon.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "FATAL: daemon did not come up" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}

stop_daemon() {
  "$CLI" client --unix-socket "$SOCK" shutdown >/dev/null 2>&1
  wait "$DAEMON_PID"
  local code=$?
  if [ $code -ne 0 ]; then
    echo "FAIL: daemon exited $code after graceful drain" >&2
    cat "$WORK/daemon.log" >&2
    FAILURES=$((FAILURES + 1))
  fi
  rm -f "$SOCK"
}

# The request mix; `client_args|oneshot_args` per entry.
mix_for() {
  local schema=$1
  echo "check $schema|check $schema"
  echo "lint $schema|lint $schema"
  echo "lint $schema --json|lint $schema --json"
  echo "witness $schema text|check $schema --witness=text"
  echo "witness $schema dot|check $schema --witness=dot"
  # implies needs names from the schema: the paper's Figure 7 inferences
  # on meeting.cr (and one unknown class, a bad request on both paths),
  # plus an ISA chain and a tight bound on university.cr.
  local implies=()
  case $(basename "$schema") in
    meeting.cr)
      implies=("isa Speaker Discussant" "card Discussant Holds U1"
               "isa Nope Speaker") ;;
    university.cr)
      implies=("isa PhDStudent Person" "card Professor Teaches teacher") ;;
  esac
  for query in "${implies[@]}"; do
    echo "implies $schema $query|implies $schema $query"
  done
}

# Reference pass: record the one-shot CLI's stdout + exit per mix entry,
# with no failpoints active.
declare -A EXPECT_OUT EXPECT_CODE
record_expectations() {
  local i=0
  for schema in "$SCHEMA_DIR"/*.cr; do
    while IFS='|' read -r _ oneshot; do
      env -u CRSAT_FAILPOINTS "$CLI" $oneshot >"$WORK/expect_$i.out" 2>/dev/null
      EXPECT_CODE["$oneshot"]=$?
      EXPECT_OUT["$oneshot"]="$WORK/expect_$i.out"
      i=$((i + 1))
    done < <(mix_for "$schema")
  done
}

# One sweep of ROUNDS x schemas x mix through the client. $1 names the
# pass; in pass "chaos" a client exit of 3 is an accepted degradation.
run_pass() {
  local pass=$1
  for _ in $(seq 1 "$ROUNDS"); do
    for schema in "$SCHEMA_DIR"/*.cr; do
      while IFS='|' read -r clientcmd oneshot; do
        env -u CRSAT_FAILPOINTS "$CLI" client --unix-socket "$SOCK" \
          $clientcmd >"$WORK/got.out" 2>/dev/null
        local code=$?
        REQUESTS=$((REQUESTS + 1))
        if [ "$pass" = chaos ] && [ $code -eq 3 ] &&
           [ "${EXPECT_CODE[$oneshot]}" -ne 3 ]; then
          DEGRADED=$((DEGRADED + 1))
          continue
        fi
        if [ $code -ne "${EXPECT_CODE[$oneshot]}" ]; then
          echo "FAIL($pass): '$clientcmd' exit $code," \
               "one-shot '$oneshot' exit ${EXPECT_CODE[$oneshot]}" >&2
          FAILURES=$((FAILURES + 1))
        elif ! cmp -s "$WORK/got.out" "${EXPECT_OUT[$oneshot]}"; then
          echo "FAIL($pass): '$clientcmd' stdout differs from" \
               "one-shot '$oneshot':" >&2
          diff "${EXPECT_OUT[$oneshot]}" "$WORK/got.out" | head -10 >&2
          FAILURES=$((FAILURES + 1))
        fi
      done < <(mix_for "$schema")
    done
  done
}

record_expectations

echo "== clean pass =="
start_daemon
run_pass clean
CLEAN_REQUESTS=$REQUESTS
stop_daemon

echo "== chaos pass (server-seam failpoint schedule) =="
export CRSAT_FAILPOINTS="server/short-read=every:3,server/accept=nth:4,server/queue-full=nth:6"
start_daemon
unset CRSAT_FAILPOINTS
run_pass chaos
stop_daemon

echo
echo "requests: $REQUESTS (clean: $CLEAN_REQUESTS), degraded-to-resource:" \
     "$DEGRADED, failures: $FAILURES"
if [ "$CLEAN_REQUESTS" -lt 200 ]; then
  echo "FAIL: clean pass drove only $CLEAN_REQUESTS requests (< 200)" >&2
  exit 1
fi
if [ "$FAILURES" -ne 0 ]; then
  exit 1
fi
echo "all responses byte-identical to the one-shot CLI" \
     "(chaos degradations: $DEGRADED, all resource-status)"
