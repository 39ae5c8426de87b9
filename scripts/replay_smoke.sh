#!/bin/sh
# replay_smoke.sh — the ci guard for the serving-path observability
# surface: boot calibrod with logging, a tight body bound, and a deep
# queue; replay a fixed-seed calibroload workload; and assert the exact
# served/rejected split the seed dictates. The queue is deep enough that
# no submit can hit a timing-dependent 429, so every rejection comes from
# the seeded oversized (hostile) submits and the counts are
# deterministic. Also checks the prom exposition, a per-job trace, and
# that the JSON log captured the traffic.
set -eu

GO="${GO:-go}"
DIR="$(mktemp -d)"
LOG="$DIR/calibrod.log"
JLOG="$DIR/events.log"
PID=""

# The fixed plan: seed 1, 40 submits, 10% hostile. buildPlan is a pure
# function of the seed, so these are constants of the binary, not of the
# host: 38 jobs served, 2 oversized submits bounced with 413.
SEED=1
N=40
WANT_SERVED=38
WANT_413=2

cleanup() {
	status=$?
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill "$PID" 2>/dev/null || true
		wait "$PID" 2>/dev/null || true
	fi
	if [ "$status" -ne 0 ]; then
		echo "replay-smoke: FAILED; daemon log:" >&2
		cat "$LOG" >&2 || true
	fi
	rm -rf "$DIR"
	exit "$status"
}
trap cleanup EXIT INT TERM

echo "replay-smoke: building binaries"
$GO build -o "$DIR/calibrod" ./cmd/calibrod
$GO build -o "$DIR/calibroctl" ./cmd/calibroctl
$GO build -o "$DIR/calibroload" ./cmd/calibroload

"$DIR/calibrod" -addr 127.0.0.1:0 -scale 0.05 -queue 64 -jobs 2 \
	-max-body 65536 -log "$JLOG" >"$LOG" 2>&1 &
PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's/^calibrod: listening on //p' "$LOG")"
	[ -n "$ADDR" ] && break
	kill -0 "$PID" 2>/dev/null || { echo "replay-smoke: calibrod died at startup" >&2; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "replay-smoke: calibrod never announced its address" >&2; exit 1; }
echo "replay-smoke: daemon at $ADDR"

"$DIR/calibroload" -addr "$ADDR" -seed "$SEED" -n "$N" -rate 40 >"$DIR/replay.out"
cat "$DIR/replay.out"

COUNTS="$(sed -n 's/^calibroload: \(served=.*\)$/\1/p' "$DIR/replay.out")"
case "$COUNTS" in
*"served=$WANT_SERVED "*) ;;
*) echo "replay-smoke: served count drifted (want served=$WANT_SERVED): $COUNTS" >&2; exit 1 ;;
esac
case "$COUNTS" in
*"413=$WANT_413 "*) ;;
*) echo "replay-smoke: 413 count drifted (want 413=$WANT_413): $COUNTS" >&2; exit 1 ;;
esac
case "$COUNTS" in
*"errors=0"*) ;;
*) echo "replay-smoke: transport errors: $COUNTS" >&2; exit 1 ;;
esac

CTL="$DIR/calibroctl -addr $ADDR"

# Prometheus exposition: declared families, the right totals.
$CTL metrics -prom >"$DIR/metrics.prom"
grep -q "^calibrod_jobs_total{state=\"done\"} $WANT_SERVED\$" "$DIR/metrics.prom" \
	|| { echo "replay-smoke: prom done total wrong" >&2; cat "$DIR/metrics.prom" >&2; exit 1; }
grep -q "^calibrod_submits_invalid_total $WANT_413\$" "$DIR/metrics.prom" \
	|| { echo "replay-smoke: prom invalid total wrong" >&2; exit 1; }
grep -q '^calibrod_job_duration_seconds_bucket' "$DIR/metrics.prom" \
	|| { echo "replay-smoke: prom missing latency histogram" >&2; exit 1; }

# Per-job trace: submit one more job and fetch its lifecycle and build spans.
ID="$($CTL submit -app Taobao -config ltbo)"
$CTL wait "$ID" >/dev/null
$CTL trace "$ID" >"$DIR/trace.json"
grep -q '"queued"' "$DIR/trace.json" || { echo "replay-smoke: trace missing queued span" >&2; exit 1; }
grep -q '"done"' "$DIR/trace.json" || { echo "replay-smoke: trace missing terminal event" >&2; exit 1; }
grep -q '"cat":"stage"' "$DIR/trace.json" || { echo "replay-smoke: trace missing build stage spans" >&2; exit 1; }

# The JSON log saw the traffic.
grep -q '"event":"job_finish"' "$JLOG" || { echo "replay-smoke: log missing job_finish events" >&2; exit 1; }
grep -q '"event":"http_access"' "$JLOG" || { echo "replay-smoke: log missing http_access events" >&2; exit 1; }

echo "replay-smoke: stopping daemon"
kill -TERM "$PID"
wait "$PID" || { echo "replay-smoke: calibrod exited non-zero" >&2; exit 1; }
PID=""

echo "replay-smoke: OK"
