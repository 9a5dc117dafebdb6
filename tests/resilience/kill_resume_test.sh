#!/bin/sh
# Kill/resume durability (DESIGN.md §8): stop an exhaustive sweep
# mid-wave, resume it from the --progress journal, and byte-compare the
# resumed report with an uninterrupted run. The interrupt and resume may
# run at DIFFERENT --explore-jobs values — the journal pins the
# exploration identity, not the worker count.
#
# Two ways to stop the first run:
#   signal    (default) SIGTERM after a short sleep
#   deadline  --deadline-s=1, the graceful stop from inside the CLI
#
# Timing-robust by construction: the determinism contract makes the
# resumed output identical no matter where the stop lands — before the
# handler is installed (the process dies, the journal is empty or
# header-only), mid-wave (the common case), or after completion (the
# resume is a pure re-reduction). The sleep below only tunes WHICH of
# those we usually exercise.
#
# Usage: kill_resume_test.sh <tocttou-cli> <scratch-dir>
#            [<interrupt-jobs> <resume-jobs> [signal|deadline]]
# Defaults: interrupt at 2 jobs, resume at 1, stop by signal.
set -u

CLI="$1"
WORK="$2"
STOP_JOBS="${3:-2}"
RESUME_JOBS="${4:-1}"
MODE="${5:-signal}"
ARGS="--testbed=up --victim=vi --explore=exhaustive --explore-buckets=64 \
      --explore-bound=3 --seed=7"

mkdir -p "$WORK" || exit 1
JOURNAL="$WORK/sweep.journal"
rm -f "$JOURNAL"

"$CLI" $ARGS --explore-jobs=2 > "$WORK/expected.txt" || {
  echo "FAIL: uninterrupted baseline run failed"
  exit 1
}

case "$MODE" in
  signal)
    "$CLI" $ARGS --explore-jobs="$STOP_JOBS" --progress="$JOURNAL" \
      > "$WORK/interrupted.txt" 2> "$WORK/interrupted.err" &
    pid=$!
    sleep 0.5
    kill -TERM "$pid" 2> /dev/null
    wait "$pid"
    first_rc=$?
    # 4 = graceful interrupt (the case under test), 0 = the sweep beat
    # the signal, 143 = SIGTERM landed before the handler was installed.
    # All three must resume to the same bytes.
    ok_codes="0 4 143"
    ;;
  deadline)
    "$CLI" $ARGS --explore-jobs="$STOP_JOBS" --deadline-s=1 \
      --progress="$JOURNAL" \
      > "$WORK/interrupted.txt" 2> "$WORK/interrupted.err"
    first_rc=$?
    # 4 = the deadline stopped the sweep, 0 = the sweep beat it.
    ok_codes="0 4"
    ;;
  *)
    echo "FAIL: unknown stop mode '$MODE' (expected signal or deadline)"
    exit 1
    ;;
esac

case " $ok_codes " in
  *" $first_rc "*) ;;
  *)
    echo "FAIL: interrupted run exited $first_rc"
    cat "$WORK/interrupted.err"
    exit 1
    ;;
esac

"$CLI" $ARGS --explore-jobs="$RESUME_JOBS" --resume="$JOURNAL" \
  > "$WORK/resumed.txt" 2> "$WORK/resumed.err" || {
  echo "FAIL: resumed run failed"
  cat "$WORK/resumed.err"
  exit 1
}

if ! cmp -s "$WORK/expected.txt" "$WORK/resumed.txt"; then
  echo "FAIL: resumed output differs from the uninterrupted run"
  diff "$WORK/expected.txt" "$WORK/resumed.txt" | head -20
  exit 1
fi

echo "OK: $MODE stop at jobs=$STOP_JOBS, resume at jobs=$RESUME_JOBS" \
  "byte-identical (interrupted run exited $first_rc)"
