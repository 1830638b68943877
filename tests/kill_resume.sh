#!/usr/bin/env bash
# Resume after a kill: a sweep SIGKILLed midway and rerun against the same
# artifact store must compute exactly what an uninterrupted, store-less
# run computes, and so must a second, fully warm rerun.  "Exactly" is
# checked twice: stdout byte for byte, and the sweep.ratios_digest
# counter, a digest of every IPC ratio's bits (stdout rounds them).
#
# Usage: kill_resume.sh <fig1_improvement_geomean> <scratch-dir>
#
# The scratch directory is wiped first and removed on success.  Registered
# with ctest under the label "resume" (ctest -L resume).
set -euo pipefail

bin=$1
work=$2
store=$work/store
# st- artifacts that must land before the kill: about a tenth of the
# 270 cells this scale sweeps, so the kill lands well before the end.
kill_after=30

rm -rf "$work"
mkdir -p "$work"

# Only the knobs set here may shape the run.
unset TRB_STORE TRB_FAULT TRB_FAULT_SEED TRB_RETRIES TRB_LINT \
    TRB_FAILURE_REPORT TRB_OBS_JSON TRB_OBS_CSV TRB_OBS_SPANS \
    TRB_OBS_SAMPLE_MS TRB_PIPE_JSON
export TRB_SUITE_SCALE=0.2 TRB_TRACE_LEN=5000 TRB_JOBS=1 \
    TRB_OBS_BENCH_DIR=off TRB_LOG=warn

stats_artifacts() {
    find "$store" -maxdepth 1 -name 'st-*.trb' 2> /dev/null | wc -l
}

# Run the sweep as <name>: stdout to <name>.txt, metrics to <name>.json.
sweep() {
    TRB_OBS_JSON=$work/$1.json "$bin" > "$work/$1.txt" 2> /dev/null
}

# The run <name> must match the reference, in print and in bits.
same_as_reference() {
    diff "$work/reference.txt" "$work/$1.txt"
    local want got
    want=$(grep -o '"sweep.ratios_digest": [0-9]*' "$work/reference.json")
    got=$(grep -o '"sweep.ratios_digest": [0-9]*' "$work/$1.json")
    if [ -z "$want" ] || [ "$want" != "$got" ]; then
        echo "FAIL: $1 ratios differ: '$got', want '$want'" >&2
        exit 1
    fi
}

sweep reference

TRB_STORE=$store "$bin" > /dev/null 2>&1 &
pid=$!
while kill -0 "$pid" 2> /dev/null &&
    [ "$(stats_artifacts)" -lt "$kill_after" ]; do
    sleep 0.01
done
kill -KILL "$pid" 2> /dev/null || true
rc=0
wait "$pid" 2> /dev/null || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "FAIL: the sweep exited $rc before the kill (want 137)" >&2
    exit 1
fi
echo "killed after $(stats_artifacts) stats artifacts"

TRB_STORE=$store sweep resumed
same_as_reference resumed

TRB_STORE=$store sweep warm
same_as_reference warm
if grep -q '"store.misses": [1-9]' "$work/warm.json"; then
    echo "FAIL: the warm rerun missed the store" >&2
    exit 1
fi

echo "resumed and warm reruns match the store-less reference"
rm -rf "$work"
