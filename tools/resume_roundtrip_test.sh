#!/usr/bin/env bash
# End-to-end crash-safety and multi-host test for svrsim_sweep:
#
#   1. clean run            -> reference artifact (JSON and CSV), no
#                              journal left behind
#   2. SVRSIM_FAULT=kill@.. -> process SIGKILLs itself mid-sweep, leaving
#                              a journal and NO final artifact
#   3. --resume (no fault)  -> restores journaled cells, finishes the
#                              rest, artifact byte-identical to the
#                              clean run, journal cleaned up
#   4. SVRSIM_FAULT=throw@.. --keep-going -> exit 3 with a structured
#                              failure row in the artifact
#   5. same fault, fail-fast -> exit 1, no artifact
#   6. kill + --resume under --journal-fsync -> byte-identical
#   7. --shard 0/2 and 1/2, merged with --shards -> byte-identical JSON
#      and CSV, with every cell restored rather than simulated
#   8. a kill@-killed, --resume'd shard merged with the other shard
#                           -> byte-identical
#   9. a merge given only one shard simulates the rest -> byte-identical
#  10. a shard from a different sweep (--window) -> exit 1, ConfigInvalid,
#                              no artifact
#  11. malformed numeric flags -> exit 1 with an "error:" line
#
# Usage: resume_roundtrip_test.sh <svrsim_sweep-binary> <scratch-dir>
set -eu

SWEEP=$1
DIR=$2
BASE="--suite quick --configs ino,svr16 --window 10000"
ARGS="$BASE --json"

fail() { echo "FAIL: $*" >&2; exit 1; }

# merge_check NAME SHARDS: merge the comma-separated shard journals
# into NAME.json and NAME.csv and cmp both against the serial run.
merge_check() {
    "$SWEEP" $ARGS --shards "$2" --out "$DIR/$1.json" 2> "$DIR/$1.log" ||
        fail "$1: JSON merge failed (see $DIR/$1.log)"
    "$SWEEP" $BASE --shards "$2" --out "$DIR/$1.csv" 2>> "$DIR/$1.log" ||
        fail "$1: CSV merge failed (see $DIR/$1.log)"
    cmp "$DIR/clean.json" "$DIR/$1.json" ||
        fail "$1: merged JSON differs from the serial run"
    cmp "$DIR/clean.csv" "$DIR/$1.csv" ||
        fail "$1: merged CSV differs from the serial run"
}

rm -rf "$DIR"
mkdir -p "$DIR"

echo "== step 1: uninterrupted reference run"
"$SWEEP" $ARGS --out "$DIR/clean.json" 2> /dev/null
[ -f "$DIR/clean.json" ] || fail "clean run wrote no artifact"
[ ! -f "$DIR/clean.json.journal" ] || fail "clean run left its journal"
"$SWEEP" $BASE --out "$DIR/clean.csv" 2> /dev/null
CELLS=$(($(wc -l < "$DIR/clean.csv") - 1))

echo "== step 2: injected SIGKILL mid-sweep"
rc=0
SVRSIM_FAULT='kill@CC_TW/SVR16' \
    "$SWEEP" $ARGS --out "$DIR/crash.json" 2> /dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "killed run exited 0"
[ ! -f "$DIR/crash.json" ] || fail "killed run wrote a final artifact"
[ -f "$DIR/crash.json.journal" ] || fail "killed run left no journal"

echo "== step 3: --resume completes and matches byte for byte"
"$SWEEP" $ARGS --out "$DIR/crash.json" --resume 2> "$DIR/resume.log"
grep -q "resume:" "$DIR/resume.log" || fail "resume did not load the journal"
cmp "$DIR/clean.json" "$DIR/crash.json" ||
    fail "resumed artifact differs from the uninterrupted run"
[ ! -f "$DIR/crash.json.journal" ] || fail "resume left its journal behind"

echo "== step 3b: --resume from a journal truncated mid-record"
rc=0
SVRSIM_FAULT='kill@CC_TW/SVR16' \
    "$SWEEP" $ARGS --out "$DIR/trunc.json" 2> /dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "killed run exited 0"
SIZE=$(wc -c < "$DIR/trunc.json.journal")
[ "$SIZE" -gt 40 ] || fail "journal too small to truncate"
# Cut the final record mid-write (no trailing newline survives).
truncate -s $((SIZE - 40)) "$DIR/trunc.json.journal"
"$SWEEP" $ARGS --out "$DIR/trunc.json" --resume 2> "$DIR/trunc.log"
grep -q "torn" "$DIR/trunc.log" ||
    fail "resume did not report the torn final record"
cmp "$DIR/clean.json" "$DIR/trunc.json" ||
    fail "truncated-journal resume differs from the uninterrupted run"

echo "== step 4: keep-going records the failure and exits 3"
rc=0
SVRSIM_FAULT='throw@CC_TW/SVR16' \
    "$SWEEP" $ARGS --out "$DIR/kg.json" --keep-going 2> /dev/null || rc=$?
[ "$rc" -eq 3 ] || fail "keep-going run exited $rc, expected 3"
grep -q '"status": "failed"' "$DIR/kg.json" ||
    fail "keep-going artifact has no failure record"
grep -q 'InternalInvariant' "$DIR/kg.json" ||
    fail "failure record lost its error code"

echo "== step 5: fail-fast aborts with exit 1 and no artifact"
rc=0
SVRSIM_FAULT='throw@CC_TW/SVR16' \
    "$SWEEP" $ARGS --out "$DIR/ff.json" 2> /dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "fail-fast run exited $rc, expected 1"
[ ! -f "$DIR/ff.json" ] || fail "fail-fast run wrote an artifact"

echo "== step 6: kill + --resume under --journal-fsync"
rc=0
SVRSIM_FAULT='kill@CC_TW/SVR16' "$SWEEP" $ARGS --journal-fsync \
    --out "$DIR/fsync.json" 2> /dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "killed fsync run exited 0"
[ -f "$DIR/fsync.json.journal" ] || fail "killed fsync run left no journal"
"$SWEEP" $ARGS --journal-fsync --out "$DIR/fsync.json" --resume \
    2> /dev/null
cmp "$DIR/clean.json" "$DIR/fsync.json" ||
    fail "--journal-fsync resume differs from the uninterrupted run"

echo "== step 7: two shards merge to the serial artifact"
for i in 0 1; do
    "$SWEEP" $ARGS --shard $i/2 --keep-journal --out "$DIR/s$i.json" \
        2> "$DIR/s$i.log"
    grep -q "shard $i/2: 4 of 8 workload(s)" "$DIR/s$i.log" ||
        fail "shard $i/2 did not take half of the suite"
done
cmp -s "$DIR/s0.json" "$DIR/clean.json" && fail "shard 0/2 ran every cell"
merge_check merged "$DIR/s0.json.journal,$DIR/s1.json.journal"
grep -q "shards: $CELLS cell(s) restored" "$DIR/merged.log" ||
    fail "the two-shard merge simulated cells itself"

echo "== step 8: a killed and resumed shard merges identically"
rc=0
SVRSIM_FAULT='kill@HJ8/SVR16' "$SWEEP" $ARGS --shard 1/2 --keep-journal \
    --out "$DIR/k1.json" 2> /dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "killed shard exited 0"
[ ! -f "$DIR/k1.json" ] || fail "killed shard wrote a final artifact"
"$SWEEP" $ARGS --shard 1/2 --keep-journal --out "$DIR/k1.json" --resume \
    2> /dev/null
merge_check killmerge "$DIR/s0.json.journal,$DIR/k1.json.journal"

echo "== step 9: a merge missing a shard simulates the rest"
merge_check partial "$DIR/s0.json.journal"
grep -q "shards: $((CELLS / 2)) cell(s) restored" "$DIR/partial.log" ||
    fail "the one-shard merge did not restore shard 0's cells"

echo "== step 10: a shard from another sweep is rejected"
"$SWEEP" --suite quick --configs ino,svr16 --window 20000 --json \
    --shard 0/2 --keep-journal --out "$DIR/w.json" 2> /dev/null
rc=0
"$SWEEP" $ARGS --shards "$DIR/w.json.journal" --out "$DIR/bad.json" \
    2> "$DIR/bad.log" || rc=$?
[ "$rc" -eq 1 ] || fail "foreign-shard merge exited $rc, expected 1"
grep -q "^error: ConfigInvalid" "$DIR/bad.log" ||
    fail "foreign-shard merge did not report ConfigInvalid"
[ ! -f "$DIR/bad.json" ] || fail "foreign-shard merge wrote an artifact"
[ ! -f "$DIR/bad.json.journal" ] || fail "foreign-shard merge wrote a journal"

echo "== step 11: malformed numeric flags exit 1 with an error line"
for flag in "--jobs abc" "--window -5" "--shard 2/2" "--shard 1"; do
    rc=0
    "$SWEEP" $ARGS $flag > /dev/null 2> "$DIR/flag.log" || rc=$?
    [ "$rc" -eq 1 ] || fail "'$flag' exited $rc, expected 1"
    grep -q "^error: ConfigInvalid: ${flag%% *}" "$DIR/flag.log" ||
        fail "'$flag' printed no structured error line"
done

rm -rf "$DIR"
echo "PASS: resume and shard round trips are byte-identical"
