#!/usr/bin/env bash
#===--- compare_runs.sh - Byte-compare the outputs of two syrust builds ---===#
#
# Usage: tools/compare_runs.sh OLD NEW
#
# Runs two syrust binaries over the same deterministic workload and
# compares what they write byte for byte:
#
#   * every synthesizable crate (`syrust list`, last column "yes") in
#     ten modes - default, --interleave, --lazy, --eager, --no-semantic,
#     --no-incremental, --bias-coverage, --mutate-inputs, --portfolio and
#     --strategy cegar (the two modes that record the solver's op log) -
#     at --budget 120 with --trace-out: the trace, and the printed report
#     minus its one wall-clock line, plus the exit code;
#   * the same crates in the default mode at --budget 120 with --json
#     and --metrics-out: the result document, each *_wall_seconds value
#     replaced by 0, and the metrics JSONL;
#   * `campaign --crates all --seeds 2021 --budget 60` over seven
#     variants: aggregate.json, every per-job document (wall fields
#     zeroed) and the --coverage-out document;
#   * `campaign --crates all --seeds 2021 --budget 60 --jobs 1` with
#     --checkpoint: the checkpoint file, wall fields zeroed (one worker,
#     since lines are written in completion order);
#   * `audit --crates all --seeds 2021` (audit.json), and the same audit
#     outside the defaults, `--apis 10 --max-lines 3 --strategy cegar`,
#     which checks how an audit passes its settings to the run set-up.
#
# Prints one line per differing cell or document, then a summary. Exits
# 0 when everything matches, 1 when something differs, 2 on bad usage.
#
# Environment: JOBS (default 4) is how many runs go at once and the
# --jobs of the campaign and the audit; KEEP=DIR writes the outputs to
# DIR (kept) instead of a temporary directory (removed on exit).
#
#===-----------------------------------------------------------------------===#

set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 OLD NEW (two executable syrust binaries)" >&2
  exit 2
fi

OLD=$(realpath "$1")
NEW=$(realpath "$2")
JOBS=${JOBS:-4}
# A mode is a flag name; NAME=VALUE passes --NAME VALUE.
MODES="none interleave lazy eager no-semantic no-incremental bias-coverage mutate-inputs portfolio strategy=cegar"
VARIANTS=base,interleave,lazy,eager,no-semantic,no-incremental,coverage-bias

if [ -n "${KEEP:-}" ]; then
  WORK=$KEEP
  mkdir -p "$WORK"
else
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
fi
mkdir -p "$WORK/old" "$WORK/new"

# run_cell BIN OUTDIR CRATE MODE
run_cell() {
  local Flag=()
  case "$4" in
    none) ;;
    *=*) Flag=("--${4%%=*}" "${4#*=}") ;;
    *) Flag=("--$4") ;;
  esac
  local Base="$2/$3.$4"
  "$1" run "$3" --budget 120 "${Flag[@]}" --trace-out "$Base.trace.json" \
    > "$Base.out" 2>&1
  echo "exit $?" >> "$Base.out"
  # The report's only host-dependent line.
  sed -i '/(wall)$/d' "$Base.out"
}
export -f run_cell

# zero_wall FILE...: replaces each *_wall_seconds value by 0 in place.
zero_wall() {
  sed -i -E 's/("[a-z_]+_wall_seconds":)[-+.0-9eE]+/\10/g' "$@"
}
export -f zero_wall

# run_json BIN OUTDIR CRATE: the result document minus host wall time,
# and the run's metrics JSONL.
run_json() {
  "$1" run "$3" --budget 120 --json --metrics-out "$2/$3.metrics.jsonl" \
    > "$2/$3.json"
  zero_wall "$2/$3.json"
}
export -f run_json

"$OLD" list > "$WORK/old/list.txt"
"$NEW" list > "$WORK/new/list.txt"
CRATES=$(awk 'NR > 2 && $NF == "yes" { print $1 }' "$WORK/old/list.txt")

echo "runs: $(echo "$CRATES" | wc -w) crates x ($(echo $MODES | wc -w) modes + --json), both binaries"
for Crate in $CRATES; do
  for Mode in $MODES; do
    echo "run_cell $OLD $WORK/old $Crate $Mode"
    echo "run_cell $NEW $WORK/new $Crate $Mode"
  done
  echo "run_json $OLD $WORK/old $Crate"
  echo "run_json $NEW $WORK/new $Crate"
done | xargs -P "$JOBS" -L 1 bash -c '"$@"' _

for Side in old new; do
  Bin=$OLD
  [ "$Side" = new ] && Bin=$NEW
  echo "campaign and audit: $Side"
  "$Bin" campaign --crates all --seeds 2021 --budget 60 \
    --variants "$VARIANTS" --jobs "$JOBS" --out "$WORK/$Side/campaign" \
    --coverage-out "$WORK/$Side/coverage.json" \
    > "$WORK/$Side/campaign.log" 2>&1
  zero_wall "$WORK/$Side"/campaign/job-*.json
  (cd "$WORK/$Side/campaign" && ls job-*.json) > "$WORK/$Side/jobs.txt"
  rm -f "$WORK/$Side/checkpoint.jsonl" # A kept one would be resumed.
  "$Bin" campaign --crates all --seeds 2021 --budget 60 --jobs 1 \
    --checkpoint "$WORK/$Side/checkpoint.jsonl" \
    > "$WORK/$Side/checkpoint.log" 2>&1
  zero_wall "$WORK/$Side/checkpoint.jsonl"
  "$Bin" audit --crates all --seeds 2021 --jobs "$JOBS" \
    --out "$WORK/$Side/audit" > "$WORK/$Side/audit.log" 2>&1
  "$Bin" audit --crates all --seeds 2021 --apis 10 --max-lines 3 \
    --strategy cegar --jobs "$JOBS" --out "$WORK/$Side/audit-settings" \
    > "$WORK/$Side/audit-settings.log" 2>&1
done

Differ=0
# same LABEL RELPATH: reports RELPATH when the two sides differ.
same() {
  if ! cmp -s "$WORK/old/$2" "$WORK/new/$2"; then
    echo "differs: $1"
    Differ=$((Differ + 1))
  fi
}
same "list" list.txt
for Crate in $CRATES; do
  for Mode in $MODES; do
    same "run $Crate $Mode (trace)" "$Crate.$Mode.trace.json"
    same "run $Crate $Mode (report)" "$Crate.$Mode.out"
  done
  same "run $Crate --json" "$Crate.json"
  same "run $Crate --metrics-out" "$Crate.metrics.jsonl"
done
same "campaign aggregate.json" campaign/aggregate.json
same "campaign per-job file names" jobs.txt
for Job in $(cat "$WORK/old/jobs.txt"); do
  same "campaign $Job" "campaign/$Job"
done
same "campaign --coverage-out" coverage.json
same "campaign --checkpoint" checkpoint.jsonl
same "audit audit.json" audit/audit.json
same "audit --apis 10 --max-lines 3 --strategy cegar" \
  audit-settings/audit.json

if [ "$Differ" -ne 0 ]; then
  echo "$Differ outputs differ${KEEP:+ (outputs kept in $KEEP)}"
  exit 1
fi
echo "all outputs identical"
exit 0
