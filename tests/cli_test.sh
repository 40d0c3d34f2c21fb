#!/usr/bin/env bash
# End-to-end test of the automap_cli workflow (§3.3): export, describe,
# search (with profiles persistence), evaluate, visualize, codegen.
# Usage: cli_test.sh <path-to-automap_cli>
set -euo pipefail

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" export-machine shepard 2 "$DIR/m.machine" > /dev/null
"$CLI" export-app circuit 2 1 "$DIR/g.graph" > /dev/null
test -s "$DIR/m.machine"
test -s "$DIR/g.graph"

"$CLI" describe "$DIR/m.machine" "$DIR/g.graph" | grep -q "task graph"

"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --profiles "$DIR/db.txt" -o "$DIR/best.mapping" | grep -q "AM-CCD"
test -s "$DIR/best.mapping"
test -s "$DIR/db.txt"

# Resumed search must report a seeded database.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --profiles "$DIR/db.txt" | grep -q "seeded profiles database"

# The alternative algorithms run through the same entry point.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --algorithm heft \
      --repeats 2 | grep -q "HEFT-static"

# Unknown algorithms fail cleanly with the registry's name list.
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --algorithm nosuch \
      > /dev/null 2>&1; then
  echo "expected nonzero exit for unknown algorithm" >&2
  exit 1
fi

# Parallel evaluation must not change the result: the search summary line
# (best time, suggested/evaluated counts, search time) is byte-identical
# across thread counts.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --threads 1 | grep "best mapping" > "$DIR/serial.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --threads 4 | grep "best mapping" > "$DIR/parallel.txt"
cmp "$DIR/serial.txt" "$DIR/parallel.txt"

# The canonical options codec round-trips through the CLI: --dump-options
# emits schema-versioned JSON that, fed back via --options, reproduces
# the byte-identical summary line.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --dump-options > "$DIR/options.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
      assert d['schema'] == 1 and d['rotations'] == 2" "$DIR/options.json"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --options "$DIR/options.json" \
      | grep "best mapping" > "$DIR/fromjson.txt"
cmp "$DIR/serial.txt" "$DIR/fromjson.txt"

# A corrupted options file fails loudly (strict parse: unknown keys are
# errors), not by silently falling back to defaults.
sed 's/"rotations"/"rotation_count"/' "$DIR/options.json" > "$DIR/bad-options.json"
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
      --options "$DIR/bad-options.json" > /dev/null 2> "$DIR/badopt.txt"; then
  echo "expected nonzero exit for unknown options key" >&2
  exit 1
fi
grep -q "error" "$DIR/badopt.txt"

"$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --repeats 5 | grep -q "speedup"

# Observability flags: telemetry counters, profile digest, Chrome trace.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --telemetry --profile --trace-json "$DIR/search.trace.json" \
      > "$DIR/telemetry.txt"
grep -q "hit rate" "$DIR/telemetry.txt"
grep -q "rotation" "$DIR/telemetry.txt"
grep -q "critical path" "$DIR/telemetry.txt"
grep -q "traceEvents" "$DIR/search.trace.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$DIR/search.trace.json"
"$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --profile | grep -q "utilization"

"$CLI" visualize "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --dot "$DIR/map.dot" --trace "$DIR/trace.json" | grep -q "legend"
grep -q "digraph mapping" "$DIR/map.dot"
grep -q "traceEvents" "$DIR/trace.json"

"$CLI" codegen "$DIR/g.graph" "$DIR/best.mapping" TunedMapper \
      "$DIR/mapper.cpp" > /dev/null
grep -q "class TunedMapper final : public Mapper" "$DIR/mapper.cpp"

"$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      | grep -q "valid and executable"

# An invalid mapping (CPU task with Frame-Buffer arguments) must fail
# validation with a nonzero exit. Circuit has 3 tasks with 6/5/4 args.
cat > "$DIR/broken.mapping" <<'EOF'
task 0 dist CPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 1 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 2 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer
EOF
if "$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/broken.mapping" \
      > /dev/null 2>&1; then
  echo "expected validation failure" >&2
  exit 1
fi

# A garbled profiles database must fail with a one-line diagnostic and a
# nonzero exit, not a raw uncaught exception / abort.
cat > "$DIR/garbled.txt" <<'EOF'
profiles 1
mean 0.5
task notanumber dist GPU FrameBuffer
EOF
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 1 --repeats 2 \
      --profiles "$DIR/garbled.txt" > /dev/null 2> "$DIR/garbled.err"; then
  echo "expected nonzero exit for garbled profiles" >&2
  exit 1
fi
grep -qi "error" "$DIR/garbled.err"
test "$(wc -l < "$DIR/garbled.err")" -le 2

# Same for a malformed numeric flag (std::stoi throws std::invalid_argument,
# which only the top-level catch-all converts to a diagnostic).
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations banana \
      > /dev/null 2> "$DIR/badflag.err"; then
  echo "expected nonzero exit for malformed numeric flag" >&2
  exit 1
fi
grep -qi "error" "$DIR/badflag.err"
test "$(wc -l < "$DIR/badflag.err")" -le 2

# A flag given twice is a usage error, not a silent pick of one value.
set +e
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --seed 7 --seed 8 \
      > /dev/null 2> "$DIR/twice.err"
status=$?
set -e
if [ "$status" -ne 2 ]; then
  echo "expected exit 2 for a repeated flag, got $status" >&2
  exit 1
fi
test "$(cat "$DIR/twice.err")" = "error: --seed given twice"

# Fault injection: the searched result under faults is thread-count
# invariant and the resilience telemetry reaches the output.
FAULTS=(--fault-crash 0.05 --fault-straggler 0.05 --retries 2 --quarantine 2)
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --threads 1 --telemetry > "$DIR/faulty1.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --threads 4 --telemetry > "$DIR/faulty4.txt"
grep "best mapping" "$DIR/faulty1.txt" > "$DIR/faulty1.line"
grep "best mapping" "$DIR/faulty4.txt" > "$DIR/faulty4.line"
cmp "$DIR/faulty1.line" "$DIR/faulty4.line"
grep -q "resilience:" "$DIR/faulty1.txt"

# Interrupt-and-resume: a search cut mid-flight by the simulated budget
# leaves a mid-search checkpoint; resuming from it must land on the exact
# summary line of the uninterrupted run (deterministic cut).
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" | grep "best mapping" > "$DIR/uninterrupted.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --budget 10 --checkpoint "$DIR/ck_budget.txt" \
      > /dev/null
test -s "$DIR/ck_budget.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --resume "$DIR/ck_budget.txt" | grep "best mapping" \
      > "$DIR/budget_resumed.txt"
cmp "$DIR/uninterrupted.txt" "$DIR/budget_resumed.txt"

# Kill-and-resume smoke: the same flow under a real SIGKILL (timing-
# dependent: if the kill misses the run, the fallback still exercises the
# uninterrupted path).
for attempt in 1 2 3; do
  rm -f "$DIR/ck.txt"
  ( timeout --signal=KILL 0.05 "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
        --rotations 2 --repeats 3 "${FAULTS[@]}" \
        --checkpoint "$DIR/ck.txt" > /dev/null 2>&1 || true ) 2> /dev/null
  if [ -s "$DIR/ck.txt" ]; then break; fi
done
RESUME=()
if [ -s "$DIR/ck.txt" ]; then
  RESUME=(--resume "$DIR/ck.txt")
fi
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" ${RESUME[@]+"${RESUME[@]}"} | grep "best mapping" \
      > "$DIR/resumed.txt"
cmp "$DIR/uninterrupted.txt" "$DIR/resumed.txt"

# A checkpoint belongs to one search. Resuming it as another seed, repeat
# count or algorithm fails with one error line; the budget, the thread
# count and pruning are not part of the search, so changing them resumes
# onto the uninterrupted summary.
"$CLI" export-app stencil 2 1 "$DIR/s.graph" > /dev/null
stencil_search() {
  "$CLI" search "$DIR/m.machine" "$DIR/s.graph" "$@"
}
S7=(--seed 7 --repeats 3)
stencil_search "${S7[@]}" | grep "best mapping" > "$DIR/s_full.txt"
stencil_search "${S7[@]}" --budget 0.5 --checkpoint "$DIR/s_ck.txt" \
      --profiles "$DIR/s_db.txt" > /dev/null
test -s "$DIR/s_ck.txt"
for other in "--seed 8 --repeats 3" "--seed 7 --repeats 5" \
             "--seed 7 --repeats 3 --algorithm random" \
             "--seed 7 --repeats 3 --algorithm multistart"; do
  # shellcheck disable=SC2086
  if stencil_search $other --resume "$DIR/s_ck.txt" > /dev/null \
        2> "$DIR/s_other.err"; then
    echo "expected nonzero exit resuming as: $other" >&2
    exit 1
  fi
  grep -q "^error: " "$DIR/s_other.err"
  test "$(wc -l < "$DIR/s_other.err")" -eq 1
done
for same in "--budget 1000" "--threads 4" "--no-prune"; do
  # shellcheck disable=SC2086
  stencil_search "${S7[@]}" $same --resume "$DIR/s_ck.txt" \
      | grep "best mapping" > "$DIR/s_resumed.txt"
  cmp "$DIR/s_full.txt" "$DIR/s_resumed.txt"
done
# The cut run saved its profiles database, so resuming with --profiles
# seeds the search from it as well.
stencil_search "${S7[@]}" --resume "$DIR/s_ck.txt" \
      --profiles "$DIR/s_db.txt" > "$DIR/s_seeded.txt"
grep -q "seeded profiles database" "$DIR/s_seeded.txt"
grep -q "best mapping" "$DIR/s_seeded.txt"
# A finished search's final checkpoint is the same file at any thread
# count and with pruning off.
stencil_search "${S7[@]}" --checkpoint "$DIR/s_final1.txt" > /dev/null
stencil_search "${S7[@]}" --threads 4 --checkpoint "$DIR/s_final4.txt" \
      > /dev/null
stencil_search "${S7[@]}" --no-prune --checkpoint "$DIR/s_final_np.txt" \
      > /dev/null
cmp "$DIR/s_final1.txt" "$DIR/s_final4.txt"
cmp "$DIR/s_final1.txt" "$DIR/s_final_np.txt"

# Provenance journal + metrics: the journal is valid JSONL, the metrics
# dump is Prometheus text, and the telemetry digest points at both.
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" --rotations 3 --repeats 3 \
      --journal "$DIR/s.journal.jsonl" --metrics-out "$DIR/s.metrics.txt" \
      --telemetry > "$DIR/jtel.txt"
test -s "$DIR/s.journal.jsonl"
python3 -c '
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines[0]["type"] == "journal" and lines[0]["version"] >= 1
assert [l["n"] for l in lines] == list(range(len(lines)))
types = {l["type"] for l in lines}
for required in ("search_begin", "candidate", "move", "incumbent",
                 "metrics", "finalize"):
    assert required in types, required
' "$DIR/s.journal.jsonl"
grep -q "# HELP automap_candidates_suggested_total" "$DIR/s.metrics.txt"
grep -q "# TYPE automap_candidate_mean_seconds histogram" "$DIR/s.metrics.txt"
grep -q "journal: " "$DIR/jtel.txt"
grep -q "convergence: " "$DIR/jtel.txt"

# Journals are byte-identical at any --threads value.
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" --rotations 3 --repeats 3 \
      --threads 4 --journal "$DIR/s.journal.t4.jsonl" > /dev/null
cmp "$DIR/s.journal.jsonl" "$DIR/s.journal.t4.jsonl"

# explain renders per-decision provenance incl. co-location attribution.
"$CLI" explain "$DIR/s.graph" "$DIR/s.journal.jsonl" > "$DIR/explain.txt"
grep -q "decision provenance" "$DIR/explain.txt"
grep -q "forced by co-location with" "$DIR/explain.txt"
grep -q "processor = " "$DIR/explain.txt"

# replay cross-checks the journal against a fresh run: no drift.
"$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/s.journal.jsonl" \
      | grep -q "no drift"

# A tampered journal must be caught (nonzero exit, drift report).
sed 's/"type":"finalize","algorithm":"AM-CCD","best":/"type":"finalize","algorithm":"AM-CCD","best":9/' \
      "$DIR/s.journal.jsonl" > "$DIR/tampered.jsonl"
if "$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/tampered.jsonl" \
      > "$DIR/tampered.out" 2>&1; then
  echo "expected nonzero exit for tampered journal" >&2
  exit 1
fi
grep -q "DRIFT" "$DIR/tampered.out"

# Unwritable output paths fail up front with one Error line, before any
# search work runs.
if "$CLI" search "$DIR/m.machine" "$DIR/s.graph" \
      --journal "$DIR/no-such-dir/x.jsonl" > /dev/null 2> "$DIR/badpath.err"
then
  echo "expected nonzero exit for unwritable journal path" >&2
  exit 1
fi
grep -qi "error" "$DIR/badpath.err"
test "$(wc -l < "$DIR/badpath.err")" -le 2
if "$CLI" search "$DIR/m.machine" "$DIR/s.graph" \
      --metrics-out "$DIR/no-such-dir/m.txt" > /dev/null 2>&1; then
  echo "expected nonzero exit for unwritable metrics path" >&2
  exit 1
fi

# Unknown commands fail cleanly.
if "$CLI" frobnicate > /dev/null 2>&1; then
  echo "expected nonzero exit for unknown command" >&2
  exit 1
fi

echo "cli_test OK"
