#!/usr/bin/env bash
# Repository CI gate. Run from the repo root; fails fast on the first
# broken step.
#
#   1. release build of the whole workspace
#   2. every suite of the workspace, twice: a debug pass (debug
#      assertions live: the trace engine's coalescing-bound and
#      uniform-branch checks, which golden_workloads.rs drives over all 40
#      kernels) and a release pass (optimized codegen).
#      Each covers the unit suites, the mutated-input fault suite, the
#      exec layer's panic containment and time-budget contract, batch
#      determinism over all 40 workloads, the defective-kernel corpus,
#      the lint schema, the serve suites and smoke tests (SIGTERM drain,
#      SIGKILL and a restart that answers byte for byte as before), the
#      sweep plan's rejected-kernel rows, the exit-code taxonomy and the
#      CLI golden.
#   3. clippy with warnings denied (includes the panic-free restriction
#      lints: unwrap_used / expect_used / panic)
#   4. rustdoc with warnings denied (broken intra-doc links, use of
#      anything `#[deprecated]`)
#   5. `gpumech lint` over the 40-workload library (nonzero exit on any
#      error-severity finding); it reports 0 error(s), 0 warning(s), and
#      golden_workloads.rs gates that no finding reaches Warning
#   6. observability round trip: `gpumech profile` writes a JSONL trace,
#      a Chrome trace and a folded-stack export, and `gpumech batch
#      --obs-out` a trace with exec.* metrics; each JSONL trace's meta
#      line must read `"invalid_names":[]` (the recorder lists there every
#      name outside the stage.subsystem.name scheme and its stage
#      families); the profile trace must hold a span for each pipeline
#      stage (cache sim, intervals, clustering, predict), and the batch
#      trace exactly one clustering per kernel, however many sweep points
#      share it
#   7. accuracy record: `results/run_all.sh --out target/ci-accuracy`
#      regenerates every harness output, the oracle column of the
#      fig11-15 accuracy tables included, and each .txt (but the wall-clock
#      speedup.txt) and .tsv must be byte-identical to the one committed
#      under results/ (the model side of the record is also checked by
#      crates/bench/tests/accuracy_gate.rs in stage 2)
#   8. repo benchmark smoke set: `benchmark/run.sh --quick` runs one pass
#      of all five workloads, untraced and traced; it exits non-zero when
#      any op's prediction differs from its sequential reference or a
#      workload's traced and untraced sim_digest disagree (its numbers
#      are stamped non-comparable — this stage checks answers, not speed)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== tests (debug) =="
cargo test --workspace -q

echo "== tests (release) =="
cargo test --workspace --release -q

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# A JSONL trace's meta line lists every span and metric name the recorder
# rejected; a clean trace lists none.
names_clean() {
  grep -q '^{"type":"meta",.*"invalid_names":\[\]}$' "$1" \
    || { echo "$1: the recorder flagged names: $(head -n 1 "$1")"; exit 1; }
}

echo "== gpumech lint =="
./target/release/gpumech lint --min-severity warning

echo "== observability =="
./target/release/gpumech profile sdk_vectoradd --blocks 4 \
  --obs-out target/obs-ci.jsonl --chrome-out target/obs-ci.trace.json \
  --folded-out target/obs-ci.folded > /dev/null
names_clean target/obs-ci.jsonl
# The spans are the only record of where a prediction's time went: each
# pipeline stage must have one.
for stage in mem.cachesim.simulate mem.cachesim.gather mem.cachesim.replay \
  core.pipeline.intervals core.kmeans.cluster core.pipeline.predict; do
  grep -q "\"type\":\"span\",.*\"name\":\"$stage\"" target/obs-ci.jsonl \
    || { echo "profile trace has no $stage span"; exit 1; }
done
./target/release/gpumech batch sdk_vectoradd bfs_kernel1 --blocks 4 \
  --sweep bw=96,192 --obs-out target/obs-batch-ci.jsonl > /dev/null
names_clean target/obs-batch-ci.jsonl
# Selection runs once per cached analysis, not once per sweep point: two
# kernels, two k-means runs.
kmeans=$(grep -c '"type":"span",.*"name":"core.kmeans.cluster"' target/obs-batch-ci.jsonl || true)
[ "$kmeans" -eq 2 ] \
  || { echo "batch trace has $kmeans core.kmeans.cluster spans, want 2 (one per kernel)"; exit 1; }

echo "== accuracy record =="
# The only check that recomputes the oracle CPIs against the record;
# golden_oracle.rs pins the oracle's determinism on smaller grids.
dir=target/ci-accuracy
rm -rf "$dir"
results/run_all.sh --out "$dir" > target/ci-accuracy.log 2>&1 \
  || { echo "results/run_all.sh failed; see target/ci-accuracy.log"; exit 1; }
for f in "$dir"/*.txt "$dir"/*.tsv; do
  name="$(basename "$f")"
  [ "$name" = speedup.txt ] && continue
  cmp "$f" "results/$name" || { echo "$name differs from the committed record"; exit 1; }
done
rm -rf "$dir"

echo "== repo benchmark (quick) =="
bash benchmark/run.sh --quick > target/benchmark-quick-ci.txt \
  || { echo "benchmark/run.sh --quick failed; see target/benchmark-quick-ci.txt"; exit 1; }

echo "CI OK"
