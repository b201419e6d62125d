#!/usr/bin/env bash
# Appends one row to results/BENCH_trajectory.jsonl: the commit a full
# `benchmark/run.sh` set was measured on ("+" = with uncommitted changes on
# top), its date, the seven end-to-end metrics of every workload, and every
# crate's size in lines (product = lines of src/ before each file's
# #[cfg(test)]; all_targets = every .rs file of the crate).
#   results/bench_trajectory.sh [CHECKOUT]   default: this repository; the
#   set is CHECKOUT/target/benchmark/results.json
set -euo pipefail
out="$(cd "$(dirname "$0")" && pwd)/BENCH_trajectory.jsonl"
cd "${1:-$(dirname "$0")/..}"
commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!ISSUE.md' ':!REVIEW.md' || echo +)"
lines=$(for dir in crates/*/; do
  product=$(find "$dir" -path '*/src/*' -name '*.rs' -exec \
    awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' {} + |
    awk '{n+=$1} END{print n+0}')
  all=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
  jq -n --arg c "$(basename "$dir")" --argjson p "$product" --argjson a "$all" \
    '{($c): {product: $p, all_targets: $a}}'
done | jq -s 'add')
jq -c --arg commit "$commit" --arg date "$(date -u +%F)" --argjson lines "$lines" \
  '{commit: $commit, date: $date, seconds, workloads: (.workloads | map_values(.end_to_end)),
    lines: $lines}' target/benchmark/results.json >> "$out"
tail -n 1 "$out"
