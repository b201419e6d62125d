#!/usr/bin/env bash
# Appends one row to results/BENCH_trajectory.jsonl: the commit a full
# `benchmark/run.sh` set was measured on ("+" = with uncommitted changes on
# top), its date, the seven end-to-end metrics of every workload, and
# crates/timing's size (product = lines before each file's #[cfg(test)]).
#   results/bench_trajectory.sh [CHECKOUT]   default: this repository; the
#   set is CHECKOUT/target/benchmark/results.json
set -euo pipefail
out="$(cd "$(dirname "$0")" && pwd)/BENCH_trajectory.jsonl"
cd "${1:-$(dirname "$0")/..}"
commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!ISSUE.md' ':!REVIEW.md' || echo +)"
product=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' crates/timing/src/*.rs)
all=$(find crates/timing -name '*.rs' -exec cat {} + | wc -l)
jq -c --arg commit "$commit" --arg date "$(date -u +%F)" --argjson product "$product" --argjson all "$all" \
  '{commit: $commit, date: $date, seconds, workloads: (.workloads | map_values(.end_to_end)),
    timing_lines: {product: $product, all_targets: $all}}' target/benchmark/results.json >> "$out"
tail -n 1 "$out"
