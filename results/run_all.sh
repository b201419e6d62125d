#!/usr/bin/env bash
# Regenerates every recorded table and figure of EXPERIMENTS.md: one
# gpumech-bench binary per result, its output written to <dir>/<name>.txt,
# and for Figures 11-15 the accuracy table <dir>/<name>.tsv (one row per
# kernel x policy x machine point; crates/bench/tests/accuracy_gate.rs
# checks the model against results/fig11.tsv and fig12.tsv). Run from
# anywhere inside the repository.
#
#   results/run_all.sh              the recorded grid sizes into results/
#                                   (under a minute on one core once built;
#                                   see "Grid sizes" in EXPERIMENTS.md)
#   results/run_all.sh --blocks N   every harness at N blocks, for a quick
#                                   look (numbers then differ from the
#                                   committed ones)
#   results/run_all.sh --out DIR    write into DIR instead of results/
#                                   (ci.sh regenerates into target/ and
#                                   compares with results/)
#
# Every output is deterministic except speedup.txt (wall clock).
set -euo pipefail
cd "$(dirname "$0")/.."

blocks=""
out="results"
while [ $# -ne 0 ]; do
  case "$1" in
    --blocks) [ -n "${2:-}" ] || { echo "--blocks needs a value" >&2; exit 2; }; blocks="$2"; shift 2 ;;
    --out) [ -n "${2:-}" ] || { echo "--out needs a value" >&2; exit 2; }; out="$2"; shift 2 ;;
    *) echo "usage: results/run_all.sh [--blocks N] [--out DIR]" >&2; exit 2 ;;
  esac
done
mkdir -p "$out"

cargo build --release -p gpumech-bench

# name  binary  recorded blocks ("-": the binary takes none)  writes --table
while read -r name bin recorded table; do
  # Never empty, so "${cmd[@]}" is safe under `set -u` on bash < 4.4 too.
  cmd=("target/release/$bin")
  if [ "$recorded" != "-" ]; then
    cmd+=(--blocks "${blocks:-$recorded}")
  fi
  if [ "$table" = "table" ]; then
    cmd+=(--table "$out/$name.tsv")
  fi
  echo "== $name: ${cmd[*]} =="
  "${cmd[@]}" > "$out/$name.txt"
done <<'TABLE'
table1               table1_config        -    -
table2               table2_models        -    -
table3               table3_stall_types   -    -
fig04                fig04_case_study     128  -
fig07                fig07_selection      128  -
fig11                fig11_rr             128  table
fig12                fig12_gto            128  table
fig13                fig13_warps          96   table
fig14                fig14_mshr           64   table
fig15                fig15_dram           64   table
fig16                fig16_cpi_stacks     128  -
speedup              speedup              128  -
ablation_contention  ablation_contention  64   -
ablation_sfu         ablation_sfu         64   -
TABLE
echo "results written under $out/"
