#!/usr/bin/env bash
# Regenerates every recorded table and figure of EXPERIMENTS.md: one
# gpumech-bench binary per result, its output written to
# results/<name>.txt (and results/<name>.json where the binary can dump
# one). Run from anywhere inside the repository.
#
#   results/run_all.sh              the recorded grid sizes (under a minute
#                                   on one core once built; see "Grid
#                                   sizes" in EXPERIMENTS.md)
#   results/run_all.sh --blocks N   every harness at N blocks, for a quick
#                                   look (numbers then differ from the
#                                   committed ones)
#
# The .txt outputs are deterministic except speedup.txt (wall clock); the
# .json dumps carry stage wall times, so they differ on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

blocks=""
if [ "${1:-}" = "--blocks" ] && [ -n "${2:-}" ]; then
  blocks="$2"
elif [ $# -ne 0 ]; then
  echo "usage: results/run_all.sh [--blocks N]" >&2
  exit 2
fi

cargo build --release -p gpumech-bench

# name  binary  recorded blocks ("-": the binary takes none)  writes --json
while read -r name bin recorded json; do
  # Never empty, so "${cmd[@]}" is safe under `set -u` on bash < 4.4 too.
  cmd=("target/release/$bin")
  if [ "$recorded" != "-" ]; then
    cmd+=(--blocks "${blocks:-$recorded}")
  fi
  if [ "$json" = "json" ]; then
    cmd+=(--json "results/$name.json")
  fi
  echo "== $name: ${cmd[*]} =="
  "${cmd[@]}" > "results/$name.txt"
done <<'TABLE'
table1               table1_config        -    -
table2               table2_models        -    -
table3               table3_stall_types   -    -
fig04                fig04_case_study     128  -
fig07                fig07_selection      128  -
fig11                fig11_rr             128  json
fig12                fig12_gto            128  json
fig13                fig13_warps          96   json
fig14                fig14_mshr           64   json
fig15                fig15_dram           64   json
fig16                fig16_cpi_stacks     128  -
speedup              speedup              128  -
ablation_contention  ablation_contention  64   -
ablation_sfu         ablation_sfu         64   -
TABLE
echo "results written under results/"
