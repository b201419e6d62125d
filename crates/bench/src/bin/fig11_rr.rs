//! Figure 11: model comparison for the round-robin policy.
//!
//! Runs all 40 workloads under the Table I machine with RR scheduling,
//! evaluates the five Table II models against the cycle-level oracle, and
//! prints per-kernel relative CPI errors plus the paper's summary metrics
//! (mean error per model; fraction of kernels under 20% error for
//! GPUMech vs Markov_Chain).
//!
//! Usage: `fig11_rr [--blocks N] [--json PATH]`

use gpumech_isa::SchedulingPolicy;

fn main() {
    gpumech_bench::model_comparison(
        SchedulingPolicy::RoundRobin,
        "fig11-rr",
        "# Figure 11: model comparison, round-robin policy\n\
         # machine: Table I (16 cores, 32 warps/core, 32 MSHRs, 192 GB/s)",
        "paper reference: GPUMech 13.2% mean error (RR), Markov_Chain 62.9%;\n\
         75% of kernels under 20% error for GPUMech vs 50% for Markov_Chain",
    );
}
