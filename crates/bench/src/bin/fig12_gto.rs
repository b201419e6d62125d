//! Figure 12: model comparison for the greedy-then-oldest policy.
//!
//! Identical to the Figure 11 harness but with GTO scheduling in both the
//! oracle and the models.
//!
//! Usage: `fig12_gto [--blocks N] [--table PATH]`

use gpumech_isa::SchedulingPolicy;

fn main() {
    gpumech_bench::model_comparison(
        SchedulingPolicy::GreedyThenOldest,
        "fig12-gto",
        "# Figure 12: model comparison, greedy-then-oldest policy\n# machine: Table I",
        "paper reference: GPUMech 14.0% mean error (GTO), Markov_Chain 65.3%",
    );
}
