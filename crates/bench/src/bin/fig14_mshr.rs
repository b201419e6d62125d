//! Figure 14: mean model error versus MSHR entries (64, 96, 128, 256),
//! round-robin policy.
//!
//! The paper's point: with more MSHRs the MSHR queueing shrinks (MT and
//! MT_MSHR converge) but DRAM queueing *grows* (more in-flight requests),
//! so only MT_MSHR_BAND tracks the oracle across the sweep.
//!
//! Usage: `fig14_mshr [--blocks N] [--json PATH]`

use gpumech_isa::SimConfig;

fn main() {
    let point =
        |m: u32| (m, format!("mshrs={m}"), SimConfig::table1().with_mshrs(m as usize));
    gpumech_bench::axis_sweep(
        "# Figure 14: mean error vs MSHR entries (RR policy)\n\
         # sweep: 64, 96, 128, 256 entries",
        "mshrs",
        &[64, 96, 128, 256].map(point),
        "paper reference: MT vs MT_MSHR error gap shrinks with more MSHRs;\n\
         every model except MT_MSHR_BAND degrades as entries increase",
    );
}
