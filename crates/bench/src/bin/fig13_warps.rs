//! Figure 13: mean model error versus resident warps per core
//! (8, 16, 32, 48), round-robin policy.
//!
//! The paper's headline: the baselines' errors *grow* with warp count
//! (more warps → more contention they ignore) while GPUMech stays flat.
//!
//! Usage: `fig13_warps [--blocks N] [--json PATH]`

use gpumech_isa::SimConfig;

fn main() {
    let point = |w: u32| {
        (w, format!("warps={w}"), SimConfig::table1().with_warps_per_core(w as usize))
    };
    gpumech_bench::axis_sweep(
        "# Figure 13: mean error vs warps per core (RR policy)\n\
         # sweep: 8, 16, 32, 48 resident warps",
        "warps",
        &[8, 16, 32, 48].map(point),
        "paper reference: all models except MT_MSHR/MT_MSHR_BAND degrade as\n\
         warps increase; GPUMech's error is highest at 8 warps and flat after",
    );
}
