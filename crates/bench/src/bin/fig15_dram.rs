//! Figure 15: mean model error versus DRAM bandwidth
//! (64, 128, 192, 256 GB/s), round-robin policy.
//!
//! Lower bandwidth means higher DRAM queueing delays, so bandwidth-blind
//! models degrade sharply at 64 GB/s while MT_MSHR_BAND degrades least.
//!
//! Usage: `fig15_dram [--blocks N] [--table PATH]`

use gpumech_isa::SimConfig;

fn main() {
    let point = |bw: u32| {
        (bw, format!("dram={bw}GB/s"), SimConfig::table1().with_dram_bandwidth(f64::from(bw)))
    };
    gpumech_bench::axis_sweep(
        "# Figure 15: mean error vs DRAM bandwidth (RR policy)\n\
         # sweep: 64, 128, 192, 256 GB/s",
        "GB/s",
        &[64, 128, 192, 256].map(point),
        "paper reference: GPUMech 26.1% at 64 GB/s and under 17.8% elsewhere;\n\
         the gap between MT_MSHR_BAND and the rest shrinks as bandwidth grows",
    );
}
