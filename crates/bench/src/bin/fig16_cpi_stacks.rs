//! Figure 16: CPI stacks versus warp count for three kernels with distinct
//! memory-divergence degrees, with the oracle CPI alongside.
//!
//! Kernels (as in the paper): `cfd_step_factor` (coalesced),
//! `cfd_compute_flux` (medium divergence), `kmeans_invert_mapping`
//! (maximal divergence + write traffic). For each warp count in
//! {8, 16, 32, 48} the harness prints the predicted CPI stack (BASE, DEP,
//! L1, L2, DRAM, MSHR, QUEUE), the stack total, and the measured oracle
//! CPI — all normalized by the 8-warp oracle CPI, as in the paper's plot.
//!
//! Usage: `fig16_cpi_stacks [--blocks N]`

use gpumech_core::{CpiStack, Gpumech, PredictionRequest, StallCategory};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::simulate;
use gpumech_trace::workloads;

fn main() {
    let blocks = gpumech_bench::arg_blocks();

    let policy = SchedulingPolicy::RoundRobin;
    println!("# Figure 16: CPI stacks vs warps per core (RR policy)");
    println!("# all values normalized by each kernel's 8-warp oracle CPI\n");

    for w in workloads::figure16() {
        let w = match blocks {
            Some(b) => w.with_blocks(b),
            None => w,
        };
        let trace = w.trace().unwrap_or_else(|e| gpumech_bench::fail(format!("trace failed: {e}")));
        println!("== {} ({}) ==", w.name, w.description);

        let mut rows: Vec<(usize, CpiStack, f64)> = Vec::new();
        for warps in [8usize, 16, 32, 48] {
            let cfg = SimConfig::table1().with_warps_per_core(warps);
            let oracle = simulate(&trace, &cfg, policy).unwrap_or_else(|e| gpumech_bench::fail(format!("oracle failed: {e}"))).cpi();
            let model = Gpumech::new(cfg);
            let analysis = model.analyze(&trace).unwrap_or_else(|e| gpumech_bench::fail(format!("analysis failed: {e}")));
            let p = model
                .run(&PredictionRequest::from_analysis(&analysis).policy(policy))
                .unwrap_or_else(|e| gpumech_bench::fail(format!("prediction failed: {e}")));
            rows.push((warps, p.cpi, oracle));
            eprintln!("  {}: warps={warps} done", w.name);
        }
        let norm = rows[0].2; // 8-warp oracle CPI

        print!("{:<8}", "warps");
        for cat in StallCategory::ALL {
            print!("{:>8}", cat.to_string());
        }
        println!("{:>10}{:>10}", "TOTAL", "oracle");
        for (warps, stack, oracle) in &rows {
            print!("{warps:<8}");
            for cat in StallCategory::ALL {
                print!("{:>8.3}", stack.get(cat) / norm);
            }
            println!("{:>10.3}{:>10.3}", stack.total() / norm, oracle / norm);
        }
        println!();
    }
    println!(
        "paper reference: cfd_step_factor scales well (DRAM-latency bound);\n\
         cfd_compute_flux saturates around 32 warps as MSHR grows;\n\
         kmeans_invert_mapping is dominated by QUEUE (write traffic), not DRAM"
    );
}
