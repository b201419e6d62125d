//! Ablation of the contention-model engineering decisions documented in
//! DESIGN.md: the core-level normalization of Equation 17, the MSHR
//! throughput roofline, and the DRAM bandwidth roofline. Each variant
//! disables exactly one decision; errors are MT_MSHR_BAND vs the oracle.
//!
//! Usage: `ablation_contention [--blocks N]`

use gpumech_core::contention::contention_cpi_with;
use gpumech_core::{
    multithreading_cpi, select_representative, ContentionOptions, CpiStack, Gpumech,
    SchedulingPolicy, SelectionMethod,
};
use gpumech_isa::SimConfig;
use gpumech_timing::simulate;
use gpumech_trace::workloads;

const KERNELS: [&str; 10] = [
    "srad_kernel1",
    "kmeans_invert_mapping",
    "cfd_step_factor",
    "cfd_compute_flux",
    "bfs_kernel1",
    "parboil_sad_calc8",
    "parboil_spmv",
    "sdk_transpose",
    "sdk_vectoradd",
    "hotspot_calculate_temp",
];

fn main() {
    let blocks = gpumech_bench::arg_blocks().unwrap_or(64);

    let cfg = SimConfig::table1();
    let model = Gpumech::new(cfg.clone());
    let policy = SchedulingPolicy::RoundRobin;

    let variants: [(&str, ContentionOptions); 4] = [
        ("full", ContentionOptions::default()),
        (
            "printed-eq17",
            ContentionOptions { core_level_normalization: false, ..Default::default() },
        ),
        ("no-mshr-roofline", ContentionOptions { mshr_roofline: false, ..Default::default() }),
        (
            "paper-dram-cap",
            ContentionOptions { dram_roofline: false, ..Default::default() },
        ),
    ];

    println!("# Ablation: contention-model engineering decisions (MT_MSHR_BAND error)");
    println!("# variants: full model / Equation 17 as printed / no MSHR roofline /");
    println!("#           paper's half-backlog DRAM cap instead of the roofline\n");
    print!("{:<26}{:>10}", "kernel", "oracle");
    for (name, _) in &variants {
        print!("{name:>18}");
    }
    println!();

    let mut sums = [0.0f64; 4];
    for name in KERNELS {
        let w = workloads::by_name(name).unwrap_or_else(|| gpumech_bench::fail(format!("unknown kernel {name}"))).with_blocks(blocks);
        let trace = w.trace().unwrap_or_else(|e| gpumech_bench::fail(format!("trace failed: {e}")));
        let oracle = simulate(&trace, &cfg, policy).unwrap_or_else(|e| gpumech_bench::fail(format!("oracle failed: {e}"))).cpi();
        let analysis = model.analyze(&trace).unwrap_or_else(|e| gpumech_bench::fail(format!("analysis failed: {e}")));
        let rep = select_representative(&analysis.profiles, SelectionMethod::Clustering);
        let profile = &analysis.profiles[rep];
        let warps = analysis.effective_warps;
        let mt = multithreading_cpi(profile, warps, policy);

        print!("{name:<26}{oracle:>10.2}");
        for (i, (_, opts)) in variants.iter().enumerate() {
            let rc = contention_cpi_with(
                profile,
                &cfg,
                warps,
                analysis.mem.avg_miss_latency(),
                mt.cpi,
                *opts,
            );
            let cpi = CpiStack::multi_warp(profile, &analysis.mem, &mt, &rc).total();
            let err = (cpi - oracle).abs() / oracle;
            sums[i] += err;
            print!("{:>17.1}%", 100.0 * err);
        }
        println!();
    }
    print!("{:<26}{:>10}", "MEAN ERROR", "");
    for s in sums {
        print!("{:>17.1}%", 100.0 * s / KERNELS.len() as f64);
    }
    println!();
}
