//! Ablation of the SFU-contention extension (the resource-contention
//! generalization Section IV-B1 leaves as future work).
//!
//! Sweeps SFU lanes per core on SFU-heavy kernels and reports the oracle
//! CPI together with the full model's prediction with and without the SFU
//! stage. At the Table I default (32 lanes) the stage is inert; on narrow
//! units only the SFU-aware model tracks the oracle.
//!
//! Usage: `ablation_sfu [--blocks N]`

use gpumech_core::contention::sfu_cpi;
use gpumech_core::{Gpumech, PredictionRequest, SchedulingPolicy};
use gpumech_isa::SimConfig;
use gpumech_timing::simulate;
use gpumech_trace::workloads;

const KERNELS: [&str; 3] = ["sdk_blackscholes", "parboil_mriq_computeQ", "sdk_montecarlo"];

fn main() {
    let blocks = gpumech_bench::arg_blocks().unwrap_or(64);

    println!("# Ablation: SFU-contention extension (RR policy)");
    println!("# sweep: 32 (Table I default), 8, 4 SFU lanes per core\n");
    println!(
        "{:<26}{:>6}{:>10}{:>12}{:>12}{:>10}{:>10}",
        "kernel", "lanes", "oracle", "with-sfu", "without", "err-with", "err-wo"
    );

    for name in KERNELS {
        let w = workloads::by_name(name).unwrap_or_else(|| gpumech_bench::fail(format!("unknown kernel {name}"))).with_blocks(blocks);
        let trace = w.trace().unwrap_or_else(|e| gpumech_bench::fail(format!("trace failed: {e}")));
        for lanes in [32usize, 8, 4] {
            let cfg = SimConfig::table1().with_sfu_per_core(lanes);
            let oracle = simulate(&trace, &cfg, SchedulingPolicy::RoundRobin)
                .unwrap_or_else(|e| gpumech_bench::fail(format!("oracle failed: {e}")))
                .cpi();
            let model = Gpumech::new(cfg.clone());
            let analysis = model.analyze(&trace).unwrap_or_else(|e| gpumech_bench::fail(format!("analysis failed: {e}")));
            let p = model
                .run(&PredictionRequest::from_analysis(&analysis))
                .unwrap_or_else(|e| gpumech_bench::fail(format!("prediction failed: {e}")));
            let with_sfu = p.cpi_total();
            // "Without" removes the SFU share the stage contributed.
            let rep = &analysis.profiles[p.representative];
            let sfu_share = sfu_cpi(rep, &cfg, with_sfu - p.contention.cpi_sfu);
            let without = with_sfu - sfu_share;
            println!(
                "{name:<26}{lanes:>6}{oracle:>10.2}{with_sfu:>12.2}{without:>12.2}{:>9.1}%{:>9.1}%",
                100.0 * (with_sfu - oracle).abs() / oracle,
                100.0 * (without - oracle).abs() / oracle,
            );
        }
    }
    println!("\nat 32 lanes the two models coincide; on narrow units the SFU-blind\nmodel underestimates SFU-heavy kernels");
}
