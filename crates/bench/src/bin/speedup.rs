//! Section VI-D: GPUMech's modeling speed versus detailed timing
//! simulation.
//!
//! For a set of representative kernels, measures (a) the cycle-level
//! oracle's runtime, (b) the one-time GPUMech analysis cost (functional
//! cache simulation + interval algorithm over every warp + clustering),
//! and (c) the per-configuration prediction cost (multi-warp + contention
//! models on the representative warp). Reports both the full-pipeline
//! speedup and the explore-another-configuration speedup, mirroring the
//! paper's 97x claim and its observation that re-exploration is cheaper
//! still.
//!
//! Usage: `speedup [--blocks N] [kernel ...]`

use std::time::Duration;

use gpumech_bench::{evaluate_kernel, Experiment};
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut blocks = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--blocks" {
            blocks = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| gpumech_bench::fail("--blocks expects a number")));
        } else {
            names.push(a);
        }
    }
    if names.is_empty() {
        names = vec![
            "cfd_step_factor".into(),
            "cfd_compute_flux".into(),
            "kmeans_invert_mapping".into(),
            "sdk_vectoradd".into(),
            "parboil_sgemm".into(),
            "bfs_kernel1".into(),
            "parboil_sad_calc8".into(),
            "hotspot_calculate_temp".into(),
        ];
    }

    let mut exp = Experiment::baseline();
    exp.label = "speedup".to_string();
    exp.blocks = blocks;

    println!("# Section VI-D: modeling speed vs detailed timing simulation\n");
    println!(
        "{:<26}{:>12}{:>12}{:>12}{:>10}{:>12}",
        "kernel", "oracle", "analysis", "predict", "speedup", "re-explore"
    );
    let (mut tot_o, mut tot_a, mut tot_p) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for name in &names {
        let w = workloads::by_name(name).unwrap_or_else(|| gpumech_bench::fail(format!("unknown kernel {name}")));
        let e = evaluate_kernel(&w, &exp);
        let model_t = e.analysis_time + e.predict_time;
        println!(
            "{:<26}{:>12.2?}{:>12.2?}{:>12.2?}{:>9.0}x{:>11.0}x",
            e.name,
            e.oracle_time,
            e.analysis_time,
            e.predict_time,
            e.oracle_time.as_secs_f64() / model_t.as_secs_f64(),
            e.oracle_time.as_secs_f64() / e.predict_time.as_secs_f64().max(1e-9),
        );
        tot_o += e.oracle_time;
        tot_a += e.analysis_time;
        tot_p += e.predict_time;
    }
    let model_t = (tot_a + tot_p).as_secs_f64();
    println!(
        "\nTOTAL: oracle {tot_o:.2?}, model {:?} -> {:.0}x full-pipeline speedup, {:.0}x when re-exploring configurations",
        tot_a + tot_p,
        tot_o.as_secs_f64() / model_t,
        tot_o.as_secs_f64() / tot_p.as_secs_f64().max(1e-9),
    );
    println!("paper reference: GPUMech is ~97x faster than detailed simulation");
}
