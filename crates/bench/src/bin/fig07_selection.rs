//! Figure 7: representative-warp selection methods on control-divergent
//! kernels.
//!
//! For every control-divergent workload, predicts CPI with MAX, MIN, and
//! Clustering selection (full GPUMech model, RR policy) and prints the
//! relative error of each, sorted by the clustering error — the same
//! presentation as the paper's figure.
//!
//! Usage: `fig07_selection [--blocks N]`

use gpumech_bench::pct;
use gpumech_core::{Gpumech, PredictionRequest, SelectionMethod};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::simulate;
use gpumech_trace::workloads;

fn main() {
    let blocks = gpumech_bench::arg_blocks();

    let cfg = SimConfig::table1();
    let model = Gpumech::new(cfg.clone());
    let policy = SchedulingPolicy::RoundRobin;

    println!("# Figure 7: representative-warp selection on control-divergent kernels");
    println!("# methods: MAX / MIN / Clustering (full MT_MSHR_BAND model, RR)\n");

    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for w in workloads::control_divergent() {
        let w = match blocks {
            Some(b) => w.with_blocks(b),
            None => w,
        };
        let trace = w.trace().unwrap_or_else(|e| gpumech_bench::fail(format!("trace failed: {e}")));
        let oracle = simulate(&trace, &cfg, policy).unwrap_or_else(|e| gpumech_bench::fail(format!("oracle failed: {e}"))).cpi();
        let analysis = model.analyze(&trace).unwrap_or_else(|e| gpumech_bench::fail(format!("analysis failed: {e}")));
        let err = |sel: SelectionMethod| {
            let p = model
                .run(&PredictionRequest::from_analysis(&analysis).policy(policy).selection(sel))
                .unwrap_or_else(|e| gpumech_bench::fail(format!("prediction failed: {e}")));
            (p.cpi_total() - oracle).abs() / oracle
        };
        rows.push((
            w.name.clone(),
            err(SelectionMethod::Max),
            err(SelectionMethod::Min),
            err(SelectionMethod::Clustering),
        ));
        eprintln!("  done {}", w.name);
    }
    rows.sort_by(|a, b| a.3.total_cmp(&b.3));

    println!("{:<28}{:>10}{:>10}{:>12}", "kernel", "MAX", "MIN", "Clustering");
    for (name, mx, mn, cl) in &rows {
        println!("{name:<28}{:>10}{:>10}{:>12}", pct(*mx), pct(*mn), pct(*cl));
    }
    let mean = |f: fn(&(String, f64, f64, f64)) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    println!(
        "{:<28}{:>10}{:>10}{:>12}",
        "MEAN",
        pct(mean(|r| r.1)),
        pct(mean(|r| r.2)),
        pct(mean(|r| r.3)),
    );
    println!(
        "\npaper reference: on control-divergent kernels the clustering method\n\
         usually has the best accuracy; for some kernels all three tie"
    );
}
