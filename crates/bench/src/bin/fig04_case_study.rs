//! Figure 4: the SRAD case study — how each modeling component reduces
//! error on a memory-divergent kernel.
//!
//! Evaluates Naive_Interval → MT → MT_MSHR → MT_MSHR_BAND on the SRAD
//! analogue and prints the per-component relative CPI error, mirroring the
//! paper's bar chart.
//!
//! Usage: `fig04_case_study [--blocks N] [--kernel NAME]`

use gpumech_bench::{evaluate_kernel, pct, Experiment};
use gpumech_core::Model;
use gpumech_trace::workloads;

fn main() {
    let kernel = gpumech_bench::arg_value("--kernel").unwrap_or_else(|| "srad_kernel1".to_string());

    let mut exp = Experiment::baseline();
    exp.label = "fig4-case-study".to_string();
    exp.blocks = gpumech_bench::arg_blocks();

    let w = workloads::by_name(&kernel).unwrap_or_else(|| gpumech_bench::fail(format!("unknown kernel {kernel}")));
    println!("# Figure 4: per-component error, kernel {kernel} (RR policy)");
    let e = evaluate_kernel(&w, &exp);
    println!("# oracle CPI = {:.3}\n", e.oracle_cpi);
    println!("{:<18}{:>12}{:>14}", "model", "CPI", "error");
    for m in [Model::NaiveInterval, Model::Mt, Model::MtMshr, Model::MtMshrBand] {
        let p = e.prediction(m);
        println!("{:<18}{:>12.3}{:>14}", m.to_string(), p.cpi_total(), pct(e.error(m)));
    }
    println!(
        "\npaper reference: modeling multithreading, MSHRs, and DRAM bandwidth\n\
         each cuts the SRAD error further (Figure 4's staircase)"
    );
}
