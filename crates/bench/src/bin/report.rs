//! Renders the recorded experiment JSONs (`results/*.json`) into a single
//! markdown report — the machine-generated companion to EXPERIMENTS.md.
//!
//! Usage: `report [--dir results] [--out results/report.md]`

use std::collections::BTreeMap;
use std::path::Path;

use gpumech_bench::{fraction_below, mean_error, KernelEval};
use gpumech_core::Model;

fn load(dir: &Path, name: &str) -> Option<Vec<KernelEval>> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn model_header() -> String {
    let mut s = String::from("| config |");
    for m in Model::ALL {
        s.push_str(&format!(" {m} |"));
    }
    s.push_str("\n|---|");
    s.push_str(&"---|".repeat(Model::ALL.len()));
    s.push('\n');
    s
}

fn sweep_table(evals: &[KernelEval]) -> String {
    // Group by config label, preserving first-seen order via BTreeMap over
    // insertion index.
    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Vec<&KernelEval>> = BTreeMap::new();
    for e in evals {
        if !groups.contains_key(&e.config_label) {
            order.push(e.config_label.clone());
        }
        groups.entry(e.config_label.clone()).or_default().push(e);
    }
    let mut out = model_header();
    for label in order {
        let evals: Vec<KernelEval> = groups[&label].iter().map(|&e| e.clone()).collect();
        out.push_str(&format!("| {label} |"));
        for m in Model::ALL {
            out.push_str(&format!(" {:.1}% |", 100.0 * mean_error(&evals, m)));
        }
        out.push('\n');
    }
    out
}

fn per_kernel_table(evals: &[KernelEval], top: usize) -> String {
    let mut rows: Vec<&KernelEval> = evals.iter().collect();
    rows.sort_by(|a, b| {
        b.error(Model::MtMshrBand).total_cmp(&a.error(Model::MtMshrBand))
    });
    let mut out = String::from("| kernel | oracle CPI | GPUMech error |\n|---|---|---|\n");
    for e in rows.iter().take(top) {
        out.push_str(&format!(
            "| {} | {:.2} | {:.1}% |\n",
            e.name,
            e.oracle_cpi,
            100.0 * e.error(Model::MtMshrBand)
        ));
    }
    out
}

/// Aggregates model warnings across evaluations: distinct warning text →
/// the kernels (deduplicated, first-seen order) that produced it.
fn warning_table(evals: &[KernelEval]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut kernels: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in evals {
        for w in gpumech_bench::distinct_warnings(&e.predictions) {
            if !kernels.contains_key(&w) {
                order.push(w.clone());
            }
            let ks = kernels.entry(w).or_default();
            if !ks.contains(&e.name) {
                ks.push(e.name.clone());
            }
        }
    }
    if order.is_empty() {
        return "(no model warnings recorded)\n".to_string();
    }
    let mut out = String::from("| warning | kernels |\n|---|---|\n");
    for w in order {
        out.push_str(&format!("| {w} | {} |\n", kernels[&w].join(", ")));
    }
    out
}

fn main() {
    let get = gpumech_bench::arg_value;
    let dir = get("--dir").unwrap_or_else(|| "results".to_string());
    let out_path = get("--out").unwrap_or_else(|| format!("{dir}/report.md"));
    let dir = Path::new(&dir);

    let mut out = String::from("# GPUMech reproduction — generated report\n\n");
    out.push_str("Mean relative CPI error per model (lower is better).\n\n");

    let mut all_evals: Vec<KernelEval> = Vec::new();
    for (file, title) in [
        ("fig11.json", "Figure 11 — round-robin policy"),
        ("fig12.json", "Figure 12 — greedy-then-oldest policy"),
        ("fig13.json", "Figure 13 — warps per core sweep"),
        ("fig14.json", "Figure 14 — MSHR entries sweep"),
        ("fig15.json", "Figure 15 — DRAM bandwidth sweep"),
    ] {
        let Some(evals) = load(dir, file) else {
            out.push_str(&format!("## {title}\n\n(missing {file})\n\n"));
            continue;
        };
        out.push_str(&format!("## {title}\n\n"));
        out.push_str(&sweep_table(&evals));
        if file == "fig11.json" {
            out.push_str(&format!(
                "\nGPUMech kernels under 20% error: {:.1}%; Markov_Chain: {:.1}%.\n",
                100.0 * fraction_below(&evals, Model::MtMshrBand, 0.2),
                100.0 * fraction_below(&evals, Model::MarkovChain, 0.2),
            ));
            out.push_str("\nHardest kernels for the full model:\n\n");
            out.push_str(&per_kernel_table(&evals, 8));
        }
        out.push('\n');
        all_evals.extend(evals);
    }

    // Model warnings would otherwise be dropped on the floor here — every
    // Prediction carries them through the JSON dumps, so surface them.
    out.push_str("## Model warnings\n\n");
    out.push_str(&warning_table(&all_evals));
    out.push('\n');

    std::fs::write(&out_path, &out)
        .unwrap_or_else(|e| gpumech_bench::fail(format!("write report failed: {e}")));
    println!("wrote {out_path}");
}
