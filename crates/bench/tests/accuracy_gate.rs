//! The accuracy gate: the committed accuracy record against the model.
//!
//! `results/run_all.sh` writes `results/fig11.tsv` … `fig15.tsv`, one row
//! per kernel × policy × machine point: the oracle CPI, the five Table II
//! CPIs and MT_MSHR_BAND's CPI stack. This suite checks three things:
//!
//! - every model value of Figures 11 and 12 (40 kernels, 128 blocks,
//!   Table I, RR and GTO) is what the model predicts today, to the last
//!   digit;
//! - the summary lines of `fig11.txt` / `fig12.txt` (mean error and
//!   kernels under 20% per model) follow from the table's oracle column;
//! - metamorphic properties of the record alone: the stack sums to the
//!   CPI on every row, and MT_MSHR_BAND's CPI never rises with MSHR count
//!   (fig14) or DRAM bandwidth (fig15) — except at one pinned finding.
//!
//! The oracle column is not recomputed here: `ci.sh`'s accuracy stage
//! regenerates every table and `crates/timing/tests/golden_oracle.rs` pins
//! the oracle. After an intended change of the model or the oracle,
//! re-record with `results/run_all.sh` and read the `.tsv` diff.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use std::path::PathBuf;

use gpumech_bench::{predict_models, relative_error, summary_line, table_header, Experiment};
use gpumech_core::{Gpumech, Model};
use gpumech_trace::workloads;

/// Index of MT_MSHR_BAND's CPI among a row's Table II CPIs.
const BAND: usize = 4;

/// One row of an accuracy table, model values kept as written so that a
/// comparison is exact.
struct Row {
    policy: String,
    point: String,
    blocks: usize,
    kernel: String,
    oracle: f64,
    /// The five Table II CPIs, in Table II order.
    cpis: Vec<String>,
    /// MT_MSHR_BAND's seven stack components, in Table III order.
    stack: Vec<String>,
}

impl Row {
    fn band_cpi(&self) -> f64 {
        num(&self.cpis[BAND])
    }

    /// The numeric machine-axis value of the row's point label
    /// (`mshrs=96` → 96, `dram=128GB/s` → 128).
    fn axis_value(&self) -> u32 {
        let value = self.point.split('=').nth(1).unwrap_or("");
        let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap_or_else(|_| panic!("point {:?} carries no axis value", self.point))
    }
}

fn num(s: &str) -> f64 {
    s.parse().unwrap_or_else(|e| panic!("{s:?} is not a number: {e}"))
}

fn results_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn table(fig: &str) -> Vec<Row> {
    let text = results_file(&format!("{fig}.tsv"));
    let header = table_header();
    let columns = header.split('\t').count();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(header.as_str()), "{fig}.tsv: header");
    lines
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), columns, "{fig}.tsv: {line}");
            Row {
                policy: f[0].to_string(),
                point: f[1].to_string(),
                blocks: f[2].parse().unwrap_or_else(|e| panic!("{fig}.tsv blocks {:?}: {e}", f[2])),
                kernel: f[3].to_string(),
                oracle: num(f[4]),
                cpis: f[5..5 + Model::ALL.len()].iter().map(ToString::to_string).collect(),
                stack: f[5 + Model::ALL.len()..].iter().map(ToString::to_string).collect(),
            }
        })
        .collect()
}

/// Kernel names in first-seen order.
fn kernels(rows: &[Row]) -> Vec<&str> {
    let mut seen: Vec<&str> = Vec::new();
    for r in rows {
        if !seen.contains(&r.kernel.as_str()) {
            seen.push(&r.kernel);
        }
    }
    seen
}

#[test]
fn the_model_reproduces_every_recorded_fig11_and_fig12_value() {
    let rows: Vec<Row> = table("fig11").into_iter().chain(table("fig12")).collect();
    let names = kernels(&rows);
    assert_eq!(names.len(), workloads::all().len(), "fig11/12 cover the whole library");
    let mut moved: Vec<String> = Vec::new();
    for kernel in names {
        let of_kernel: Vec<&Row> = rows.iter().filter(|r| r.kernel == kernel).collect();
        let policies: Vec<&str> = of_kernel.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies, ["rr", "gto"], "{kernel}: one row per policy");
        let blocks = of_kernel[0].blocks;
        assert!(of_kernel.iter().all(|r| r.blocks == blocks), "{kernel}: one grid for both policies");

        let trace = workloads::by_name(kernel).unwrap().with_blocks(blocks).trace().unwrap();
        let baseline = Experiment::baseline();
        let analysis = Gpumech::new(baseline.cfg.clone()).analyze(&trace).unwrap();
        for row in of_kernel {
            let mut exp = baseline.clone();
            exp.policy = row.policy.parse().unwrap();
            let predictions = predict_models(kernel, &analysis, &exp);
            let mut check = |what: String, now: f64, recorded: &str| {
                if now.to_string() != recorded {
                    moved.push(format!("{kernel} {} {what}: recorded {recorded}, model now {now}", row.policy));
                }
            };
            for (p, recorded) in predictions.iter().zip(&row.cpis) {
                check(format!("{} CPI", p.model), p.cpi_total(), recorded);
            }
            let band = &predictions[BAND];
            assert_eq!(band.model, Model::MtMshrBand);
            for ((category, now), recorded) in band.cpi.components().into_iter().zip(&row.stack) {
                check(format!("{} {category}", band.model), now, recorded);
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} recorded value(s) moved; after an intended model change re-record with \
         results/run_all.sh and read the .tsv diff:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn the_fig11_and_fig12_summaries_follow_from_the_table() {
    for (fig, policy) in [("fig11", "rr"), ("fig12", "gto")] {
        let rows = table(fig);
        assert!(rows.iter().all(|r| r.policy == policy), "{fig}.tsv: every row is {policy}");
        let text = results_file(&format!("{fig}.txt"));
        for (i, model) in Model::ALL.into_iter().enumerate() {
            let errors: Vec<f64> = rows.iter().map(|r| relative_error(num(&r.cpis[i]), r.oracle)).collect();
            let line = summary_line(model, &errors);
            assert!(text.lines().any(|l| l == line), "{fig}.txt has no line {line:?}");
        }
    }
}

#[test]
fn stack_components_sum_to_the_band_cpi_on_every_row() {
    for fig in ["fig11", "fig12", "fig13", "fig14", "fig15"] {
        for r in table(fig) {
            let sum: f64 = r.stack.iter().map(|s| num(s)).sum();
            assert!(
                sum == r.band_cpi(),
                "{fig} {} {} {}: stack sums to {sum}, CPI is {}",
                r.kernel,
                r.policy,
                r.point,
                r.band_cpi()
            );
        }
    }
}

/// Relative rise of a sweep step that counts as a rise. A bandwidth-bound
/// kernel sits on the DRAM roofline at every point, where MSHR and QUEUE
/// cycles trade one for one and the sum moves only in its last bits
/// (`parboil_bfs` reads 29.255519530646904 → 29.2555195306469 →
/// 29.255519530646904 over 64 / 96 / 128 MSHRs).
const ROUNDING: f64 = 1e-12;

/// `(kernel, point)` of every sweep step at which MT_MSHR_BAND's CPI
/// rises although the machine only grew.
fn rises(fig: &str) -> BTreeSet<(String, String)> {
    let rows = table(fig);
    let mut found = BTreeSet::new();
    for kernel in kernels(&rows) {
        let sweep: Vec<&Row> = rows.iter().filter(|r| r.kernel == kernel).collect();
        assert_eq!(sweep.len(), 4, "{fig} {kernel}: four sweep points");
        for step in sweep.windows(2) {
            let (from, to) = (step[0], step[1]);
            assert!(from.axis_value() < to.axis_value(), "{fig} {kernel}: points in ascending order");
            if to.band_cpi() > from.band_cpi() * (1.0 + ROUNDING) {
                found.insert((kernel.to_string(), to.point.clone()));
            }
        }
    }
    found
}

#[test]
fn band_cpi_never_rises_with_mshr_count() {
    assert_eq!(rises("fig14"), BTreeSet::new(), "fig14: CPI rose although MSHRs were added");
}

/// Pinned open finding (DESIGN.md, "DRAM queue jumps at ρ = 1"):
/// `parboil_lbm` crosses ρ = 1 between 248 and 256 GB/s, where the QUEUE
/// term switches from the roofline branch (→ 0 as ρ → 1⁺) to the M/D/1
/// branch (unbounded as ρ → 1⁻), so its CPI rises 2.70 → 3.40. A change to
/// this set, in either direction, must be a deliberate one.
#[test]
fn band_cpi_rises_with_bandwidth_only_at_the_pinned_lbm_point() {
    let pinned = BTreeSet::from([("parboil_lbm".to_string(), "dram=256GB/s".to_string())]);
    assert_eq!(rises("fig15"), pinned, "fig15: the set of bandwidth steps that raise CPI changed");
}
