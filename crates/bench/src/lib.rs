//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every `fig*`/`table*` binary in `src/bin/` is a thin wrapper over this
//! library: [`evaluate_kernel`] runs the timing oracle once and all five
//! Table II models against it, [`KernelEval::error`] computes the paper's
//! validation metric (relative CPI error), and the formatting helpers print
//! the same rows/series the paper plots. Results can also be dumped as
//! JSON for EXPERIMENTS.md bookkeeping.

use std::time::{Duration, Instant};

use gpumech_core::{Gpumech, Model, Prediction, PredictionRequest, SelectionMethod};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::{simulate, TimingResult};
use gpumech_trace::{KernelTrace, Workload};
use serde::{Deserialize, Serialize};

/// Grid size (blocks) used by the experiment harnesses.
///
/// The bundled workloads default to 192 blocks (3x occupancy of the
/// Table I machine, as the paper requires); the harnesses keep that but
/// allow an override for quick runs via [`Experiment::blocks`].
pub const DEFAULT_BLOCKS: usize = 192;

/// Prints `error: {msg}` to stderr and exits with a failure code.
///
/// The harness binaries treat any setup failure (unknown kernel, bad flag,
/// oracle error) as fatal; this keeps that behaviour while avoiding a
/// panic and its backtrace.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// The value following `flag` on this process's command line.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// The `--blocks N` grid-size override every figure harness accepts.
#[must_use]
pub fn arg_blocks() -> Option<usize> {
    arg_value("--blocks").map(|s| s.parse().unwrap_or_else(|_| fail("--blocks expects a number")))
}

/// One kernel evaluated under one configuration and policy: the oracle
/// result and every model's prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelEval {
    /// Workload name.
    pub name: String,
    /// Machine configuration used.
    pub config_label: String,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Oracle (cycle-level) CPI.
    pub oracle_cpi: f64,
    /// Oracle wall-clock runtime.
    pub oracle_time: Duration,
    /// Model predictions in Table II order.
    pub predictions: Vec<Prediction>,
    /// Wall-clock time of the one-time analysis (cache sim + interval
    /// algorithm over all warps + clustering).
    pub analysis_time: Duration,
    /// Wall-clock time of the per-(model, policy) prediction step.
    pub predict_time: Duration,
}

impl KernelEval {
    /// Relative CPI error of `model` versus the oracle:
    /// `|CPI_model - CPI_sim| / CPI_sim`.
    #[must_use]
    pub fn error(&self, model: Model) -> f64 {
        let p = self.prediction(model);
        (p.cpi_total() - self.oracle_cpi).abs() / self.oracle_cpi
    }

    /// The prediction of one model. Exits the process if `model` was not
    /// evaluated (a harness programming error).
    #[must_use]
    pub fn prediction(&self, model: Model) -> &Prediction {
        self.predictions
            .iter()
            .find(|p| p.model == model)
            .unwrap_or_else(|| fail(format_args!("model {model} missing from evaluation")))
    }
}

/// Experiment configuration shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Machine configuration.
    pub cfg: SimConfig,
    /// Human-readable label for the configuration (axis value in sweeps).
    pub label: String,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Grid size override (`None` keeps each workload's default grid).
    pub blocks: Option<usize>,
    /// Representative-warp selection method.
    pub selection: SelectionMethod,
}

impl Experiment {
    /// Baseline experiment: Table I machine, round-robin, clustering.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            cfg: SimConfig::table1(),
            label: "table1".to_string(),
            policy: SchedulingPolicy::RoundRobin,
            blocks: None,
            selection: SelectionMethod::Clustering,
        }
    }
}

/// Runs the oracle and all five models for one workload.
///
/// Exits the process (via [`fail`]) if tracing, simulation, or modeling
/// fails — harness binaries treat any failure as fatal.
#[must_use]
pub fn evaluate_kernel(workload: &Workload, exp: &Experiment) -> KernelEval {
    let w = match exp.blocks {
        Some(b) => workload.clone().with_blocks(b),
        None => workload.clone(),
    };
    let trace = w.trace().unwrap_or_else(|e| fail(format_args!("{}: trace failed: {e}", w.name)));
    evaluate_trace(&w.name, &trace, exp)
}

/// Deduplicated model warnings across all predictions of an evaluation,
/// in first-seen order.
#[must_use]
pub fn distinct_warnings(predictions: &[Prediction]) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for p in predictions {
        for w in &p.warnings {
            if !seen.contains(w) {
                seen.push(w.clone());
            }
        }
    }
    seen
}

/// [`evaluate_kernel`] over a pre-generated trace.
///
/// Model warnings are printed to stderr (deduplicated) rather than
/// silently dropped; they also remain on each serialized [`Prediction`]
/// so JSON dumps carry them.
///
/// Exits the process (via [`fail`]) if simulation or modeling fails.
#[must_use]
pub fn evaluate_trace(name: &str, trace: &KernelTrace, exp: &Experiment) -> KernelEval {
    let _span = gpumech_obs::span!("bench.eval.kernel", name = name, policy = exp.policy.to_string());
    let t0 = Instant::now();
    let oracle: TimingResult = simulate(trace, &exp.cfg, exp.policy)
        .unwrap_or_else(|e| fail(format_args!("{name}: oracle failed: {e}")));
    let oracle_time = t0.elapsed();

    let model = Gpumech::new(exp.cfg.clone());
    let t1 = Instant::now();
    let analysis = model
        .analyze(trace)
        .unwrap_or_else(|e| fail(format_args!("{name}: analysis failed: {e}")));
    let analysis_time = t1.elapsed();

    let t2 = Instant::now();
    let predictions: Vec<Prediction> = Model::ALL
        .iter()
        .map(|&m| {
            let req = PredictionRequest::from_analysis(&analysis)
                .policy(exp.policy)
                .model(m)
                .selection(exp.selection);
            model
                .run(&req)
                .unwrap_or_else(|e| fail(format_args!("{name}: prediction failed: {e}")))
        })
        .collect();
    let predict_time = t2.elapsed();

    let warnings = distinct_warnings(&predictions);
    gpumech_obs::counter!("bench.eval.kernels", 1u64);
    gpumech_obs::counter!("bench.eval.warnings", warnings.len() as u64);
    for w in &warnings {
        eprintln!("warning: {name}: {w}");
    }

    KernelEval {
        name: name.to_string(),
        config_label: exp.label.clone(),
        policy: exp.policy,
        oracle_cpi: oracle.cpi(),
        oracle_time,
        predictions,
        analysis_time,
        predict_time,
    }
}

/// Mean of `values`.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() { 0.0 } else { values.iter().sum::<f64>() / values.len() as f64 }
}

/// Mean relative error of one model across evaluations.
#[must_use]
pub fn mean_error(evals: &[KernelEval], model: Model) -> f64 {
    mean(&evals.iter().map(|e| e.error(model)).collect::<Vec<_>>())
}

/// Fraction of evaluations with error below `threshold` for one model
/// (the paper's "75% of kernels have less than 20% error" style metric).
#[must_use]
pub fn fraction_below(evals: &[KernelEval], model: Model, threshold: f64) -> f64 {
    if evals.is_empty() {
        return 0.0;
    }
    evals.iter().filter(|e| e.error(model) < threshold).count() as f64 / evals.len() as f64
}

/// Formats a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a per-kernel error table for the given models.
pub fn print_error_table(evals: &[KernelEval], models: &[Model]) {
    print!("{:<28}", "kernel");
    print!("{:>10}", "oracle");
    for m in models {
        print!("{:>16}", m.to_string());
    }
    println!();
    for e in evals {
        print!("{:<28}{:>10.3}", e.name, e.oracle_cpi);
        for &m in models {
            print!("{:>16}", pct(e.error(m)));
        }
        println!();
    }
    print!("{:<28}{:>10}", "MEAN ERROR", "");
    for &m in models {
        print!("{:>16}", pct(mean_error(evals, m)));
    }
    println!();
}

/// Honours `--json PATH`: dumps `evals` there and says so on stderr.
fn dump_json_if_asked(evals: &[KernelEval]) {
    if let Some(path) = arg_value("--json") {
        dump_json(evals, &path).unwrap_or_else(|e| fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}

/// The model-comparison harness of Figures 11 and 12: all 40 workloads on
/// the Table I machine under `policy`, the five Table II models against
/// the cycle-level oracle, per-kernel relative CPI errors plus the paper's
/// summary metrics (mean error per model; fraction of kernels under 20%
/// error). `header` and `reference` are the figure's own captions.
/// Honours `--blocks N` and `--json PATH`.
pub fn model_comparison(policy: SchedulingPolicy, label: &str, header: &str, reference: &str) {
    let mut exp = Experiment::baseline();
    exp.policy = policy;
    exp.label = label.to_string();
    exp.blocks = arg_blocks();

    println!("{header}\n");
    let evals: Vec<KernelEval> = gpumech_trace::workloads::all()
        .iter()
        .map(|w| {
            let e = evaluate_kernel(w, &exp);
            eprintln!("  done {:<28} oracle {:>8.3} cpi", e.name, e.oracle_cpi);
            e
        })
        .collect();

    print_error_table(&evals, &Model::ALL);
    println!();
    for m in Model::ALL {
        println!(
            "{:<16} mean error {:>7}   kernels under 20% error: {}",
            m.to_string(),
            pct(mean_error(&evals, m)),
            pct(fraction_below(&evals, m, 0.20)),
        );
    }
    println!("\n{reference}");
    dump_json_if_asked(&evals);
}

/// The axis-sweep harness of Figures 13–15: the mean error of every
/// Table II model over all 40 workloads (round-robin) at each point of
/// one machine axis. A point is its axis value, its configuration label
/// and its machine; `column` heads the value column, `header` and
/// `reference` are the figure's own captions. Honours `--blocks N` and
/// `--json PATH`.
pub fn axis_sweep(header: &str, column: &str, points: &[(u32, String, SimConfig)], reference: &str) {
    println!("{header}\n");
    let blocks = arg_blocks();
    let mut all_evals: Vec<KernelEval> = Vec::new();
    let mut rows: Vec<(u32, Vec<f64>)> = Vec::new();
    for (value, label, cfg) in points {
        let mut exp = Experiment::baseline();
        exp.cfg = cfg.clone();
        exp.label = label.clone();
        exp.blocks = blocks;
        let evals: Vec<KernelEval> =
            gpumech_trace::workloads::all().iter().map(|w| evaluate_kernel(w, &exp)).collect();
        eprintln!("  swept {label}");
        rows.push((*value, Model::ALL.iter().map(|&m| mean_error(&evals, m)).collect()));
        all_evals.extend(evals);
    }

    print!("{column:<8}");
    for m in Model::ALL {
        print!("{:>16}", m.to_string());
    }
    println!();
    for (value, errs) in &rows {
        print!("{value:<8}");
        for e in errs {
            print!("{:>16}", pct(*e));
        }
        println!();
    }
    println!("\n{reference}");
    dump_json_if_asked(&all_evals);
}

/// Writes evaluations as JSON to `path` (used to record EXPERIMENTS.md
/// data).
///
/// # Errors
///
/// Propagates I/O and serialization errors.
pub fn dump_json(evals: &[KernelEval], path: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, serde_json::to_string_pretty(evals)?)?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::workloads;

    #[test]
    fn evaluate_kernel_produces_all_models() {
        let w = workloads::by_name("sdk_vectoradd").unwrap();
        let mut exp = Experiment::baseline();
        exp.blocks = Some(8);
        let e = evaluate_kernel(&w, &exp);
        assert_eq!(e.predictions.len(), 5);
        assert!(e.oracle_cpi > 0.0);
        for m in Model::ALL {
            assert!(e.error(m).is_finite());
        }
    }

    #[test]
    fn mean_and_fraction_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(pct(0.132), "13.2%");
    }
}
