//! The sweep command: `batch`, a kernel × sweep-point enumeration
//! through the batch engine, one row per job.

use std::path::Path;

use gpumech_core::{Model, Prediction, SchedulingPolicy};
use gpumech_exec::{
    analysis_config_fingerprint, run_indexed, BatchEngine, BatchError, BatchOptions, ExecError,
};
use gpumech_obs::Snapshot;
use gpumech_timing::simulate;
use gpumech_trace::{workloads, Workload};

use super::{
    at_blocks, bad_choice, choice, machine_config, positionals, recorded, selection, workload,
    CliError,
};
use crate::args::Args;
use crate::plan::{sweep_points, SweepPlan};
use crate::report::{git_commit, CounterEntry, JobRow, SweepReport};

/// The kernels a sweep covers, at `--blocks` when given: the named ones,
/// or the whole catalogue for none / `all`.
fn sweep_kernels(args: &Args) -> Result<Vec<Workload>, CliError> {
    let names = positionals(args);
    if !names.is_empty() && names != ["all"] {
        return names.iter().map(|n| workload(args, n)).collect();
    }
    workloads::all().into_iter().map(|w| at_blocks(args, w)).collect()
}

/// |model − oracle| / oracle; NaN for an oracle CPI of zero.
fn oracle_error(cpi: f64, oracle: f64) -> f64 {
    if oracle.abs() > f64::EPSILON {
        (cpi - oracle).abs() / oracle
    } else {
        f64::NAN
    }
}

/// Appends one line per outcome of the plan's entries to `out` and
/// returns the matching report rows. `results` and `oracles` are parallel
/// to `plan.jobs`; with `oracle`, a job's line also shows its oracle CPI
/// and the model's error against it.
fn render_rows(
    plan: &SweepPlan,
    results: &[Result<Prediction, BatchError>],
    oracles: &[Option<f64>],
    oracle: bool,
    out: &mut String,
) -> Vec<JobRow> {
    plan.outcomes(results)
        .into_iter()
        .map(|(fp, outcome)| match outcome {
            Ok((j, p)) => {
                let label = &plan.jobs[j].label;
                let cpi = p.cpi_total();
                out.push_str(&format!("{label:<40}{cpi:>10.3}{:>10.3}", p.ipc()));
                if oracle {
                    out.push_str(&match oracles[j] {
                        Some(o) => format!("{o:>10.3}{:>9.1}%", 100.0 * oracle_error(cpi, o)),
                        None => format!("{:>10}{:>10}", "-", "-"),
                    });
                }
                out.push('\n');
                for w in &p.warnings {
                    out.push_str(&format!("    warning: {w}\n"));
                }
                JobRow::ok(label, fp, p, oracles[j])
            }
            Err(e) => {
                // Only a kernel rejected before tracing is a skip.
                let what = match e.error {
                    ExecError::RejectedByAnalysis { .. } => "skipped",
                    _ => "error",
                };
                out.push_str(&format!("{:<40}  {what}: {}\n", e.label, e.error));
                JobRow::failed(fp, e)
            }
        })
        .collect()
}

/// The mean of each job's error against its oracle CPI, over the jobs
/// that have both; `None` when none has.
fn mean_oracle_error(rows: &[JobRow]) -> Option<(f64, usize)> {
    let pairs: Vec<(f64, f64)> =
        rows.iter().filter_map(|r| Some((r.cpi?, r.oracle_cpi?))).collect();
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 =
        pairs.iter().map(|&(cpi, o)| oracle_error(cpi, o)).filter(|e| e.is_finite()).sum();
    Some((sum / pairs.len() as f64, pairs.len()))
}

/// Cache and resilience behaviour, visible without `--obs-out`: every
/// counter the run incremented, one line per family.
fn counter_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    for family in ["exec.cache.", "exec.resilience."] {
        let line: Vec<String> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(family))
            .map(|(name, agg)| {
                let short = name.rsplit('.').next().unwrap_or(name);
                format!("{short}={}", agg.total)
            })
            .collect();
        if !line.is_empty() {
            let label = family.trim_end_matches('.');
            out.push_str(&format!("# {label}: {}\n", line.join(" ")));
        }
    }
    out
}

/// `gpumech batch`: predict a kernel × sweep-point enumeration through
/// the batch engine, one row per job.
pub(super) fn batch(args: &Args) -> Result<String, CliError> {
    let cfg = machine_config(args)?;
    let pol: SchedulingPolicy = choice(args, "policy", "rr")?;
    let kind: Model = choice(args, "model", "full")?;
    let (sel, weighting) = selection(args)?;
    let workers: usize = args.flag_or("workers", 4)?;
    let oracle = args.switch("oracle");
    let kernels = sweep_kernels(args)?;
    let points = sweep_points(args.flag("sweep"), &cfg).map_err(bad_choice("sweep"))?;
    let plan = SweepPlan::enumerate(&kernels, &points, |job| {
        job.policy = pol;
        job.model = kind;
        job.selection = sel;
        job.weighting = weighting;
    })
    .map_err(CliError::Model)?;

    let opts = BatchOptions {
        timeout_ms: args.flag_opt("timeout-ms")?,
        deadline_ms: args.flag_opt("deadline-ms")?,
        ..BatchOptions::default()
    };

    let engine = BatchEngine::new(workers);
    let effective = engine.effective_workers();
    // The default asks for 4 whatever the host has; only a number the
    // user chose is worth a warning.
    if args.flag("workers").is_some() && effective < workers {
        eprintln!(
            "warning: --workers {workers} exceeds this host's available parallelism; \
             running with {effective} worker(s)"
        );
    }
    // Always record: the summary surfaces exec.cache / exec.resilience
    // counters whether or not --obs-out asked for the full trace.
    let ((results, oracles, dt), snap) = recorded(|| {
        let t0 = std::time::Instant::now();
        let results = engine.run_with(&plan.jobs, &opts);
        // Oracle pass (--oracle): the cycle-level simulator over each
        // *successful* job, on the engine's workers; a job's slot is its own
        // whichever worker runs it, so the rows keep their order.
        let oracles: Vec<Option<f64>> = if oracle {
            run_indexed(effective, &plan.jobs, |i, job| {
                Ok(results[i]
                    .is_ok()
                    .then(|| simulate(&job.trace, &job.cfg, job.policy).ok().map(|o| o.cpi()))
                    .flatten())
            })
            .into_iter()
            .map(|r| r.ok().flatten())
            .collect()
        } else {
            vec![None; plan.jobs.len()]
        };
        (results, oracles, t0.elapsed())
    });

    let mut out = format!(
        "# batch: {} job(s) ({} kernel(s) x {} config(s)), workers={workers}\n",
        plan.entries.len(),
        kernels.len(),
        points.len(),
    );
    out.push_str(&format!("{:<40}{:>10}{:>10}", "job", "CPI", "IPC"));
    if oracle {
        out.push_str(&format!("{:>10}{:>10}", "oracle", "error"));
    }
    out.push('\n');
    let rows = render_rows(&plan, &results, &oracles, oracle, &mut out);
    let failures = rows.iter().filter(|r| r.error.is_some()).count();
    if let Some((mean, n)) = mean_oracle_error(&rows) {
        let mean = 100.0 * mean;
        out.push_str(&format!("# model vs oracle: mean |error| {mean:.1}% over {n} job(s)\n"));
    }
    out.push_str(&format!(
        "# {} ok, {failures} failed; {} cached analysis(es); {dt:.2?} wall\n",
        rows.len() - failures,
        engine.cache().len(),
    ));
    out.push_str(&counter_summary(&snap));
    if let Some(path) = args.flag("json") {
        let mut counters: Vec<CounterEntry> = snap
            .counters
            .iter()
            .map(|(name, agg)| CounterEntry { name: (*name).to_string(), total: agg.total })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let report = SweepReport {
            workers: workers as u64,
            cache_entries: engine.cache().len() as u64,
            counters,
            git_commit: git_commit(),
            config_fingerprint: analysis_config_fingerprint(&cfg),
            jobs: rows,
        };
        report.write(Path::new(path)).map_err(CliError::Model)?;
        out.push_str(&format!("batch report written to {path}\n"));
    }
    if let Some(path) = args.flag("obs-out") {
        std::fs::write(path, gpumech_obs::to_jsonl(&snap))?;
        out.push_str(&format!("observability trace written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use serde::Value;

    use crate::commands::tests::{run_err, run_ok, tmp_path};
    use crate::commands::CliError;

    #[test]
    fn batch_sweeps_kernels_and_configs() {
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "2",
            "--sweep", "warps=8,32",
        ]);
        assert!(out.contains("4 job(s) (2 kernel(s) x 2 config(s)), workers=2"), "{out}");
        assert!(out.contains("sdk_vectoradd @ warps=8"));
        assert!(out.contains("bfs_kernel1 @ warps=32"));
        assert!(out.contains("4 ok, 0 failed"));
    }

    #[test]
    fn batch_json_report_is_machine_readable() {
        let path = tmp_path("batch.json");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--workers", "2", "--json", &path_s,
        ]);
        assert!(out.contains("batch report written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        assert_eq!(v.get_field("workers").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get_field("cache_entries").and_then(Value::as_u64), Some(1));
        let Some(Value::Array(jobs)) = v.get_field("jobs") else {
            panic!("jobs array missing: {text}");
        };
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].get_field("cpi").and_then(Value::as_f64).unwrap() > 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_isolates_bad_sweep_points_per_job() {
        // warps=0 fails validation for its job only; the good point and the
        // other kernel still succeed.
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--sweep", "warps=0,8",
        ]);
        assert!(out.contains("1 ok, 1 failed"), "{out}");
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("sdk_vectoradd @ warps=8"));
    }

    #[test]
    fn batch_rejects_bad_arguments() {
        assert!(matches!(run_err(&["batch", "no_such_kernel"]), CliError::UnknownKernel(_)));
        for sweep in ["warps", "volts=1,2", "warps=abc", "warps="] {
            assert!(
                matches!(
                    run_err(&["batch", "sdk_vectoradd", "--sweep", sweep]),
                    CliError::BadChoice { flag: "sweep", .. }
                ),
                "sweep {sweep:?} should be rejected"
            );
        }
    }

    #[test]
    fn batch_deadline_zero_fails_every_job_with_a_typed_error() {
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "1",
            "--deadline-ms", "0",
        ]);
        assert!(out.contains("0 ok, 2 failed"), "{out}");
        assert!(out.contains("deadline exceeded"), "{out}");
    }

    #[test]
    fn batch_oracle_rows_do_not_depend_on_the_worker_count() {
        let rows = |workers: &str| {
            let out = run_ok(&[
                "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", workers,
                "--sweep", "bw=96,192", "--oracle",
            ]);
            // The job rows and the mean error, not the header, the wall
            // time or the cache counters (two workers may miss together).
            let skip = |l: &str| l.starts_with("# batch") || l.starts_with("# exec");
            let rows = out.lines().filter(|l| !skip(l) && !l.contains("wall"));
            rows.map(str::to_owned).collect::<Vec<_>>()
        };
        let one = rows("1");
        assert!(one.iter().any(|l| l.starts_with("# model vs oracle")), "{one:?}");
        assert_eq!(one, rows("2"));
    }

    #[test]
    fn batch_human_output_surfaces_cache_and_resilience_counters() {
        // DRAM bandwidth is a prediction-only axis, so with one worker the
        // second sweep point must hit the profile cache — and the human
        // summary must say so without --obs-out or --json.
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--workers", "1",
            "--sweep", "bw=96,192",
        ]);
        assert!(out.contains("# exec.cache:"), "{out}");
        assert!(out.contains("misses=1"), "{out}");
        assert!(out.contains("hits=1"), "{out}");
    }
}
