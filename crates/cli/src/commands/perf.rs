//! `gpumech perf record|compare`: the micro-benchmark suite, its
//! persisted baseline, and the regression gate.

use gpumech_exec::analysis_config_fingerprint;
use gpumech_perf::{
    baseline::BASELINE_VERSION, run_suite, suite_config, Baseline, SuiteOptions, Tolerance,
    STAGE_NAMES,
};

use super::CliError;
use crate::args::Args;

/// Parses `--slow stage=millis[,stage=millis...]` into suite slowdowns —
/// the fault hook the perf-gate acceptance test uses.
fn parse_slow(args: &Args) -> Result<Vec<(String, u64)>, CliError> {
    let Some(spec) = args.flag("slow") else {
        return Ok(Vec::new());
    };
    let bad = |value: &str| CliError::BadChoice {
        flag: "slow",
        value: value.to_string(),
        expected: "stage=millis[,stage=millis...] with a known stage name",
    };
    spec.split(',')
        .map(|part| {
            let (name, ms) = part.split_once('=').ok_or_else(|| bad(part))?;
            if !STAGE_NAMES.contains(&name) {
                return Err(bad(part));
            }
            let ms: u64 = ms.parse().map_err(|_| bad(part))?;
            Ok((name.to_string(), ms))
        })
        .collect()
}

/// `gpumech perf record|compare`: run the named micro-benchmark suite and
/// either persist a baseline or gate against one.
pub(super) fn perf(args: &Args) -> Result<String, CliError> {
    let action = args.required(0, "record|compare")?;
    let opts = SuiteOptions {
        iters: args.flag_or("iters", 5u32)?,
        warmup: args.flag_or("warmup", 2u32)?,
        slow: parse_slow(args)?,
    };
    match action {
        "record" => record(args, &opts),
        "compare" => compare(args, &opts),
        other => Err(CliError::BadChoice {
            flag: "perf",
            value: other.to_string(),
            expected: "record|compare",
        }),
    }
}

/// Default baseline location, shared by `record` and `compare`.
const PERF_BASELINE_PATH: &str = "results/PERF_BASELINE.json";

fn render_suite_table(results: &[gpumech_perf::BenchResult]) -> String {
    let mut out = format!(
        "{:<12}{:>12}{:>12}{:>10}{:>14}{:>14}\n",
        "stage", "min", "mean", "allocs", "alloc_bytes", "peak_live"
    );
    for r in results {
        out.push_str(&format!(
            "{:<12}{:>11.3}m{:>11.3}m{:>10}{:>14}{:>14}\n",
            r.name,
            r.min_ns as f64 / 1e6,
            r.mean_ns as f64 / 1e6,
            r.allocs,
            r.alloc_bytes,
            r.peak_live_bytes,
        ));
    }
    out
}

fn record(args: &Args, opts: &SuiteOptions) -> Result<String, CliError> {
    let results = run_suite(opts).map_err(|e| CliError::Model(e.to_string()))?;
    let baseline = Baseline {
        version: BASELINE_VERSION,
        git_commit: gpumech_perf::git_commit(),
        config_fingerprint: analysis_config_fingerprint(&suite_config()),
        iters: opts.iters,
        warmup: opts.warmup,
        results,
    };
    let path = args.flag("out").unwrap_or(PERF_BASELINE_PATH);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut json = baseline.to_json().map_err(|e| CliError::Model(e.to_string()))?;
    json.push('\n');
    std::fs::write(path, json)?;
    let mut out = format!(
        "# perf record: {} stage(s), min-of-{} after {} warmup, commit {}\n",
        baseline.results.len(),
        baseline.iters,
        baseline.warmup,
        baseline.git_commit,
    );
    out.push_str(&render_suite_table(&baseline.results));
    out.push_str(&format!("baseline written to {path}\n"));
    Ok(out)
}

fn compare(args: &Args, opts: &SuiteOptions) -> Result<String, CliError> {
    let path = args.flag("baseline").unwrap_or(PERF_BASELINE_PATH);
    let text = std::fs::read_to_string(path)?;
    let base = Baseline::from_json(&text).map_err(|e| CliError::Model(e.to_string()))?;
    let tol_pct: f64 = args.flag_or("tolerance", 40.0)?;
    let tol = Tolerance { rel: tol_pct / 100.0, ..Tolerance::default() };
    let results = run_suite(opts).map_err(|e| CliError::Model(e.to_string()))?;
    let cmp = gpumech_perf::compare(&base, &results, tol);
    let mut report = format!("# baseline: {path} (commit {})\n", base.git_commit);
    if base.config_fingerprint != analysis_config_fingerprint(&suite_config()) {
        report.push_str(
            "# warning: baseline was recorded against a different machine configuration\n",
        );
    }
    report.push_str(&cmp.render());
    let regressions = cmp.regressions();
    if regressions > 0 {
        Err(CliError::PerfRegression { report, regressions })
    } else {
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use crate::commands::tests::{recorder_turn, run_err, run_ok, tmp_path};
    use crate::commands::CliError;

    #[test]
    fn perf_record_writes_a_parseable_baseline_covering_every_stage() {
        let _turn = recorder_turn();
        let path = tmp_path("perf-baseline.json");
        let path_s = path.to_string_lossy().to_string();
        let out =
            run_ok(&["perf", "record", "--out", &path_s, "--iters", "1", "--warmup", "0"]);
        assert!(out.contains("baseline written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let base = gpumech_perf::Baseline::from_json(&text).expect("baseline parses back");
        assert_eq!(base.iters, 1);
        for stage in gpumech_perf::STAGE_NAMES {
            let r = base
                .results
                .iter()
                .find(|r| r.name == stage)
                .unwrap_or_else(|| panic!("stage {stage} missing from baseline"));
            assert!(r.min_ns > 0, "{stage} recorded zero time");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn perf_obs_out_trace_validates_with_perf_family_metrics() {
        let trace = tmp_path("perf-obs.jsonl");
        let trace_s = trace.to_string_lossy().to_string();
        let base = tmp_path("perf-obs-baseline.json");
        let base_s = base.to_string_lossy().to_string();
        run_ok(&[
            "perf", "record", "--out", &base_s, "--iters", "1", "--warmup", "0",
            "--obs-out", &trace_s,
        ]);
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("perf.alloc.count"), "{text}");
        assert!(text.contains("perf.bench.min_ns"), "{text}");
        let verdict = run_ok(&["obs-validate", &trace_s]);
        assert!(verdict.contains("valid"), "{verdict}");
        for p in [&trace, &base] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn perf_compare_passes_clean_and_gates_injected_slowdowns() {
        let _turn = recorder_turn();
        let path = tmp_path("perf-gate.json");
        let path_s = path.to_string_lossy().to_string();
        run_ok(&["perf", "record", "--out", &path_s, "--iters", "2", "--warmup", "1"]);
        // A clean re-run on the same machine stays within a generous
        // tolerance (wide headroom keeps this robust on loaded CI hosts).
        let out = run_ok(&[
            "perf", "compare", "--baseline", &path_s, "--iters", "2", "--warmup", "1",
            "--tolerance", "1000",
        ]);
        assert!(out.contains("# perf compare"), "{out}");
        assert!(!out.contains("REGRESSED"), "clean compare regressed: {out}");
        // A fault-injected 500 ms sleep in one stage must trip the gate
        // even at that tolerance, and only that stage may regress.
        let e = run_err(&[
            "perf", "compare", "--baseline", &path_s, "--iters", "2", "--warmup", "1",
            "--tolerance", "1000", "--slow", "e2e_batch=500",
        ]);
        let CliError::PerfRegression { report, regressions } = e else {
            panic!("expected PerfRegression, got {e:?}");
        };
        assert_eq!(regressions, 1, "{report}");
        assert!(report.contains("REGRESSED"), "{report}");
        let regressed: Vec<&str> = report
            .lines()
            .filter(|l| l.contains("REGRESSED"))
            .collect();
        assert!(regressed.iter().all(|l| l.starts_with("e2e_batch")), "{report}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn perf_rejects_bad_actions_and_slow_specs() {
        assert!(matches!(
            run_err(&["perf", "tune"]),
            CliError::BadChoice { flag: "perf", .. }
        ));
        assert!(matches!(run_err(&["perf"]), CliError::Args(_)));
        for spec in ["e2e_batch", "nope=5", "trace=abc", "trace=1,nope=2"] {
            assert!(
                matches!(
                    run_err(&["perf", "compare", "--slow", spec]),
                    CliError::BadChoice { flag: "slow", .. }
                ),
                "slow spec {spec:?} should be rejected"
            );
        }
    }

    #[test]
    fn perf_compare_without_a_baseline_is_a_plain_io_error() {
        let e = run_err(&["perf", "compare", "--baseline", "/no/such/baseline.json"]);
        assert!(matches!(e, CliError::Io(_)), "{e:?}");
    }
}
