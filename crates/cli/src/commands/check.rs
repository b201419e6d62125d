//! The checker: `lint` (static analysis of kernel IR).

use gpumech_analyze::{analyze, KernelAnalysis, Severity};
use gpumech_isa::Kernel;
use gpumech_trace::workloads;

use super::CliError;
use crate::args::Args;

pub(super) fn lint(args: &Args) -> Result<String, CliError> {
    let target = args.positional(0).unwrap_or("all");
    let min = match args.flag("min-severity").unwrap_or("info") {
        "info" => Severity::Info,
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        other => {
            return Err(CliError::BadChoice {
                flag: "min-severity",
                value: other.to_string(),
                expected: "info|warning|error",
            })
        }
    };
    // Kernels to lint: a JSON file of serialized kernels (external input),
    // or the named catalogue workload, or the whole catalogue.
    let kernels: Vec<Kernel> = if let Some(path) = args.flag("from-json") {
        let text = std::fs::read_to_string(path)?;
        // Accept both a single kernel object and an array of kernels.
        serde_json::from_str::<Vec<Kernel>>(&text)
            .or_else(|_| serde_json::from_str::<Kernel>(&text).map(|k| vec![k]))
            .map_err(|e| CliError::Model(format!("{path}: {e}")))?
    } else if target == "all" {
        workloads::all().into_iter().map(|w| w.kernel).collect()
    } else {
        vec![workloads::by_name(target)
            .ok_or_else(|| CliError::UnknownKernel(target.to_string()))?
            .kernel]
    };

    let analyses: Vec<(String, KernelAnalysis)> =
        kernels.iter().map(|k| (k.name.clone(), analyze(k))).collect();
    let count = |sev| {
        analyses
            .iter()
            .flat_map(|(_, a)| &a.diagnostics)
            .filter(|d| d.severity == sev)
            .count()
    };
    let (errors, warnings, infos) =
        (count(Severity::Error), count(Severity::Warning), count(Severity::Info));

    let report = match args.flag("format").unwrap_or("text") {
        "json" => {
            let objs: Vec<&KernelAnalysis> = analyses.iter().map(|(_, a)| a).collect();
            let mut s =
                serde_json::to_string_pretty(&objs).map_err(|e| CliError::Model(e.to_string()))?;
            s.push('\n');
            s
        }
        "text" => {
            let mut out = String::new();
            for (name, a) in &analyses {
                let m = &a.metrics;
                out.push_str(&format!(
                    "{:<28}{:<9}{:>6} insts  {:>2}/{:<2} branches divergent  \
                     mem b/c/s/x {}/{}/{}/{}",
                    name,
                    a.max_severity().map_or("clean".to_string(), |s| s.to_string()),
                    m.insts,
                    m.divergent_branches,
                    m.branches,
                    m.broadcast_accesses,
                    m.coalesced_accesses,
                    m.strided_accesses,
                    m.scattered_accesses,
                ));
                out.push('\n');
                for d in a.diagnostics_at_least(min) {
                    out.push_str(&format!("    {d}\n"));
                }
            }
            out.push_str(&format!(
                "\nlinted {} kernel(s): {errors} error(s), {warnings} warning(s), \
                 {infos} info(s)\n",
                analyses.len()
            ));
            out
        }
        other => {
            return Err(CliError::BadChoice {
                flag: "format",
                value: other.to_string(),
                expected: "text|json",
            })
        }
    };

    if errors > 0 {
        Err(CliError::LintFailed { report, errors })
    } else {
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use gpumech_analyze::KernelAnalysis;

    use crate::commands::tests::{run_err, run_ok};
    use crate::commands::CliError;

    #[test]
    fn lint_all_is_clean_over_the_workload_library() {
        let out = run_ok(&["lint"]);
        assert!(out.contains("linted 40 kernel(s): 0 error(s)"), "{out}");
        assert!(out.contains("kmeans_invert_mapping"));
    }

    #[test]
    fn lint_single_kernel_shows_divergence_findings() {
        let out = run_ok(&["lint", "bfs_kernel1", "--min-severity", "info"]);
        assert!(out.contains("linted 1 kernel(s)"), "{out}");
    }

    #[test]
    fn lint_json_round_trips() {
        let out = run_ok(&["lint", "sdk_vectoradd", "--format", "json"]);
        let parsed: Vec<KernelAnalysis> = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(parsed.len(), 1);
        assert!(!parsed[0].has_errors());
    }

    #[test]
    fn lint_rejects_bad_flag_values() {
        assert!(matches!(
            run_err(&["lint", "--format", "xml"]),
            CliError::BadChoice { flag: "format", .. }
        ));
        assert!(matches!(
            run_err(&["lint", "--min-severity", "fatal"]),
            CliError::BadChoice { flag: "min-severity", .. }
        ));
        assert!(matches!(run_err(&["lint", "nope"]), CliError::UnknownKernel(_)));
    }
}
