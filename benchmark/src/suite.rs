//! A full set of runs (one child process per workload and mode), its table
//! and `results.json`, and the comparison of two sets.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::run::{object, to_json, RunRecord};
use crate::spec::{MetricSpec, Spec, EXACT};

/// Where a result came from; two results compare only if these agree.
pub fn provenance(seed: u64) -> Value {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let config = gpumech_exec::analysis_config_fingerprint(&gpumech_isa::SimConfig::table1());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    object([
        (
            "git_commit",
            Value::Str(tool("git", &["rev-parse", "HEAD"])),
        ),
        ("config_fingerprint", Value::Str(format!("{config:016x}"))),
        ("nproc", Value::U64(nproc as u64)),
        ("rustc", Value::Str(tool("rustc", &["--version"]))),
        ("seed", Value::U64(seed)),
    ])
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload untraced and traced, each in a child process of
/// this binary, and assembles `results.json` in `out_dir`.
pub fn run_set(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: &Path,
) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let mut modes = Vec::new();
        for traced in [false, true] {
            eprintln!(
                "== {name} ({}) ==",
                if traced { "traced" } else { "untraced" }
            );
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(out_dir);
            if quick {
                child.arg("--quick");
            }
            // The child's stdout is its own report; the set prints a table.
            let status = child
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{name} ({}) failed: {status}",
                    if traced { "traced" } else { "untraced" }
                ));
            }
            modes.push(read_json(&RunRecord::record_path(out_dir, name, traced))?);
        }
        let digest = |v: &Value| v.get_field("sim_digest").cloned();
        if digest(&modes[0]) != digest(&modes[1]) {
            return Err(format!(
                "{name}: sim_digest differs between the untraced and the traced run"
            ));
        }
        let part = |v: &Value, key: &str| v.get_field(key).cloned().unwrap_or(Value::Null);
        workloads.push((
            name.as_str(),
            object([
                ("sim_digest", part(&modes[0], "sim_digest")),
                ("attempted", part(&modes[0], "attempted")),
                ("failed", part(&modes[0], "failed")),
                ("passes", part(&modes[0], "passes")),
                ("end_to_end", part(&modes[0], "metrics")),
                ("per_layer", part(&modes[1], "metrics")),
            ]),
        ));
    }
    let results = object([
        ("provenance", provenance(seed)),
        ("seconds", Value::F64(seconds)),
        // A quick set ran one pass per workload; its numbers compare with nothing.
        ("comparable", Value::Bool(!quick)),
        ("claim", Value::Null),
        ("workloads", object(workloads)),
    ]);
    let path = out_dir.join("results.json");
    write_json(&path, &results)?;
    print_table(spec, &results);
    Ok(path)
}

/// A field of one workload's entry in a results file.
fn workload_field<'a>(results: &'a Value, workload: &str, key: &str) -> Option<&'a Value> {
    results
        .get_field("workloads")?
        .get_field(workload)?
        .get_field(key)
}

fn metric_of(results: &Value, workload: &str, group: &str, metric: &str) -> Option<f64> {
    workload_field(results, workload, group)?
        .get_field(metric)?
        .as_f64()
}

/// Every metric by name with its unit, one column per workload.
pub fn print_table(spec: &Spec, results: &Value) {
    println!(
        "{:<34} {:<8} {}",
        "metric",
        "unit",
        spec.workloads
            .iter()
            .map(|w| format!("{w:>16}"))
            .collect::<String>()
    );
    for (group, metrics) in [
        ("end_to_end", &spec.end_to_end),
        ("per_layer", &spec.per_layer),
    ] {
        for m in metrics {
            let cells: String = spec
                .workloads
                .iter()
                .map(|w| match metric_of(results, w, group, &m.name) {
                    Some(v) => format!("{v:>16.4}"),
                    None => format!("{:>16}", "-"),
                })
                .collect();
            println!("{:<34} {:<8} {cells}", m.name, m.unit);
        }
    }
    for w in &spec.workloads {
        let digest =
            workload_field(results, w, "sim_digest").map_or_else(|| "-".to_owned(), to_json);
        println!("sim_digest {w}: {digest}");
    }
}

/// `true` when `b` is no worse than `a` by more than the metric's bound.
fn within_bound(m: &MetricSpec, a: f64, b: f64) -> bool {
    let bound = m.bound.unwrap_or(0.0);
    if m.higher_is_better {
        b >= a * (1.0 - bound)
    } else {
        b <= a * (1.0 + bound)
    }
}

/// Compares two result sets of the same code: every end-to-end metric
/// within its bound in both directions, every exact metric and every
/// `sim_digest` equal. Returns the disagreements.
pub fn disagreements(spec: &Spec, a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for side in [a, b] {
        if side.get_field("comparable") != Some(&Value::Bool(true)) {
            out.push("a set is stamped non-comparable (--quick)".to_owned());
        }
    }
    for w in &spec.workloads {
        let digest = |r| workload_field(r, w, "sim_digest");
        if digest(a).is_none() || digest(a) != digest(b) {
            out.push(format!(
                "sim_digest on {w}: {:?} vs {:?}",
                digest(a),
                digest(b)
            ));
        }
        for (group, metrics) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for m in metrics {
                let (Some(x), Some(y)) = (
                    metric_of(a, w, group, &m.name),
                    metric_of(b, w, group, &m.name),
                ) else {
                    out.push(format!("{} on {w}: missing from a set", m.name));
                    continue;
                };
                if EXACT.contains(&m.name.as_str()) {
                    if x != y {
                        out.push(format!(
                            "{} on {w}: exact metric differs, {x} vs {y}",
                            m.name
                        ));
                    }
                } else if m.bound.is_some() && !(within_bound(m, x, y) && within_bound(m, y, x)) {
                    out.push(format!(
                        "{} on {w}: {x} vs {y} is outside the bound of {:.0}%",
                        m.name,
                        100.0 * m.bound.unwrap_or(0.0)
                    ));
                }
            }
        }
    }
    out
}

/// `--agree A.json B.json`: compares two result files.
pub fn agree_files(spec: &Spec, a: &Path, b: &Path) -> Result<(), String> {
    let (ra, rb) = (read_json(a)?, read_json(b)?);
    let bad = disagreements(spec, &ra, &rb);
    for m in &spec.end_to_end {
        for w in &spec.workloads {
            if let (Some(x), Some(y)) = (
                metric_of(&ra, w, "end_to_end", &m.name),
                metric_of(&rb, w, "end_to_end", &m.name),
            ) {
                let diff = if x == 0.0 { 0.0 } else { 100.0 * (y - x) / x };
                println!("{:<20} {:<16} {x:>14.4} {y:>14.4} {diff:>+8.2}%", m.name, w);
            }
        }
    }
    if bad.is_empty() {
        println!("the two sets agree");
        Ok(())
    } else {
        Err(format!("the two sets disagree:\n  {}", bad.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [
                  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                  {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "cpi_error_rr_pct", "unit": "%", "better": "lower", "bound": 0.01}],
                "per_layer": [{"name": "trace.warp_insts", "unit": "count", "better": "lower"},
                              {"name": "trace.share_pct", "unit": "%", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    fn set(ops: f64, p50: f64, err: f64, insts: f64, share: f64, digest: &str) -> Value {
        object(vec![
            ("comparable", Value::Bool(true)),
            (
                "workloads",
                object(vec![(
                    "w",
                    object(vec![
                        ("sim_digest", Value::Str(digest.to_owned())),
                        (
                            "end_to_end",
                            object(vec![
                                ("ops_per_s", Value::F64(ops)),
                                ("op_p50_ms", Value::F64(p50)),
                                ("cpi_error_rr_pct", Value::F64(err)),
                            ]),
                        ),
                        (
                            "per_layer",
                            object(vec![
                                ("trace.warp_insts", Value::F64(insts)),
                                ("trace.share_pct", Value::F64(share)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn sets_within_bounds_agree_in_both_directions() {
        let a = set(100.0, 10.0, 15.5, 1e6, 60.0, "d");
        // 8% slower, 9% higher latency, layer share free to move.
        let b = set(92.0, 10.9, 15.5, 1e6, 40.0, "d");
        assert!(disagreements(&spec(), &a, &b).is_empty());
        assert!(disagreements(&spec(), &b, &a).is_empty());
    }

    #[test]
    fn each_kind_of_difference_is_reported() {
        let a = set(100.0, 10.0, 15.5, 1e6, 60.0, "d");
        let cases = [
            (set(88.0, 10.0, 15.5, 1e6, 60.0, "d"), "ops_per_s"),
            // Better by more than the bound also disagrees: same code, two sets.
            (set(100.0, 8.9, 15.5, 1e6, 60.0, "d"), "op_p50_ms"),
            (set(100.0, 10.0, 15.6, 1e6, 60.0, "d"), "cpi_error_rr_pct"),
            (
                set(100.0, 10.0, 15.5, 1e6 + 1.0, 60.0, "d"),
                "trace.warp_insts",
            ),
            (set(100.0, 10.0, 15.5, 1e6, 60.0, "e"), "sim_digest"),
        ];
        for (b, what) in cases {
            let bad = disagreements(&spec(), &a, &b);
            assert_eq!(bad.len(), 1, "{bad:?}");
            assert!(bad[0].starts_with(what), "{bad:?}");
        }
    }

    #[test]
    fn a_quick_set_compares_with_nothing() {
        let a = set(100.0, 10.0, 15.5, 1e6, 60.0, "d");
        let Value::Object(mut pairs) = a.clone() else {
            unreachable!()
        };
        pairs[0].1 = Value::Bool(false);
        assert_eq!(disagreements(&spec(), &a, &Value::Object(pairs)).len(), 1);
    }
}
