//! `BENCHMARK.json` as the binary reads it: the single list of workload and
//! metric names, units and regression bounds.

use serde::Value;

/// Metrics that repeat exactly between runs of the same code: simulated
/// statistics and counts, never host time. `--agree` demands equality.
pub const EXACT: [&str; 16] = [
    "cpi_error_rr_pct",
    "cpi_error_gto_pct",
    "trace.warp_insts",
    "trace.allocs_per_kinst",
    "mem.mem_insts",
    "mem.requests",
    "mem.mshr_reqs",
    "mem.dram_reqs",
    "mem.requests_per_mem_inst",
    "core.intervals",
    "timing.sim_cycles",
    "exec.cache_hit_share",
    "serve.shed_share",
    "serve.status_2xx",
    "serve.status_4xx",
    "serve.status_5xx",
];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name)
        .ok_or_else(|| format!("BENCHMARK.json: missing {name:?}"))
}

fn text(v: &Value, name: &str) -> Result<String, String> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "BENCHMARK.json: {name:?} is a {}, not a string",
            other.kind()
        )),
    }
}

fn list<'a>(v: &'a Value, name: &str) -> Result<&'a [Value], String> {
    match field(v, name)? {
        Value::Array(items) => Ok(items),
        other => Err(format!(
            "BENCHMARK.json: {name:?} is a {}, not a list",
            other.kind()
        )),
    }
}

fn metrics(v: &Value, name: &str) -> Result<Vec<MetricSpec>, String> {
    list(v, name)?
        .iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better is {other:?}")),
                },
                bound: m.get_field("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(json: &str) -> Result<Self, String> {
        let v = serde_json::parse_value(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Self {
            run_seconds: field(&v, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
            workloads: list(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the working directory, which is the root
    /// of the checkout.
    pub fn load() -> Result<Self, String> {
        let json = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Self::parse(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The layers a metric can belong to: the product crates the benchmark
    /// calls, and the benchmark itself.
    const LAYERS: [&str; 8] = [
        "trace", "analyze", "mem", "core", "timing", "exec", "serve", "bench",
    ];

    fn shipped() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn shipped_file_names_the_binarys_workloads_and_layers() {
        let spec = shipped();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for m in &spec.per_layer {
            let layer = m.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{}", m.name);
        }
        let names: BTreeSet<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            names.len(),
            spec.end_to_end.len() + spec.per_layer.len(),
            "a name repeats"
        );
        for exact in EXACT {
            assert!(names.contains(exact), "{exact} is not in BENCHMARK.json");
        }
    }
}
