//! One run of one workload: set-up, timed passes, checks, metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;

use crate::plan::op_order;
use crate::spans::{self, Span};
use crate::spec::Spec;
use crate::stats::{highest_trusted_percentile, median, percentile, samples_beyond};
use crate::workloads::{self, ratio, Metrics, Mode, PassResult, SpanTotals, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where runs leave their span files and detailed records.
pub const OUT_DIR: &str = "target/benchmark";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One set-up and one pass: a smoke run whose numbers compare with nothing.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Everything one run found out.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub args: RunArgs,
    pub attempted: usize,
    pub failed: usize,
    pub passes: usize,
    pub sim_digest: u64,
    pub metrics: Metrics,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self, spec: &Spec) -> String {
        let specs = if self.args.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = specs.iter().map(|m| {
            let value = self.metrics.get(&m.name).copied().unwrap_or(0.0);
            let entry = [
                ("value", Value::F64(value)),
                ("unit", Value::Str(m.unit.clone())),
            ];
            (m.name.as_str(), object(entry))
        });
        to_json(&object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted as u64)),
            ("failed", Value::U64(self.failed as u64)),
            ("metrics", object(metrics)),
        ]))
    }

    /// The detailed record a set of runs is assembled from.
    pub fn to_value(&self, provenance: Value) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.as_str(), Value::F64(*v)));
        object([
            ("workload", Value::Str(self.args.workload.clone())),
            ("traced", Value::Bool(self.args.traced)),
            ("seconds", Value::F64(self.args.seconds)),
            ("comparable", Value::Bool(!self.args.quick)),
            ("provenance", provenance),
            ("attempted", Value::U64(self.attempted as u64)),
            ("failed", Value::U64(self.failed as u64)),
            ("passes", Value::U64(self.passes as u64)),
            (
                "sim_digest",
                Value::Str(format!("{:016x}", self.sim_digest)),
            ),
            ("metrics", object(metrics)),
        ])
    }

    pub fn record_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
        out_dir.join(format!(
            "{workload}.{}.json",
            if traced { "traced" } else { "untraced" }
        ))
    }
}

/// A JSON object from `(key, value)` pairs, in that order.
pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs passes until another one would overrun `budget`, but at least
/// `at_least`. Pass `k` runs in `mode_of(k)`, in an order drawn from `seed`.
fn passes_within(
    w: &mut dyn Workload,
    seed: u64,
    budget: Duration,
    at_least: usize,
    mode_of: impl Fn(usize) -> Mode,
) -> Result<Vec<PassResult>, String> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    loop {
        let order = op_order(seed, passes.len(), w.ops());
        passes.push(w.pass(&order, mode_of(passes.len()))?);
        let spent = t0.elapsed();
        if passes.len() >= at_least && spent + spent / passes.len() as u32 > budget {
            return Ok(passes);
        }
    }
}

/// Tracing overhead in percent: per op the median traced wall over the
/// median untraced wall, then the median of those ratios over the ops that
/// ran both ways.
fn trace_overhead_pct(traced: &[&PassResult], untraced: &[&PassResult]) -> f64 {
    let walls_by_op = |passes: &[&PassResult]| {
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in passes.iter().flat_map(|p| &p.samples) {
            by_op.entry(s.op).or_default().push(s.wall_ns as f64);
        }
        by_op
    };
    let traced = walls_by_op(traced);
    let ratios: Vec<f64> = walls_by_op(untraced)
        .iter()
        .filter_map(|(op, u)| traced.get(op).map(|t| ratio(median(t), median(u))))
        .collect();
    100.0 * (median(&ratios) - 1.0)
}

/// Share of the ops' time per layer, from the self times of the ops' spans, for every
/// `<layer>.share_pct` the spec names; the op spans' own self time is the
/// time no layer span covers.
fn layer_shares(spans: &[Span], spec: &Spec, out: &mut Metrics) {
    let t = SpanTotals::new(spans);
    let op_ns = t.total_ns("op");
    let mut own_by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(spans::self_times(spans)) {
        *own_by_layer.entry(s.layer()).or_insert(0.0) += own as f64;
    }
    for m in &spec.per_layer {
        if let Some(layer) = m.name.strip_suffix(".share_pct") {
            let own = own_by_layer.get(layer).copied().unwrap_or(0.0);
            out.insert(m.name.clone(), 100.0 * ratio(own, op_ns));
        }
    }
    out.insert(
        "bench.unattributed_pct".into(),
        100.0 * ratio(t.own_ns("op"), op_ns),
    );
}

pub fn run(args: &RunArgs, spec: &Spec) -> Result<RunRecord, String> {
    if cfg!(debug_assertions) {
        return Err(
            "built with debug_assertions: timings would mean nothing; build with --release"
                .to_owned(),
        );
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    let mut setup_s = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        // Let go of the previous set-up first so the peak stays one set-up's.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(workloads::setup(&args.workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.ok_or("no set-up ran")?;
    // A quick run stops as soon as it may.
    let budget = Duration::from_secs_f64(if args.quick { 0.0 } else { args.seconds });

    let mut metrics = Metrics::new();
    let passes = if args.traced {
        // Untraced and traced passes take turns, so that the tracing
        // overhead is measured on the same ops under the same conditions. An
        // untraced pass goes first and absorbs what only a first pass pays.
        let epoch = Instant::now();
        let ops = w.ops() as u64;
        let is_traced = |pass: usize| pass % 2 == 1;
        let mut passes = passes_within(&mut *w, args.seed, budget, 2, |p| {
            if is_traced(p) {
                Mode::Traced {
                    epoch,
                    op_base: p as u64 * ops,
                    count: p == 1,
                }
            } else {
                Mode::Untraced
            }
        })?;
        let mut all = Vec::new();
        for p in &mut passes {
            spans::merge(&mut all, std::mem::take(&mut p.spans));
        }
        for m in &spec.per_layer {
            metrics.insert(m.name.clone(), 0.0);
        }
        // Shares come from the ops' spans alone; the probes lie outside ops.
        layer_shares(&all, spec, &mut metrics);
        spans::merge(&mut all, w.probes(epoch)?);
        let of_kind = |traced: bool| -> Vec<&PassResult> {
            let kind = passes
                .iter()
                .enumerate()
                .filter(|(p, _)| is_traced(*p) == traced);
            kind.map(|(_, pass)| pass).collect()
        };
        let (traced, untraced) = (of_kind(true), of_kind(false));
        w.layer_metrics(&all, traced.len(), &mut metrics);
        // Only the first traced pass pays for counting allocations: leave it
        // out of the comparison when there is another.
        let compared = &traced[usize::from(traced.len() > 1)..];
        metrics.insert(
            "bench.trace_overhead_pct".into(),
            trace_overhead_pct(compared, &untraced),
        );
        let path = args.out_dir.join(format!("{}.spans.jsonl", args.workload));
        spans::write_jsonl(&all, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        passes
    } else {
        let passes = passes_within(&mut *w, args.seed, budget, 1, |_| Mode::Untraced)?;
        let walls_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.samples)
            .map(|s| s.wall_ns as f64 / 1e6)
            .collect();
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| ratio(p.samples.len() as f64 * 1e9, p.wall_ns as f64))
            .collect();
        let (rr, gto) = w.cpi_error_pct()?;
        metrics.insert("setup_s".into(), median(&setup_s));
        metrics.insert("ops_per_s".into(), median(&rates));
        metrics.insert("op_p50_ms".into(), percentile(&walls_ms, 50.0));
        metrics.insert("op_p90_ms".into(), percentile(&walls_ms, 90.0));
        metrics.insert("peak_rss_mb".into(), peak_rss_mb()?);
        metrics.insert("cpi_error_rr_pct".into(), rr);
        metrics.insert("cpi_error_gto_pct".into(), gto);
        let n = walls_ms.len();
        println!(
            "# ops_per_s by pass: {}",
            rates
                .iter()
                .map(|r| format!("{r:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "# {} ops timed in {} pass(es); p90 has {} sample(s) beyond it; highest percentile \
             with 10 beyond it: {}",
            n,
            passes.len(),
            samples_beyond(n, 90.0),
            highest_trusted_percentile(n).map_or_else(|| "none".to_owned(), |p| format!("p{p}")),
        );
        passes
    };

    let expected = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(m) = expected.iter().find(|m| !metrics.contains_key(&m.name)) {
        return Err(format!(
            "BENCHMARK.json names {}, which this run did not measure",
            m.name
        ));
    }
    if let Some(name) = metrics
        .keys()
        .find(|k| !expected.iter().any(|m| &m.name == *k))
    {
        return Err(format!(
            "this run measured {name}, which BENCHMARK.json does not name"
        ));
    }
    let samples = || passes.iter().flat_map(|p| &p.samples);
    Ok(RunRecord {
        args: args.clone(),
        attempted: samples().count(),
        failed: samples().filter(|s| !s.ok).count(),
        passes: passes.len(),
        sim_digest: w.sim_digest(),
        metrics,
    })
}
