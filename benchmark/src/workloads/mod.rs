//! The five workloads. Each drives the product crates only through their
//! public functions, checks every op against a reference computed in
//! set-up, and, in a traced pass, wraps each call into a product layer in a
//! benchmark-side span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gpumech_core::{
    select_representative, Analysis, Gpumech, Prediction, PredictionRequest, SchedulingPolicy,
    SelectionMethod,
};
use gpumech_exec::canonical_prediction_json;

use crate::spans::{self_by_name, total_by_name, Recorder, Span};

pub mod cold;
pub mod oracle;
pub mod serve;
pub mod sweep;

/// Name and reason of every workload, in the order of `BENCHMARK.json`.
pub const NAMES: [&str; 5] = [
    "cold_regular",
    "cold_divergent",
    "sweep_cached",
    "serve_closed",
    "validate_oracle",
];

/// Metric name to value.
pub type Metrics = BTreeMap<String, f64>;

/// How a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Ops go through the product's own entry point, no spans.
    Untraced,
    /// Ops are decomposed by layer and every call is wrapped in a span.
    Traced {
        /// Zero of the span clock.
        epoch: Instant,
        /// Identifier of the pass's first op; ops count up from it.
        op_base: u64,
        /// Take the exact counts and the allocation counts on this pass.
        count: bool,
    },
}

impl Mode {
    pub fn recorder(&self) -> Recorder {
        match self {
            Mode::Untraced => Recorder::off(),
            Mode::Traced { epoch, .. } => Recorder::on(*epoch),
        }
    }

    pub fn op_base(&self) -> u64 {
        match self {
            Mode::Untraced => 0,
            Mode::Traced { op_base, .. } => *op_base,
        }
    }

    pub fn count(&self) -> bool {
        matches!(self, Mode::Traced { count: true, .. })
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index into the workload's op list.
    pub op: usize,
    pub wall_ns: u64,
    /// The op succeeded and its output equals the reference byte for byte.
    pub ok: bool,
}

/// What one pass over the op list produced.
#[derive(Debug)]
pub struct PassResult {
    pub samples: Vec<OpSample>,
    /// Wall time of the pass: the sum of its op walls where ops run one
    /// after another, the clients' wall where they run concurrently.
    pub wall_ns: u64,
    pub spans: Vec<Span>,
}

/// A workload after set-up.
pub trait Workload {
    /// Ops in one pass.
    fn ops(&self) -> usize;

    /// Runs the ops named by `order`, in that order.
    fn pass(&mut self, order: &[usize], mode: Mode) -> Result<PassResult, String>;

    /// FNV-1a of the reference predictions (and, on `validate_oracle`, of
    /// the oracle's cycle counts once a pass has run). A change meant only
    /// to speed the simulator up must leave it identical.
    fn sim_digest(&self) -> u64;

    /// Mean |model - oracle| / oracle in percent, under round-robin and
    /// under greedy-then-oldest scheduling.
    fn cpi_error_pct(&mut self) -> Result<(f64, f64), String> {
        oracle::accuracy_probe()
    }

    /// Stand-alone measurements outside any op, as `probe.*` spans.
    fn probes(&mut self, _epoch: Instant) -> Result<Vec<Span>, String> {
        Ok(Vec::new())
    }

    /// The workload's per-layer metrics from the spans of its traced
    /// passes and probes and from the counts it took itself.
    fn layer_metrics(&self, spans: &[Span], traced_passes: usize, out: &mut Metrics);
}

/// Builds a workload: the part of a run that `setup_s` measures.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_regular" => Box::new(cold::Cold::setup(&crate::plan::REGULAR)?),
        "cold_divergent" => Box::new(cold::Cold::setup(&crate::plan::DIVERGENT)?),
        "sweep_cached" => Box::new(sweep::Sweep::setup()?),
        "serve_closed" => Box::new(serve::Serve::setup(seed)?),
        "validate_oracle" => Box::new(oracle::Oracle::setup()?),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` as one op: inside an `op` span when tracing, and timed.
pub fn timed<T>(rec: &Recorder, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = rec.span("op", f);
    (out, ns(t0.elapsed()))
}

/// A pass whose ops run one after another on this thread.
pub fn sequential_pass(
    order: &[usize],
    mode: Mode,
    mut op: impl FnMut(usize, &Recorder, bool) -> OpSample,
) -> PassResult {
    let rec = mode.recorder();
    let mut samples = Vec::with_capacity(order.len());
    for (k, &i) in order.iter().enumerate() {
        rec.set_op(mode.op_base() + k as u64);
        samples.push(op(i, &rec, mode.count()));
    }
    let wall_ns = samples.iter().map(|s| s.wall_ns).sum();
    PassResult {
        samples,
        wall_ns,
        spans: rec.take(),
    }
}

/// The canonical JSON of a prediction: what references hold.
pub fn canon_of(p: &Prediction) -> String {
    canonical_prediction_json(p).unwrap_or_else(|e| format!("error: {e}"))
}

/// The canonical JSON of an op's outcome; an error becomes text that equals
/// no reference.
pub fn canon<E: std::fmt::Display>(p: &Result<Prediction, E>) -> String {
    match p {
        Ok(p) => canon_of(p),
        Err(e) => format!("error: {e}"),
    }
}

/// Times representative selection and the model equations on an analysis,
/// outside any op, the way `Gpumech::run` chains them.
pub fn probe_select_predict(
    rec: &Recorder,
    model: &Gpumech,
    analysis: &Analysis,
    policy: SchedulingPolicy,
) -> Result<(), String> {
    let rep = rec.span("probe.core.select", || {
        select_representative(&analysis.profiles, SelectionMethod::Clustering)
    });
    let p = rec.span("probe.core.predict", || {
        model.run(&PredictionRequest::from_profile(analysis, rep).policy(policy))
    });
    std::hint::black_box(p.map_err(|e| format!("predict probe: {e}"))?);
    Ok(())
}

/// FNV-1a over a sequence of byte strings, each followed by a separator.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.iter().chain(std::iter::once(&0xffu8)) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Span bookkeeping shared by the workloads' `layer_metrics`.
pub struct SpanTotals {
    own: BTreeMap<&'static str, u64>,
    total: BTreeMap<&'static str, (u64, u64)>,
}

impl SpanTotals {
    pub fn new(spans: &[Span]) -> Self {
        Self {
            own: self_by_name(spans),
            total: total_by_name(spans),
        }
    }

    /// Self time of all spans called `name`, in nanoseconds.
    pub fn own_ns(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64
    }

    /// Total time of all spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.total.get(name).map_or(0, |t| t.0) as f64
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.total.get(name).map_or(0, |t| t.1) as f64
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        ratio(self.total_ns(name), self.count(name))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_content_and_on_boundaries() {
        let d = |parts: &[&str]| fnv1a(parts.iter().map(|p| p.as_bytes()));
        assert_eq!(d(&["ab", "c"]), d(&["ab", "c"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["ab", "c"]), d(&["ab", "d"]));
    }
}
