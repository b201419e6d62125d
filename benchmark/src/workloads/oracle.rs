//! `validate_oracle`: the cycle-level oracle beside the model, on kernels
//! pre-traced at one full occupancy wave. The only workload on which the
//! `timing` crate does the work, and the accuracy reference for every speed
//! number. An op is `simulate` plus `Gpumech::run(from_trace)` for one
//! (kernel, policy) pair.

use std::time::Instant;

use gpumech_core::{Analysis, Gpumech, Prediction, PredictionRequest, SchedulingPolicy};
use gpumech_isa::SimConfig;
use gpumech_timing::simulate;
use gpumech_trace::{workloads, KernelTrace};

use super::cold::{analyze_in_spans, interval_count, MemCounts};
use super::{
    canon_of, fnv1a, ns, probe_select_predict, ratio, sequential_pass, timed, Metrics, Mode,
    OpSample, PassResult, SpanTotals, Workload,
};
use crate::plan::{ACCURACY_PROBE, ORACLE_LEFT_OUT, WAVE_BLOCKS};
use crate::spans::{Recorder, Span};

const POLICIES: [SchedulingPolicy; 2] = [
    SchedulingPolicy::RoundRobin,
    SchedulingPolicy::GreedyThenOldest,
];

struct Kernel {
    trace: KernelTrace,
    /// Wall time of tracing the kernel in set-up.
    trace_ns: u64,
    analysis: Analysis,
    /// Canonical prediction per policy by the plain sequential call.
    refs: [String; 2],
}

/// What the last run of an op observed.
#[derive(Debug, Clone, Copy, Default)]
struct Observed {
    cycles: u64,
    insts: u64,
    /// |model - oracle| / oracle.
    error: f64,
}

pub struct Oracle {
    kernels: Vec<Kernel>,
    cfg: SimConfig,
    model: Gpumech,
    /// Per op (kernel-major, then policy), filled by passes.
    observed: Vec<Option<Observed>>,
    mem: MemCounts,
    intervals: u64,
}

fn relative_error(p: &Prediction, oracle_cpi: f64) -> f64 {
    ratio((p.cpi_total() - oracle_cpi).abs(), oracle_cpi)
}

impl Oracle {
    /// Traces and analyzes the kernels, predicts both policies for the
    /// references, and runs the four shortest ops once as a warm-up (a whole
    /// pass takes longer than a run measures).
    pub fn setup() -> Result<Self, String> {
        let names: Vec<String> = workloads::all()
            .into_iter()
            .map(|w| w.name)
            .filter(|n| !ORACLE_LEFT_OUT.contains(&n.as_str()))
            .collect();
        let mut oracle = Self::with_kernels(&names.iter().map(String::as_str).collect::<Vec<_>>())?;
        let warm: Vec<usize> = ["backprop_layerforward", "sdk_reduction"]
            .iter()
            .filter_map(|n| names.iter().position(|k| k == n))
            .flat_map(|k| [2 * k, 2 * k + 1])
            .collect();
        let warm = oracle.pass(&warm, Mode::Untraced)?;
        if let Some(bad) = warm.samples.iter().find(|s| !s.ok) {
            return Err(format!("warm-up op #{} differs from its reference", bad.op));
        }
        oracle.observed.fill(None);
        Ok(oracle)
    }

    fn with_kernels(names: &[&str]) -> Result<Self, String> {
        let cfg = SimConfig::table1();
        let model = Gpumech::new(cfg.clone());
        let mut kernels = Vec::new();
        for name in names {
            let w = workloads::by_name(name)
                .ok_or_else(|| format!("kernel {name:?} is not in the library"))?
                .with_blocks(WAVE_BLOCKS);
            let t0 = Instant::now();
            let trace = w.trace().map_err(|e| format!("trace {name}: {e}"))?;
            let trace_ns = ns(t0.elapsed());
            let analysis = model
                .analyze(&trace)
                .map_err(|e| format!("analyze {name}: {e}"))?;
            let mut refs = [String::new(), String::new()];
            for (r, policy) in refs.iter_mut().zip(POLICIES) {
                let p = model
                    .run(&PredictionRequest::from_analysis(&analysis).policy(policy))
                    .map_err(|e| format!("reference for {name}: {e}"))?;
                *r = canon_of(&p);
            }
            kernels.push(Kernel {
                trace,
                trace_ns,
                analysis,
                refs,
            });
        }
        let observed = vec![None; 2 * kernels.len()];
        Ok(Self {
            kernels,
            cfg,
            model,
            observed,
            mem: MemCounts::default(),
            intervals: 0,
        })
    }

    /// One op; `Err` holds the text of whatever failed.
    fn op(
        &mut self,
        i: usize,
        rec: &Recorder,
        count: bool,
    ) -> Result<(Prediction, Observed), String> {
        let (k, policy) = (&self.kernels[i / 2], POLICIES[i % 2]);
        let sim = rec
            .span("timing.oracle", || simulate(&k.trace, &self.cfg, policy))
            .map_err(|e| e.to_string())?;
        let p = if rec.is_on() {
            let analysis =
                analyze_in_spans(&self.model, &k.trace, rec).map_err(|e| e.to_string())?;
            if count {
                self.mem.add(&analysis.mem);
                self.intervals += interval_count(&analysis);
            }
            let p = rec.span("core.select_predict", || {
                self.model
                    .run(&PredictionRequest::from_analysis(&analysis).policy(policy))
            });
            rec.span("core.drop", || drop(analysis));
            p
        } else {
            self.model
                .run(&PredictionRequest::from_trace(&k.trace).policy(policy))
        }
        .map_err(|e| e.to_string())?;
        let error = relative_error(&p, sim.cpi());
        Ok((
            p,
            Observed {
                cycles: sim.cycles,
                insts: sim.insts,
                error,
            },
        ))
    }

    /// Mean error in percent over the observed ops of policy `which`.
    fn mean_error_pct(&self, which: usize) -> Result<f64, String> {
        let errors: Vec<f64> = self
            .observed
            .iter()
            .skip(which)
            .step_by(2)
            .map(|o| o.map(|o| o.error).ok_or("an op was never run"))
            .collect::<Result<_, _>>()?;
        Ok(100.0 * crate::stats::mean(&errors))
    }
}

impl Workload for Oracle {
    fn ops(&self) -> usize {
        2 * self.kernels.len()
    }

    fn pass(&mut self, order: &[usize], mode: Mode) -> Result<PassResult, String> {
        Ok(sequential_pass(order, mode, |i, rec, count| {
            let (out, wall_ns) = timed(rec, || self.op(i, rec, count));
            let ok = match out {
                Ok((p, seen)) => {
                    // The oracle is deterministic: a second run of an op
                    // must see the cycles the first one saw.
                    let repeat = self.observed[i].is_none_or(|o| o.cycles == seen.cycles);
                    self.observed[i] = Some(seen);
                    repeat && canon_of(&p) == self.kernels[i / 2].refs[i % 2]
                }
                Err(_) => false,
            };
            OpSample { op: i, wall_ns, ok }
        }))
    }

    fn sim_digest(&self) -> u64 {
        let cycles: Vec<String> = self
            .observed
            .iter()
            .map(|o| o.map_or_else(|| "-".to_owned(), |o| o.cycles.to_string()))
            .collect();
        fnv1a(
            self.kernels
                .iter()
                .flat_map(|k| k.refs.iter().map(String::as_bytes))
                .chain(cycles.iter().map(String::as_bytes)),
        )
    }

    fn cpi_error_pct(&mut self) -> Result<(f64, f64), String> {
        Ok((self.mean_error_pct(0)?, self.mean_error_pct(1)?))
    }

    /// The model equations alone, once per op, on the analysis of set-up.
    fn probes(&mut self, epoch: Instant) -> Result<Vec<Span>, String> {
        let rec = Recorder::on(epoch);
        for (i, k) in self.kernels.iter().enumerate() {
            for (j, policy) in POLICIES.into_iter().enumerate() {
                rec.set_op((2 * i + j) as u64);
                probe_select_predict(&rec, &self.model, &k.analysis, policy)?;
            }
        }
        Ok(rec.take())
    }

    fn layer_metrics(&self, spans: &[Span], traced_passes: usize, out: &mut Metrics) {
        let t = SpanTotals::new(spans);
        let ops = t.count("op");
        let oracle_ns = t.total_ns("timing.oracle");
        let seen: Vec<Observed> = self.observed.iter().flatten().copied().collect();
        let cycles: u64 = seen.iter().map(|o| o.cycles).sum();
        let insts: u64 = seen.iter().map(|o| o.insts).sum();
        let per_pass = traced_passes as f64;
        out.insert(
            "timing.oracle_ms_per_op".into(),
            ratio(oracle_ns, ops) / 1e6,
        );
        out.insert("timing.sim_cycles".into(), cycles as f64);
        out.insert(
            "timing.sim_cycles_per_s".into(),
            ratio(cycles as f64 * per_pass * 1e9, oracle_ns),
        );
        out.insert(
            "timing.warp_insts_per_s".into(),
            ratio(insts as f64 * per_pass * 1e9, oracle_ns),
        );
        // The paper's speed claim: the oracle against everything the model
        // needs for the same answers (the trace once per kernel, analysis
        // and prediction once per op).
        let trace_ns: u64 = self.kernels.iter().map(|k| k.trace_ns).sum();
        let model_ns = trace_ns as f64 * per_pass
            + t.total_ns("mem.cachesim")
            + t.total_ns("core.select_predict");
        out.insert(
            "timing.speedup_vs_oracle".into(),
            ratio(oracle_ns, model_ns),
        );
        let traced_insts: usize = self.kernels.iter().map(|k| k.trace.total_insts()).sum();
        out.insert("trace.warp_insts".into(), traced_insts as f64);
        out.insert(
            "mem.cachesim_ms_per_op".into(),
            ratio(t.own_ns("mem.cachesim"), ops) / 1e6,
        );
        self.mem
            .metrics(t.own_ns("mem.cachesim"), traced_passes, out);
        out.insert(
            "core.intervals_ms_per_op".into(),
            ratio(t.total_ns("core.intervals"), ops) / 1e6,
        );
        out.insert(
            "core.intervals_ns_per_warp_inst".into(),
            ratio(t.total_ns("core.intervals"), insts as f64 * per_pass),
        );
        out.insert("core.intervals".into(), self.intervals as f64);
        out.insert(
            "core.select_ms_per_call".into(),
            t.mean_ns("probe.core.select") / 1e6,
        );
        out.insert(
            "core.predict_us_per_call".into(),
            t.mean_ns("probe.core.predict") / 1e3,
        );
        out.insert(
            "core.select_share_pct".into(),
            100.0 * ratio(t.total_ns("core.select_predict"), t.total_ns("op")),
        );
    }
}

/// Model error against the oracle over [`ACCURACY_PROBE`], in percent under
/// round-robin and under greedy-then-oldest: what the workloads that do not
/// run the oracle themselves report as `cpi_error_*_pct`.
pub fn accuracy_probe() -> Result<(f64, f64), String> {
    let mut probe = Oracle::with_kernels(&ACCURACY_PROBE)?;
    let order: Vec<usize> = (0..probe.ops()).collect();
    let pass = probe.pass(&order, Mode::Untraced)?;
    if let Some(bad) = pass.samples.iter().find(|s| !s.ok) {
        return Err(format!(
            "accuracy probe op #{} differs from its reference",
            bad.op
        ));
    }
    probe.cpi_error_pct()
}
