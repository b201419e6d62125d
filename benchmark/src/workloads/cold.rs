//! `cold_regular` and `cold_divergent`: the `gpumech predict` path, from a
//! kernel to a prediction with nothing cached.
//!
//! An op is `Gpumech::run(PredictionRequest::from_workload(..))`; the trace
//! and the analysis it builds are dropped inside that call. A traced op
//! makes the same calls one layer at a time.

use gpumech_core::{build_profile, Analysis, Gpumech, Prediction, PredictionRequest};
use gpumech_isa::SimConfig;
use gpumech_mem::MemStats;
use gpumech_perf::AllocScope;
use gpumech_trace::workloads;

use super::{
    canon, canon_of, fnv1a, ratio, sequential_pass, timed, Metrics, Mode, OpSample, PassResult,
    SpanTotals, Workload,
};
use crate::plan::COLD_BLOCKS;
use crate::spans::{Recorder, Span};

/// Exact counts of one pass, taken on the first traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub warp_insts: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub mem: MemCounts,
    pub intervals: u64,
}

/// Totals of the cache simulation's per-PC statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCounts {
    pub mem_insts: u64,
    pub requests: u64,
    pub mshr_reqs: u64,
    pub dram_reqs: u64,
}

impl MemCounts {
    pub fn add(&mut self, mem: &MemStats) {
        for s in mem
            .load_pcs()
            .chain(mem.store_pcs())
            .filter_map(|pc| mem.pc_stats(pc))
        {
            self.mem_insts += s.insts;
            self.requests += s.reqs;
            self.mshr_reqs += s.mshr_reqs;
            self.dram_reqs += s.dram_reqs;
        }
    }

    /// The `mem.*` metrics that both cold workloads and `validate_oracle`
    /// report; `cachesim_ns` is the cache simulation's time over `passes`
    /// passes with these counts each.
    pub fn metrics(&self, cachesim_ns: f64, passes: usize, out: &mut Metrics) {
        let per_pass = |n: u64| n as f64 * passes as f64;
        out.insert(
            "mem.ns_per_request".into(),
            ratio(cachesim_ns, per_pass(self.requests)),
        );
        out.insert(
            "mem.ns_per_mem_inst".into(),
            ratio(cachesim_ns, per_pass(self.mem_insts)),
        );
        out.insert("mem.mem_insts".into(), self.mem_insts as f64);
        out.insert("mem.requests".into(), self.requests as f64);
        out.insert("mem.mshr_reqs".into(), self.mshr_reqs as f64);
        out.insert("mem.dram_reqs".into(), self.dram_reqs as f64);
        out.insert(
            "mem.requests_per_mem_inst".into(),
            ratio(self.requests as f64, self.mem_insts as f64),
        );
    }
}

/// Number of intervals over all warps of an analysis.
pub fn interval_count(a: &Analysis) -> u64 {
    a.profiles.iter().map(|p| p.intervals.len() as u64).sum()
}

/// The analysis stage called the way `Gpumech::analyze` calls it, with the
/// cache simulation and the interval profiles in spans of their own: the
/// self time of `mem.cachesim` is the cache simulation (plus trace
/// validation), `core.intervals` is the per-warp interval algorithm.
pub fn analyze_in_spans(
    model: &Gpumech,
    trace: &gpumech_trace::KernelTrace,
    rec: &Recorder,
) -> Result<Analysis, gpumech_core::ModelError> {
    rec.span("mem.cachesim", || {
        model.analyze_with(trace, |warps, cfg, mem| {
            rec.span("core.intervals", || {
                Ok(warps.iter().map(|w| build_profile(w, cfg, mem)).collect())
            })
        })
    })
}

pub struct Cold {
    kernels: Vec<workloads::Workload>,
    model: Gpumech,
    /// Canonical prediction of every kernel by the plain sequential call.
    refs: Vec<String>,
    counts: Counts,
}

impl Cold {
    /// Builds the kernels at 192 blocks and predicts each once: that pass
    /// yields the references and warms the heap.
    pub fn setup(names: &[&str]) -> Result<Self, String> {
        let kernels: Vec<workloads::Workload> = names
            .iter()
            .map(|n| {
                workloads::by_name(n)
                    .map(|w| w.with_blocks(COLD_BLOCKS))
                    .ok_or_else(|| format!("kernel {n:?} is not in the library"))
            })
            .collect::<Result<_, _>>()?;
        let model = Gpumech::new(SimConfig::table1());
        let mut refs = Vec::with_capacity(kernels.len());
        for w in &kernels {
            let p = model
                .run(&PredictionRequest::from_workload(w))
                .map_err(|e| format!("reference for {}: {e}", w.name))?;
            refs.push(canon_of(&p));
        }
        Ok(Self {
            kernels,
            model,
            refs,
            counts: Counts::default(),
        })
    }

    fn traced_op(
        &mut self,
        i: usize,
        rec: &Recorder,
        count: bool,
    ) -> Result<Prediction, gpumech_core::ModelError> {
        let w = &self.kernels[i];
        let trace = rec.span("trace.engine", || {
            let scope = count.then(AllocScope::begin);
            let t = w.trace();
            if let Some(scope) = scope {
                let d = scope.delta();
                self.counts.allocs += d.allocs;
                self.counts.alloc_bytes += d.bytes;
            }
            t
        })?;
        let analysis = analyze_in_spans(&self.model, &trace, rec)?;
        if count {
            self.counts.warp_insts += trace.total_insts() as u64;
            self.counts.mem.add(&analysis.mem);
            self.counts.intervals += interval_count(&analysis);
        }
        let p = rec.span("core.select_predict", || {
            self.model.run(&PredictionRequest::from_analysis(&analysis))
        });
        rec.span("trace.drop", || drop(trace));
        rec.span("core.drop", || drop(analysis));
        p
    }
}

impl Workload for Cold {
    fn ops(&self) -> usize {
        self.kernels.len()
    }

    fn pass(&mut self, order: &[usize], mode: Mode) -> Result<PassResult, String> {
        Ok(sequential_pass(order, mode, |i, rec, count| {
            let (p, wall_ns) = timed(rec, || {
                if rec.is_on() {
                    self.traced_op(i, rec, count)
                } else {
                    self.model
                        .run(&PredictionRequest::from_workload(&self.kernels[i]))
                }
            });
            OpSample {
                op: i,
                wall_ns,
                ok: canon(&p) == self.refs[i],
            }
        }))
    }

    fn sim_digest(&self) -> u64 {
        fnv1a(self.refs.iter().map(String::as_bytes))
    }

    fn layer_metrics(&self, spans: &[Span], traced_passes: usize, out: &mut Metrics) {
        let t = SpanTotals::new(spans);
        let ops = t.count("op");
        let c = &self.counts;
        let warp_insts = c.warp_insts as f64 * traced_passes as f64;
        let ms_per_op = |ns: f64| ratio(ns, ops) / 1e6;
        out.insert(
            "trace.engine_ms_per_op".into(),
            ms_per_op(t.total_ns("trace.engine")),
        );
        out.insert(
            "trace.ns_per_warp_inst".into(),
            ratio(t.total_ns("trace.engine"), warp_insts),
        );
        out.insert("trace.warp_insts".into(), c.warp_insts as f64);
        out.insert(
            "trace.allocs_per_kinst".into(),
            ratio(c.allocs as f64 * 1e3, c.warp_insts as f64),
        );
        out.insert(
            "trace.alloc_bytes_per_warp_inst".into(),
            ratio(c.alloc_bytes as f64, c.warp_insts as f64),
        );
        out.insert(
            "trace.drop_ms_per_op".into(),
            ms_per_op(t.total_ns("trace.drop")),
        );
        out.insert(
            "mem.cachesim_ms_per_op".into(),
            ms_per_op(t.own_ns("mem.cachesim")),
        );
        c.mem.metrics(t.own_ns("mem.cachesim"), traced_passes, out);
        out.insert(
            "core.intervals_ms_per_op".into(),
            ms_per_op(t.total_ns("core.intervals")),
        );
        out.insert(
            "core.intervals_ns_per_warp_inst".into(),
            ratio(t.total_ns("core.intervals"), warp_insts),
        );
        out.insert("core.intervals".into(), c.intervals as f64);
        // Selection and the model equations run in one call here; the
        // equations are microseconds (see predict_us_per_call on
        // sweep_cached), so the call is reported as the selection.
        out.insert(
            "core.select_ms_per_call".into(),
            t.mean_ns("core.select_predict") / 1e6,
        );
        out.insert(
            "core.select_share_pct".into(),
            100.0 * ratio(t.total_ns("core.select_predict"), t.total_ns("op")),
        );
    }
}
