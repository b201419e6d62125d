//! `sweep_cached`: the design-space use of the paper's Section VII. Every
//! kernel is traced once and its analysis sits in the `ProfileCache`; an op
//! is one kernel's 12-point bandwidth x MSHR sweep through `BatchEngine::run`
//! with one worker.
//!
//! The engine call is opaque from outside, so its inside is measured by
//! stand-alone probes of the same work on the benchmark's own copy of the
//! analysis: fingerprinting the trace, selecting the representative warp,
//! and the model equations.

use std::sync::Arc;
use std::time::Instant;

use gpumech_core::{Analysis, Gpumech, PredictionRequest};
use gpumech_exec::{trace_fingerprint, BatchEngine, BatchJob, ProfileCache};
use gpumech_isa::SimConfig;
use gpumech_trace::{io, workloads, KernelTrace};

use super::{
    canon, canon_of, fnv1a, probe_select_predict, ratio, sequential_pass, timed, Metrics, Mode,
    OpSample, PassResult, SpanTotals, Workload,
};
use crate::plan::{SWEEP_BW, SWEEP_MSHRS, WAVE_BLOCKS};
use crate::spans::{Recorder, Span};

struct Kernel {
    kernel: gpumech_isa::Kernel,
    trace: Arc<KernelTrace>,
    analysis: Analysis,
    jobs: Vec<BatchJob>,
    /// Canonical prediction of every job by the plain sequential call.
    refs: Vec<String>,
}

pub struct Sweep {
    kernels: Vec<Kernel>,
    engine: BatchEngine,
    /// Entries of the engine's cache after set-up: one per kernel.
    cache_entries: usize,
    warp_insts: u64,
}

/// The sweep's machine configurations.
fn configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for bw in SWEEP_BW {
        for mshrs in SWEEP_MSHRS {
            out.push(
                SimConfig::table1()
                    .with_dram_bandwidth(bw)
                    .with_mshrs(mshrs),
            );
        }
    }
    out
}

impl Sweep {
    /// Traces and analyzes the 40 kernels at 64 blocks, predicts every
    /// sweep point from the analysis for the references, then runs one pass
    /// through a fresh engine, which fills its cache.
    pub fn setup() -> Result<Self, String> {
        let model = Gpumech::new(SimConfig::table1());
        let configs = configs();
        let mut kernels = Vec::new();
        for w in workloads::all() {
            let w = w.with_blocks(WAVE_BLOCKS);
            let trace = Arc::new(w.trace().map_err(|e| format!("trace {}: {e}", w.name))?);
            let analysis = model
                .analyze(&trace)
                .map_err(|e| format!("analyze {}: {e}", w.name))?;
            let mut jobs = Vec::new();
            let mut refs = Vec::new();
            for cfg in &configs {
                let label = format!(
                    "{} @ bw={} mshrs={}",
                    w.name, cfg.dram_bandwidth_gbps, cfg.num_mshrs
                );
                // The analysis does not depend on bandwidth or MSHR count,
                // so one analysis serves every point of the sweep.
                let p = Gpumech::new(cfg.clone())
                    .run(&PredictionRequest::from_analysis(&analysis))
                    .map_err(|e| format!("reference for {label}: {e}"))?;
                refs.push(canon_of(&p));
                jobs.push(BatchJob::new(label, Arc::clone(&trace), cfg.clone()));
            }
            kernels.push(Kernel {
                kernel: w.kernel,
                trace,
                analysis,
                jobs,
                refs,
            });
        }
        let engine = BatchEngine::with_cache(1, ProfileCache::in_memory());
        let warp_insts = kernels.iter().map(|k| k.trace.total_insts() as u64).sum();
        let mut sweep = Self {
            kernels,
            engine,
            cache_entries: 0,
            warp_insts,
        };
        let order: Vec<usize> = (0..sweep.ops()).collect();
        let warm = sweep.pass(&order, Mode::Untraced)?;
        if let Some(bad) = warm.samples.iter().find(|s| !s.ok) {
            return Err(format!(
                "warm-up sweep of kernel #{} differs from its reference",
                bad.op
            ));
        }
        sweep.cache_entries = sweep.engine.cache().len();
        Ok(sweep)
    }
}

impl Workload for Sweep {
    fn ops(&self) -> usize {
        self.kernels.len()
    }

    fn pass(&mut self, order: &[usize], mode: Mode) -> Result<PassResult, String> {
        Ok(sequential_pass(order, mode, |i, rec, _| {
            let k = &self.kernels[i];
            let (out, wall_ns) = timed(rec, || {
                rec.span("exec.batch_run", || self.engine.run(&k.jobs))
            });
            let ok = out.len() == k.refs.len()
                && out.iter().zip(&k.refs).all(|(p, want)| &canon(p) == want);
            OpSample { op: i, wall_ns, ok }
        }))
    }

    fn sim_digest(&self) -> u64 {
        fnv1a(
            self.kernels
                .iter()
                .flat_map(|k| k.refs.iter().map(String::as_bytes)),
        )
    }

    /// Per kernel, outside any op: the work `BatchEngine::run` does per
    /// sweep (fingerprint once, selection and equations per job) and the
    /// stand-alone trace codec and kernel lint.
    fn probes(&mut self, epoch: Instant) -> Result<Vec<Span>, String> {
        let rec = Recorder::on(epoch);
        for (i, k) in self.kernels.iter().enumerate() {
            rec.set_op(i as u64);
            std::hint::black_box(
                rec.span("probe.analyze.lint", || gpumech_analyze::analyze(&k.kernel)),
            );
            std::hint::black_box(
                rec.span("probe.exec.fingerprint", || trace_fingerprint(&k.trace)),
            );
            for job in &k.jobs {
                let model = Gpumech::new(job.cfg.clone());
                probe_select_predict(&rec, &model, &k.analysis, job.policy)?;
            }
            let bytes = rec.span("probe.trace.encode", || io::encode(&k.trace));
            let back = rec.span("probe.trace.decode", || io::decode(&bytes));
            if back.map_err(|e| format!("decode probe: {e}"))? != *k.trace {
                return Err(format!(
                    "{}: trace does not survive encode/decode",
                    k.trace.name
                ));
            }
        }
        Ok(rec.take())
    }

    fn layer_metrics(&self, spans: &[Span], _traced_passes: usize, out: &mut Metrics) {
        let t = SpanTotals::new(spans);
        let jobs_per_op = (SWEEP_BW.len() * SWEEP_MSHRS.len()) as f64;
        let op_ns = t.mean_ns("op");
        let fingerprint_ns = t.mean_ns("probe.exec.fingerprint");
        let select_ns = t.mean_ns("probe.core.select");
        let predict_ns = t.mean_ns("probe.core.predict");
        let core_ns = jobs_per_op * (select_ns + predict_ns);
        let warp_insts = self.warp_insts as f64;
        out.insert("trace.warp_insts".into(), warp_insts);
        out.insert(
            "trace.encode_ns_per_warp_inst".into(),
            ratio(t.total_ns("probe.trace.encode"), warp_insts),
        );
        out.insert(
            "trace.decode_ns_per_warp_inst".into(),
            ratio(t.total_ns("probe.trace.decode"), warp_insts),
        );
        out.insert(
            "analyze.lint_us_per_kernel".into(),
            t.mean_ns("probe.analyze.lint") / 1e3,
        );
        out.insert("core.select_ms_per_call".into(), select_ns / 1e6);
        out.insert("core.predict_us_per_call".into(), predict_ns / 1e3);
        out.insert(
            "core.select_share_pct".into(),
            100.0 * ratio(jobs_per_op * select_ns, op_ns),
        );
        out.insert("exec.fingerprint_ms_per_op".into(), fingerprint_ns / 1e6);
        out.insert(
            "exec.fingerprint_ns_per_warp_inst".into(),
            ratio(t.total_ns("probe.exec.fingerprint"), warp_insts),
        );
        out.insert("exec.jobs_per_s".into(), ratio(jobs_per_op * 1e9, op_ns));
        out.insert(
            "exec.overhead_ms_per_op".into(),
            (op_ns - fingerprint_ns - core_ns) / 1e6,
        );
        // Every job of a timed pass finds its analysis in the cache unless
        // the cache grew since set-up.
        let grown = self.engine.cache().len().saturating_sub(self.cache_entries) as f64;
        let jobs = t.count("op") * jobs_per_op;
        out.insert(
            "exec.cache_hit_share".into(),
            ratio(jobs - grown.min(jobs), jobs),
        );
        // The op is one engine call; the probes say how much of it is the
        // core crate's selection and equations, the rest stays with exec.
        let core_share = 100.0 * ratio(core_ns, op_ns).min(1.0);
        let exec_share = out.get("exec.share_pct").copied().unwrap_or(0.0);
        out.insert("core.share_pct".into(), core_share);
        out.insert("exec.share_pct".into(), (exec_share - core_share).max(0.0));
    }
}
