//! The named micro-benchmark suite behind `gpumech perf record|compare`.
//!
//! Each stage benchmark isolates one pipeline layer (tracing, cache
//! simulation + interval analysis, clustering + prediction, the timing
//! oracle) plus an end-to-end run, on a fixed small workload so the whole
//! suite finishes in seconds. Timing is min-of-N with warmup — the
//! minimum is the noise-robust estimator for a deterministic computation
//! — and a separate untimed pass under an [`AllocScope`] captures
//! allocation count, bytes, and peak live bytes without polluting the
//! timed iterations with counting overhead.
//!
//! When a recorder is installed, every stage runs inside a
//! `perf.suite.<stage>` span and surfaces its counters under the
//! `perf.*` naming family (`perf.alloc.count`, `perf.alloc.bytes`,
//! `perf.alloc.peak_live`, `perf.bench.min_ns`), attributed to the stage
//! span via the sample's span id.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_exec::{BatchEngine, BatchJob, ProfileCache};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::simulate;
use gpumech_trace::workloads;
use serde::{Deserialize, Serialize};

use crate::alloc::AllocScope;
use crate::PerfError;

/// Workload every stage benchmark runs on: small enough that the full
/// suite stays in CI budget, big enough to exercise every pipeline layer.
pub const SUITE_KERNEL: &str = "sdk_vectoradd";
/// Grid size for [`SUITE_KERNEL`].
pub const SUITE_BLOCKS: usize = 8;

/// The benchmark names `gpumech perf record` runs, in order.
pub const STAGE_NAMES: [&str; 5] = ["trace", "analyze", "predict", "oracle", "e2e_batch"];

/// Obs span names for the stages, `perf.suite.<stage>` (span names must
/// be `&'static str` literals, hence the parallel table).
const STAGE_SPANS: [&str; 5] = [
    "perf.suite.trace",
    "perf.suite.analyze",
    "perf.suite.predict",
    "perf.suite.oracle",
    "perf.suite.e2e_batch",
];

/// How the suite runs: iteration counts and optional injected slowdowns.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Timed iterations per stage (the minimum is reported).
    pub iters: u32,
    /// Untimed warmup iterations per stage.
    pub warmup: u32,
    /// Injected sleep per stage, `(stage_name, millis)` — the fault hook
    /// the perf-gate acceptance test uses to force a regression.
    pub slow: Vec<(String, u64)>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self { iters: 5, warmup: 2, slow: Vec::new() }
    }
}

impl SuiteOptions {
    fn injected_sleep(&self, stage: &str) -> Option<Duration> {
        self.slow
            .iter()
            .find(|(name, _)| name == stage)
            .map(|&(_, ms)| Duration::from_millis(ms))
    }
}

/// One stage's measurement: min-of-N wall time plus allocation counters.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchResult {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub name: String,
    /// Minimum wall time over the timed iterations, nanoseconds.
    pub min_ns: u64,
    /// Mean wall time over the timed iterations, nanoseconds.
    pub mean_ns: u64,
    /// Timed iterations.
    pub iters: u32,
    /// Allocation calls in one representative iteration.
    pub allocs: u64,
    /// Bytes requested in one representative iteration.
    pub alloc_bytes: u64,
    /// Peak live bytes above baseline in one representative iteration.
    pub peak_live_bytes: u64,
}

#[allow(clippy::cast_possible_truncation)]
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Runs one stage: warmup, an alloc-counting pass, then `iters` timed
/// iterations (with any injected sleep added inside the timed region).
fn run_stage<T>(
    name: &'static str,
    span_name: &'static str,
    opts: &SuiteOptions,
    mut f: impl FnMut() -> Result<T, PerfError>,
) -> Result<BenchResult, PerfError> {
    let _span = gpumech_obs::SpanGuard::enter(span_name, Vec::new());
    for _ in 0..opts.warmup {
        std::hint::black_box(f()?);
    }
    let scope = AllocScope::begin();
    std::hint::black_box(f()?);
    let alloc = scope.delta();
    drop(scope);

    let sleep = opts.injected_sleep(name);
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..opts.iters.max(1) {
        let t0 = Instant::now();
        if let Some(d) = sleep {
            std::thread::sleep(d);
        }
        std::hint::black_box(f()?);
        let dt = t0.elapsed();
        min = min.min(dt);
        total += dt;
    }
    let min_ns = dur_ns(min);
    gpumech_obs::counter!("perf.alloc.count", alloc.allocs);
    gpumech_obs::counter!("perf.alloc.bytes", alloc.bytes);
    gpumech_obs::gauge!("perf.alloc.peak_live", alloc.peak_live_bytes as f64);
    gpumech_obs::histogram!("perf.bench.min_ns", min_ns as f64);
    Ok(BenchResult {
        name: name.to_string(),
        min_ns,
        mean_ns: dur_ns(total / opts.iters.max(1)),
        iters: opts.iters.max(1),
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes,
        peak_live_bytes: alloc.peak_live_bytes,
    })
}

/// The machine configuration the suite benchmarks against (Table I).
#[must_use]
pub fn suite_config() -> SimConfig {
    SimConfig::table1()
}

/// Runs the full suite and returns one [`BenchResult`] per stage, in
/// [`STAGE_NAMES`] order.
///
/// # Errors
///
/// Returns [`PerfError::Pipeline`] if any pipeline layer fails — the
/// bundled suite workload is expected to model cleanly, so a failure
/// means the pipeline itself is broken.
pub fn run_suite(opts: &SuiteOptions) -> Result<Vec<BenchResult>, PerfError> {
    let w = workloads::by_name(SUITE_KERNEL)
        .ok_or_else(|| PerfError::Pipeline(format!("suite kernel {SUITE_KERNEL:?} missing")))?
        .with_blocks(SUITE_BLOCKS);
    let cfg = suite_config();
    fn stage_err(stage: &str, e: impl std::fmt::Display) -> PerfError {
        PerfError::Pipeline(format!("{stage}: {e}"))
    }

    let mut results = Vec::with_capacity(STAGE_NAMES.len());

    // Stage inputs are prepared once, outside the timed closures.
    results.push(run_stage("trace", STAGE_SPANS[0], opts, || {
        w.trace().map_err(|e| stage_err("trace", e))
    })?);

    let trace = Arc::new(w.trace().map_err(|e| stage_err("trace", e))?);
    let model = Gpumech::new(cfg.clone());

    results.push(run_stage("analyze", STAGE_SPANS[1], opts, || {
        model.analyze(&trace).map_err(|e| stage_err("analyze", e))
    })?);

    let analysis = model.analyze(&trace).map_err(|e| stage_err("analyze", e))?;
    results.push(run_stage("predict", STAGE_SPANS[2], opts, || {
        model
            .run(&PredictionRequest::from_analysis(&analysis))
            .map_err(|e| stage_err("predict", e))
    })?);

    results.push(run_stage("oracle", STAGE_SPANS[3], opts, || {
        simulate(&trace, &cfg, SchedulingPolicy::RoundRobin).map_err(|e| stage_err("oracle", e))
    })?);

    // End to end through the batch engine (admission, cache, pool) — the
    // path `gpumech batch` and `gpumech serve` take. A fresh in-memory
    // cache per iteration keeps the work constant across iterations.
    results.push(run_stage("e2e_batch", STAGE_SPANS[4], opts, || {
        let engine = BatchEngine::with_cache(1, ProfileCache::in_memory());
        let job = BatchJob::new(SUITE_KERNEL.to_string(), Arc::clone(&trace), cfg.clone());
        let out = engine.run(&[job]);
        match out.into_iter().next() {
            Some(Ok(p)) => Ok(p),
            Some(Err(e)) => Err(PerfError::Pipeline(format!("e2e_batch: {e}"))),
            None => Err(PerfError::Pipeline("e2e_batch: engine returned no result".to_string())),
        }
    })?);

    Ok(results)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use std::sync::PoisonError;

    use super::*;
    use crate::alloc::tests::SCOPE_LOCK;

    #[test]
    fn suite_runs_every_stage_quickly() {
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let opts = SuiteOptions { iters: 1, warmup: 0, slow: Vec::new() };
        let results = run_suite(&opts).unwrap();
        assert_eq!(results.len(), STAGE_NAMES.len());
        for (r, name) in results.iter().zip(STAGE_NAMES) {
            assert_eq!(r.name, name);
            assert!(r.min_ns > 0, "{name}: zero wall time is implausible");
            assert!(r.min_ns <= r.mean_ns, "{name}: min must not exceed mean");
            assert!(r.allocs > 0, "{name}: the pipeline allocates");
        }
    }

    #[test]
    fn injected_sleep_inflates_the_named_stage_only() {
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let base = run_suite(&SuiteOptions { iters: 1, warmup: 0, slow: Vec::new() }).unwrap();
        let slowed = run_suite(&SuiteOptions {
            iters: 1,
            warmup: 0,
            slow: vec![("predict".to_string(), 50)],
        })
        .unwrap();
        let b = base.iter().find(|r| r.name == "predict").unwrap();
        let s = slowed.iter().find(|r| r.name == "predict").unwrap();
        assert!(
            s.min_ns >= b.min_ns + 40_000_000,
            "slowed predict ({}) should exceed base ({}) by ~50ms",
            s.min_ns,
            b.min_ns
        );
    }
}
