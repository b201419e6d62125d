//! Parallel batch-prediction benchmark: the batch engine versus the
//! sequential pipeline over the full 40-workload library, on both
//! parallelism axes.
//!
//! Axis 1 (threads): one batch job per workload at the Table I machine,
//! run sequentially and then through [`BatchEngine`] at each requested
//! worker count. Every batch prediction is asserted byte-identical to the
//! sequential one (canonical JSON, wall-clock timings zeroed). The engine
//! clamps workers to the host's available parallelism, so on a 1-CPU host
//! every requested count runs one thread and this axis is flat by design.
//!
//! Axis 2 (cache): a design-space sweep — every workload at several DRAM
//! bandwidths, a prediction-only axis — run naively (full re-analysis per
//! point, the paper's "detailed re-exploration" strawman) and through the
//! engine, whose profile cache collapses the sweep to one analysis per
//! kernel (Section VI-D's re-exploration argument). This is the headline
//! batch-vs-sequential number: the batch feature is the pool *plus* the
//! cache, and the cache speedup holds at any core count.
//!
//! Every timed section reports the minimum over `--reps` runs (default 3);
//! shared hosts jitter far too much for single-shot walls.
//!
//! Usage: `bench_parallel [--blocks N] [--workers 1,2,4,8] [--reps N]
//!         [--json PATH]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumech_bench::arg_value;
use gpumech_core::{Gpumech, Prediction, PredictionRequest};
use gpumech_exec::{canonical_prediction_json, BatchEngine, BatchJob};
use gpumech_isa::SimConfig;
use gpumech_trace::{workloads, KernelTrace};
use serde::Serialize;

/// Bandwidth sweep for the cache axis: prediction-only configurations
/// that share one analysis per kernel.
const BW_SWEEP: [f64; 6] = [32.0, 48.0, 96.0, 192.0, 384.0, 768.0];

/// One worker-count measurement on the thread axis.
#[derive(Serialize)]
struct WorkerPoint {
    requested_workers: usize,
    effective_workers: usize,
    wall_ms: f64,
    speedup_vs_sequential: f64,
    identical_to_sequential: bool,
}

/// The cache-axis measurement (the headline batch-vs-sequential number).
#[derive(Serialize)]
struct CacheSweep {
    points_per_kernel: usize,
    jobs: usize,
    requested_workers: usize,
    effective_workers: usize,
    sequential_ms: f64,
    batch_ms: f64,
    speedup: f64,
    cache_entries: usize,
    identical_to_sequential: bool,
}

/// The whole report, written by `--json` (ci.sh commits it as
/// `BENCH_parallel.json`). `git_commit` and `config_fingerprint` tie the
/// numbers to the exact build and Table I machine they measured, so two
/// archived reports are comparable only when both provenance fields match.
#[derive(Serialize)]
struct Report {
    git_commit: String,
    config_fingerprint: u64,
    blocks: usize,
    kernels: usize,
    host_cpus: usize,
    reps: usize,
    sequential_ms: f64,
    workers: Vec<WorkerPoint>,
    cache_sweep: CacheSweep,
}

fn ms(t: Duration) -> f64 {
    1e3 * t.as_secs_f64()
}

fn canon(p: &Prediction) -> String {
    canonical_prediction_json(p).unwrap_or_else(|e| gpumech_bench::fail(e))
}

/// Minimum wall time of `f` over `reps` runs.
fn min_wall<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    (1..=reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

fn sequential_run(jobs: &[BatchJob]) -> Vec<Prediction> {
    jobs.iter()
        .map(|j| {
            Gpumech::new(j.cfg.clone())
                .run(&PredictionRequest::from_trace(&j.trace))
                .unwrap_or_else(|e| gpumech_bench::fail(format_args!("{}: {e}", j.label)))
        })
        .collect()
}

fn batch_run(workers: usize, jobs: &[BatchJob]) -> (Vec<Prediction>, usize) {
    let engine = BatchEngine::new(workers);
    let out: Vec<Prediction> = engine
        .run(jobs)
        .into_iter()
        .zip(jobs)
        .map(|(r, j)| {
            r.unwrap_or_else(|e| gpumech_bench::fail(format_args!("{}: {e}", j.label)))
        })
        .collect();
    (out, engine.cache().len())
}

fn assert_identical(got: &[Prediction], want: &[String], what: &str) -> bool {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|(p, w)| &canon(p) == w);
    if !same {
        gpumech_bench::fail(format_args!("{what}: batch output diverged from sequential"));
    }
    same
}

fn main() {
    let blocks: usize = arg_value("--blocks")
        .map_or(48, |s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let reps: usize = arg_value("--reps")
        .map_or(3, |s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--reps expects a number")));
    let worker_counts: Vec<usize> = arg_value("--workers").map_or_else(
        || vec![1, 2, 4, 8],
        |s| {
            s.split(',')
                .map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| gpumech_bench::fail("--workers expects N,N,..."))
                })
                .collect()
        },
    );

    let cfg = SimConfig::table1();
    let traces: Vec<(String, Arc<KernelTrace>)> = workloads::all()
        .iter()
        .map(|w| {
            let w = w.clone().with_blocks(blocks);
            let t = w.trace().unwrap_or_else(|e| {
                gpumech_bench::fail(format_args!("{}: trace failed: {e}", w.name))
            });
            (w.name, Arc::new(t))
        })
        .collect();
    let jobs: Vec<BatchJob> = traces
        .iter()
        .map(|(name, t)| BatchJob::new(name.clone(), Arc::clone(t), cfg.clone()))
        .collect();
    let mut sweep_jobs: Vec<BatchJob> = Vec::with_capacity(traces.len() * BW_SWEEP.len());
    for (name, t) in &traces {
        for bw in BW_SWEEP {
            sweep_jobs.push(BatchJob::new(
                format!("{name} @ bw={bw}"),
                Arc::clone(t),
                cfg.clone().with_dram_bandwidth(bw),
            ));
        }
    }

    println!(
        "# bench_parallel: {} kernels, {blocks} blocks, host cpus {}, min of {reps} rep(s)",
        jobs.len(),
        cpus()
    );

    // Warm-up, untimed: the first run that retains all analyses at once
    // pays a one-off heap-growth cost (page faults on first touch) that
    // belongs to neither side of the comparison.
    drop(BatchEngine::new(4).run(&jobs));

    // Sequential baseline over the 40-workload batch.
    let seq_t = min_wall(reps, || drop(sequential_run(&jobs)));
    let seq_canon: Vec<String> = sequential_run(&jobs).iter().map(canon).collect();
    println!("sequential ({} kernels): {seq_t:.2?}", jobs.len());

    // Thread axis.
    let mut points = Vec::new();
    for &workers in &worker_counts {
        let wall = min_wall(reps, || drop(batch_run(workers, &jobs)));
        let (out, _) = batch_run(workers, &jobs);
        let identical = assert_identical(&out, &seq_canon, "thread axis");
        let effective = BatchEngine::new(workers).effective_workers();
        let speedup = seq_t.as_secs_f64() / wall.as_secs_f64();
        println!(
            "workers={workers} (effective {effective}): {wall:.2?} \
             ({speedup:.2}x vs sequential, identical output)"
        );
        points.push(WorkerPoint {
            requested_workers: workers,
            effective_workers: effective,
            wall_ms: ms(wall),
            speedup_vs_sequential: speedup,
            identical_to_sequential: identical,
        });
    }

    // Cache axis: the bandwidth sweep, sequential re-analysis vs batch.
    let naive_t = min_wall(reps, || drop(sequential_run(&sweep_jobs)));
    let naive_canon: Vec<String> = sequential_run(&sweep_jobs).iter().map(canon).collect();
    let batch_t = min_wall(reps, || drop(batch_run(4, &sweep_jobs)));
    let (out, cache_entries) = batch_run(4, &sweep_jobs);
    let identical = assert_identical(&out, &naive_canon, "cache axis");
    let speedup = naive_t.as_secs_f64() / batch_t.as_secs_f64();
    let effective = BatchEngine::new(4).effective_workers();
    println!(
        "sweep x{}: sequential {naive_t:.2?}, batch {batch_t:.2?} at 4 workers \
         (effective {effective}) -> {speedup:.2}x, {cache_entries} analyses for {} jobs, \
         identical output",
        BW_SWEEP.len(),
        sweep_jobs.len(),
    );

    if let Some(path) = arg_value("--json") {
        let report = Report {
            git_commit: gpumech_perf::git_commit(),
            config_fingerprint: gpumech_exec::analysis_config_fingerprint(&cfg),
            blocks,
            kernels: traces.len(),
            host_cpus: cpus(),
            reps,
            sequential_ms: ms(seq_t),
            workers: points,
            cache_sweep: CacheSweep {
                points_per_kernel: BW_SWEEP.len(),
                jobs: sweep_jobs.len(),
                requested_workers: 4,
                effective_workers: effective,
                sequential_ms: ms(naive_t),
                batch_ms: ms(batch_t),
                speedup,
                cache_entries,
                identical_to_sequential: identical,
            },
        };
        let json = serde_json::to_string_pretty(&report)
            .unwrap_or_else(|e| gpumech_bench::fail(format_args!("serialize report: {e}")));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| gpumech_bench::fail(format_args!("write {path}: {e}")));
        println!("report written to {path}");
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
