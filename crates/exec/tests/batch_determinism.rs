//! Golden determinism assertions for the batch engine: over the full
//! 40-workload library, batch output is byte-identical (canonical JSON —
//! CPI stacks, warnings, warning *order*, everything except wall-clock
//! stage timings) to the sequential pipeline, at every worker count; and
//! the profile cache provably eliminates analysis work on repeat runs
//! (observed through the `exec.cache.*` counters, not inferred from
//! timing).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{Gpumech, Prediction, PredictionRequest};
use gpumech_exec::{canonical_prediction_json, run_indexed, BatchEngine, BatchJob, ExecError};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::workloads;

/// Serializes tests that install the process-global recorder with the
/// tests whose batch runs would count into it (`exec.cache.*`).
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One default-option job per bundled workload, traced at `blocks`.
fn all_jobs(blocks: usize) -> Vec<BatchJob> {
    workloads::all()
        .into_iter()
        .map(|w| {
            let w = w.with_blocks(blocks);
            let trace = w.trace().expect("bundled workloads trace cleanly");
            BatchJob::new(w.name, Arc::new(trace), SimConfig::table1())
        })
        .collect()
}

fn canon(p: &Prediction) -> String {
    canonical_prediction_json(p).unwrap()
}

fn sequential_canon(jobs: &[BatchJob]) -> Vec<String> {
    jobs.iter()
        .map(|j| {
            let p = Gpumech::new(j.cfg.clone())
                .run(&PredictionRequest::from_trace(&j.trace))
                .unwrap();
            canon(&p)
        })
        .collect()
}

#[test]
fn batch_is_byte_identical_to_sequential_across_worker_counts() {
    let _serial = recorder_lock();
    let jobs = all_jobs(2);
    assert_eq!(jobs.len(), 40, "the bundled workload suite changed size");
    let expected = sequential_canon(&jobs);

    for workers in [1, 2, 8] {
        let engine = BatchEngine::new(workers);
        let got = engine.run(&jobs);
        for ((job, want), result) in jobs.iter().zip(&expected).zip(got) {
            let p = result.unwrap_or_else(|e| panic!("{}: {e}", job.label));
            assert_eq!(&canon(&p), want, "workers={workers}, kernel={}", job.label);
        }
    }
}

#[test]
fn oversubscribed_pool_is_byte_identical_to_sequential() {
    // The engine clamps its worker count to the host, so on a small host
    // the test above may never run more than one thread. The pool itself
    // spawns exactly what it is asked for — drive the full pipeline
    // through it at 8 workers to exercise genuine concurrency regardless
    // of host size.
    let jobs = all_jobs(2);
    let expected = sequential_canon(&jobs);
    let got = run_indexed(8, &jobs, |_, job| {
        Gpumech::new(job.cfg.clone())
            .run(&PredictionRequest::from_trace(&job.trace))
            .map_err(ExecError::Model)
    });
    for ((job, want), result) in jobs.iter().zip(&expected).zip(got) {
        let p = result.unwrap_or_else(|e| panic!("{}: {e}", job.label));
        assert_eq!(&canon(&p), want, "kernel={}", job.label);
    }
}

#[test]
fn second_identical_batch_does_zero_analysis_work() {
    let _serial = recorder_lock();
    let jobs = all_jobs(2);
    let engine = BatchEngine::new(4);

    // First run, unrecorded: populates the cache (40 distinct keys).
    let first = engine.run(&jobs);
    assert!(first.iter().all(Result::is_ok));
    assert_eq!(engine.cache().len(), jobs.len());

    // Second run, recorded: every job must be served from the cache.
    let rec = Arc::new(Recorder::new());
    let second = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        engine.run(&jobs)
    };
    assert!(second.iter().all(Result::is_ok));

    let snap = rec.snapshot();
    let hits = snap.counters.get("exec.cache.hits").map_or(0, |c| c.total);
    let misses = snap.counters.get("exec.cache.misses").map_or(0, |c| c.total);
    assert_eq!(hits, jobs.len() as u64, "every job must hit the profile cache");
    assert_eq!(misses, 0, "a warm cache must do zero analysis work");
    assert_eq!(engine.cache().len(), jobs.len(), "no new entries on a warm run");
    assert_eq!(rec.open_spans(), 0, "batch runs must close every span");

    // And cached results are still byte-identical to the cold ones.
    for (label, (a, b)) in jobs.iter().map(|j| &j.label).zip(first.iter().zip(&second)) {
        assert_eq!(canon(a.as_ref().unwrap()), canon(b.as_ref().unwrap()), "{label}");
    }
}
