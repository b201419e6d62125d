//! Resilience contract of the batch engine: a panicking task costs its
//! own item only, and deadlines and timeouts abort exactly the jobs that
//! ran out of budget — all driven off a `FakeClock`, so every assertion
//! is deterministic.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_exec::{
    canonical_prediction_json, run_indexed, BatchEngine, BatchJob, BatchOptions, ExecError,
    ProfileCache,
};
use gpumech_isa::SimConfig;
use gpumech_obs::{CancelToken, Clock, FakeClock, Recorder};
use gpumech_trace::workloads;

/// Serializes tests that install the process-global recorder with the
/// tests whose batch runs would count into it (`exec.cache.misses`).
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn job(name: &str, blocks: usize) -> BatchJob {
    let trace = workloads::by_name(name).unwrap().with_blocks(blocks).trace().unwrap();
    BatchJob::new(name, Arc::new(trace), SimConfig::default())
}

fn jobs(names: &[&str]) -> Vec<BatchJob> {
    names.iter().map(|n| job(n, 1)).collect()
}

fn canon_all(jobs: &[BatchJob]) -> Vec<String> {
    BatchEngine::new(1)
        .run(jobs)
        .into_iter()
        .map(|r| canonical_prediction_json(&r.unwrap()).unwrap())
        .collect()
}

/// A root token on a fake clock with no deadline of its own: per-job
/// timeouts become children sharing the clock, so time only advances when
/// the pipeline polls.
fn fake_clock_root(step_ns: u64) -> CancelToken {
    CancelToken::with_clock(Arc::new(FakeClock::new(step_ns)) as Arc<dyn Clock>, u64::MAX)
}

/// Each poll of a 5 ms budget on this clock costs a tenth of it: a
/// one-block job polls about 24 times and fits, a 16-block job polls about
/// 260 times and runs out.
const POLL_NS: u64 = 100_000;
const BUDGET_MS: u64 = 5;
const HUNG_BLOCKS: usize = 16;

fn counter(rec: &Recorder, name: &str) -> u64 {
    rec.snapshot().counters.get(name).map_or(0, |c| c.total)
}

/// A task that panics costs its own item and nothing else, on the
/// caller's thread and on three workers: the pool's one `catch_unwind`
/// turns it into a `WorkerPanic`, counts it, and unwinds its spans closed.
#[test]
fn a_panicking_task_costs_only_its_item() {
    let _serial = recorder_lock();
    let all =
        jobs(&["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping", "cfd_step_factor"]);
    let baseline = canon_all(&all);
    let victim = 2;
    for workers in [1, 3] {
        let rec = Arc::new(Recorder::new());
        let got = {
            let _obs = gpumech_obs::install(Arc::clone(&rec));
            run_indexed(workers, &all, |i, job| {
                let _span = gpumech_obs::span!("test.pool.task");
                let p = Gpumech::new(job.cfg.clone())
                    .run(&PredictionRequest::from_trace(&job.trace))?;
                assert_ne!(i, victim, "deliberate panic");
                Ok(p)
            })
        };
        for (i, (r, want)) in got.iter().zip(&baseline).enumerate() {
            if i == victim {
                assert!(matches!(r, Err(ExecError::WorkerPanic { item: 2, .. })), "{r:?}");
            } else {
                assert_eq!(&canonical_prediction_json(r.as_ref().unwrap()).unwrap(), want);
            }
        }
        assert_eq!(counter(&rec, "exec.pool.panics"), 1, "workers={workers}");
        assert_eq!(rec.open_spans(), 0, "workers={workers}");
    }
}

/// A job that outlives its per-job timeout fails alone, as `Deadline`
/// naming its kernel, and every other prediction stays byte-identical to
/// an unconstrained run.
#[test]
fn a_hung_job_fails_alone_and_named_while_the_rest_match_exactly() {
    let _serial = recorder_lock();
    let names =
        ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping", "cfd_step_factor", "lud_diagonal"];
    let mut all = jobs(&names);
    all[2] = job(names[2], HUNG_BLOCKS);
    let baseline = canon_all(&all);

    let opts = BatchOptions {
        timeout_ms: Some(BUDGET_MS),
        cancel: Some(fake_clock_root(POLL_NS)),
        ..BatchOptions::default()
    };
    let out = BatchEngine::new(1).run_with(&all, &opts);

    for (i, (r, want)) in out.iter().zip(&baseline).enumerate() {
        if i == 2 {
            let e = r.as_ref().unwrap_err();
            assert_eq!(e.error, ExecError::Deadline, "{e}");
            assert_eq!(e.label, "kmeans_invert_mapping");
            assert!(e.to_string().contains("kmeans_invert_mapping"), "{e}");
        } else {
            let p = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert_eq!(&canonical_prediction_json(p).unwrap(), want, "job {i}");
        }
    }
}

#[test]
fn whole_run_deadline_bounds_the_batch_and_is_counted() {
    let _serial = recorder_lock();
    let mut all = jobs(&["sdk_vectoradd", "bfs_kernel1", "cfd_step_factor"]);
    // The long job is first; everything queued behind it inherits the
    // already-expired run deadline and fails fast.
    all[0] = job("sdk_vectoradd", HUNG_BLOCKS);
    let opts = BatchOptions {
        deadline_ms: Some(BUDGET_MS),
        cancel: Some(fake_clock_root(POLL_NS)),
        ..BatchOptions::default()
    };
    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        BatchEngine::new(1).run_with(&all, &opts)
    };
    for (i, r) in out.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap_err().error, ExecError::Deadline, "job {i}");
    }
    assert_eq!(counter(&rec, "exec.resilience.deadline"), all.len() as u64);
    assert_eq!(rec.open_spans(), 0);
}

#[test]
fn explicit_cancellation_fails_every_job_as_cancelled() {
    let _serial = recorder_lock();
    let all = jobs(&["sdk_vectoradd", "bfs_kernel1"]);
    let token = CancelToken::never();
    token.cancel();
    let opts = BatchOptions { cancel: Some(token), ..BatchOptions::default() };
    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        BatchEngine::new(2).run_with(&all, &opts)
    };
    for r in &out {
        assert_eq!(r.as_ref().unwrap_err().error, ExecError::Cancelled);
    }
    assert_eq!(counter(&rec, "exec.resilience.cancelled"), all.len() as u64);
}

/// A job's fingerprint is computed only where something reads it: never
/// on an all-success run, and for a failed job only, at its failure.
#[test]
fn job_keys_are_computed_only_for_failed_jobs() {
    let _serial = recorder_lock();
    let all = jobs(&["sdk_vectoradd", "bfs_kernel1", "cfd_step_factor"]);
    let keys_computed = |jobs: &[BatchJob]| {
        let rec = Arc::new(Recorder::new());
        let out = {
            let _obs = gpumech_obs::install(Arc::clone(&rec));
            BatchEngine::new(1).run(jobs)
        };
        (out, counter(&rec, "exec.fingerprint.job_keys"))
    };

    let (out, keys) = keys_computed(&all);
    assert!(out.iter().all(Result::is_ok));
    assert_eq!(keys, 0, "an all-success run computes no job keys");

    let mut broken = all.clone();
    broken[1].cfg.num_mshrs = 0;
    let (out, keys) = keys_computed(&broken);
    assert_eq!(keys, 1, "only the failed job names its key");
    let want = gpumech_exec::job_fingerprints(&broken)[1];
    assert_eq!(out[1].as_ref().unwrap_err().config_fingerprint, want);
}

#[test]
fn timeouts_do_not_perturb_jobs_that_fit_their_budget() {
    let _serial = recorder_lock();
    // A generous fake-clock timeout: all jobs complete and match an
    // unconstrained run byte for byte (cancellation polling must not
    // change the numerics).
    let all = jobs(&["sdk_vectoradd", "bfs_kernel1"]);
    let baseline = canon_all(&all);
    let opts = BatchOptions {
        timeout_ms: Some(10_000),
        cancel: Some(fake_clock_root(1)),
        ..BatchOptions::default()
    };
    let out = BatchEngine::new(1).run_with(&all, &opts);
    for (r, want) in out.iter().zip(&baseline) {
        assert_eq!(&canonical_prediction_json(r.as_ref().unwrap()).unwrap(), want);
    }
}

/// Requesting more workers than the host exposes is silently corrected by
/// the engine, but never *silently*: the clamp fires the
/// `exec.pool.workers_clamped` counter so operators can see configured vs.
/// actual parallelism. In-budget requests must not fire it.
#[test]
fn oversubscribed_worker_requests_are_clamped_and_counted() {
    let _serial = recorder_lock();
    let host =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let rec = Arc::new(Recorder::new());
    let engine = BatchEngine::with_cache(host + 64, ProfileCache::in_memory());
    assert_eq!(engine.effective_workers(), host, "clamp ceiling is the host");
    {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        let out = engine.run_with(&jobs(&["sdk_vectoradd"]), &BatchOptions::default());
        assert!(out[0].is_ok());
    }
    assert_eq!(counter(&rec, "exec.pool.workers_clamped"), 1);

    let rec = Arc::new(Recorder::new());
    let engine = BatchEngine::with_cache(1, ProfileCache::in_memory());
    {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        let out = engine.run_with(&jobs(&["sdk_vectoradd"]), &BatchOptions::default());
        assert!(out[0].is_ok());
    }
    assert_eq!(counter(&rec, "exec.pool.workers_clamped"), 0);
}
