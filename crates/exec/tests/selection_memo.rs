//! The batch engine selects the representative warp once per cache entry
//! and method, not once per job, and that changes no byte: a bandwidth x
//! MSHR sweep over the whole library is byte-identical to sequential
//! `Gpumech::run` calls at every worker count, an interrupted selection
//! leaves nothing behind, and the selections live and die with their
//! entry. Selections are counted from the recorder's `core.kmeans.cluster`
//! spans (one per clustering; MAX and MIN run no k-means).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{Analysis, Gpumech, PredictionRequest, SelectionMethod, Weighting};
use gpumech_exec::{
    cache_key, canonical_prediction_json, BatchEngine, BatchJob, BatchOptions, ExecError,
    ProfileCache,
};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_obs::{CancelToken, Clock, FakeClock, Recorder};
use gpumech_trace::{workloads, KernelTrace};

/// Serializes the tests of this binary: each installs the process-global
/// recorder or runs batches that would count into it.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trace(name: &str, blocks: usize) -> Arc<KernelTrace> {
    Arc::new(workloads::by_name(name).unwrap().with_blocks(blocks).trace().unwrap())
}

/// The 12 machines of a bandwidth x MSHR sweep.
fn machines() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for bw in [96.0, 128.0, 192.0, 256.0] {
        for mshrs in [16, 32, 64] {
            out.push(SimConfig::table1().with_dram_bandwidth(bw).with_mshrs(mshrs));
        }
    }
    out
}

/// Every (selection, weighting) a job can ask for: clustering, MAX, MIN
/// and the population-weighted blend.
const SELECTIONS: [(SelectionMethod, Weighting); 4] = [
    (SelectionMethod::Clustering, Weighting::SingleRepresentative),
    (SelectionMethod::Max, Weighting::SingleRepresentative),
    (SelectionMethod::Min, Weighting::SingleRepresentative),
    (SelectionMethod::Clustering, Weighting::PopulationWeighted),
];

/// The sweep of `trace` under every selection and policy: 96 jobs, one
/// cache entry.
fn sweep(trace: &Arc<KernelTrace>) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for cfg in machines() {
        for (selection, weighting) in SELECTIONS {
            for policy in SchedulingPolicy::ALL {
                let mut job = BatchJob::new(
                    format!("{} @ {} {}", trace.name, cfg.dram_bandwidth_gbps, cfg.num_mshrs),
                    Arc::clone(trace),
                    cfg.clone(),
                );
                job.selection = selection;
                job.weighting = weighting;
                job.policy = policy;
                jobs.push(job);
            }
        }
    }
    jobs
}

/// The canonical prediction of every job by a plain `Gpumech::run` over
/// `analysis`, each making its own selection.
fn sequential(analysis: &Analysis, jobs: &[BatchJob]) -> Vec<String> {
    jobs.iter()
        .map(|j| {
            let request = PredictionRequest::from_analysis(analysis)
                .policy(j.policy)
                .model(j.model)
                .selection(j.selection)
                .weighting(j.weighting);
            canonical_prediction_json(&Gpumech::new(j.cfg.clone()).run(&request).unwrap()).unwrap()
        })
        .collect()
}

/// `engine.run_with(jobs, opts)` under a fresh recorder: the canonical
/// outcomes (an error as its text) and the recorder.
fn recorded(
    engine: &BatchEngine,
    jobs: &[BatchJob],
    opts: &BatchOptions,
) -> (Vec<Result<String, ExecError>>, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        engine.run_with(jobs, opts)
    };
    let out = out
        .into_iter()
        .map(|r| r.map(|p| canonical_prediction_json(&p).unwrap()).map_err(|e| e.error))
        .collect();
    (out, rec)
}

fn spans(rec: &Recorder, name: &str) -> usize {
    rec.snapshot().spans.iter().filter(|s| s.name == name).count()
}

/// `engine.run(jobs)` under a fresh recorder: the canonical predictions and
/// the k-means runs they took.
fn counted(engine: &BatchEngine, jobs: &[BatchJob]) -> (Vec<String>, usize) {
    let (out, rec) = recorded(engine, jobs, &BatchOptions::default());
    (out.into_iter().map(Result::unwrap).collect(), spans(&rec, "core.kmeans.cluster"))
}

#[test]
fn a_library_sweep_selects_once_per_entry_and_matches_sequential_runs() {
    let _serial = recorder_lock();
    let mut jobs = Vec::new();
    let mut expected = Vec::new();
    for w in workloads::all() {
        let trace = trace(&w.name, 8);
        let analysis = Gpumech::new(SimConfig::table1()).analyze(&trace).unwrap();
        let kernel_jobs = sweep(&trace);
        expected.extend(sequential(&analysis, &kernel_jobs));
        jobs.extend(kernel_jobs);
    }
    assert_eq!(jobs.len(), 40 * 12 * 8);
    for workers in [1, 2, 8] {
        let engine = BatchEngine::new(workers);
        let (first, kmeans) = counted(&engine, &jobs);
        assert!(first == expected, "{workers} worker(s): batch differs from sequential runs");
        assert_eq!(kmeans, 40, "{workers} worker(s): one clustering per entry");
        let (second, kmeans) = counted(&engine, &jobs);
        assert!(second == expected, "{workers} worker(s): warm batch differs");
        assert_eq!(kmeans, 0, "{workers} worker(s): a warm run selects nothing");
    }
}

#[test]
fn a_deadline_inside_kmeans_fails_its_job_and_leaves_the_slot_empty() {
    let _serial = recorder_lock();
    let trace = trace("lud_diagonal", 8);
    let cfg = SimConfig::table1();
    let job = BatchJob::new("lud_diagonal", Arc::clone(&trace), cfg.clone());
    let analysis = Gpumech::new(cfg.clone()).analyze(&trace).unwrap();
    let expected = sequential(&analysis, std::slice::from_ref(&job));

    // A warm entry, so the only polls are the run's own and k-means'.
    let engine = BatchEngine::new(1);
    engine.cache().get_or_compute(cache_key(&trace, &cfg), || Ok(analysis.clone())).unwrap();
    // The run polls once before the job, at 0 ns; k-means' first poll reads
    // 1 000 ns and meets the deadline.
    let clock = Arc::new(FakeClock::new(1_000)) as Arc<dyn Clock>;
    let opts = BatchOptions {
        cancel: Some(CancelToken::with_clock(clock, 1_000)),
        ..BatchOptions::default()
    };
    let (out, rec) = recorded(&engine, std::slice::from_ref(&job), &opts);
    assert_eq!(out, [Err(ExecError::Deadline)]);
    assert_eq!(spans(&rec, "core.kmeans.cluster"), 1, "k-means started");
    let snap = rec.snapshot();
    assert!(!snap.counters.contains_key("core.kmeans.iterations"), "and did not finish");
    assert_eq!(spans(&rec, "core.pipeline.predict"), 0);

    let (out, kmeans) = counted(&engine, std::slice::from_ref(&job));
    assert_eq!(out, expected, "the next job gets the right bytes");
    assert_eq!(kmeans, 1, "the interrupted selection left nothing to reuse");
    assert_eq!(counted(&engine, std::slice::from_ref(&job)).1, 0);
}

#[test]
fn an_evicted_entry_takes_its_selections_along() {
    let _serial = recorder_lock();
    let [a, b] = [trace("bfs_kernel1", 4), trace("sdk_vectoradd", 4)];
    let (a_jobs, b_jobs) = (sweep(&a), sweep(&b));
    let engine = BatchEngine::with_cache(1, ProfileCache::in_memory().with_capacity(1));

    let (a_first, kmeans) = counted(&engine, &a_jobs);
    assert_eq!(kmeans, 1);
    assert_eq!(counted(&engine, &a_jobs).1, 0, "a warm entry selects nothing");
    assert_eq!(counted(&engine, &b_jobs).1, 1, "b's entry evicts a's");
    assert_eq!(engine.cache().len(), 1);
    let (a_again, kmeans) = counted(&engine, &a_jobs);
    assert_eq!(kmeans, 1, "a re-inserted entry starts with no selection");
    assert_eq!(a_again, a_first);
    assert_eq!(counted(&engine, &a_jobs).1, 0);
}

#[test]
fn an_entry_loaded_from_disk_starts_with_no_selection() {
    let _serial = recorder_lock();
    let dir = std::env::temp_dir().join(format!("gpumech-selection-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = sweep(&trace("kmeans_invert_mapping", 4));

    let writer = BatchEngine::with_cache(1, ProfileCache::with_disk(&dir));
    let (written, kmeans) = counted(&writer, &jobs);
    assert_eq!(kmeans, 1);
    let reader = BatchEngine::with_cache(1, ProfileCache::with_disk(&dir));
    let (read, kmeans) = counted(&reader, &jobs);
    assert_eq!(kmeans, 1, "selections are not persisted");
    assert_eq!(read, written);
    assert_eq!(counted(&reader, &jobs).1, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
