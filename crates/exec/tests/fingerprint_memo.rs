//! The engine's trace-fingerprint memo is sound, not just fast: a trace is
//! hashed once per allocation for as long as it lives, a mutated or
//! re-allocated trace is hashed again, every prediction equals a fresh
//! engine's, and the memo never outlives the traces it describes. Also
//! pins where a one-worker batch runs: on the caller's thread, under the
//! batch's spans.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_exec::{canonical_prediction_json, job_fingerprints, BatchEngine, BatchJob};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::{workloads, KernelTrace};

/// Serializes the tests of this binary: each either installs the
/// process-global recorder or runs batches that would count into it.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trace(name: &str) -> Arc<KernelTrace> {
    Arc::new(workloads::by_name(name).unwrap().with_blocks(1).trace().unwrap())
}

/// A three-point bandwidth sweep over `trace`.
fn sweep(trace: &Arc<KernelTrace>) -> Vec<BatchJob> {
    [48.0, 96.0, 192.0]
        .into_iter()
        .map(|bw| {
            let cfg = SimConfig { dram_bandwidth_gbps: bw, ..SimConfig::default() };
            BatchJob::new(format!("{} @ {bw}", trace.name), Arc::clone(trace), cfg)
        })
        .collect()
}

fn canon(engine: &BatchEngine, jobs: &[BatchJob]) -> Vec<String> {
    engine.run(jobs).into_iter().map(|r| canonical_prediction_json(&r.unwrap()).unwrap()).collect()
}

/// `engine.run(jobs)` under a fresh recorder: the canonical predictions and
/// the `exec.fingerprint.{computed,reused}` counts.
fn counted_run(engine: &BatchEngine, jobs: &[BatchJob]) -> (Vec<String>, u64, u64) {
    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        canon(engine, jobs)
    };
    let snap = rec.snapshot();
    let count = |name| snap.counters.get(name).map_or(0, |c| c.total);
    (out, count("exec.fingerprint.computed"), count("exec.fingerprint.reused"))
}

#[test]
fn a_second_run_over_the_same_traces_hashes_nothing() {
    let _serial = recorder_lock();
    let traces = [trace("sdk_vectoradd"), trace("bfs_kernel1")];
    // Interleaved, so a trace's jobs are not all neighbours.
    let jobs: Vec<BatchJob> =
        sweep(&traces[0]).into_iter().zip(sweep(&traces[1])).flat_map(|(a, b)| [a, b]).collect();
    let engine = BatchEngine::new(1);

    let (first, computed, reused) = counted_run(&engine, &jobs);
    assert_eq!((computed, reused), (2, 0), "one hash per distinct trace, not per job");
    let (second, computed, reused) = counted_run(&engine, &jobs);
    assert_eq!((computed, reused), (0, 2), "the engine remembers both traces");
    assert_eq!(first, second);
    assert_eq!(first, canon(&BatchEngine::new(1), &jobs));
}

#[test]
fn a_trace_changed_through_make_mut_is_hashed_again() {
    let _serial = recorder_lock();
    let engine = BatchEngine::new(1);
    let mut shared = trace("kmeans_invert_mapping");
    let _ = engine.run(&sweep(&shared));

    // The jobs are gone, so `shared` is the only strong reference and the
    // memo's `Weak` the only weak one: `make_mut` moves the value to a
    // new allocation instead of cloning it, and the memo must notice.
    let warp = &mut Arc::make_mut(&mut shared).warps[0];
    warp.set_mask(0, warp.inst(0).active_mask ^ 1);
    let jobs = sweep(&shared);
    let (after, computed, reused) = counted_run(&engine, &jobs);
    assert_eq!((computed, reused), (1, 0));
    assert_eq!(engine.cache().len(), 2, "the changed trace must key its own analysis");
    assert_eq!(after, canon(&BatchEngine::new(1), &jobs));
}

#[test]
fn traces_rebuilt_where_dropped_ones_lived_predict_like_a_fresh_engine() {
    let _serial = recorder_lock();
    let engine = BatchEngine::new(1);
    // Traces of one grid size have the same `Arc` allocation size, so the
    // allocator is free to hand a dropped trace's address to the next one.
    for round in 0..6 {
        let name = ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping"][round % 3];
        let jobs = sweep(&trace(name));
        assert_eq!(canon(&engine, &jobs), canon(&BatchEngine::new(1), &jobs), "round {round}");
    }
}

#[test]
fn a_clone_in_a_new_arc_is_hashed_to_the_same_value() {
    let _serial = recorder_lock();
    let original = trace("cfd_step_factor");
    let copy = Arc::new((*original).clone());
    let jobs: Vec<BatchJob> = sweep(&original).into_iter().chain(sweep(&copy)).collect();
    let engine = BatchEngine::new(1);
    let (out, computed, reused) = counted_run(&engine, &jobs);
    assert_eq!((computed, reused), (2, 0), "two allocations, two hashes");
    assert_eq!(engine.cache().len(), 1, "equal content, one cache key");
    assert_eq!(out[..3], out[3..]);
    let fps = job_fingerprints(&jobs);
    let (ours, theirs) = fps.split_at(3);
    // Job fingerprints include the label, which is the same per point.
    assert_eq!(ours, theirs);
}

#[test]
fn the_memo_holds_no_more_entries_than_live_traces() {
    let _serial = recorder_lock();
    let engine = BatchEngine::new(1);
    let traces = [trace("sdk_vectoradd"), trace("bfs_kernel1"), trace("lud_diagonal")];
    let jobs: Vec<BatchJob> = traces.iter().flat_map(sweep).collect();
    let _ = engine.run(&jobs);
    assert_eq!(engine.remembered_traces(), 3);
    drop((jobs, traces));

    let survivor = trace("cfd_step_factor");
    let _ = engine.run(&sweep(&survivor));
    assert_eq!(engine.remembered_traces(), 1, "dead entries are pruned on insert");
}

#[test]
fn a_one_worker_batch_runs_its_jobs_under_the_batch_spans() {
    let _serial = recorder_lock();
    let rec = Arc::new(Recorder::new());
    {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        let out = BatchEngine::new(1).run(&sweep(&trace("sdk_vectoradd")));
        assert!(out.iter().all(Result::is_ok));
    }
    let spans = rec.snapshot().spans;
    let by_id = |id| spans.iter().find(|s| s.id == id).unwrap();
    let batch = spans.iter().find(|s| s.name == "exec.batch.run").unwrap();
    let pipeline: Vec<_> = spans.iter().filter(|s| s.name.starts_with("core.pipeline.")).collect();
    assert!(pipeline.len() >= 4, "one analysis and three predictions: {pipeline:?}");
    for span in pipeline {
        assert_eq!(span.thread, batch.thread, "{}: ran off the caller's thread", span.name);
        let mut chain = Vec::new();
        let mut up = span.parent;
        while let Some(id) = up {
            let parent = by_id(id);
            chain.push(parent.name);
            up = parent.parent;
        }
        assert!(chain.ends_with(&["exec.pool.run", "exec.batch.run"]), "{}: {chain:?}", span.name);
    }
}
