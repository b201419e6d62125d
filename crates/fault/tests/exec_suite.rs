//! Execution-layer fault suite: deliberate worker failures injected into
//! the batch pool, asserting graceful degradation — the victim item
//! surfaces as a typed error, every other item's prediction stays
//! byte-identical to a fault-free run, and no observability span leaks.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_exec::{
    canonical_prediction_json, BatchEngine, BatchJob, BatchOptions, ExecError, FaultInjection,
    FaultKind,
};
use gpumech_fault::{
    restore_panic_output, run_batch_case, silence_panic_output, Outcome, EXEC_FAULTS,
};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::workloads;

/// Serializes tests that install the process-global recorder.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small but heterogeneous batch (compute-, divergence-, and
/// memory-bound kernels) at a fast grid size.
fn jobs() -> Vec<BatchJob> {
    ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping", "cfd_step_factor", "lud_diagonal"]
        .into_iter()
        .map(|name| {
            let trace = workloads::by_name(name).unwrap().with_blocks(2).trace().unwrap();
            BatchJob::new(name, Arc::new(trace), SimConfig::table1())
        })
        .collect()
}

#[test]
fn injected_worker_faults_cost_exactly_the_victim_item() {
    let _serial = suite_lock();
    let jobs = jobs();
    let rec = Arc::new(Recorder::new());
    let _obs = gpumech_obs::install(Arc::clone(&rec));

    // Fault-free baseline, canonicalized for byte-identity checks.
    let baseline: Vec<String> = BatchEngine::new(2)
        .run(&jobs)
        .into_iter()
        .map(|r| canonical_prediction_json(&r.unwrap()).unwrap())
        .collect();

    silence_panic_output();
    let mut injected_runs = 0usize;
    for &(fault_name, kind) in EXEC_FAULTS {
        for victim in [0, jobs.len() / 2, jobs.len() - 1] {
            for workers in [1, 3] {
                injected_runs += 1;
                let inject = FaultInjection { item: victim, kind };
                let opts = BatchOptions { injections: vec![inject], ..BatchOptions::default() };
                let got = BatchEngine::new(workers).run_with(&jobs, &opts);
                assert_eq!(got.len(), jobs.len());
                for (i, (result, want)) in got.iter().zip(&baseline).enumerate() {
                    let case = format!(
                        "fault={fault_name}, victim={victim}, workers={workers}, item={i}"
                    );
                    if i == victim {
                        let err = result.as_ref().expect_err(&case);
                        assert_eq!(err.label, jobs[victim].label, "{case}: error must name the kernel");
                        match (kind, &err.error) {
                            (FaultKind::TaskPanic, ExecError::WorkerPanic { item, .. }) => {
                                assert_eq!(*item, victim, "{case}");
                            }
                            (
                                FaultKind::PanicHoldingQueueLock,
                                ExecError::ResultLost { item },
                            ) => {
                                assert_eq!(*item, victim, "{case}");
                            }
                            other => panic!("{case}: wrong degradation: {other:?}"),
                        }
                    } else {
                        let p = result.as_ref().unwrap_or_else(|e| panic!("{case}: {e}"));
                        assert_eq!(
                            &canonical_prediction_json(p).unwrap(),
                            want,
                            "{case}: survivor diverged from fault-free baseline"
                        );
                    }
                }
            }
        }
    }
    restore_panic_output();

    // Every injected panic was contained and accounted for, and no span —
    // not even one unwound through a poisoned lock — was left open.
    assert_eq!(rec.open_spans(), 0, "injected faults leaked open spans");
    let snap = rec.snapshot();
    let panics = snap.counters.get("exec.pool.panics").map_or(0, |c| c.total);
    assert_eq!(panics, injected_runs as u64, "one contained panic per injected run");
}

#[test]
fn batch_case_classifier_upholds_the_contract() {
    let _serial = suite_lock();
    let jobs = jobs();
    silence_panic_output();
    for &(fault_name, kind) in EXEC_FAULTS {
        let victim = 1;
        let outcomes = run_batch_case(&jobs, 2, Some(FaultInjection { item: victim, kind }));
        for (i, outcome) in outcomes.iter().enumerate() {
            assert!(
                outcome.is_contract_ok(),
                "fault={fault_name}, item={i}: contract violated: {outcome:?}"
            );
            if i == victim {
                assert!(
                    matches!(outcome, Outcome::TypedError(_)),
                    "fault={fault_name}: victim must degrade to a typed error, got {outcome:?}"
                );
            } else {
                assert!(
                    matches!(outcome, Outcome::Cpi(c) if c.is_finite() && *c > 0.0),
                    "fault={fault_name}, item={i}: survivor must predict, got {outcome:?}"
                );
            }
        }
    }
    restore_panic_output();
}
