//! Representative-warp selection runs k-means once per selection, not once
//! per prediction: a degenerate clustering blends from the selection it
//! already made, and a request that carries a precomputed selection runs
//! no k-means at all. Counted from the recorder's `core.kmeans.cluster`
//! spans.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{
    Analysis, Gpumech, Interval, IntervalProfile, Model, Prediction, PredictionRequest,
    SchedulingPolicy,
    Selection, SelectionMethod,
};
use gpumech_isa::SimConfig;
use gpumech_obs::{CancelToken, Recorder};
use gpumech_trace::workloads;

/// Serializes the tests of this binary: each installs the process-global
/// recorder and counts what the others would add to it.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn analysis(name: &str, blocks: usize) -> Analysis {
    let trace = workloads::by_name(name).unwrap().with_blocks(blocks).trace().unwrap();
    Gpumech::new(SimConfig::default()).analyze(&trace).unwrap()
}

/// `work()` under a fresh recorder: its value and the `core.kmeans.cluster`
/// spans it recorded.
fn kmeans_spans<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        work()
    };
    let spans = rec.snapshot().spans.iter().filter(|s| s.name == "core.kmeans.cluster").count();
    (out, spans)
}

#[test]
fn a_degenerate_clustering_downgrades_after_one_kmeans() {
    let _serial = recorder_lock();
    let mut a = analysis("bfs_kernel1", 2);
    // Infinitely fast issue and the least positive stall: an infinite warp
    // performance, whose normalized feature is NaN.
    a.profiles[1] = IntervalProfile {
        intervals: vec![Interval {
            insts: 10,
            stall_cycles: f64::from_bits(1),
            ..Interval::default()
        }]
        .into(),
        issue_rate: f64::INFINITY,
    };
    let model = Gpumech::new(SimConfig::default());
    let (p, spans) = kmeans_spans(|| model.run(&PredictionRequest::from_analysis(&a)).unwrap());
    assert_eq!(
        p.warnings,
        ["k-means clustering degenerated (non-finite features or no convergence); \
          downgraded to population-weighted cluster selection"]
    );
    assert_eq!(spans, 1, "the downgrade blends from the one clustering");
    let blended = model.run(&PredictionRequest::from_analysis(&a).population_weighted()).unwrap();
    let json = |p: &Prediction| serde_json::to_string(&p.cpi).unwrap();
    assert_eq!(json(&blended), json(&p), "the downgrade is the weighted blend");
}

#[test]
fn a_precomputed_selection_runs_no_kmeans() {
    let _serial = recorder_lock();
    let a = analysis("lud_diagonal", 8);
    let model = Gpumech::new(SimConfig::default());
    let (selection, spans) = kmeans_spans(|| {
        Selection::new(&a, SelectionMethod::Clustering, &CancelToken::never()).unwrap()
    });
    assert_eq!(spans, 1);
    let (_, spans) = kmeans_spans(|| {
        for m in Model::ALL {
            for policy in SchedulingPolicy::ALL {
                let request = PredictionRequest::from_analysis(&a)
                    .model(m)
                    .policy(policy)
                    .selected(&selection);
                model.run(&request).unwrap();
                model.run(&request.population_weighted()).unwrap();
            }
        }
    });
    assert_eq!(spans, 0, "twenty predictions from one selection");
}
