//! Observability overhead regression test.
//!
//! Two guarantees, both recorded in EXPERIMENTS.md:
//!
//! 1. With no recorder installed, an instrumentation probe is one relaxed
//!    atomic load and a branch — effectively free.
//! 2. With a recorder installed, the full pipeline stays within a small
//!    constant factor of the uninstrumented run, because hot loops
//!    aggregate locally and emit once per stage.
//!
//! Bounds are deliberately generous (shared CI machines jitter); they
//! exist to catch gross regressions such as a span per instruction, not to
//! benchmark precisely.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::{workloads, KernelTrace};

/// Serializes the tests: both manipulate the process-global recorder.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One warm-up call, then the mean wall time of `iters` timed calls.
fn bench_wall<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = t0.elapsed() / iters;
    println!("{label:<44} {per:>12.3?}  (mean of {iters})");
    per
}

fn pipeline_once(trace: &KernelTrace) -> f64 {
    let model = Gpumech::new(SimConfig::table1());
    let p = model
        .run(&PredictionRequest::from_trace(trace))
        .expect("bundled workloads model cleanly");
    p.cpi_total()
}

#[test]
fn enabled_recorder_overhead_stays_bounded() {
    let _serial = obs_lock();
    for name in ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping"] {
        let w = workloads::by_name(name).unwrap().with_blocks(4);
        let trace = w.trace().unwrap();

        assert!(gpumech_obs::installed().is_none(), "leftover recorder from another test");
        let off = bench_wall(&format!("{name} pipeline obs=off"), 5, || pipeline_once(&trace));

        let rec = Arc::new(Recorder::new());
        let on = {
            let _installed = gpumech_obs::install(Arc::clone(&rec));
            bench_wall(&format!("{name} pipeline obs=on"), 5, || pipeline_once(&trace))
        };

        let snap = rec.snapshot();
        assert!(!snap.spans.is_empty(), "{name}: enabled run recorded no spans");
        assert!(snap.invalid_names.is_empty(), "{name}: bad names {:?}", snap.invalid_names);

        let bound = off * 5 + Duration::from_millis(5);
        assert!(
            on < bound,
            "{name}: instrumented pipeline too slow: {on:?} vs {off:?} uninstrumented"
        );
    }
}

#[test]
fn disabled_probe_costs_one_branch() {
    let _serial = obs_lock();
    assert!(gpumech_obs::installed().is_none(), "leftover recorder from another test");
    // 100 probes per timed iteration; the value expression must not even
    // be evaluated on the disabled path.
    let per = bench_wall("disabled probes x100", 100_000, || {
        for i in 0..100u64 {
            gpumech_obs::counter!("bench.micro.probe", i * 2);
        }
    });
    // 100 disabled probes in well under 100 us — orders of magnitude of
    // headroom over the ~ns they actually take.
    assert!(per < Duration::from_micros(100), "disabled probes too slow: {per:?} per 100");
}

#[test]
fn disabled_alloc_counting_costs_one_relaxed_load() {
    // With no AllocScope live, the counting global allocator adds one
    // relaxed load and a branch per alloc/free. Same budget discipline as
    // the probe test: 100 boxed allocations in well under 100 us means
    // the counting path stayed out of the fast path.
    assert!(!gpumech_perf::counting_enabled(), "leftover AllocScope from another test");
    let per = bench_wall("disabled alloc counting x100", 10_000, || {
        for i in 0..100u64 {
            std::hint::black_box(Box::new(i));
        }
    });
    assert!(per < Duration::from_micros(100), "disabled-path allocs too slow: {per:?} per 100");
}
