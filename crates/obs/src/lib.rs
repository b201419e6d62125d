//! Observability for the GPUMech pipeline: span-based hierarchical
//! tracing, typed metrics, and pipeline profiling — hand-rolled, with no
//! dependency outside this workspace (the build environment has no
//! crates.io access).
//!
//! # Architecture
//!
//! A process-wide [`Recorder`] can be installed with [`install`]; whether
//! one is active is a single `AtomicBool` ([`enabled`]), so every
//! instrumentation site in the pipeline compiles down to a relaxed load
//! and a predictable branch when observability is off. The recorder
//! aggregates two kinds of data:
//!
//! * **Spans** — hierarchical wall-clock regions opened by [`span!`]
//!   (RAII: the span closes when the guard drops, including on unwind).
//!   Parentage is tracked per thread, timestamps come from a monotonic
//!   [`Clock`] that tests can replace with a deterministic fake.
//! * **Metrics** — [`counter!`], [`gauge!`], and [`histogram!`] samples,
//!   recorded both as a timestamped series and as running aggregates
//!   (totals, min/max/last, log-bucketed quantile histograms with
//!   p50/p90/p99 extraction via [`HistogramAgg::quantile`]).
//!
//! Where a prediction's time went is the span tree and nothing else: the
//! pipeline's stages are the `mem.cachesim.simulate`,
//! `core.pipeline.intervals`, `core.kmeans.cluster` and
//! `core.pipeline.predict` spans.
//!
//! # Metric naming scheme
//!
//! Every span and metric name is `stage.subsystem.name`: exactly three
//! dot-separated segments of `[a-z0-9_]+`, each starting with a letter,
//! where `stage` is the short crate name (`isa`, `analyze`, `trace`,
//! `mem`, `timing`, `core`, `exec`, `serve`, `cli`, `bench`, `fault`,
//! `shard`). The [`Recorder`] checks each name it records with
//! [`valid_metric_name`] and lists the ones it rejects in
//! [`Snapshot::invalid_names`], which [`to_jsonl`] writes into the
//! `meta` line.
//!
//! # Exporters
//!
//! [`render_tree`] (human-readable span tree + metric tables),
//! [`to_jsonl`] (one JSON object per line), and [`to_chrome_trace`]
//! (Chrome `trace_event` JSON loadable in `chrome://tracing` / Perfetto).
//!
//! # Process-level primitives
//!
//! [`CancelToken`] (cooperative cancellation and deadlines) and
//! [`signals`] (the SIGTERM/SIGINT flag and senders) are what the
//! long-running front end, `gpumech serve`, uses for graceful drain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

mod cancel;
mod clock;
mod export;
mod naming;
mod recorder;
pub mod signals;
mod span;

pub use cancel::{CancelToken, Interrupt};
pub use clock::{Clock, FakeClock, RealClock};
pub use export::{render_tree, to_chrome_trace, to_jsonl};
pub use naming::valid_metric_name;
pub use recorder::{
    histogram_bucket_bound, CounterAgg, GaugeAgg, HistogramAgg, MetricKind, MetricSample, Recorder,
    Snapshot, SpanRecord, HISTOGRAM_NUM_BUCKETS, HISTOGRAM_OCTAVES, HISTOGRAM_SUB_BUCKETS,
    MAX_SAMPLES,
};
pub use span::SpanGuard;

/// Fast-path gate: `true` while a recorder is installed. Instrumentation
/// macros check this before doing any other work.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. Write-locked only by [`install`]/uninstall;
/// instrumentation takes the read lock only after [`enabled`] passes.
static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// `true` while a recorder is installed — the branch every disabled-path
/// instrumentation site reduces to (one relaxed atomic load).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed recorder, if any.
#[must_use]
pub fn installed() -> Option<Arc<Recorder>> {
    if !enabled() {
        return None;
    }
    GLOBAL.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Installs `recorder` as the process-wide sink and returns a guard that
/// uninstalls it (and flips [`enabled`] back off) when dropped.
///
/// Only one recorder is active at a time; installing while another is
/// active replaces it for the overlap and restores *nothing* on drop —
/// callers that may run concurrently (e.g. CLI tests) must serialize
/// recorded sections themselves.
#[must_use]
pub fn install(recorder: Arc<Recorder>) -> ObsGuard {
    {
        let mut g = GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        *g = Some(recorder);
    }
    ENABLED.store(true, Ordering::Relaxed);
    ObsGuard { _priv: () }
}

/// RAII handle returned by [`install`]; dropping it uninstalls the
/// recorder and disables all instrumentation.
#[derive(Debug)]
pub struct ObsGuard {
    _priv: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        let mut g = GLOBAL.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        *g = None;
    }
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! attr_from {
    ($($t:ty => $v:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$v(<$cast>::from(v))
            }
        }
    )*};
}
attr_from!(u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, u8 => U64 as u64,
           i64 => I64 as i64, i32 => I64 as i64,
           f64 => F64 as f64, bool => Bool as bool);

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Records one counter increment. Prefer the [`counter!`] macro, which
/// guards on [`enabled`] at the call site.
pub fn record_counter(name: &'static str, value: u64) {
    if let Some(rec) = installed() {
        rec.counter(name, value);
    }
}

/// Records one gauge observation. Prefer the [`gauge!`] macro.
pub fn record_gauge(name: &'static str, value: f64) {
    if let Some(rec) = installed() {
        rec.gauge(name, value);
    }
}

/// Records one histogram observation. Prefer the [`histogram!`] macro.
pub fn record_histogram(name: &'static str, value: f64) {
    if let Some(rec) = installed() {
        rec.histogram(name, value);
    }
}

/// Opens a hierarchical span; returns an RAII guard that closes it.
///
/// Bind the result (`let _span = span!(...)`) — `let _ = span!(...)`
/// drops the guard immediately. Attribute expressions are evaluated only
/// when a recorder is installed.
///
/// ```
/// let _span = gpumech_obs::span!("core.pipeline.analyze", warps = 32usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter($name, Vec::new())
    };
    ($name:literal, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($k), $crate::AttrValue::from($v))),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Increments a counter metric (value defaults to 1). The value
/// expression is only evaluated when a recorder is installed.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1u64)
    };
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            $crate::record_counter($name, $value);
        }
    };
}

/// Records a gauge observation (an instantaneous `f64` level).
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            $crate::record_gauge($name, $value);
        }
    };
}

/// Records a histogram observation into log-spaced quantile buckets.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            $crate::record_histogram($name, $value);
        }
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the process-wide recorder.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_are_inert() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        assert!(!enabled());
        let mut evaluated = false;
        counter!("test.macro.counter", {
            evaluated = true;
            1u64
        });
        assert!(!evaluated, "disabled counter! must not evaluate its value");
        let _span = span!("test.macro.span", id = 3usize);
        assert!(installed().is_none());
    }

    #[test]
    fn install_enables_and_guard_disables() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        let rec = Arc::new(Recorder::fake(1_000));
        {
            let _g = install(Arc::clone(&rec));
            assert!(enabled());
            counter!("test.install.hits", 2u64);
            counter!("test.install.hits");
            {
                let _span = span!("test.install.work", warp = 7u64);
                gauge!("test.install.level", 0.5);
            }
            histogram!("test.install.sizes", 3.0);
        }
        assert!(!enabled());
        counter!("test.install.hits", 100u64); // dropped: recorder uninstalled
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("test.install.hits").map(|c| c.total), Some(3));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "test.install.work");
        assert!(snap.spans[0].end_ns.is_some(), "guard drop must close the span");
        assert_eq!(snap.samples.len(), 4);
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn spans_nest_and_close_on_unwind() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        let rec = Arc::new(Recorder::fake(10));
        let _g = install(Arc::clone(&rec));
        {
            let _outer = span!("test.nest.outer");
            let _inner = span!("test.nest.inner");
        }
        let result = std::panic::catch_unwind(|| {
            let _s = span!("test.nest.panicking");
            panic!("deliberate");
        });
        assert!(result.is_err());
        let snap = rec.snapshot();
        assert_eq!(rec.open_spans(), 0, "unwind must close spans");
        let outer = snap.spans.iter().find(|s| s.name == "test.nest.outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "test.nest.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
    }

    #[test]
    fn attr_conversions_cover_the_pipeline_types() {
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3u32), AttrValue::U64(3));
        assert_eq!(AttrValue::from(-1i32), AttrValue::I64(-1));
        assert_eq!(AttrValue::from(0.5f64), AttrValue::F64(0.5));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".to_string()));
    }
}
