//! The thread-safe event sink behind the `span!`/`counter!`/`gauge!`/
//! `histogram!` macros.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::clock::{Clock, FakeClock, RealClock};
use crate::AttrValue;

/// Cap on stored metric samples: a runaway emitter degrades to dropped
/// samples (counted in [`Snapshot::dropped_samples`]) instead of
/// unbounded memory growth. Aggregates keep updating past the cap.
pub const MAX_SAMPLES: usize = 1 << 20;

/// Log-bucket resolution: sub-buckets per power-of-two octave. Four
/// sub-buckets bound the relative quantile error at 25% of the bucket
/// bound, tight enough for p50/p90/p99 reporting without storing samples.
pub const HISTOGRAM_SUB_BUCKETS: usize = 4;

/// Octaves covered by the finite buckets: `(1, 2^40]`. 2^40 ns is ~18
/// minutes, 2^40 bytes is 1 TiB — comfortably past every series this
/// workspace records.
pub const HISTOGRAM_OCTAVES: usize = 40;

/// Total bucket count: one underflow bucket (`value <= 1`),
/// [`HISTOGRAM_OCTAVES`] x [`HISTOGRAM_SUB_BUCKETS`] log buckets, and one
/// saturating `+inf` overflow bucket that also absorbs non-finite
/// observations.
pub const HISTOGRAM_NUM_BUCKETS: usize = 2 + HISTOGRAM_OCTAVES * HISTOGRAM_SUB_BUCKETS;

/// Inclusive upper bound of log bucket `i` (`value <= bound`). Bucket 0
/// is the `<= 1` underflow; the last bucket is the `+inf` overflow; in
/// between, octave `o` sub-bucket `s` has bound `2^o * (1 + (s+1)/4)`.
#[must_use]
pub fn histogram_bucket_bound(i: usize) -> f64 {
    if i == 0 {
        1.0
    } else if i >= HISTOGRAM_NUM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        let octave = (i - 1) / HISTOGRAM_SUB_BUCKETS;
        let sub = (i - 1) % HISTOGRAM_SUB_BUCKETS;
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let base = f64::powi(2.0, octave as i32);
        base * (1.0 + (sub as f64 + 1.0) / HISTOGRAM_SUB_BUCKETS as f64)
    }
}

/// All bucket bounds in order, computed once. The bounds are strictly
/// increasing, so [`HistogramAgg::observe`] can binary-search them.
fn histogram_bounds() -> &'static [f64; HISTOGRAM_NUM_BUCKETS] {
    static BOUNDS: std::sync::OnceLock<[f64; HISTOGRAM_NUM_BUCKETS]> = std::sync::OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0.0; HISTOGRAM_NUM_BUCKETS];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = histogram_bucket_bound(i);
        }
        b
    })
}

/// One recorded span: a named wall-clock region with optional parent and
/// attributes. `end_ns` is `None` while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Recorder-unique id (allocation order, starting at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (`stage.subsystem.name` scheme).
    pub name: &'static str,
    /// Attributes captured at entry.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Small per-process thread index (not the OS thread id).
    pub thread: u64,
    /// Start timestamp.
    pub start_ns: u64,
    /// End timestamp; `None` while open.
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    /// Span duration in nanoseconds (`None` while open).
    #[must_use]
    pub fn dur_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// Which metric family a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count (increments).
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Distribution observation.
    Histogram,
}

impl MetricKind {
    /// Lowercase name used by the JSON-lines exporter.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One timestamped metric observation (the series shape of the export).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric family.
    pub kind: MetricKind,
    /// Metric name (`stage.subsystem.name` scheme).
    pub name: &'static str,
    /// Observed value (counter increments are exact up to 2^53).
    pub value: f64,
    /// Observation timestamp.
    pub ts_ns: u64,
    /// Id of the span open on the emitting thread, if any.
    pub span: Option<u64>,
}

/// Running total of one counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterAgg {
    /// Sum of all increments.
    pub total: u64,
    /// Number of increments.
    pub count: u64,
}

/// Running aggregate of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeAgg {
    /// Most recent observation.
    pub last: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Number of observations.
    pub count: u64,
}

/// Running log-bucketed aggregate of one histogram, with quantile
/// extraction.
///
/// Observations land in [`HISTOGRAM_NUM_BUCKETS`] log-scale buckets
/// (see [`histogram_bucket_bound`]); values past the finite range — and
/// non-finite values — saturate into the overflow bucket. Exact `min`,
/// `max`, and `sum` are tracked over the *finite* observations, which is
/// what keeps single-sample and narrow distributions exact under
/// [`HistogramAgg::quantile`]'s clamping.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramAgg {
    /// Per-bucket observation counts, aligned with
    /// [`histogram_bucket_bound`]. Always [`HISTOGRAM_NUM_BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Number of observations (including non-finite ones).
    pub count: u64,
    /// Sum of the finite observations.
    pub sum: f64,
    /// Minimum finite observation (`+inf` until one arrives).
    pub min: f64,
    /// Maximum finite observation (`-inf` until one arrives).
    pub max: f64,
}

impl Default for HistogramAgg {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistogramAgg {
    /// Records one observation into the log buckets.
    pub fn observe(&mut self, value: f64) {
        // First bound >= value; NaN compares false everywhere and lands in
        // the overflow bucket along with +/-inf and out-of-range values.
        let idx = if value.is_finite() {
            histogram_bounds().partition_point(|&b| b < value).min(HISTOGRAM_NUM_BUCKETS - 1)
        } else {
            HISTOGRAM_NUM_BUCKETS - 1
        };
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Estimates quantile `q` (clamped to `[0, 1]`) from the log buckets:
    /// the bound of the first bucket whose cumulative count reaches the
    /// rank, clamped into the exact `[min, max]` envelope. Relative error
    /// is bounded by the sub-bucket width (25%); single-sample and
    /// constant series are exact thanks to the clamp.
    ///
    /// Returns `None` when the histogram is empty or holds no finite
    /// observation (quantiles of nothing are meaningless, and the JSON
    /// export renders that as `null` rather than a fake zero).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !self.max.is_finite() {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation,
                clippy::cast_sign_loss)]
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // The overflow bucket has no finite bound; the exact max
                // is the best saturating statement we can make.
                let bound = histogram_bucket_bound(i);
                return Some(bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Mean of the finite observations (`None` when there are none).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 || !self.max.is_finite() {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(self.sum / self.count as f64)
    }
}

/// Everything a recorder captured, in a stable order: spans by id,
/// samples in emission order, aggregates sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All spans, open and closed, in id order.
    pub spans: Vec<SpanRecord>,
    /// Metric samples in emission order (capped at [`MAX_SAMPLES`]).
    pub samples: Vec<MetricSample>,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, CounterAgg>,
    /// Gauge aggregates by name.
    pub gauges: BTreeMap<&'static str, GaugeAgg>,
    /// Histogram aggregates by name.
    pub hists: BTreeMap<&'static str, HistogramAgg>,
    /// Samples discarded after the [`MAX_SAMPLES`] cap was hit.
    pub dropped_samples: u64,
    /// Names [`valid_metric_name`](crate::valid_metric_name) rejects, each
    /// listed once so exports are debuggable rather than silently wrong;
    /// the JSONL export's `meta` line carries them.
    pub invalid_names: Vec<&'static str>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    samples: Vec<MetricSample>,
    counters: BTreeMap<&'static str, CounterAgg>,
    gauges: BTreeMap<&'static str, GaugeAgg>,
    hists: BTreeMap<&'static str, HistogramAgg>,
    dropped_samples: u64,
    invalid_names: Vec<&'static str>,
    open_spans: usize,
}

impl Inner {
    fn check_name(&mut self, name: &'static str) {
        if !crate::valid_metric_name(name) && !self.invalid_names.contains(&name) {
            self.invalid_names.push(name);
        }
    }

    fn push_sample(&mut self, sample: MetricSample) {
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(sample);
        } else {
            self.dropped_samples += 1;
        }
    }
}

/// A thread-safe observability sink. Usually installed process-wide via
/// [`crate::install`]; exporters and tests can also drive one directly.
pub struct Recorder {
    clock: Box<dyn Clock>,
    next_span: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder on the real monotonic clock.
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Box::new(RealClock))
    }

    /// A recorder on a deterministic fake clock advancing `step_ns` per
    /// observation (golden tests).
    #[must_use]
    pub fn fake(step_ns: u64) -> Self {
        Self::with_clock(Box::new(FakeClock::new(step_ns)))
    }

    /// A recorder on an explicit clock.
    #[must_use]
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self { clock, next_span: AtomicU64::new(1), inner: Mutex::new(Inner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current timestamp of the recorder's clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Opens a span; returns its id. [`crate::SpanGuard`] drives this with
    /// the thread-local stack; it is public so tests and tools can build
    /// fully deterministic snapshots (explicit parent and thread) on a
    /// fake clock — the golden-file tests do exactly that.
    pub fn start_span(
        &self,
        name: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
        parent: Option<u64>,
        thread: u64,
    ) -> u64 {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.clock.now_ns();
        let mut inner = self.lock();
        inner.check_name(name);
        inner.open_spans += 1;
        inner.spans.push(SpanRecord { id, parent, name, attrs, thread, start_ns, end_ns: None });
        id
    }

    /// Closes the span with `id` (idempotent for unknown ids).
    pub fn end_span(&self, id: u64) {
        let end_ns = self.clock.now_ns();
        let mut inner = self.lock();
        // Spans close in LIFO order per thread, so the open span is almost
        // always near the tail.
        if let Some(span) =
            inner.spans.iter_mut().rev().find(|s| s.id == id && s.end_ns.is_none())
        {
            span.end_ns = Some(end_ns);
            inner.open_spans = inner.open_spans.saturating_sub(1);
        }
    }

    /// Records a counter increment.
    pub fn counter(&self, name: &'static str, value: u64) {
        let ts_ns = self.clock.now_ns();
        let span = crate::span::current_span_id();
        let mut inner = self.lock();
        inner.check_name(name);
        let agg = inner.counters.entry(name).or_default();
        agg.total = agg.total.saturating_add(value);
        agg.count += 1;
        inner.push_sample(MetricSample {
            kind: MetricKind::Counter,
            name,
            value: value as f64,
            ts_ns,
            span,
        });
    }

    /// Records a gauge observation. Non-finite values are counted but do
    /// not disturb min/max/last (the export must stay valid JSON).
    pub fn gauge(&self, name: &'static str, value: f64) {
        let ts_ns = self.clock.now_ns();
        let span = crate::span::current_span_id();
        let mut inner = self.lock();
        inner.check_name(name);
        let agg = inner.gauges.entry(name).or_insert(GaugeAgg {
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        });
        agg.count += 1;
        if value.is_finite() {
            agg.last = value;
            agg.min = agg.min.min(value);
            agg.max = agg.max.max(value);
        }
        inner.push_sample(MetricSample { kind: MetricKind::Gauge, name, value, ts_ns, span });
    }

    /// Records a histogram observation into the log buckets.
    pub fn histogram(&self, name: &'static str, value: f64) {
        let ts_ns = self.clock.now_ns();
        let span = crate::span::current_span_id();
        let mut inner = self.lock();
        inner.check_name(name);
        inner.hists.entry(name).or_default().observe(value);
        inner.push_sample(MetricSample { kind: MetricKind::Histogram, name, value, ts_ns, span });
    }

    /// Number of spans started but not yet closed — the fault suite
    /// asserts this is zero after every error-path exit.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.lock().open_spans
    }

    /// A consistent copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            spans: inner.spans.clone(),
            samples: inner.samples.clone(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            hists: inner.hists.clone(),
            dropped_samples: inner.dropped_samples,
            invalid_names: inner.invalid_names.clone(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_and_sample() {
        let r = Recorder::fake(1);
        r.counter("test.agg.hits", 2);
        r.counter("test.agg.hits", 3);
        let s = r.snapshot();
        let agg = s.counters["test.agg.hits"];
        assert_eq!(agg.total, 5);
        assert_eq!(agg.count, 2);
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].value, 2.0);
        assert!(s.invalid_names.is_empty());
    }

    #[test]
    fn gauges_track_min_max_last_and_survive_nan() {
        let r = Recorder::fake(1);
        r.gauge("test.agg.level", 2.0);
        r.gauge("test.agg.level", -1.0);
        r.gauge("test.agg.level", f64::NAN);
        r.gauge("test.agg.level", 0.5);
        let g = r.snapshot().gauges["test.agg.level"];
        assert_eq!(g.last, 0.5);
        assert_eq!(g.min, -1.0);
        assert_eq!(g.max, 2.0);
        assert_eq!(g.count, 4);
    }

    #[test]
    fn histogram_log_buckets_cover_the_range() {
        let r = Recorder::fake(1);
        for v in [0.5, 1.0, 1.5, 100.0, 1e9] {
            r.histogram("test.agg.sizes", v);
        }
        let h = &r.snapshot().hists["test.agg.sizes"];
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[0], 2, "0.5 and 1.0 land in the <=1 underflow bucket");
        assert_eq!(h.buckets[2], 1, "1.5 lands in the <=1.5 sub-bucket");
        // 100 lands in the first bucket whose bound is >= 100 (112).
        let idx_100 = (0..HISTOGRAM_NUM_BUCKETS)
            .find(|&i| histogram_bucket_bound(i) >= 100.0)
            .unwrap();
        assert_eq!(h.buckets[idx_100], 1);
        assert!((h.sum - (0.5 + 1.0 + 1.5 + 100.0 + 1e9)).abs() < 1e-3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e9);
    }

    #[test]
    fn histogram_bounds_are_strictly_increasing_and_tight() {
        let mut prev = 0.0;
        for i in 0..HISTOGRAM_NUM_BUCKETS - 1 {
            let b = histogram_bucket_bound(i);
            assert!(b > prev, "bound {i} ({b}) not above {prev}");
            if i > 0 {
                assert!(b / prev <= 1.25 + 1e-12, "bucket {i} wider than 25%: {prev}..{b}");
            }
            prev = b;
        }
        assert_eq!(histogram_bucket_bound(HISTOGRAM_NUM_BUCKETS - 1), f64::INFINITY);
        // Exact powers of two sit on a bucket boundary (value <= bound).
        assert_eq!(histogram_bucket_bound(HISTOGRAM_SUB_BUCKETS), 2.0);
    }

    #[test]
    fn quantiles_empty_single_and_overflow() {
        // Empty: no quantiles, rendered as null downstream.
        let empty = HistogramAgg::default();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), None);

        // Single sample: the min/max clamp makes every quantile exact.
        let mut one = HistogramAgg::default();
        one.observe(100.0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(100.0), "q={q}");
        }

        // Saturating overflow: out-of-range and non-finite observations
        // land in the last bucket; quantiles saturate at the exact max.
        let mut big = HistogramAgg::default();
        big.observe(1e30);
        big.observe(f64::INFINITY);
        big.observe(f64::NAN);
        assert_eq!(big.buckets[HISTOGRAM_NUM_BUCKETS - 1], 3);
        assert_eq!(big.count, 3);
        assert_eq!(big.quantile(0.99), Some(1e30), "overflow saturates to exact max");
        assert_eq!(big.max, 1e30, "non-finite values must not disturb max");

        // All-non-finite: counted, but no meaningful quantile.
        let mut nan_only = HistogramAgg::default();
        nan_only.observe(f64::NAN);
        assert_eq!(nan_only.count, 1);
        assert_eq!(nan_only.quantile(0.5), None);
    }

    #[test]
    fn quantiles_bound_relative_error_at_25_percent() {
        let mut h = HistogramAgg::default();
        for i in 1..=1000u32 {
            h.observe(f64::from(i));
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = h.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.25, "q={q}: estimate {est} vs exact {exact} ({rel:.3} rel err)");
            assert!(est >= exact, "log-bucket estimate is an upper bound");
        }
    }

    #[test]
    fn invalid_names_are_reported_not_dropped() {
        let r = Recorder::fake(1);
        r.counter("BadName", 1);
        r.counter("BadName", 1);
        r.counter("test.name.here", 1);
        r.counter("perf.x.y", 1);
        let s = r.snapshot();
        assert_eq!(s.invalid_names, vec!["BadName", "perf.x.y"]);
        assert_eq!(s.counters.len(), 3, "invalid names still record");
    }

    #[test]
    fn sample_cap_drops_but_keeps_aggregating() {
        let r = Recorder::fake(1);
        // Exercise the cap without a million pushes: pre-fill the sample
        // buffer to one below the cap, then emit twice.
        {
            let mut inner = r.lock();
            let filler = MetricSample {
                kind: MetricKind::Counter,
                name: "test.cap.filler",
                value: 1.0,
                ts_ns: 0,
                span: None,
            };
            inner.samples = vec![filler; MAX_SAMPLES - 1];
        }
        r.counter("test.cap.hits", 1); // lands in the last slot
        r.counter("test.cap.hits", 1); // dropped
        let s = r.snapshot();
        assert_eq!(s.dropped_samples, 1);
        assert_eq!(s.samples.len(), MAX_SAMPLES);
        assert_eq!(s.counters["test.cap.hits"].total, 2, "aggregates keep updating");
    }
}
