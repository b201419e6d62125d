//! Exporters over a recorder [`Snapshot`]: human-readable tree summary,
//! JSON lines, and Chrome `trace_event` JSON.
//!
//! All JSON is written by hand (the crate has no JSON dependency); the
//! only subtleties are string escaping and non-finite floats, which JSON
//! cannot represent and which are emitted as `null`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::recorder::{histogram_bucket_bound, Snapshot, SpanRecord};
use crate::AttrValue;

/// Escapes `s` as the body of a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an optional integer as a JSON number or `null`.
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

fn json_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(x) => x.to_string(),
        AttrValue::I64(x) => x.to_string(),
        AttrValue::F64(x) => json_num(*x),
        AttrValue::Bool(x) => x.to_string(),
        AttrValue::Str(x) => format!("\"{}\"", esc(x)),
    }
}

fn json_attrs(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", esc(k), json_attr(v));
    }
    out.push('}');
    out
}

/// Renders the snapshot as JSON lines — the format `--obs-out` writes.
///
/// Line types (one JSON object per line, stable order):
/// 1. one `meta` header (`version`, `dropped_samples`, `invalid_names`),
/// 2. `span` lines in id order (`dur_ns` is `null` for open spans),
/// 3. `metric` lines in emission order (the timestamped series),
/// 4. `aggregate` lines sorted by name (counter totals, gauge min/max/
///    last, histogram buckets as `[upper_bound, count]` pairs).
#[must_use]
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    let invalid: Vec<String> =
        snap.invalid_names.iter().map(|n| format!("\"{}\"", esc(n))).collect();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"version\":1,\"dropped_samples\":{},\"invalid_names\":[{}]}}",
        snap.dropped_samples,
        invalid.join(",")
    );
    for s in &snap.spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"dur_ns\":{},\"attrs\":{}}}",
            s.id,
            json_opt(s.parent),
            esc(s.name),
            s.thread,
            s.start_ns,
            json_opt(s.dur_ns()),
            json_attrs(&s.attrs),
        );
    }
    for m in &snap.samples {
        let _ = writeln!(
            out,
            "{{\"type\":\"metric\",\"kind\":\"{}\",\"name\":\"{}\",\"value\":{},\
             \"ts_ns\":{},\"span\":{}}}",
            m.kind.as_str(),
            esc(m.name),
            json_num(m.value),
            m.ts_ns,
            json_opt(m.span),
        );
    }
    for (name, c) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"aggregate\",\"kind\":\"counter\",\"name\":\"{}\",\"total\":{},\
             \"count\":{}}}",
            esc(name),
            c.total,
            c.count,
        );
    }
    for (name, g) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"aggregate\",\"kind\":\"gauge\",\"name\":\"{}\",\"last\":{},\
             \"min\":{},\"max\":{},\"count\":{}}}",
            esc(name),
            json_num(g.last),
            json_num(g.min),
            json_num(g.max),
            g.count,
        );
    }
    for (name, h) in &snap.hists {
        // Only populated buckets are exported: the log-bucket array is
        // wide (HISTOGRAM_NUM_BUCKETS entries) and almost entirely zero.
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| format!("[{},{n}]", json_num(histogram_bucket_bound(i))))
            .collect();
        let q = |p: f64| json_num(h.quantile(p).unwrap_or(f64::NAN));
        let _ = writeln!(
            out,
            "{{\"type\":\"aggregate\",\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\
             \"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
             \"buckets\":[{}]}}",
            esc(name),
            h.count,
            json_num(h.sum),
            json_num(h.min),
            json_num(h.max),
            q(0.50),
            q(0.90),
            q(0.99),
            buckets.join(","),
        );
    }
    out
}

/// Renders the snapshot as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto. Spans become complete (`"ph":"X"`)
/// events with microsecond timestamps; counter samples become counter
/// (`"ph":"C"`) events. Open spans are extended to the latest timestamp
/// in the snapshot so they remain visible.
#[must_use]
pub fn to_chrome_trace(snap: &Snapshot) -> String {
    let last_ts = snap
        .spans
        .iter()
        .filter_map(SpanRecord::dur_ns)
        .zip(snap.spans.iter().map(|s| s.start_ns))
        .map(|(d, s)| s + d)
        .chain(snap.samples.iter().map(|m| m.ts_ns))
        .chain(snap.spans.iter().map(|s| s.start_ns))
        .max()
        .unwrap_or(0);
    let us = |ns: u64| json_num(ns as f64 / 1000.0);

    let mut events: Vec<String> = Vec::new();
    for s in &snap.spans {
        let dur = s.dur_ns().unwrap_or_else(|| last_ts.saturating_sub(s.start_ns));
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"gpumech\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{}}}",
            esc(s.name),
            us(s.start_ns),
            us(dur),
            s.thread,
            json_attrs(&s.attrs),
        ));
    }
    for m in &snap.samples {
        if m.kind == crate::MetricKind::Counter {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"gpumech\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"value\":{}}}}}",
                esc(m.name),
                us(m.ts_ns),
                json_num(m.value),
            ));
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n", events.join(",\n"))
}

/// Formats nanoseconds for humans.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn render_span_line(out: &mut String, s: &SpanRecord, depth: usize, width: usize) {
    let indent = "  ".repeat(depth);
    let dur = s.dur_ns().map_or_else(|| "(open)".to_string(), fmt_dur);
    let mut label = format!("{indent}{}", s.name);
    if !s.attrs.is_empty() {
        let attrs: Vec<String> =
            s.attrs.iter().map(|(k, v)| format!("{k}={}", json_attr(v))).collect();
        let _ = write!(label, " [{}]", attrs.join(" "));
    }
    let _ = writeln!(out, "{label:<width$} {dur:>12}");
}

/// Renders the span tree and metric tables as human-readable text — what
/// `gpumech profile` prints.
#[must_use]
pub fn render_tree(snap: &Snapshot) -> String {
    let mut out = String::new();

    // Span tree: children grouped under parents, both in id (start) order.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &snap.spans {
        match s.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let width = 56;
    if !roots.is_empty() {
        out.push_str("spans (wall clock):\n");
        // Depth-first, preserving start order within each level.
        let mut stack: Vec<(&SpanRecord, usize)> =
            roots.iter().rev().map(|s| (*s, 0)).collect();
        while let Some((s, depth)) = stack.pop() {
            render_span_line(&mut out, s, depth, width);
            if let Some(kids) = children.get(&s.id) {
                for k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }

    if !snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, c) in &snap.counters {
            let _ = writeln!(out, "  {name:<44} {:>14} ({} samples)", c.total, c.count);
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("\ngauges (last / min / max):\n");
        for (name, g) in &snap.gauges {
            let _ = writeln!(
                out,
                "  {name:<44} {:>12} / {} / {}",
                json_num(g.last),
                json_num(g.min),
                json_num(g.max),
            );
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("\nhistograms (count, mean, quantiles from log buckets):\n");
        for (name, h) in &snap.hists {
            let fmt_q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), json_num);
            let _ = writeln!(
                out,
                "  {name:<44} n={} mean={} p50={} p90={} p99={} max={}",
                h.count,
                fmt_q(h.mean()),
                fmt_q(h.quantile(0.50)),
                fmt_q(h.quantile(0.90)),
                fmt_q(h.quantile(0.99)),
                fmt_q(h.max.is_finite().then_some(h.max)),
            );
        }
    }
    if snap.dropped_samples > 0 {
        let _ = writeln!(out, "\n({} samples dropped past the cap)", snap.dropped_samples);
    }
    if !snap.invalid_names.is_empty() {
        let _ = writeln!(
            out,
            "\nWARNING: names outside the stage.subsystem.name scheme: {}",
            snap.invalid_names.join(", ")
        );
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn mini_snapshot() -> Snapshot {
        let r = Recorder::fake(1_000);
        let id = r.start_span("core.pipeline.analyze", vec![("warps", 8usize.into())], None, 0);
        let inner = r.start_span("mem.cachesim.simulate", Vec::new(), Some(id), 0);
        r.counter("mem.cachesim.l1_hits", 42);
        r.end_span(inner);
        r.gauge("core.kmeans.inertia", 1.5);
        r.histogram("mem.cachesim.reqs_per_inst", 3.0);
        r.end_span(id);
        r.snapshot()
    }

    #[test]
    fn jsonl_has_meta_spans_metrics_aggregates() {
        let text = to_jsonl(&mini_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"span\"")).count(), 2);
        assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"metric\"")).count(), 3);
        assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"aggregate\"")).count(), 3);
        assert!(text.contains("\"attrs\":{\"warps\":8}"));
        // Driving the recorder directly bypasses the thread-local span
        // stack, so the sample is untagged; span tagging via guards is
        // covered by the crate-root tests.
        assert!(text.contains("\"name\":\"mem.cachesim.l1_hits\",\"value\":42,\"ts_ns\":2000,\"span\":null"));
    }

    #[test]
    fn chrome_trace_is_loadable_shape() {
        let text = to_chrome_trace(&mini_snapshot());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"name\":\"core.pipeline.analyze\""));
    }

    #[test]
    fn tree_renders_hierarchy_and_tables() {
        let text = render_tree(&mini_snapshot());
        assert!(text.contains("spans (wall clock):"));
        assert!(text.contains("core.pipeline.analyze"));
        assert!(text.contains("  mem.cachesim.simulate"), "child must be indented: {text}");
        assert!(text.contains("counters:"));
        assert!(text.contains("mem.cachesim.l1_hits"));
        assert!(text.contains("gauges"));
        assert!(text.contains("histograms"));
    }

    #[test]
    fn json_escaping_and_nonfinite_numbers() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn open_spans_render_and_export_without_end() {
        let r = Recorder::fake(100);
        let _id = r.start_span("cli.command.run", Vec::new(), None, 0);
        let snap = r.snapshot();
        assert!(to_jsonl(&snap).contains("\"dur_ns\":null"));
        assert!(render_tree(&snap).contains("(open)"));
        let chrome = to_chrome_trace(&snap);
        assert!(chrome.contains("\"ph\":\"X\""));
    }
}
