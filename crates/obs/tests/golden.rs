//! Golden-file tests for the JSONL and Chrome exporters.
//!
//! The snapshot is built on a [`Recorder::fake`] clock with explicit
//! thread indices, so the rendered bytes are fully deterministic — no
//! wall-clock values ever reach the goldens. Regenerate after an
//! intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gpumech-obs --test golden
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;

use gpumech_obs::{to_chrome_trace, to_jsonl, Recorder, Snapshot};

/// A small but representative snapshot: nested spans with attributes, all
/// three metric kinds, and one span left open on a second thread (the
/// exporters must render it without an end timestamp).
fn golden_snapshot() -> Snapshot {
    let r = Recorder::fake(250);
    let root = r.start_span(
        "core.pipeline.analyze",
        vec![("name", "golden_kernel".into()), ("warps", 4usize.into())],
        None,
        0,
    );
    let child = r.start_span("mem.cachesim.simulate", Vec::new(), Some(root), 0);
    r.counter("mem.cachesim.l1_hits", 7);
    r.histogram("mem.cachesim.reqs_per_inst", 2.0);
    r.end_span(child);
    r.gauge("core.kmeans.inertia", 0.125);
    r.counter("core.kmeans.iterations", 3);
    r.end_span(root);
    let _open = r.start_span("timing.oracle.simulate", Vec::new(), None, 1);
    r.snapshot()
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; rerun with UPDATE_GOLDEN=1 after intentional changes"
    );
}

#[test]
fn jsonl_export_matches_golden() {
    check_golden("trace.jsonl", &to_jsonl(&golden_snapshot()));
}

#[test]
fn chrome_export_matches_golden() {
    check_golden("trace.chrome.json", &to_chrome_trace(&golden_snapshot()));
}

#[test]
fn chrome_golden_is_one_json_document() {
    let text = to_chrome_trace(&golden_snapshot());
    let v = serde_json::parse_value(text.trim()).expect("chrome trace parses as JSON");
    let Some(serde::Value::Array(events)) = v.get_field("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(!events.is_empty());
}
