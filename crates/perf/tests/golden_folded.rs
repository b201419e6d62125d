//! Golden-file test for the folded-stack exporter, on a fake clock so
//! the rendered bytes are fully deterministic. Regenerate after an
//! intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gpumech-perf --test golden_folded
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;

use gpumech_obs::{Recorder, Snapshot};
use gpumech_perf::{attribute, to_folded};

/// Deterministic span tree on a fake clock advancing 250 ns per
/// observation: a root with two children (one nested two deep, one
/// repeated), plus a span left open to prove the exporter skips it while
/// keeping its children's path intact.
fn golden_snapshot() -> Snapshot {
    let r = Recorder::fake(250);
    let root = r.start_span("exec.batch.run", Vec::new(), None, 0);
    let analyze = r.start_span("core.pipeline.analyze", Vec::new(), Some(root), 0);
    let cache = r.start_span("mem.cachesim.simulate", Vec::new(), Some(analyze), 0);
    r.end_span(cache);
    r.end_span(analyze);
    let kmeans = r.start_span("core.kmeans.cluster", Vec::new(), Some(root), 0);
    r.end_span(kmeans);
    let kmeans2 = r.start_span("core.kmeans.cluster", Vec::new(), Some(root), 0);
    r.end_span(kmeans2);
    r.end_span(root);
    let open = r.start_span("timing.oracle.simulate", Vec::new(), None, 1);
    let under_open = r.start_span("timing.oracle.drain", Vec::new(), Some(open), 1);
    r.end_span(under_open);
    r.snapshot()
}

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
fn folded_export_matches_golden() {
    check_golden("trace.folded", &to_folded(&golden_snapshot()));
}

#[test]
fn golden_attribution_is_consistent_with_folded_totals() {
    let snap = golden_snapshot();
    let attrs = attribute(&snap);
    let folded = to_folded(&snap);
    // Self time summed per leaf name across folded lines equals the
    // attribution's per-name self time.
    for a in &attrs {
        let folded_sum: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .filter(|(stack, _)| stack.rsplit(';').next() == Some(a.name))
            .filter_map(|(_, v)| v.parse::<u64>().ok())
            .sum();
        assert_eq!(folded_sum, a.self_ns, "{}: folded vs attribution disagree", a.name);
        assert!(a.self_ns <= a.total_ns);
        assert_eq!(a.child_ns, a.total_ns - a.self_ns);
    }
}
