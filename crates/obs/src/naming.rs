//! The `stage.subsystem.name` metric/span naming scheme.

/// The stages a name may start with: the short crate name of each
/// instrumented layer, and `test` for unit-test fixtures.
const STAGE_FAMILIES: [&str; 13] = [
    "isa", "analyze", "trace", "mem", "timing", "core", "exec", "serve", "cli", "bench", "fault",
    "shard", "test",
];

/// Validates a span or metric name against the documented scheme:
/// exactly three dot-separated segments, each `[a-z][a-z0-9_]*` — the
/// emitting stage (one of the stage families), the subsystem, the
/// measurement. The [`Recorder`](crate::Recorder) lists each name this
/// rejects in the snapshot's `invalid_names`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    if !STAGE_FAMILIES.contains(&name.split('.').next().unwrap_or("")) {
        return false;
    }
    let mut segments = 0usize;
    for seg in name.split('.') {
        segments += 1;
        let mut bytes = seg.bytes();
        match bytes.next() {
            Some(b'a'..=b'z') => {}
            _ => return false,
        }
        if !bytes.all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_') {
            return false;
        }
    }
    segments == 3
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn accepts_scheme_conforming_names() {
        for name in [
            "core.kmeans.inertia",
            "mem.cachesim.l1_hits",
            "mem.cachesim.gather_ns",
            "mem.cachesim.replay_ns",
            "mem.cachesim.wave_ops",
            "mem.cachesim.wave_lines",
            "trace.engine.insts",
            "trace.engine.unobserved_insts",
            "trace.engine.scalar_insts",
            "trace.engine.vector_insts",
            "trace.engine.affine_addr_insts",
            "core.intervals.distinct_streams",
            "core.intervals.shared_profiles",
            "exec.fingerprint.computed",
            "exec.fingerprint.reused",
            "exec.fingerprint.job_keys",
            "serve.http.accept_errors",
            "timing.oracle.dram_utilization",
            "fault.case.pipeline",
            "test.y_2.z_3x",
        ] {
            assert!(valid_metric_name(name), "{name} should be accepted");
        }
    }

    #[test]
    fn rejects_off_scheme_names() {
        for name in [
            "",
            "one",
            "one.two",
            "one.two.three.four",
            "One.two.three",
            "one.Two.three",
            "one.two.3three",
            "one..three",
            "one.two.thr-ee",
            "one.two.thr ee",
            "_x.y.z",
            "a.b.c",
            "x1.y_2.z_3x",
            "perf.nope.x",
        ] {
            assert!(!valid_metric_name(name), "{name} should be rejected");
        }
    }
}
