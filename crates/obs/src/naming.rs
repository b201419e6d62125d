//! The `stage.subsystem.name` metric/span naming scheme.

/// Validates a span or metric name against the documented scheme:
/// exactly three dot-separated segments, each `[a-z][a-z0-9_]*`.
///
/// The first segment is the emitting stage (the short crate name of an
/// instrumented layer: `isa`, `analyze`, `trace`, `mem`, `timing`,
/// `core`, `exec`, `serve`, `cli`, `bench`, `fault`, `shard`, or `test`
/// in unit tests; `perf` emits nothing); the second names the subsystem;
/// the third the measurement. `gpumech obs-validate` fails any export
/// containing a name this function rejects.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
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
            "a.b.c",
            "x1.y_2.z_3x",
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
        ] {
            assert!(!valid_metric_name(name), "{name} should be rejected");
        }
    }
}
