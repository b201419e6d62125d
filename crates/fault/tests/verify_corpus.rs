//! Defective-kernel corpus suite: the static verifier must detect every
//! planted divergent barrier, and the trace engine must reject each
//! mutant before a single warp is traced.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_analyze::{analyze, RejectReason};
use gpumech_fault::defects::inject_divergent_barrier;
use gpumech_trace::{trace_kernel, workloads, TraceError};

/// Three spread-out seeds per workload — enough to hit different
/// injection sites without turning the suite into a soak test.
const SEEDS: &[u64] = &[0x5EED_0001, 0xBAD_CAFE_F00D, 0x1234_5678_9ABC_DEF0];

#[test]
fn every_planted_defect_is_detected_with_its_finding_code() {
    let mut applied = 0u32;
    for w in &workloads::all() {
        for &seed in SEEDS {
            let mut kernel = w.kernel.clone();
            if !inject_divergent_barrier(&mut kernel, seed) {
                continue;
            }
            applied += 1;
            // The defect must be semantic, not structural: validate
            // still passes, so only the verifier can catch it.
            kernel.validate().unwrap_or_else(|e| panic!("broke {} structurally: {e}", w.name));
            let analysis = analyze(&kernel);
            assert!(
                analysis.diagnostics.iter().any(|d| d.code == "barrier-divergence"),
                "{} (seed {seed:#x}) went undetected; findings: {:?}",
                w.name,
                analysis.diagnostics
            );
        }
    }
    assert!(applied >= 6, "found only {applied} injection sites across the library");
}

#[test]
fn barrier_defects_are_rejected_before_tracing() {
    let mut rejected: Vec<String> = Vec::new();
    for w in workloads::all() {
        let mut kernel = w.kernel.clone();
        if !inject_divergent_barrier(&mut kernel, 7) {
            continue;
        }
        match trace_kernel(&kernel, w.launch) {
            Err(TraceError::RejectedByAnalysis { reason, findings, .. }) => {
                assert_eq!(reason, RejectReason::BarrierDivergence, "{}", w.name);
                assert!(
                    findings.iter().any(|f| f.contains("barrier-divergence")),
                    "{}: {findings:?}",
                    w.name
                );
                rejected.push(w.name.clone());
            }
            Ok(_) => panic!("{}: divergent-barrier mutant traced successfully", w.name),
            Err(other) => panic!("{}: wrong rejection {other}", w.name),
        }
    }
    // Exactly the two library kernels whose divergent regions contain a
    // store — the rest of the catalogue keeps barriers at top level.
    rejected.sort();
    assert_eq!(rejected, ["backprop_layerforward", "sdk_reduction"]);
}
