//! Memory guard of a cold prediction: the heap one
//! `Gpumech::run(PredictionRequest::from_workload(..))` holds at its peak,
//! and the bytes tracing allocates per warp-instruction.
//!
//! A test binary of its own, so that no other test's allocations land in
//! the measurement (`AllocScope` counts the opening thread only, and this
//! binary runs one test). `sdk_convsep` at 192 blocks is the kernel whose
//! trace sets the `cold_regular` benchmark workload's peak; its coalesced
//! rows store their addresses as `(base, stride)`, two arena slots instead
//! of 32. The bounds leave room for allocator and layout drift but not for
//! per-lane address storage (which peaked at 45.3 MiB and allocated 82 B
//! per warp-instruction).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_isa::SimConfig;
use gpumech_perf::AllocScope;
use gpumech_trace::workloads;

const MIB: u64 = 1 << 20;

#[test]
fn a_cold_regular_prediction_stays_within_its_memory_bounds() {
    let w = workloads::by_name("sdk_convsep").expect("bundled").with_blocks(192);
    let model = Gpumech::new(SimConfig::table1());

    let scope = AllocScope::begin();
    let p = model.run(&PredictionRequest::from_workload(&w)).expect("predicts");
    let peak = scope.delta().peak_live_bytes;
    drop(scope);
    assert!(p.cpi_total().is_finite());

    let scope = AllocScope::begin();
    let trace = w.trace().expect("traces");
    let bytes = scope.delta().bytes;
    drop(scope);
    let per_inst = bytes as f64 / trace.total_insts() as f64;

    println!(
        "sdk_convsep x192: peak_live_bytes {peak} ({:.1} MiB), trace allocates {per_inst:.1} B \
         per warp-instruction",
        peak as f64 / MIB as f64
    );
    assert!(peak <= 24 * MIB, "a cold prediction peaked at {peak} live bytes (bound 24 MiB)");
    assert!(per_inst <= 40.0, "tracing allocated {per_inst:.1} B per warp-instruction (bound 40)");
}
