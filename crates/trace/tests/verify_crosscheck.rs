//! Dynamic cross-checks of the static verification verdicts.
//!
//! For every workload in the library, the functional trace is replayed
//! against the static analysis:
//!
//! * **bank conflicts** — the observed per-access conflict degree (32-bank
//!   × 4 B model over the recorded lane addresses) must never exceed the
//!   static full-mask bound;
//! * **races** — every *observed* conflicting cross-warp same-block address
//!   overlap within one barrier interval must be covered by a static
//!   [`gpumech_analyze::RacePair`], i.e. the race analysis has no false
//!   negatives on the library's actual executions.
//!
//! Run in debug builds by `ci.sh`; the in-engine `debug_assert!`s perform
//! the bank check a second time while tracing.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{HashMap, HashSet};

use gpumech_analyze::{analyze, RejectReason, Severity};
use gpumech_isa::{InstKind, MemSpace};
use gpumech_trace::engine::TraceError;
use gpumech_trace::workloads;

/// Observed bank-conflict degree of one dynamic access under the default
/// 32-bank × 4 B geometry.
fn observed_degree(addrs: &[u64]) -> u32 {
    let mut words: Vec<(u64, u64)> = addrs.iter().map(|a| ((a / 4) % 32, a / 4)).collect();
    words.sort_unstable();
    words.dedup();
    let mut best = 1u32;
    let mut i = 0;
    while i < words.len() {
        let bank = words[i].0;
        let mut n = 0;
        while i < words.len() && words[i].0 == bank {
            n += 1;
            i += 1;
        }
        best = best.max(n);
    }
    best
}

#[test]
fn static_bank_bounds_dominate_observed_degrees() {
    let mut shared_insts = 0usize;
    for w in workloads::all() {
        let analysis = analyze(&w.kernel);
        let trace = w.trace().expect("library workloads trace cleanly");
        for warp in &trace.warps {
            for inst in &warp.insts {
                if !matches!(
                    inst.kind,
                    InstKind::Load(MemSpace::Shared) | InstKind::Store(MemSpace::Shared)
                ) {
                    continue;
                }
                shared_insts += 1;
                let fact = analysis
                    .shared_fact(inst.pc)
                    .unwrap_or_else(|| panic!("{}: no fact for shared pc {}", w.name, inst.pc));
                let observed = observed_degree(&warp.addrs(inst).to_vec());
                assert!(
                    observed <= fact.bank_degree,
                    "{}: pc {} observed {observed}-way, static bound {}-way",
                    w.name,
                    inst.pc,
                    fact.bank_degree
                );
            }
        }
    }
    assert!(shared_insts > 0, "the library must exercise shared memory");
}

#[test]
fn static_race_pairs_cover_observed_conflicts() {
    let mut observed_races = 0usize;
    for w in workloads::all() {
        let analysis = analyze(&w.kernel);
        let static_pairs: HashSet<(u32, u32)> =
            analysis.race_pairs.iter().map(|p| (p.a, p.b)).collect();

        // (block, barrier-interval index, byte address) →
        // deduplicated (warp, pc, is_store) touches.
        type Touches = HashMap<(usize, u32, u64), HashSet<(usize, u32, bool)>>;
        let mut touches: Touches = HashMap::new();
        for warp in &trace_of(&w).warps {
            let mut interval = 0u32;
            for inst in &warp.insts {
                match inst.kind {
                    InstKind::Sync => interval += 1,
                    InstKind::Load(MemSpace::Shared) | InstKind::Store(MemSpace::Shared) => {
                        let store = matches!(inst.kind, InstKind::Store(MemSpace::Shared));
                        for addr in warp.addrs(inst).iter() {
                            touches
                                .entry((warp.block.index(), interval, addr))
                                .or_default()
                                .insert((warp.warp.index(), inst.pc, store));
                        }
                    }
                    _ => {}
                }
            }
        }

        for group in touches.values() {
            let group: Vec<_> = group.iter().copied().collect();
            for (i, &(wa, pca, sa)) in group.iter().enumerate() {
                for &(wb, pcb, sb) in &group[i..] {
                    if wa == wb || (!sa && !sb) {
                        continue;
                    }
                    observed_races += 1;
                    let key = (pca.min(pcb), pca.max(pcb));
                    assert!(
                        static_pairs.contains(&key),
                        "{}: observed cross-warp conflict at pcs {key:?} not in static \
                         race pairs {static_pairs:?}",
                        w.name
                    );
                }
            }
        }
    }
    // The library is known to contain warp-synchronous shared-memory
    // communication (reduction trees, tiled loops) that manifests as
    // observable cross-warp conflicts — the detector must see them.
    assert!(observed_races > 0, "expected observable cross-warp conflicts in the library");
}

fn trace_of(w: &workloads::Workload) -> gpumech_trace::KernelTrace {
    w.trace().expect("library workloads trace cleanly")
}

#[test]
fn library_passes_verification_with_zero_errors() {
    for w in workloads::all() {
        let analysis = analyze(&w.kernel);
        assert_eq!(analysis.reject_reason(), None, "{} must be accepted", w.name);
        assert!(
            analysis.diagnostics_at_least(Severity::Error).is_empty(),
            "{}: {:?}",
            w.name,
            analysis.diagnostics
        );
    }
}

#[test]
fn known_racy_workloads_carry_warnings_and_still_trace() {
    // These five model real Rodinia/Parboil/SDK kernels whose shared-memory
    // protocol is warp-synchronous under lockstep execution: the static
    // race pass must flag them (cross-warp ordering is not guaranteed by
    // the model) while tracing proceeds unchanged.
    let expect_races = ["pathfinder_dynproc", "backprop_layerforward", "parboil_sgemm",
        "sdk_matrixmul", "sdk_reduction"];
    for w in workloads::all() {
        let analysis = analyze(&w.kernel);
        let has_race = analysis.diagnostics.iter().any(|d| d.code == "shared-race");
        assert_eq!(
            has_race,
            expect_races.contains(&w.name.as_str()),
            "{}: race verdict drifted (pairs {:?})",
            w.name,
            analysis.race_pairs
        );
    }
}

#[test]
fn barrier_divergence_rejects_before_any_tracing() {
    use gpumech_isa::{KernelBuilder, Operand, ValueOp};
    let mut b = KernelBuilder::new("divergent-barrier");
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(4)]);
    b.if_begin(Operand::Reg(c));
    b.sync();
    b.if_end();
    let k = b.finish(vec![]);
    let launch = gpumech_trace::LaunchConfig::new(64, 1);
    match gpumech_trace::trace_kernel(&k, launch) {
        Err(TraceError::RejectedByAnalysis { reason, .. }) => {
            assert_eq!(reason, RejectReason::BarrierDivergence);
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
}
