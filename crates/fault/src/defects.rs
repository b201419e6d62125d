//! Seeded defective-*kernel* corpus for the static verifier.
//!
//! The crate-root [`MUTATORS`](crate::MUTATORS) corrupt traces to prove
//! the pipeline panic-free; the injector here corrupts kernel IR to prove
//! `gpumech-analyze`'s barrier pass *complete*: every planted divergent
//! barrier must come back as a `barrier-divergence` finding, and the trace
//! engine must reject the mutant before any warp executes. The injector
//! edits an instruction in place — never inserting or deleting — so every
//! PC, branch target, and reconvergence point of the host kernel survives
//! the mutation and [`Kernel::validate`] still passes; the defect is
//! semantic, not structural, which is exactly the class `validate` cannot
//! catch.
//!
//! As with the trace mutators, all randomness derives from
//! [`gpumech_trace::splitmix64`]: a mutant is a pure function of
//! `(kernel, seed)`, so a failing case reproduces byte-for-byte.

use gpumech_isa::{BranchCond, InstKind, Kernel, StaticInst, ValueOp};
use gpumech_trace::splitmix64;

/// Replaces a seeded store *inside the influence region of a non-uniform
/// conditional branch* with a block-wide barrier — the canonical
/// barrier-divergence defect: lanes that took the other side of the
/// branch never arrive, and real hardware deadlocks.
///
/// Candidate sites are stores inside the influence region of the
/// branch — every PC reachable from the branch's successors without
/// crossing its reconvergence point, which covers both if-arms and the
/// bodies of lane-trip-count loops (the same region the verifier's
/// barrier pass checks). A store is chosen because it defines no
/// register: removing it cannot turn a later read into a use of an
/// undefined value. Returns `true` when such a site existed and the kernel
/// was mutated in place, `false` when it offers none (it is left
/// untouched).
pub fn inject_divergent_barrier(kernel: &mut Kernel, seed: u64) -> bool {
    let analysis = gpumech_analyze::analyze(kernel);
    let mut sites: Vec<usize> = Vec::new();
    for (b, inst) in kernel.insts.iter().enumerate() {
        if inst.kind != InstKind::Branch || inst.cond == BranchCond::Always {
            continue;
        }
        if analysis.is_branch_uniform(b as u32) {
            continue;
        }
        let Some(reconv) = inst.reconv else { continue };
        for p in influence_region(kernel, b, reconv) {
            if matches!(kernel.insts[p].kind, InstKind::Store(_)) {
                sites.push(p);
            }
        }
    }
    sites.sort_unstable();
    sites.dedup();
    if sites.is_empty() {
        return false;
    }
    let p = sites[(splitmix64(seed) as usize) % sites.len()];
    kernel.insts[p] = StaticInst {
        kind: InstKind::Sync,
        op: ValueOp::Mov,
        dst: None,
        srcs: Vec::new(),
        target: None,
        cond: BranchCond::Always,
        reconv: None,
    };
    true
}

/// PCs reachable from the successors of the branch at `b` without
/// passing through `reconv` — the branch's influence region, mirroring
/// the verifier's own divergent-barrier check.
fn influence_region(kernel: &Kernel, b: usize, reconv: u32) -> Vec<usize> {
    let n = kernel.insts.len();
    let inst = &kernel.insts[b];
    let mut stack: Vec<usize> = Vec::new();
    if let Some(t) = inst.target {
        stack.push(t as usize);
    }
    if inst.cond != BranchCond::Always {
        stack.push(b + 1);
    }
    let mut seen = vec![false; n];
    while let Some(p) = stack.pop() {
        if p >= n || p == reconv as usize || seen[p] {
            continue;
        }
        seen[p] = true;
        let i = &kernel.insts[p];
        match i.kind {
            InstKind::Exit => {}
            InstKind::Branch => {
                if let Some(t) = i.target {
                    stack.push(t as usize);
                }
                if i.cond != BranchCond::Always {
                    stack.push(p + 1);
                }
            }
            _ => stack.push(p + 1),
        }
    }
    (0..n).filter(|&p| seen[p]).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::workloads;

    #[test]
    fn injectors_are_deterministic_and_structure_preserving() {
        for w in workloads::all() {
            let mut k1 = w.kernel.clone();
            let mut k2 = w.kernel.clone();
            let a1 = inject_divergent_barrier(&mut k1, 0xC0FFEE);
            let a2 = inject_divergent_barrier(&mut k2, 0xC0FFEE);
            assert_eq!(a1, a2, "{} is not deterministic", w.name);
            assert_eq!(k1, k2, "{} mutates nondeterministically", w.name);
            if a1 {
                assert_eq!(k1.len(), w.kernel.len(), "shifted PCs in {}", w.name);
                k1.validate().unwrap_or_else(|e| panic!("broke {} structurally: {e}", w.name));
            } else {
                assert_eq!(k1, w.kernel, "mutated {} despite reporting no site", w.name);
            }
        }
    }
}
