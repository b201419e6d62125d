//! Static per-kernel metrics: instruction mix, register pressure, and
//! divergence/coalescing summaries.

use gpumech_isa::kernel::BranchCond;
use gpumech_isa::{InstKind, Kernel, MemSpace};
use serde::{Deserialize, Serialize};

use crate::cfg::Cfg;
use crate::divergence::{CoalesceClass, Divergence};

/// Summary statistics the linter reports per kernel.
///
/// These are *static* counts over the kernel IR (one per static
/// instruction), not dynamic execution counts — loops count once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelMetrics {
    /// Total static instructions.
    pub insts: u32,
    /// Static instructions reachable from the entry.
    pub reachable_insts: u32,
    /// Integer-ALU instructions.
    pub int_alu: u32,
    /// Floating-point instructions (add/mul/fma/div latency classes).
    pub fp: u32,
    /// Special-function-unit instructions.
    pub sfu: u32,
    /// Global-memory loads.
    pub global_loads: u32,
    /// Global-memory stores.
    pub global_stores: u32,
    /// Shared-memory accesses (loads and stores).
    pub shared_accesses: u32,
    /// Branch instructions (conditional and unconditional).
    pub branches: u32,
    /// Conditional branches that may diverge the warp.
    pub divergent_branches: u32,
    /// Barrier instructions.
    pub syncs: u32,
    /// Global accesses predicted [`CoalesceClass::Broadcast`].
    pub broadcast_accesses: u32,
    /// Global accesses predicted [`CoalesceClass::Coalesced`].
    pub coalesced_accesses: u32,
    /// Global accesses predicted [`CoalesceClass::Strided`].
    pub strided_accesses: u32,
    /// Global accesses predicted [`CoalesceClass::Scattered`].
    pub scattered_accesses: u32,
    /// Distinct registers written by reachable code.
    pub regs_written: u32,
    /// Written registers whose value is classified lane-divergent.
    pub divergent_regs: u32,
    /// Maximum simultaneously live registers (register pressure).
    pub max_live_regs: u32,
    /// Barriers reachable under divergent control flow
    /// (`barrier-divergence` errors).
    pub divergent_syncs: u32,
}

pub(crate) fn compute(
    kernel: &Kernel,
    cfg: &Cfg,
    dv: &Divergence,
    written: u64,
    max_live: u32,
) -> KernelMetrics {
    let mut m = KernelMetrics {
        insts: kernel.insts.len() as u32,
        reachable_insts: cfg.reachable.iter().filter(|&&r| r).count() as u32,
        regs_written: written.count_ones(),
        divergent_regs: (0..64)
            .filter(|&r| written >> r & 1 != 0 && dv.reg_values[r] == crate::AbsVal::Divergent)
            .count() as u32,
        max_live_regs: max_live,
        ..KernelMetrics::default()
    };
    for (pc, inst) in kernel.insts.iter().enumerate() {
        match inst.kind {
            InstKind::IntAlu => m.int_alu += 1,
            InstKind::FpAdd | InstKind::FpMul | InstKind::FpFma | InstKind::FpDiv => m.fp += 1,
            InstKind::Sfu => m.sfu += 1,
            InstKind::Load(MemSpace::Global) => m.global_loads += 1,
            InstKind::Store(MemSpace::Global) => m.global_stores += 1,
            InstKind::Load(MemSpace::Shared) | InstKind::Store(MemSpace::Shared) => {
                m.shared_accesses += 1;
            }
            InstKind::Branch => {
                m.branches += 1;
                if inst.cond != BranchCond::Always && !dv.branch_uniform[pc] {
                    m.divergent_branches += 1;
                }
            }
            InstKind::Sync => m.syncs += 1,
            InstKind::Exit => {}
        }
        if let Some(access) = dv.mem[pc] {
            match access.class {
                CoalesceClass::Broadcast => m.broadcast_accesses += 1,
                CoalesceClass::Coalesced => m.coalesced_accesses += 1,
                CoalesceClass::Strided(_) => m.strided_accesses += 1,
                CoalesceClass::Scattered => m.scattered_accesses += 1,
            }
        }
    }
    m
}
