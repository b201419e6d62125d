//! Whole-kernel static analysis and linting over the GPUMech kernel IR.
//!
//! GPUMech's accuracy rests on the functional trace being *structurally
//! correct*: the SIMT reconvergence stack must re-merge lanes exactly at
//! each branch's immediate post-dominator, and the interval model's memory
//! statistics assume the coalescer sees the access pattern the kernel was
//! designed to produce. This crate checks those properties *before* a
//! single instruction is traced, and computes facts the tracer can exploit:
//!
//! * [`cfg::Cfg`] — instruction-level CFG with dominators/post-dominators;
//!   verifies every conditional branch's stored reconvergence PC is the
//!   true immediate post-dominator and that control flow is reducible;
//! * register dataflow — definite read-before-write (Error),
//!   path-dependent uninitialized reads (Warning), unread values (Info),
//!   and register pressure;
//! * [`divergence`] — classifies each branch warp-uniform vs potentially
//!   divergent and each global memory access by [`CoalesceClass`], with a
//!   sound per-warp bound on coalescer requests;
//! * barrier divergence — a `Sync` reachable under divergent control
//!   flow deadlocks real hardware (Error);
//! * [`KernelMetrics`] — static instruction mix and summary counts.
//!
//! The single entry point is [`analyze`]; the result carries
//! [`Diagnostic`]s (with [`Severity`] levels) plus the per-pc fact tables.
//! `gpumech-trace` runs it as a pre-trace hook that rejects kernels with
//! Error-level findings; that is the hook's only effect in release builds.
//! Debug builds also cross-check every traced branch against its
//! uniformity verdict and every memory access against its coalescing
//! bound. The `gpumech lint` CLI subcommand exposes the same analysis to
//! humans and CI.
//!
//! # Example
//!
//! ```
//! use gpumech_isa::{AddrPattern, KernelBuilder, Operand, ValueOp};
//!
//! let mut b = KernelBuilder::new("axpy");
//! let x = b.load_pattern(AddrPattern::Coalesced { base: 1 << 32, elem_bytes: 4 });
//! let y = b.alu(ValueOp::Add, &[Operand::Reg(x), Operand::Param(0)]);
//! b.store_pattern(AddrPattern::Coalesced { base: 2 << 32, elem_bytes: 4 }, Operand::Reg(y));
//! let kernel = b.finish(vec![3]);
//!
//! let analysis = gpumech_analyze::analyze(&kernel);
//! assert!(!analysis.has_errors());
//! assert_eq!(analysis.metrics.coalesced_accesses, 2);
//! ```

mod barrier;
pub mod cfg;
mod dataflow;
pub mod diag;
pub mod divergence;
mod metrics;

use gpumech_isa::Kernel;
use serde::{Deserialize, Serialize};

pub use cfg::Cfg;
pub use diag::{Diagnostic, RejectReason, Severity};
pub use divergence::{AbsVal, CoalesceClass, MemAccess};
pub use metrics::KernelMetrics;

/// Everything the analyzer learned about one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelAnalysis {
    /// Name of the analyzed kernel.
    pub kernel_name: String,
    /// All findings, sorted by (descending severity, pc).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pc: `true` if the instruction is a branch that provably cannot
    /// split the warp (uniform condition or unconditional). `false` for
    /// non-branches and whenever the analysis could not prove uniformity.
    pub branch_uniform: Vec<bool>,
    /// Per-pc address facts for global memory instructions.
    pub coalescing: Vec<Option<MemAccess>>,
    /// Static summary metrics.
    pub metrics: KernelMetrics,
}

impl KernelAnalysis {
    /// Any Error-severity findings? Such kernels are rejected by the
    /// pre-trace hook.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The most severe finding, or `None` if the kernel is clean.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Is the branch at `pc` statically warp-uniform? Returns `false` for
    /// out-of-range pcs, so callers can query unconditionally.
    #[must_use]
    pub fn is_branch_uniform(&self, pc: u32) -> bool {
        self.branch_uniform.get(pc as usize).copied().unwrap_or(false)
    }

    /// Findings at or above `min`, in severity order.
    #[must_use]
    pub fn diagnostics_at_least(&self, min: Severity) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity >= min).collect()
    }

    /// Why the pre-trace hook rejects this kernel, or `None` if it is
    /// accepted. Barrier divergence is reported preferentially: it is the
    /// one defect class that deadlocks real hardware rather than merely
    /// invalidating the model.
    #[must_use]
    pub fn reject_reason(&self) -> Option<RejectReason> {
        if !self.has_errors() {
            return None;
        }
        let barrier = self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code == "barrier-divergence");
        Some(if barrier { RejectReason::BarrierDivergence } else { RejectReason::Structural })
    }
}

/// Runs the full static analysis over `kernel`.
///
/// [`Kernel::validate`] runs first: a kernel that fails basic validation
/// gets a single `invalid-kernel` Error and empty fact tables (every
/// `branch_uniform` entry `false`), so downstream consumers degrade to the
/// conservative path.
#[must_use]
pub fn analyze(kernel: &Kernel) -> KernelAnalysis {
    let _span = gpumech_obs::span!("analyze.lint.kernel", name = kernel.name.as_str());
    let n = kernel.insts.len();
    if let Err(e) = kernel.validate() {
        gpumech_obs::counter!("analyze.lint.invalid_kernels", 1u64);
        return KernelAnalysis {
            kernel_name: kernel.name.clone(),
            diagnostics: vec![Diagnostic::global(
                Severity::Error,
                "invalid-kernel",
                format!("kernel failed validation: {e}"),
            )],
            branch_uniform: vec![false; n],
            coalescing: vec![None; n],
            metrics: KernelMetrics { insts: n as u32, ..KernelMetrics::default() },
        };
    }

    let cfg = Cfg::build(kernel);
    let mut diagnostics = cfg::verify(kernel, &cfg);
    let df = dataflow::run(kernel, &cfg);
    diagnostics.extend(df.diagnostics);
    let dv = divergence::run(kernel, &cfg, df.written, df.maybe_uninit_reads);
    diagnostics.extend(dv.diagnostics.iter().cloned());

    let barrier_diags = barrier::run(kernel, &cfg, &dv.branch_uniform);

    let mut metrics = metrics::compute(kernel, &cfg, &dv, df.written, df.max_live);
    metrics.divergent_syncs = barrier_diags.len() as u32;

    gpumech_obs::counter!("analyze.verify.barrier_errors", barrier_diags.len() as u64);

    diagnostics.extend(barrier_diags);
    diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.pc.cmp(&b.pc)));

    gpumech_obs::counter!("analyze.lint.kernels", 1u64);
    gpumech_obs::counter!("analyze.lint.diagnostics", diagnostics.len() as u64);

    KernelAnalysis {
        kernel_name: kernel.name.clone(),
        diagnostics,
        branch_uniform: dv.branch_uniform,
        coalescing: dv.mem,
        metrics,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::kernel::{BranchCond, Reg};
    use gpumech_isa::{AddrPattern, InstKind, KernelBuilder, Operand, ValueOp};

    fn divergent_if_kernel() -> Kernel {
        let mut b = KernelBuilder::new("div-if");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Lane, Operand::Imm(1)]);
        b.if_end();
        b.finish(vec![])
    }

    #[test]
    fn clean_kernel_analyzes_without_errors() {
        let analysis = analyze(&divergent_if_kernel());
        assert!(!analysis.has_errors());
        assert_eq!(analysis.metrics.divergent_branches, 1);
        assert_eq!(analysis.kernel_name, "div-if");
    }

    #[test]
    fn corrupted_reconvergence_pc_is_rejected() {
        let mut k = divergent_if_kernel();
        let branch_pc =
            k.insts.iter().position(|i| i.kind == InstKind::Branch).expect("has a branch");
        // Point reconvergence at the instruction after the branch instead of
        // the true post-dominator. Still passes validate (in range), but the
        // SIMT stack would re-merge mid-arm.
        k.insts[branch_pc].reconv = Some(branch_pc as u32 + 1);
        assert!(k.validate().is_ok(), "corruption must survive basic validation");
        let analysis = analyze(&k);
        assert!(analysis.has_errors());
        assert!(
            analysis.diagnostics.iter().any(|d| d.code == "reconv-mismatch"
                && d.severity == Severity::Error
                && d.pc == Some(branch_pc as u32)),
            "diagnostics: {:?}",
            analysis.diagnostics
        );
    }

    #[test]
    fn read_before_write_is_rejected() {
        let mut b = KernelBuilder::new("uninit");
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(Reg(17)), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let analysis = analyze(&k);
        assert!(analysis.has_errors());
        assert!(analysis.diagnostics.iter().any(|d| d.code == "read-before-write"));
    }

    #[test]
    fn invalid_kernel_gets_single_error_and_empty_facts() {
        let k = Kernel { name: "bad".into(), insts: vec![], params: vec![] };
        let analysis = analyze(&k);
        assert!(analysis.has_errors());
        assert_eq!(analysis.diagnostics.len(), 1);
        assert_eq!(analysis.diagnostics[0].code, "invalid-kernel");
        assert!(analysis.branch_uniform.is_empty());
    }

    #[test]
    fn irreducible_cfg_is_rejected() {
        // Jump into the middle of a loop body from outside it.
        use gpumech_isa::StaticInst;
        let jump = |target: u32| StaticInst {
            kind: InstKind::Branch,
            op: ValueOp::Mov,
            dst: None,
            srcs: vec![],
            target: Some(target),
            cond: BranchCond::Always,
            reconv: None,
        };
        let cond_jump = |target: u32, reconv: u32, cond: Operand| StaticInst {
            kind: InstKind::Branch,
            op: ValueOp::Mov,
            dst: None,
            srcs: vec![cond],
            target: Some(target),
            cond: BranchCond::IfNonZero,
            reconv: Some(reconv),
        };
        let alu = StaticInst {
            kind: InstKind::IntAlu,
            op: ValueOp::Mov,
            dst: Some(Reg(0)),
            srcs: vec![Operand::Imm(1)],
            target: None,
            cond: BranchCond::Always,
            reconv: None,
        };
        let k = Kernel {
            name: "irreducible".into(),
            insts: vec![
                // 0: enter loop at pc 2 (skipping header at 1)
                jump(2),
                // 1: loop header
                alu.clone(),
                // 2: loop body (second entry point)
                alu,
                // 3: back edge to header at 1 — header does not dominate it
                cond_jump(1, 4, Operand::Param(0)),
                // 4: exit
                StaticInst {
                    kind: InstKind::Exit,
                    op: ValueOp::Mov,
                    dst: None,
                    srcs: vec![],
                    target: None,
                    cond: BranchCond::Always,
                    reconv: None,
                },
            ],
            params: vec![1],
        };
        assert!(k.validate().is_ok());
        let analysis = analyze(&k);
        assert!(
            analysis.diagnostics.iter().any(|d| d.code == "irreducible-cfg"),
            "diagnostics: {:?}",
            analysis.diagnostics
        );
    }

    #[test]
    fn unreachable_code_is_a_warning() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Mov, &[Operand::Imm(1)]);
        let mut k = b.finish(vec![]);
        // Prepend a jump that skips the mov, making it dead.
        k.insts.insert(
            0,
            gpumech_isa::StaticInst {
                kind: InstKind::Branch,
                op: ValueOp::Mov,
                dst: None,
                srcs: vec![],
                target: Some(2),
                cond: BranchCond::Always,
                reconv: None,
            },
        );
        // Layout now: 0 jump->2, 1 mov (dead), 2 exit.
        assert!(k.validate().is_ok());
        let analysis = analyze(&k);
        let warn = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == "unreachable-code")
            .expect("expected unreachable-code warning");
        assert_eq!(warn.severity, Severity::Warning);
        assert_eq!(warn.pc, Some(1));
        assert!(!analysis.has_errors());
    }

    #[test]
    fn analysis_serializes_to_json_and_back() {
        let mut b = KernelBuilder::new("roundtrip");
        let v = b.load_pattern(AddrPattern::Strided { base: 0, stride_bytes: 512 });
        b.store_pattern(AddrPattern::Coalesced { base: 1 << 30, elem_bytes: 8 }, Operand::Reg(v));
        let k = b.finish(vec![]);
        let analysis = analyze(&k);
        let json = serde_json::to_string(&analysis).expect("serialize");
        let back: KernelAnalysis = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.kernel_name, analysis.kernel_name);
        assert_eq!(back.branch_uniform, analysis.branch_uniform);
        assert_eq!(back.coalescing, analysis.coalescing);
        assert_eq!(back.metrics, analysis.metrics);
        assert_eq!(back.diagnostics, analysis.diagnostics);
    }

    #[test]
    fn verification_facts_surface_in_the_analysis() {
        use gpumech_isa::MemSpace;
        // A divergent barrier after a lane-strided shared store: the barrier
        // is the one finding above Info; shared memory is a fixed-latency
        // access.
        let mut b = KernelBuilder::new("defective");
        let off = b.alu(ValueOp::Mul, &[Operand::Lane, Operand::Imm(128)]);
        let v = b.alu(ValueOp::Mov, &[Operand::Imm(1)]);
        b.store(MemSpace::Shared, Operand::Reg(off), Operand::Reg(v));
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(16)]);
        b.if_begin(Operand::Reg(c));
        b.sync();
        b.if_end();
        let k = b.finish(vec![]);
        let analysis = analyze(&k);
        assert!(analysis.has_errors());
        assert_eq!(analysis.reject_reason(), Some(RejectReason::BarrierDivergence));
        assert_eq!(analysis.metrics.divergent_syncs, 1);
        assert_eq!(analysis.metrics.shared_accesses, 1);
        let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["barrier-divergence", "divergent-branch"]);
    }
}
