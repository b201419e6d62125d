//! The SIMT functional execution engine.
//!
//! Executes a kernel one warp at a time with a classic post-dominator
//! reconvergence stack: on a divergent branch the current frame is re-aimed
//! at the reconvergence PC and one frame per outcome is pushed; a frame
//! whose PC reaches its reconvergence point is popped, merging its lanes
//! back. Because the [`gpumech_isa::KernelBuilder`] only emits structured
//! control flow, every potentially-divergent branch carries its
//! reconvergence PC statically.
//!
//! The warp, not the lane, is the unit of work. Each source operand of a
//! warp-instruction is resolved once into a 32-element lane vector — a
//! register copy, a splat of an immediate, parameter or per-warp constant,
//! or an iota over the warp's thread ids — the [`ValueOp`] is dispatched
//! once and applied over plain 32-element loops, and the result is written
//! back under the active mask. Memory addresses, loaded values and branch
//! taken-masks come from the same lane vectors, so a warp-instruction costs
//! one operand `match` per source and one `ValueOp` `match`, not 32 of each.
//! Inactive lanes are computed and discarded; no value operation can fault
//! (division clamps its divisor, shifts mask their count), so that is
//! unobservable.
//!
//! The engine tracks a *warp-level* register scoreboard (last writer per
//! register), exactly like real hardware: a register write by any lane makes
//! the whole warp's later readers depend on that instruction. Records go
//! straight into the warp's row vector and arenas (see [`crate::record`]),
//! pre-sized from the previous warp of the same kernel.
//!
//! Before tracing, every kernel passes through the `gpumech-analyze`
//! pre-trace hook: kernels with Error-severity findings (mis-placed
//! reconvergence points, reads of never-written registers, irreducible
//! control flow) are rejected with [`TraceError::RejectedByAnalysis`]. Debug
//! builds cross-check every static fact against observed execution
//! (`debug_assert!`): coalescing bounds, bank-conflict bounds, and that a
//! branch the analyzer proves warp-uniform is observed uniform.

use gpumech_analyze::{KernelAnalysis, RejectReason};
use gpumech_isa::{
    kernel::{BranchCond, KernelError, NUM_REGS},
    InstKind, Kernel, Operand, Reg, ValueOp, WarpId, WARP_SIZE,
};
use gpumech_obs::{CancelToken, Interrupt};

use crate::launch::LaunchConfig;
use crate::record::{KernelTrace, WarpTrace};
use crate::splitmix64;

/// Upper bound on dynamic instructions per warp; exceeded only by a
/// non-terminating workload definition (reported as an error, not a hang).
pub const MAX_DYN_INSTS_PER_WARP: usize = 1_000_000;

/// Seed mixed into synthetic memory contents so loaded values are
/// deterministic functions of their address.
const MEMORY_SEED: u64 = 0x5_EED0_F6DE_C0DE;

/// Error produced while tracing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The kernel failed structural validation.
    InvalidKernel(KernelError),
    /// The static analyzer found Error-severity defects (pre-trace hook).
    RejectedByAnalysis {
        /// Name of the rejected kernel.
        kernel: String,
        /// Defect class that triggered the rejection.
        reason: RejectReason,
        /// Rendered Error-severity diagnostics, in severity order.
        findings: Vec<String>,
    },
    /// A warp exceeded [`MAX_DYN_INSTS_PER_WARP`] — the kernel does not
    /// terminate for this input.
    InstLimit {
        /// The warp that overran the limit.
        warp: WarpId,
    },
    /// A trace violates a structural invariant (checked on load and before
    /// simulation — see [`crate::KernelTrace::validate`]).
    CorruptTrace {
        /// Kernel name from the trace header.
        kernel: String,
        /// Grid-global index of the offending warp, when attributable.
        warp: Option<usize>,
        /// The violated invariant.
        detail: String,
    },
    /// An internal tracer invariant failed — a malformed kernel slipped
    /// past the pre-trace checks; reported instead of panicking.
    BrokenInvariant {
        /// Kernel being traced.
        kernel: String,
        /// Warp being traced.
        warp: WarpId,
        /// Static PC at which the invariant failed.
        pc: u32,
        /// The violated invariant.
        detail: &'static str,
    },
    /// Tracing was interrupted by a [`CancelToken`] (explicit cancellation
    /// or an expired deadline) before the kernel finished.
    Interrupted(Interrupt),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            TraceError::RejectedByAnalysis { kernel, reason, findings } => {
                write!(
                    f,
                    "kernel '{kernel}' rejected by static analysis ({reason}, {} finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.first().map_or("", String::as_str)
                )
            }
            TraceError::InstLimit { warp } => {
                write!(f, "warp {warp} exceeded {MAX_DYN_INSTS_PER_WARP} dynamic instructions")
            }
            TraceError::CorruptTrace { kernel, warp, detail } => match warp {
                Some(w) => write!(f, "corrupt trace for kernel '{kernel}', warp {w}: {detail}"),
                None => write!(f, "corrupt trace for kernel '{kernel}': {detail}"),
            },
            TraceError::BrokenInvariant { kernel, warp, pc, detail } => {
                write!(f, "tracer invariant broken in kernel '{kernel}', warp {warp}, pc {pc}: {detail}")
            }
            TraceError::Interrupted(why) => write!(f, "tracing interrupted: {why}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::InvalidKernel(e) => Some(e),
            TraceError::RejectedByAnalysis { .. }
            | TraceError::InstLimit { .. }
            | TraceError::CorruptTrace { .. }
            | TraceError::BrokenInvariant { .. }
            | TraceError::Interrupted(_) => None,
        }
    }
}

impl From<KernelError> for TraceError {
    fn from(e: KernelError) -> Self {
        TraceError::InvalidKernel(e)
    }
}

const FULL_MASK: u32 = u32::MAX;
const NO_RECONV: u32 = u32::MAX;

/// Cache-line granularity the coalescing cross-checks assume; must match
/// the 128-byte line the analyzer's `max_requests` bound is stated over.
#[cfg(debug_assertions)]
const LINE_SHIFT: u32 = 7;

#[derive(Debug, Clone, Copy)]
struct Frame {
    pc: u32,
    mask: u32,
    reconv: u32,
}

/// How many dynamic instructions a warp machine retires between
/// [`CancelToken`] checks — frequent enough that a deadline lands within
/// microseconds, rare enough that the clock read is amortized away.
const CANCEL_CHECK_MASK: usize = 0x3FF;

/// One value per lane of a warp.
type Lanes = [u64; WARP_SIZE];

fn splat(v: u64) -> Lanes {
    [v; WARP_SIZE]
}

/// `base + lane` in every lane.
fn iota(base: u64) -> Lanes {
    std::array::from_fn(|lane| base + lane as u64)
}

fn map1(a: &Lanes, f: impl Fn(u64) -> u64) -> Lanes {
    std::array::from_fn(|lane| f(a[lane]))
}

fn map2(a: &Lanes, b: &Lanes, f: impl Fn(u64, u64) -> u64) -> Lanes {
    std::array::from_fn(|lane| f(a[lane], b[lane]))
}

/// Bit `lane` set where `v[lane] == 0`.
fn zero_lanes(v: &Lanes) -> u32 {
    v.iter().enumerate().fold(0, |m, (lane, &x)| m | (u32::from(x == 0) << lane))
}

/// The lanes of `v` selected by `mask`, packed in ascending lane order into
/// the front of `out`; returns how many.
fn compact(v: &Lanes, mask: u32, out: &mut Lanes) -> usize {
    if mask == FULL_MASK {
        *out = *v;
        return WARP_SIZE;
    }
    let mut n = 0;
    let mut rest = mask;
    while rest != 0 {
        out[n] = v[rest.trailing_zeros() as usize];
        n += 1;
        rest &= rest - 1;
    }
    n
}

/// Functional state of one warp. One machine serves every warp of a launch
/// in turn ([`WarpMachine::run`] resets it), so the 16 KiB register file
/// and the reconvergence stack are allocated once per kernel.
struct WarpMachine<'k> {
    kernel: &'k Kernel,
    analysis: &'k KernelAnalysis,
    cancel: &'k CancelToken,
    launch: LaunchConfig,
    /// `regs[reg][lane]`.
    regs: Vec<Lanes>,
    stack: Vec<Frame>,
    last_writer: [Option<u32>; NUM_REGS],
    // Per-warp constants behind the thread-id operands, set by `run`.
    /// Grid-global thread id of lane 0.
    tid_base: u64,
    /// Thread id within the block of lane 0.
    tid_in_block_base: u64,
    warp_in_block: u64,
    block: u64,
}

impl<'k> WarpMachine<'k> {
    fn new(
        kernel: &'k Kernel,
        analysis: &'k KernelAnalysis,
        cancel: &'k CancelToken,
        launch: LaunchConfig,
    ) -> Self {
        Self {
            kernel,
            analysis,
            cancel,
            launch,
            regs: vec![[0u64; WARP_SIZE]; NUM_REGS],
            stack: Vec::new(),
            last_writer: [None; NUM_REGS],
            tid_base: 0,
            tid_in_block_base: 0,
            warp_in_block: 0,
            block: 0,
        }
    }

    /// Resets the machine to the entry state of `warp`.
    fn begin(&mut self, warp: WarpId) {
        let warp_in_block = self.launch.warp_in_block(warp);
        self.regs.fill([0u64; WARP_SIZE]);
        self.stack.clear();
        self.stack.push(Frame { pc: 0, mask: FULL_MASK, reconv: NO_RECONV });
        self.last_writer = [None; NUM_REGS];
        self.tid_base = self.launch.global_tid(warp, 0);
        self.tid_in_block_base = (warp_in_block * WARP_SIZE) as u64;
        self.warp_in_block = warp_in_block as u64;
        self.block = self.launch.block_of_warp(warp).index() as u64;
    }

    /// The value of `op` in every lane of the warp.
    fn lanes(&self, op: Operand) -> Lanes {
        match op {
            Operand::Reg(Reg(r)) => self.regs[r as usize],
            Operand::Imm(v) => splat(v),
            Operand::Tid => iota(self.tid_base),
            Operand::Lane => iota(0),
            Operand::WarpInBlock => splat(self.warp_in_block),
            Operand::Block => splat(self.block),
            Operand::TidInBlock => iota(self.tid_in_block_base),
            Operand::Param(i) => splat(self.kernel.params[i as usize]),
        }
    }

    /// `f` folded over all of `srcs`, from `init`, in every lane.
    fn fold(&self, srcs: &[Operand], init: u64, f: impl Fn(u64, u64) -> u64) -> Lanes {
        srcs.iter().fold(splat(init), |acc, &s| map2(&acc, &self.lanes(s), &f))
    }

    /// `op` over `srcs` in every lane of the warp.
    fn eval(&self, op: ValueOp, srcs: &[Operand]) -> Lanes {
        let v = |i: usize| self.lanes(srcs[i]);
        match op {
            ValueOp::Mov => if srcs.is_empty() { splat(0) } else { v(0) },
            ValueOp::Add => self.fold(srcs, 0, u64::wrapping_add),
            ValueOp::Sub => map2(&v(0), &v(1), u64::wrapping_sub),
            ValueOp::Mul => self.fold(srcs, 1, u64::wrapping_mul),
            ValueOp::Div => map2(&v(0), &v(1), |a, b| a / b.max(1)),
            ValueOp::Rem => map2(&v(0), &v(1), |a, b| a % b.max(1)),
            ValueOp::And => self.fold(srcs, u64::MAX, |a, b| a & b),
            ValueOp::Xor => self.fold(srcs, 0, |a, b| a ^ b),
            ValueOp::Shl => map2(&v(0), &v(1), |a, b| a << (b & 63)),
            ValueOp::Shr => map2(&v(0), &v(1), |a, b| a >> (b & 63)),
            ValueOp::Min => self.fold(srcs, u64::MAX, u64::min),
            ValueOp::Max => self.fold(srcs, 0, u64::max),
            ValueOp::CmpLt => map2(&v(0), &v(1), |a, b| u64::from(a < b)),
            ValueOp::CmpEq => map2(&v(0), &v(1), |a, b| u64::from(a == b)),
            ValueOp::CmpNe => map2(&v(0), &v(1), |a, b| u64::from(a != b)),
            ValueOp::Select => {
                let (c, a, b) = (v(0), v(1), v(2));
                std::array::from_fn(|lane| if c[lane] != 0 { a[lane] } else { b[lane] })
            }
            ValueOp::Hash => map1(&self.fold(srcs, 0, |a, b| a ^ b), splitmix64),
        }
    }

    /// Writes `val` to register `dst` in the lanes of `mask`; the other
    /// lanes keep their value.
    fn write_back(&mut self, dst: u8, val: &Lanes, mask: u32) {
        let reg = &mut self.regs[dst as usize];
        if mask == FULL_MASK {
            *reg = *val;
        } else {
            for (lane, (r, &v)) in reg.iter_mut().zip(val).enumerate() {
                if mask & (1 << lane) != 0 {
                    *r = v;
                }
            }
        }
    }

    /// The distinct last writers of `srcs`' registers, ascending, packed
    /// into the front of `out`; returns how many. At most one per register.
    fn collect_deps(&self, srcs: &[Operand], out: &mut [u32; NUM_REGS]) -> usize {
        let mut n = 0;
        for s in srcs {
            let Operand::Reg(Reg(r)) = s else { continue };
            let Some(d) = self.last_writer[*r as usize] else { continue };
            // Sorted insert, skipping duplicates; lists are 0-3 long.
            let at = out[..n].partition_point(|&x| x < d);
            if at < n && out[at] == d {
                continue;
            }
            out.copy_within(at..n, at + 1);
            out[at] = d;
            n += 1;
        }
        n
    }

    /// Functionally executes `warp` and returns its trace, sized like
    /// `like` (the previous warp of the launch) when there is one.
    fn run(
        &mut self,
        warp: WarpId,
        like: Option<&WarpTrace>,
    ) -> Result<(WarpTrace, RunStats), TraceError> {
        self.begin(warp);
        let kernel = self.kernel;
        let block = self.launch.block_of_warp(warp);
        let mut trace = match like {
            Some(prev) => WarpTrace::sized_like(warp, block, prev),
            None => WarpTrace::new(warp, block),
        };
        let mut stats = RunStats::default();
        let mut deps = [0u32; NUM_REGS];
        let mut addrs = [0u64; WARP_SIZE];
        let broken = |pc: u32, detail: &'static str| TraceError::BrokenInvariant {
            kernel: kernel.name.clone(),
            warp,
            pc,
            detail,
        };

        while let Some(&top) = self.stack.last() {
            if top.pc == top.reconv {
                self.stack.pop();
                continue;
            }
            if trace.len() >= MAX_DYN_INSTS_PER_WARP {
                return Err(TraceError::InstLimit { warp });
            }
            if trace.len() & CANCEL_CHECK_MASK == 0 {
                self.cancel.check().map_err(TraceError::Interrupted)?;
            }

            let inst = &kernel.insts[top.pc as usize];
            let mask = top.mask;
            let idx = trace.len() as u32;

            // Memory instructions: srcs[0] is the address in every lane.
            let addr_lanes = inst.kind.is_mem().then(|| self.lanes(inst.srcs[0]));
            let n_addrs = addr_lanes.as_ref().map_or(0, |a| compact(a, mask, &mut addrs));
            #[cfg(debug_assertions)]
            if inst.kind.is_mem() {
                // Cross-check: the observed line count must respect the
                // analyzer's per-warp coalescing bound.
                if let Some(Some(access)) = self.analysis.coalescing.get(top.pc as usize) {
                    let lines = distinct_lines(&addrs[..n_addrs]);
                    debug_assert!(
                        lines <= access.max_requests,
                        "pc {}: warp touched {lines} lines, static bound is {} ({:?})",
                        top.pc,
                        access.max_requests,
                        access.class,
                    );
                }
                // Cross-check: the observed shared-memory bank-conflict
                // degree must respect the analyzer's full-mask bound.
                if let Some(fact) = self.analysis.shared_fact(top.pc) {
                    let observed = observed_bank_degree(&addrs[..n_addrs]);
                    debug_assert!(
                        observed <= fact.bank_degree,
                        "pc {}: warp hit {observed}-way bank conflict, static bound is {}-way",
                        top.pc,
                        fact.bank_degree,
                    );
                }
            }
            let n_deps = self.collect_deps(&inst.srcs, &mut deps);
            trace
                .push(top.pc, inst.kind, mask, &deps[..n_deps], &addrs[..n_addrs])
                .map_err(|_| broken(top.pc, "dynamic instruction exceeds the trace row layout"))?;

            match inst.kind {
                InstKind::Branch => {
                    let taken = match inst.cond {
                        BranchCond::Always => mask,
                        BranchCond::IfZero => mask & zero_lanes(&self.lanes(inst.srcs[0])),
                        BranchCond::IfNonZero => mask & !zero_lanes(&self.lanes(inst.srcs[0])),
                    };
                    let fall = mask & !taken;
                    debug_assert!(
                        taken == 0 || fall == 0 || !self.analysis.is_branch_uniform(top.pc),
                        "pc {}: statically uniform branch observed divergent",
                        top.pc,
                    );
                    // Targets/reconvergence PCs are guaranteed by kernel
                    // validation and the stack top by the loop condition;
                    // report (never panic) if an invariant is broken.
                    let Some(target) = inst.target else {
                        return Err(broken(top.pc, "branch without a target survived validation"));
                    };
                    let Some(frame) = self.stack.last_mut() else { break };
                    if taken != 0 && fall != 0 {
                        stats.divergent_branches += 1;
                    } else {
                        stats.uniform_branches += 1;
                    }
                    match (taken != 0, fall != 0) {
                        (true, false) => frame.pc = target,
                        (false, true) => frame.pc += 1,
                        (true, true) => {
                            let Some(reconv) = inst.reconv else {
                                return Err(broken(
                                    top.pc,
                                    "divergent branch without a reconvergence pc",
                                ));
                            };
                            frame.pc = reconv;
                            self.stack.push(Frame { pc: top.pc + 1, mask: fall, reconv });
                            self.stack.push(Frame { pc: target, mask: taken, reconv });
                        }
                        (false, false) => unreachable!("branch under empty mask"),
                    }
                }
                InstKind::Exit => {
                    // Retire these lanes from every frame; drop emptied frames.
                    for f in &mut self.stack {
                        f.mask &= !mask;
                    }
                    self.stack.retain(|f| f.mask != 0);
                }
                _ => {
                    if let Some(Reg(dst)) = inst.dst {
                        let val = match (&addr_lanes, inst.kind) {
                            (Some(addr), InstKind::Load(_)) => {
                                map1(addr, |a| splitmix64(a ^ MEMORY_SEED))
                            }
                            _ => self.eval(inst.op, &inst.srcs),
                        };
                        self.write_back(dst, &val, mask);
                        self.last_writer[dst as usize] = Some(idx);
                    }
                    let Some(frame) = self.stack.last_mut() else { break };
                    frame.pc += 1;
                }
            }
        }

        Ok((trace, stats))
    }
}

/// Branch-behaviour tallies from one warp's functional execution,
/// aggregated per kernel before being emitted as `trace.engine.*`
/// counters (so the hot loop only bumps plain integers).
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    /// Conditional branches where active lanes split both ways.
    divergent_branches: u64,
    /// Branch executions where every active lane agreed.
    uniform_branches: u64,
}

impl RunStats {
    fn absorb(&mut self, other: RunStats) {
        self.divergent_branches += other.divergent_branches;
        self.uniform_branches += other.uniform_branches;
    }
}

#[cfg(debug_assertions)]
fn distinct_lines(addrs: &[u64]) -> u32 {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a >> LINE_SHIFT).collect();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u32
}

/// Bank-conflict degree of one warp access under the default 32-bank × 4 B
/// geometry (the model the pre-trace analysis uses): max distinct words in
/// any one bank, lanes sharing a word broadcasting in one cycle.
#[cfg(debug_assertions)]
fn observed_bank_degree(addrs: &[u64]) -> u32 {
    let mut words: Vec<(u64, u64)> = addrs.iter().map(|a| ((a / 4) % 32, a / 4)).collect();
    words.sort_unstable();
    words.dedup();
    let mut best = 0u32;
    let mut i = 0;
    while i < words.len() {
        let bank = words[i].0;
        let mut n = 0u32;
        while i < words.len() && words[i].0 == bank {
            n += 1;
            i += 1;
        }
        best = best.max(n);
    }
    best.max(1)
}

/// Runs the pre-trace static analysis hook, rejecting kernels with
/// Error-severity findings.
fn pre_trace_analysis(kernel: &Kernel) -> Result<KernelAnalysis, TraceError> {
    // validate() first so callers keep getting the precise
    // `TraceError::InvalidKernel(KernelError)` they always got for basic
    // structural breakage; the analyzer then catches the deeper defects.
    kernel.validate()?;
    let analysis = gpumech_analyze::analyze(kernel);
    if let Some(reason) = analysis.reject_reason() {
        return Err(TraceError::RejectedByAnalysis {
            kernel: kernel.name.clone(),
            reason,
            findings: analysis
                .diagnostics_at_least(gpumech_analyze::Severity::Error)
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
        });
    }
    Ok(analysis)
}

/// Functionally executes one warp and returns its dynamic trace.
///
/// # Errors
///
/// Returns [`TraceError::InvalidKernel`] if the kernel fails validation,
/// [`TraceError::RejectedByAnalysis`] if the static analyzer finds
/// Error-severity defects, and [`TraceError::InstLimit`] if the warp does
/// not terminate within [`MAX_DYN_INSTS_PER_WARP`] instructions.
pub fn trace_warp(
    kernel: &Kernel,
    launch: LaunchConfig,
    warp: WarpId,
) -> Result<WarpTrace, TraceError> {
    let analysis = pre_trace_analysis(kernel)?;
    let cancel = CancelToken::never();
    let (trace, stats) = WarpMachine::new(kernel, &analysis, &cancel, launch).run(warp, None)?;
    gpumech_obs::counter!("trace.engine.insts", trace.len() as u64);
    gpumech_obs::counter!("trace.engine.divergent_branches", stats.divergent_branches);
    gpumech_obs::counter!("trace.engine.uniform_branches", stats.uniform_branches);
    Ok(trace)
}

/// Functionally executes every warp of a launch and returns the full kernel
/// trace. Warps are independent (no inter-thread communication in the IR),
/// so this is simply one warp machine run over the grid, warp after warp,
/// sharing one static analysis.
///
/// # Errors
///
/// Propagates the first [`TraceError`] encountered.
pub fn trace_kernel(kernel: &Kernel, launch: LaunchConfig) -> Result<KernelTrace, TraceError> {
    trace_kernel_cancellable(kernel, launch, &CancelToken::never())
}

/// [`trace_kernel`] under a [`CancelToken`]: the warp machine polls the
/// token at a fixed dynamic-instruction stride and between warps, so an
/// expired deadline or explicit cancellation aborts tracing within a
/// bounded amount of work.
///
/// # Errors
///
/// Propagates the first [`TraceError`] encountered;
/// [`TraceError::Interrupted`] once `cancel` fires.
pub fn trace_kernel_cancellable(
    kernel: &Kernel,
    launch: LaunchConfig,
    cancel: &CancelToken,
) -> Result<KernelTrace, TraceError> {
    let _span = gpumech_obs::span!("trace.engine.kernel", name = kernel.name.as_str());
    let analysis = pre_trace_analysis(kernel)?;
    let mut machine = WarpMachine::new(kernel, &analysis, cancel, launch);
    let mut stats = RunStats::default();
    let mut warps: Vec<WarpTrace> = Vec::with_capacity(launch.total_warps());
    for w in launch.warps() {
        cancel.check().map_err(TraceError::Interrupted)?;
        let (trace, s) = machine.run(w, warps.last())?;
        stats.absorb(s);
        warps.push(trace);
    }
    gpumech_obs::counter!("trace.engine.warps", warps.len() as u64);
    gpumech_obs::counter!("trace.engine.insts", warps.iter().map(|w| w.len() as u64).sum::<u64>());
    gpumech_obs::counter!("trace.engine.divergent_branches", stats.divergent_branches);
    gpumech_obs::counter!("trace.engine.uniform_branches", stats.uniform_branches);
    Ok(KernelTrace { name: kernel.name.clone(), launch, warps })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::{AddrPattern, KernelBuilder, MemSpace};

    fn launch1() -> LaunchConfig {
        LaunchConfig::new(32, 1)
    }

    /// The per-lane interpreter the warp-wide engine replaced, kept as the
    /// reference the differential test below compares against.
    fn scalar_operand(m: &WarpMachine<'_>, warp: WarpId, op: Operand, lane: usize) -> u64 {
        match op {
            Operand::Reg(Reg(r)) => m.regs[r as usize][lane],
            Operand::Imm(v) => v,
            Operand::Tid => m.launch.global_tid(warp, lane),
            Operand::Lane => lane as u64,
            Operand::WarpInBlock => m.launch.warp_in_block(warp) as u64,
            Operand::Block => m.launch.block_of_warp(warp).index() as u64,
            Operand::TidInBlock => (m.launch.warp_in_block(warp) * WARP_SIZE + lane) as u64,
            Operand::Param(i) => m.kernel.params[i as usize],
        }
    }

    fn scalar_eval(
        m: &WarpMachine<'_>,
        warp: WarpId,
        op: ValueOp,
        srcs: &[Operand],
        lane: usize,
    ) -> u64 {
        let v = |i: usize| scalar_operand(m, warp, srcs[i], lane);
        let fold = |f: fn(u64, u64) -> u64, init: u64| {
            srcs.iter().map(|&s| scalar_operand(m, warp, s, lane)).fold(init, f)
        };
        match op {
            ValueOp::Mov => if srcs.is_empty() { 0 } else { v(0) },
            ValueOp::Add => fold(u64::wrapping_add, 0),
            ValueOp::Sub => v(0).wrapping_sub(v(1)),
            ValueOp::Mul => fold(u64::wrapping_mul, 1),
            ValueOp::Div => v(0) / v(1).max(1),
            ValueOp::Rem => v(0) % v(1).max(1),
            ValueOp::And => fold(|a, b| a & b, u64::MAX),
            ValueOp::Xor => fold(|a, b| a ^ b, 0),
            ValueOp::Shl => v(0) << (v(1) & 63),
            ValueOp::Shr => v(0) >> (v(1) & 63),
            ValueOp::Min => fold(u64::min, u64::MAX),
            ValueOp::Max => fold(u64::max, 0),
            ValueOp::CmpLt => u64::from(v(0) < v(1)),
            ValueOp::CmpEq => u64::from(v(0) == v(1)),
            ValueOp::CmpNe => u64::from(v(0) != v(1)),
            ValueOp::Select => if v(0) != 0 { v(1) } else { v(2) },
            ValueOp::Hash => splitmix64(fold(|a, b| a ^ b, 0)),
        }
    }

    const ALL_OPS: [ValueOp; 17] = [
        ValueOp::Mov,
        ValueOp::Add,
        ValueOp::Sub,
        ValueOp::Mul,
        ValueOp::Div,
        ValueOp::Rem,
        ValueOp::And,
        ValueOp::Xor,
        ValueOp::Shl,
        ValueOp::Shr,
        ValueOp::Min,
        ValueOp::Max,
        ValueOp::CmpLt,
        ValueOp::CmpEq,
        ValueOp::CmpNe,
        ValueOp::Select,
        ValueOp::Hash,
    ];

    /// Registers 0..8 hold, in this order: seeded noise, all zeros (a zero
    /// divisor in every lane), zeros in the odd lanes, shift counts of 64
    /// and more, all ones, small values, and two more of noise.
    fn seed_registers(m: &mut WarpMachine<'_>, seed: u64) {
        let mut r = seed;
        let mut next = || {
            r = splitmix64(r);
            r
        };
        for (reg, lanes) in m.regs.iter_mut().take(8).enumerate() {
            for (lane, v) in lanes.iter_mut().enumerate() {
                let noise = next();
                *v = match reg {
                    1 => 0,
                    2 => if lane % 2 == 1 { 0 } else { noise },
                    3 => 64 + noise % 200,
                    4 => u64::MAX,
                    5 => noise % 7,
                    _ => noise,
                };
            }
        }
    }

    /// One operand of kind `kind` (0..8), its payload drawn from `r`.
    fn operand_of_kind(kind: u64, r: u64) -> Operand {
        match kind {
            0 => Operand::Reg(Reg((r % 8) as u8)),
            // Zero, shift counts of 64 and more, and noise all occur.
            1 => Operand::Imm([0, 1, 64, 200, r][(r % 5) as usize]),
            2 => Operand::Tid,
            3 => Operand::Lane,
            4 => Operand::WarpInBlock,
            5 => Operand::Block,
            6 => Operand::TidInBlock,
            _ => Operand::Param((r % 3) as u16),
        }
    }

    /// Differential test of the warp-wide value path against the per-lane
    /// reference: every `ValueOp` with every `Operand` kind in every source
    /// position, over seeded register files and warps, under full, partial,
    /// single-lane and high-lanes-only masks. Inactive lanes must keep
    /// their previous register value.
    #[test]
    fn warp_wide_evaluation_matches_the_per_lane_reference() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![0, 3, u64::MAX - 5]);
        let analysis = gpumech_analyze::analyze(&k);
        let cancel = CancelToken::never();
        let launch = LaunchConfig::new(128, 7);
        let mut m = WarpMachine::new(&k, &analysis, &cancel, launch);
        const DST: u8 = 9;
        let mut cases = 0usize;

        for seed in 0..6u64 {
            let warp = WarpId::new((splitmix64(seed) % launch.total_warps() as u64) as u32);
            m.begin(warp);
            seed_registers(&mut m, seed);
            let r0 = splitmix64(seed ^ 0xD1FF);
            let masks = [
                FULL_MASK,
                (r0 as u32) | 1,                                 // seeded partial
                1 << ((r0 >> 32) % 32),                          // single lane
                0x8000_0000,                                     // the highest lane alone
                ((r0 >> 16) as u32 & 0xFFFF_0000) | 0x0001_0000, // high lanes only
            ];
            for op in ALL_OPS {
                let arities: &[usize] = match op {
                    ValueOp::Mov => &[0, 1],
                    ValueOp::Select => &[3],
                    ValueOp::Add
                    | ValueOp::Mul
                    | ValueOp::And
                    | ValueOp::Xor
                    | ValueOp::Min
                    | ValueOp::Max
                    | ValueOp::Hash => &[1, 2, 3],
                    _ => &[2],
                };
                for &arity in arities {
                    // Every operand kind in every position; the other
                    // positions take seeded kinds. Arity 0 runs once.
                    for pos in 0..arity.max(1) {
                        for kind in 0..8u64 {
                            let r = splitmix64(r0 ^ (cases as u64));
                            let srcs: Vec<Operand> = (0..arity)
                                .map(|p| {
                                    let rp = splitmix64(r ^ p as u64);
                                    operand_of_kind(if p == pos { kind } else { rp >> 8 & 7 }, rp)
                                })
                                .collect();
                            let val = m.eval(op, &srcs);
                            for (lane, &v) in val.iter().enumerate() {
                                assert_eq!(
                                    v,
                                    scalar_eval(&m, warp, op, &srcs, lane),
                                    "seed {seed} {op:?} {srcs:?} lane {lane}"
                                );
                            }
                            for mask in masks {
                                let before = splat(r ^ u64::from(mask));
                                m.regs[DST as usize] = before;
                                m.write_back(DST, &val, mask);
                                for (lane, &got) in m.regs[DST as usize].iter().enumerate() {
                                    let want =
                                        if mask & (1 << lane) != 0 { val[lane] } else { before[lane] };
                                    assert_eq!(
                                        got, want,
                                        "seed {seed} {op:?} {srcs:?} mask {mask:#x} lane {lane}"
                                    );
                                }
                                // The mask helpers behind addresses and
                                // branches, against their definitions.
                                let mut packed = splat(0);
                                let n = compact(&val, mask, &mut packed);
                                let want: Vec<u64> = (0..WARP_SIZE)
                                    .filter(|l| mask & (1 << l) != 0)
                                    .map(|l| val[l])
                                    .collect();
                                assert_eq!(&packed[..n], &want[..], "compact under {mask:#x}");
                            }
                            let zeros = zero_lanes(&val);
                            for (lane, &v) in val.iter().enumerate() {
                                assert_eq!(zeros >> lane & 1 == 1, v == 0, "zero_lanes lane {lane}");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases >= 2000, "the case fan shrank to {cases}");
    }

    #[test]
    fn straight_line_trace_has_program_order_and_deps() {
        let mut b = KernelBuilder::new("k");
        let a = b.alu(ValueOp::Add, &[Operand::Tid, Operand::Imm(1)]);
        let c = b.alu(ValueOp::Mul, &[Operand::Reg(a), Operand::Imm(2)]);
        let _ = b.fp_add(&[Operand::Reg(c), Operand::Reg(a)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        assert_eq!(t.len(), 4); // 3 + exit
        assert_eq!(t.deps(&t.insts[0]), &[] as &[u32]);
        assert_eq!(t.deps(&t.insts[1]), &[0]);
        assert_eq!(t.deps(&t.insts[2]), &[0, 1]);
        assert_eq!(t.insts[0].active_mask, u32::MAX);
    }

    #[test]
    fn if_else_divergence_executes_both_paths_with_split_masks() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(10)]); // then: lanes 0..8
        b.if_else();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(20)]); // else: lanes 8..32
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(30)]); // reconverged
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();

        let then_mask = 0x0000_00FFu32;
        // Instruction stream: cmp, branch, (then add OR else path first
        // depending on taken order) ... we take the branch-taken path first,
        // which for IfZero is the *else* arm (lanes >= 8).
        let masks: Vec<(u32, u32)> = t.insts.iter().map(|i| (i.pc, i.active_mask)).collect();
        // cmp and branch run under the full mask.
        assert_eq!(masks[0], (0, u32::MAX));
        assert_eq!(masks[1], (1, u32::MAX));
        // Both arms appear, with complementary masks.
        let then_inst = t.insts.iter().find(|i| i.pc == 2).expect("then arm executed");
        let else_inst = t.insts.iter().find(|i| i.pc == 4).expect("else arm executed");
        assert_eq!(then_inst.active_mask, then_mask);
        assert_eq!(else_inst.active_mask, !then_mask);
        // The reconverged instruction runs under the full mask again.
        let merged = t.insts.iter().find(|i| i.pc == 5).expect("reconverged inst");
        assert_eq!(merged.active_mask, u32::MAX);
    }

    #[test]
    fn uniform_branch_does_not_split() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(64)]); // always true
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_else();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(2)]);
        b.if_end();
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        // Else arm (pc 4) never executes.
        assert!(t.insts.iter().all(|i| i.pc != 4));
        assert!(t.insts.iter().any(|i| i.pc == 2 && i.active_mask == u32::MAX));
    }

    #[test]
    fn lane_dependent_loop_trip_counts_reconverge() {
        // Do-while loop: lane iterates max(lane % 4, 1) times.
        let mut b = KernelBuilder::new("k");
        let trip = b.alu(ValueOp::Rem, &[Operand::Lane, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Reg(trip)]);
        b.loop_end_while(Operand::Reg(c));
        let _after = b.alu(ValueOp::Add, &[Operand::Imm(99)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();

        // The loop body add (pc 2) executes 3 times: masks shrink as lanes
        // retire (trip counts 0/1 retire after iteration 1, trip 2 after
        // iteration 2, trip 3 after iteration 3).
        let body_masks: Vec<u32> =
            t.insts.iter().filter(|i| i.pc == 2).map(|i| i.active_mask).collect();
        assert_eq!(body_masks.len(), 3);
        assert_eq!(body_masks[0], u32::MAX);
        assert!(body_masks.windows(2).all(|w| (w[1] & !w[0]) == 0), "masks only shrink");
        assert_eq!(body_masks[1].count_ones(), 16, "half the lanes reach trip 2");
        assert_eq!(body_masks[2].count_ones(), 8, "one lane in four reaches trip 3");
        // After the loop, everyone reconverges.
        let merged = t.insts.iter().rev().find(|i| i.kind == InstKind::IntAlu).unwrap();
        assert_eq!(merged.active_mask, u32::MAX);
    }

    #[test]
    fn memory_instructions_record_per_lane_addresses() {
        let mut b = KernelBuilder::new("k");
        let _ = b.load_pattern(AddrPattern::Coalesced { base: 0x1000, elem_bytes: 4 });
        b.store_pattern(AddrPattern::Strided { base: 0x10_0000, stride_bytes: 128 }, Operand::Imm(7));
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(64, 2), WarpId::new(3)).unwrap();

        let load = t.insts.iter().find(|i| i.kind == InstKind::Load(MemSpace::Global)).unwrap();
        let load_addrs = t.addrs(load);
        assert_eq!(load_addrs.len(), 32);
        // Warp 3 covers tids 96..128 → addresses 0x1000 + 4*tid.
        assert_eq!(load_addrs[0], 0x1000 + 4 * 96);
        assert_eq!(load_addrs[31], 0x1000 + 4 * 127);

        let store = t.insts.iter().find(|i| i.kind == InstKind::Store(MemSpace::Global)).unwrap();
        let store_addrs = t.addrs(store);
        assert_eq!(store_addrs.len(), 32);
        assert_eq!(store_addrs[1] - store_addrs[0], 128, "one line per lane");
    }

    #[test]
    fn load_feeds_dependency_into_consumer() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Coalesced { base: 0, elem_bytes: 4 });
        let _ = b.fp_add(&[Operand::Reg(x), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let load_idx = t.insts.iter().position(|i| i.kind.is_global_load()).unwrap() as u32;
        let consumer = t.insts.iter().find(|i| i.kind == InstKind::FpAdd).unwrap();
        assert!(t.deps(consumer).contains(&load_idx));
    }

    #[test]
    fn loaded_values_are_deterministic_functions_of_address() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Broadcast { addr: 0x42 });
        let c = b.alu(ValueOp::Rem, &[Operand::Reg(x), Operand::Imm(2)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_end();
        let k = b.finish(vec![]);
        let t1 = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let t2 = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        assert_eq!(t1, t2, "tracing is deterministic");
    }

    #[test]
    fn infinite_loop_reports_inst_limit() {
        let mut b = KernelBuilder::new("k");
        b.loop_begin();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.loop_end_while(Operand::Imm(1)); // always true
        let k = b.finish(vec![]);
        let err = trace_warp(&k, launch1(), WarpId::new(0)).unwrap_err();
        assert!(matches!(err, TraceError::InstLimit { .. }));
    }

    #[test]
    fn cancelled_token_aborts_tracing_before_any_warp() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![]);
        let cancel = CancelToken::never();
        cancel.cancel();
        let err =
            trace_kernel_cancellable(&k, launch1(), &cancel).unwrap_err();
        assert_eq!(err, TraceError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_interrupts_a_long_running_warp_mid_trace() {
        // An (effectively) non-terminating loop; the fake-clock deadline
        // must fire via the in-loop poll long before the InstLimit.
        let mut b = KernelBuilder::new("k");
        b.loop_begin();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.loop_end_while(Operand::Imm(1));
        let k = b.finish(vec![]);
        let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
        let cancel = CancelToken::with_clock(clock, 10_000);
        let err =
            trace_kernel_cancellable(&k, launch1(), &cancel).unwrap_err();
        assert_eq!(err, TraceError::Interrupted(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn kernel_trace_covers_every_warp() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![]);
        let launch = LaunchConfig::new(64, 3);
        let t = trace_kernel(&k, launch).unwrap();
        assert_eq!(t.warps.len(), 6);
        for (i, w) in t.warps.iter().enumerate() {
            assert_eq!(w.warp.index(), i);
            assert_eq!(w.len(), 2);
        }
        assert_eq!(t.total_insts(), 12);
    }

    #[test]
    fn nested_divergence_restores_masks() {
        let mut b = KernelBuilder::new("k");
        let c1 = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(16)]);
        b.if_begin(Operand::Reg(c1));
        let c2 = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c2));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]); // lanes 0..8
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(2)]); // lanes 0..16
        b.if_end();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(3)]); // all lanes
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();
        let by_pc = |pc: u32| t.insts.iter().find(|i| i.pc == pc).map(|i| i.active_mask);
        assert_eq!(by_pc(4), Some(0xFF), "inner body: lanes 0..8");
        assert_eq!(by_pc(5), Some(0xFFFF), "outer body after inner merge: lanes 0..16");
        assert_eq!(by_pc(6), Some(u32::MAX), "full reconvergence");
    }

    #[test]
    fn corrupted_reconvergence_pc_is_rejected_before_tracing() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_end();
        let mut k = b.finish(vec![]);
        let branch_pc =
            k.insts.iter().position(|i| i.kind == InstKind::Branch).expect("has a branch");
        // In range (passes validate) but not the true post-dominator.
        k.insts[branch_pc].reconv = Some(branch_pc as u32 + 1);
        assert!(k.validate().is_ok());
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        match err {
            TraceError::RejectedByAnalysis { kernel, reason, findings } => {
                assert_eq!(kernel, "k");
                assert_eq!(reason, RejectReason::Structural);
                assert!(
                    findings.iter().any(|f| f.contains("reconv-mismatch")),
                    "findings: {findings:?}"
                );
            }
            other => panic!("expected RejectedByAnalysis, got {other}"),
        }
    }

    #[test]
    fn divergent_barrier_is_rejected_with_a_typed_reason() {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        b.sync();
        b.if_end();
        let k = b.finish(vec![]);
        assert!(k.validate().is_ok(), "divergence is beyond basic validation");
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        match err {
            TraceError::RejectedByAnalysis { reason, findings, .. } => {
                assert_eq!(reason, RejectReason::BarrierDivergence);
                assert!(
                    findings.iter().any(|f| f.contains("barrier-divergence")),
                    "findings: {findings:?}"
                );
            }
            other => panic!("expected RejectedByAnalysis, got {other}"),
        }
    }

    #[test]
    fn read_before_write_is_rejected_before_tracing() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(gpumech_isa::Reg(9)), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let err = trace_kernel(&k, launch1()).expect_err("analysis must reject");
        assert!(
            err.to_string().contains("read-before-write"),
            "expected a read-before-write diagnostic, got: {err}"
        );
    }
}
