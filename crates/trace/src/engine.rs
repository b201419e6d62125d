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
//! The engine computes only what a trace can show. A trace records PCs,
//! dependences, masks and addresses, so a register's *value* matters only
//! when it can reach a memory address or a branch condition. Once per
//! kernel the engine closes that set of *observed* registers (see
//! `observed_registers`); an instruction that writes any other register
//! pushes its row, its dependence list and its scoreboard update like every
//! instruction, but fetches no operand and computes nothing.
//!
//! The warp, not the lane, is the unit of work, and most observed values
//! are the same in every lane or step evenly from lane to lane. A register
//! therefore holds a `Value`: either `base + stride·lane` (stride 0 is a
//! warp-uniform value) or a 32-lane vector. Moves, sums, differences,
//! products with at most one non-uniform factor and shifts by a uniform
//! count stay in the first form — wrapping `u64` arithmetic is arithmetic
//! modulo 2^64, in which those identities are exact — and any operation
//! whose operands are all uniform is evaluated once. Everything else
//! materialises its operands into lane vectors and goes through `eval`
//! at 32 lanes, the one vector path: which path an instruction takes
//! depends on what its operands hold, never on an option. Inactive lanes
//! are computed and discarded; no value operation can fault (division
//! clamps its divisor, shifts mask their count), so that is unobservable.
//!
//! The engine tracks a *warp-level* register scoreboard (last writer per
//! register), exactly like real hardware: a register write by any lane makes
//! the whole warp's later readers depend on that instruction. Records go
//! straight into the warp's row vector and arenas (see [`crate::record`]),
//! pre-sized from the previous warp of the same kernel. A memory
//! instruction whose address is `base + stride·lane` is recorded as those
//! two words, not as its lanes; a vector address is recorded lane by lane
//! and never tested for affinity.
//!
//! Before tracing, every kernel passes through the `gpumech-analyze`
//! pre-trace hook: kernels with Error-severity findings (mis-placed
//! reconvergence points, reads of never-written registers, irreducible
//! control flow) are rejected with [`TraceError::RejectedByAnalysis`]. Debug
//! builds cross-check every static fact against observed execution
//! (`debug_assert!`): coalescing bounds, and that a branch the analyzer
//! proves warp-uniform is observed uniform.

use gpumech_analyze::{KernelAnalysis, RejectReason};
use gpumech_isa::{
    kernel::{BranchCond, KernelError, NUM_REGS},
    InstKind, Kernel, Operand, Reg, ValueOp, WarpId, WARP_SIZE,
};
use gpumech_obs::{CancelToken, Interrupt};

use crate::launch::LaunchConfig;
#[cfg(debug_assertions)]
use crate::record::Addrs;
use crate::record::{affine_at, KernelTrace, WarpTrace};
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
                None if kernel.is_empty() => write!(f, "corrupt trace: {detail}"),
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

/// `base + stride·lane` in every lane.
fn ramp(base: u64, stride: u64) -> Lanes {
    std::array::from_fn(|lane| affine_at(base, stride, lane))
}

fn map1<const N: usize>(a: &[u64; N], f: impl Fn(u64) -> u64) -> [u64; N] {
    std::array::from_fn(|lane| f(a[lane]))
}

fn map2<const N: usize>(a: &[u64; N], b: &[u64; N], f: impl Fn(u64, u64) -> u64) -> [u64; N] {
    std::array::from_fn(|lane| f(a[lane], b[lane]))
}

/// `f` folded over all of `srcs`, from `init`, in every lane.
fn fold<const N: usize>(
    srcs: &[Operand],
    fetch: impl Fn(Operand) -> [u64; N],
    init: u64,
    f: impl Fn(u64, u64) -> u64,
) -> [u64; N] {
    srcs.iter().fold([init; N], |acc, &s| map2(&acc, &fetch(s), &f))
}

/// `op` over `srcs` in each of `N` lanes, `fetch` giving an operand's value
/// in those lanes. The engine runs it at [`WARP_SIZE`] lanes over
/// materialised operands and at one lane when every operand is uniform.
fn eval<const N: usize>(
    op: ValueOp,
    srcs: &[Operand],
    fetch: impl Fn(Operand) -> [u64; N],
) -> [u64; N] {
    let v = |i: usize| fetch(srcs[i]);
    match op {
        ValueOp::Mov => if srcs.is_empty() { [0; N] } else { v(0) },
        ValueOp::Add => fold(srcs, fetch, 0, u64::wrapping_add),
        ValueOp::Sub => map2(&v(0), &v(1), u64::wrapping_sub),
        ValueOp::Mul => fold(srcs, fetch, 1, u64::wrapping_mul),
        ValueOp::Div => map2(&v(0), &v(1), |a, b| a / b.max(1)),
        ValueOp::Rem => map2(&v(0), &v(1), |a, b| a % b.max(1)),
        ValueOp::And => fold(srcs, fetch, u64::MAX, |a, b| a & b),
        ValueOp::Xor => fold(srcs, fetch, 0, |a, b| a ^ b),
        ValueOp::Shl => map2(&v(0), &v(1), |a, b| a << (b & 63)),
        ValueOp::Shr => map2(&v(0), &v(1), |a, b| a >> (b & 63)),
        ValueOp::Min => fold(srcs, fetch, u64::MAX, u64::min),
        ValueOp::Max => fold(srcs, fetch, 0, u64::max),
        ValueOp::CmpLt => map2(&v(0), &v(1), |a, b| u64::from(a < b)),
        ValueOp::CmpEq => map2(&v(0), &v(1), |a, b| u64::from(a == b)),
        ValueOp::CmpNe => map2(&v(0), &v(1), |a, b| u64::from(a != b)),
        ValueOp::Select => {
            let (c, a, b) = (v(0), v(1), v(2));
            std::array::from_fn(|lane| if c[lane] != 0 { a[lane] } else { b[lane] })
        }
        ValueOp::Hash => map1(&fold(srcs, fetch, 0, |a, b| a ^ b), splitmix64),
    }
}

/// The synthetic content of memory at `addr`.
fn loaded(addr: u64) -> u64 {
    splitmix64(addr ^ MEMORY_SEED)
}

/// Bit `lane` set where `v[lane] == 0`.
fn zero_lanes(v: &Lanes) -> u32 {
    v.iter().enumerate().fold(0, |m, (lane, &x)| m | (u32::from(x == 0) << lane))
}

/// A value across the lanes of a warp, its lane vector kept as a `V`: `()`
/// for a register's shape (the vector then lives in [`WarpMachine::regs`]),
/// `&Lanes` for an operand being read, `Lanes` for a fresh result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value<V> {
    /// `base + stride·lane`, wrapping; stride 0 is a warp-uniform value.
    Affine { base: u64, stride: u64 },
    /// Any 32 values.
    Vector(V),
}

impl<V> Value<V> {
    fn uniform(base: u64) -> Self {
        Value::Affine { base, stride: 0 }
    }
}

impl Value<&Lanes> {
    /// The value in every lane.
    fn lanes(self) -> Lanes {
        match self {
            Value::Affine { base, stride } => ramp(base, stride),
            Value::Vector(v) => *v,
        }
    }
}

/// The registers a trace can observe, as a bit set: those that feed a
/// memory instruction's address operand or a conditional branch's
/// condition, closed under "a writer of an observed register observes its
/// register sources". The closure ignores control flow and masks — a
/// register is observed everywhere or nowhere — so it stays sound when a
/// register is rewritten under a partial mask or reused for data in one
/// place and an address in another: every writer of an observed register
/// computes, whichever write a reader ends up seeing.
fn observed_registers(kernel: &Kernel) -> u64 {
    const { assert!(NUM_REGS <= u64::BITS as usize) };
    let bit = |op: &Operand| match op {
        Operand::Reg(Reg(r)) => 1u64 << r,
        _ => 0,
    };
    let mut observed = 0u64;
    for inst in &kernel.insts {
        let reads_first = inst.kind.is_mem()
            || (inst.kind == InstKind::Branch && inst.cond != BranchCond::Always);
        if reads_first {
            observed |= inst.srcs.first().map_or(0, bit);
        }
    }
    loop {
        let before = observed;
        for inst in &kernel.insts {
            if inst.dst.is_some_and(|Reg(d)| observed >> d & 1 != 0) {
                observed |= inst.srcs.iter().fold(0, |set, s| set | bit(s));
            }
        }
        if observed == before {
            return observed;
        }
    }
}

/// Functional state of one warp. One machine serves every warp of a launch
/// in turn ([`WarpMachine::run`] resets it), so the 16 KiB register file
/// and the reconvergence stack are allocated once per kernel.
struct WarpMachine<'k> {
    kernel: &'k Kernel,
    analysis: &'k KernelAnalysis,
    cancel: &'k CancelToken,
    launch: LaunchConfig,
    /// [`observed_registers`] of `kernel`; writes to any other register are
    /// not computed.
    observed: u64,
    /// What each register holds.
    shapes: [Value<()>; NUM_REGS],
    /// `regs[reg][lane]`, meaningful while `shapes[reg]` is a vector.
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
            observed: observed_registers(kernel),
            shapes: [Value::uniform(0); NUM_REGS],
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
        self.shapes = [Value::uniform(0); NUM_REGS];
        self.stack.clear();
        self.stack.push(Frame { pc: 0, mask: FULL_MASK, reconv: NO_RECONV });
        self.last_writer = [None; NUM_REGS];
        self.tid_base = self.launch.global_tid(warp, 0);
        self.tid_in_block_base = (warp_in_block * WARP_SIZE) as u64;
        self.warp_in_block = warp_in_block as u64;
        self.block = self.launch.block_of_warp(warp).index() as u64;
    }

    /// What `op` holds across the warp.
    fn value(&self, op: Operand) -> Value<&Lanes> {
        match op {
            Operand::Reg(Reg(r)) => match self.shapes[r as usize] {
                Value::Affine { base, stride } => Value::Affine { base, stride },
                Value::Vector(()) => Value::Vector(&self.regs[r as usize]),
            },
            Operand::Imm(v) => Value::uniform(v),
            Operand::Tid => Value::Affine { base: self.tid_base, stride: 1 },
            Operand::Lane => Value::Affine { base: 0, stride: 1 },
            Operand::WarpInBlock => Value::uniform(self.warp_in_block),
            Operand::Block => Value::uniform(self.block),
            Operand::TidInBlock => Value::Affine { base: self.tid_in_block_base, stride: 1 },
            Operand::Param(i) => Value::uniform(self.kernel.params[i as usize]),
        }
    }

    /// `(base, stride)` of `op` unless it holds a vector.
    fn affine(&self, op: Operand) -> Option<(u64, u64)> {
        match self.value(op) {
            Value::Affine { base, stride } => Some((base, stride)),
            Value::Vector(_) => None,
        }
    }

    /// The value of `op` if it is the same in every lane.
    fn uniform(&self, op: Operand) -> Option<u64> {
        match self.value(op) {
            Value::Affine { base, stride: 0 } => Some(base),
            _ => None,
        }
    }

    /// `op` over `srcs` as `(base, stride)` without touching a lane, when
    /// the operands allow it: the affine form is closed under moves, sums,
    /// differences, products with at most one non-uniform factor and shifts
    /// by a uniform count (all exact modulo 2^64), and any operation over
    /// uniform operands is one evaluation.
    fn closed_form(&self, op: ValueOp, srcs: &[Operand]) -> Option<(u64, u64)> {
        match op {
            ValueOp::Mov if !srcs.is_empty() => self.affine(srcs[0]),
            ValueOp::Add => srcs.iter().try_fold((0u64, 0u64), |(base, stride), &s| {
                let (b, st) = self.affine(s)?;
                Some((base.wrapping_add(b), stride.wrapping_add(st)))
            }),
            ValueOp::Sub => {
                let (a, b) = (self.affine(srcs[0])?, self.affine(srcs[1])?);
                Some((a.0.wrapping_sub(b.0), a.1.wrapping_sub(b.1)))
            }
            ValueOp::Mul => srcs.iter().try_fold((1u64, 0u64), |(base, stride), &s| {
                let (b, st) = self.affine(s)?;
                // (base + stride·l)(b + st·l) has an l² term unless one
                // stride is zero.
                let stride = match (stride, st) {
                    (0, _) => base.wrapping_mul(st),
                    (_, 0) => stride.wrapping_mul(b),
                    _ => return None,
                };
                Some((base.wrapping_mul(b), stride))
            }),
            ValueOp::Shl => {
                let ((base, stride), count) = (self.affine(srcs[0])?, self.uniform(srcs[1])? & 63);
                Some((base << count, stride << count))
            }
            _ => {
                if srcs.iter().any(|&s| self.uniform(s).is_none()) {
                    return None;
                }
                let [v] = eval(op, srcs, |s| [self.uniform(s).unwrap_or_default()]);
                Some((v, 0))
            }
        }
    }

    /// `op` over `srcs`: in closed form when the operands allow it,
    /// otherwise over their lane vectors.
    fn compute(&self, op: ValueOp, srcs: &[Operand]) -> Value<Lanes> {
        match self.closed_form(op, srcs) {
            Some((base, stride)) => Value::Affine { base, stride },
            None => Value::Vector(eval(op, srcs, |s| self.value(s).lanes())),
        }
    }

    /// Writes `val` to register `dst` in the lanes of `mask`; the other
    /// lanes keep their value.
    fn write_back(&mut self, dst: u8, val: &Value<Lanes>, mask: u32) {
        let (shape, reg) = (&mut self.shapes[dst as usize], &mut self.regs[dst as usize]);
        let ramped;
        let new: &Lanes = match val {
            &Value::Affine { base, stride } => {
                let new = Value::Affine { base, stride };
                // Nothing to blend under a full mask, or when the other
                // lanes already hold this very value.
                if mask == FULL_MASK || *shape == new {
                    *shape = new;
                    return;
                }
                ramped = ramp(base, stride);
                &ramped
            }
            Value::Vector(v) => v,
        };
        if mask == FULL_MASK {
            *reg = *new;
        } else {
            if let Value::Affine { base, stride } = *shape {
                *reg = ramp(base, stride);
            }
            for (lane, (r, &v)) in reg.iter_mut().zip(new).enumerate() {
                if mask & (1 << lane) != 0 {
                    *r = v;
                }
            }
        }
        *shape = Value::Vector(());
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

            let n_deps = self.collect_deps(&inst.srcs, &mut deps);
            let deps = &deps[..n_deps];
            // Memory instructions: srcs[0] is the address in every lane,
            // and the active lanes' addresses go straight into the row.
            let addr = inst.kind.is_mem().then(|| self.value(inst.srcs[0]));
            match addr {
                None => trace.push(top.pc, inst.kind, mask, deps, &[]),
                Some(Value::Affine { base, stride }) => {
                    stats.affine_addr_insts += 1;
                    trace.push_affine(top.pc, inst.kind, mask, deps, base, stride)
                }
                Some(Value::Vector(v)) => {
                    trace.push_mem(top.pc, inst.kind, mask, deps, |lane| v[lane])
                }
            }
            .map_err(|_| broken(top.pc, "dynamic instruction exceeds the trace row layout"))?;
            #[cfg(debug_assertions)]
            if let Some(row) = trace.insts.last().filter(|row| row.kind.is_mem()) {
                let addrs = trace.addrs(row);
                // Cross-check: the observed line count must respect the
                // analyzer's per-warp coalescing bound.
                if let Some(Some(access)) = self.analysis.coalescing.get(top.pc as usize) {
                    let lines = distinct_lines(addrs);
                    debug_assert!(
                        lines <= access.max_requests,
                        "pc {}: warp touched {lines} lines, static bound is {} ({:?})",
                        top.pc,
                        access.max_requests,
                        access.class,
                    );
                }
            }

            match inst.kind {
                InstKind::Branch => {
                    let taken = match inst.cond {
                        BranchCond::Always => mask,
                        sense => {
                            // A uniform condition is one compare.
                            let zero = match self.value(inst.srcs[0]) {
                                Value::Affine { base, stride: 0 } => {
                                    if base == 0 { FULL_MASK } else { 0 }
                                }
                                cond => zero_lanes(&cond.lanes()),
                            };
                            mask & if sense == BranchCond::IfZero { zero } else { !zero }
                        }
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
                        if self.observed >> dst & 1 == 0 {
                            stats.unobserved_insts += 1;
                        } else {
                            let val = match (addr, inst.kind) {
                                // A load from one address loads one value.
                                (Some(Value::Affine { base, stride: 0 }), InstKind::Load(_)) => {
                                    Value::uniform(loaded(base))
                                }
                                (Some(addr), InstKind::Load(_)) => {
                                    Value::Vector(map1(&addr.lanes(), loaded))
                                }
                                _ => self.compute(inst.op, &inst.srcs),
                            };
                            match val {
                                Value::Affine { .. } => stats.scalar_insts += 1,
                                Value::Vector(_) => stats.vector_insts += 1,
                            }
                            self.write_back(dst, &val, mask);
                        }
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

/// Tallies from one warp's functional execution, aggregated per kernel
/// before being emitted as `trace.engine.*` counters (so the hot loop only
/// bumps plain integers). Every register-writing instruction is counted in
/// exactly one of `unobserved_insts`, `scalar_insts` and `vector_insts`.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    /// Conditional branches where active lanes split both ways.
    divergent_branches: u64,
    /// Branch executions where every active lane agreed.
    uniform_branches: u64,
    /// Instructions whose destination no address or branch can observe:
    /// recorded, not computed.
    unobserved_insts: u64,
    /// Instructions computed without touching a lane (affine or uniform).
    scalar_insts: u64,
    /// Instructions computed over 32-lane vectors.
    vector_insts: u64,
    /// Memory instructions whose address was `base + stride·lane`.
    affine_addr_insts: u64,
}

impl RunStats {
    fn absorb(&mut self, other: RunStats) {
        self.divergent_branches += other.divergent_branches;
        self.uniform_branches += other.uniform_branches;
        self.unobserved_insts += other.unobserved_insts;
        self.scalar_insts += other.scalar_insts;
        self.vector_insts += other.vector_insts;
        self.affine_addr_insts += other.affine_addr_insts;
    }

    /// Emits the tallies, once per traced kernel (or lone warp).
    fn emit(&self) {
        gpumech_obs::counter!("trace.engine.divergent_branches", self.divergent_branches);
        gpumech_obs::counter!("trace.engine.uniform_branches", self.uniform_branches);
        gpumech_obs::counter!("trace.engine.unobserved_insts", self.unobserved_insts);
        gpumech_obs::counter!("trace.engine.scalar_insts", self.scalar_insts);
        gpumech_obs::counter!("trace.engine.vector_insts", self.vector_insts);
        gpumech_obs::counter!("trace.engine.affine_addr_insts", self.affine_addr_insts);
    }
}

/// The distinct `key`s of an engine row's addresses (at most one per
/// lane), sorted, in a stack buffer: the cross-check below allocates
/// nothing, so a debug build's tracing allocates what a release build's
/// does.
#[cfg(debug_assertions)]
fn distinct_sorted<T: Copy + Default + Ord>(
    addrs: Addrs<'_>,
    key: impl Fn(u64) -> T,
) -> ([T; WARP_SIZE], usize) {
    let mut keys = [T::default(); WARP_SIZE];
    let n = keys.iter_mut().zip(addrs.iter()).map(|(k, a)| *k = key(a)).count();
    keys[..n].sort_unstable();
    let mut distinct = 0;
    for i in 0..n {
        if distinct == 0 || keys[i] != keys[distinct - 1] {
            keys[distinct] = keys[i];
            distinct += 1;
        }
    }
    (keys, distinct)
}

#[cfg(debug_assertions)]
fn distinct_lines(addrs: Addrs<'_>) -> u32 {
    distinct_sorted(addrs, |a| a >> LINE_SHIFT).1 as u32
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
    stats.emit();
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
    stats.emit();
    Ok(KernelTrace { name: kernel.name.clone(), launch, warps })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::record::Addrs;
    use gpumech_isa::{AddrPattern, KernelBuilder, MemSpace};

    fn launch1() -> LaunchConfig {
        LaunchConfig::new(32, 1)
    }

    /// Seeded registers of the differential test, as plain lane vectors:
    /// what the per-lane reference reads.
    type Mirror = [Lanes; SEEDED_REGS];
    const SEEDED_REGS: usize = 13;

    /// The per-lane interpreter the warp-wide engine replaced, kept as the
    /// reference the differential test below compares against. Registers
    /// come from `regs`, never from the machine's shapes.
    fn scalar_operand(
        m: &WarpMachine<'_>,
        regs: &Mirror,
        warp: WarpId,
        op: Operand,
        lane: usize,
    ) -> u64 {
        match op {
            Operand::Reg(Reg(r)) => regs[r as usize][lane],
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
        regs: &Mirror,
        warp: WarpId,
        op: ValueOp,
        srcs: &[Operand],
        lane: usize,
    ) -> u64 {
        let v = |i: usize| scalar_operand(m, regs, warp, srcs[i], lane);
        let fold = |f: fn(u64, u64) -> u64, init: u64| {
            srcs.iter().map(|&s| scalar_operand(m, regs, warp, s, lane)).fold(init, f)
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

    /// The meaning of a value, lane by lane, written out independently of
    /// the engine's own `ramp`.
    fn lanes_of(val: &Value<Lanes>) -> Lanes {
        match *val {
            Value::Affine { base, stride } => {
                std::array::from_fn(|l| base.wrapping_add(stride.wrapping_mul(l as u64)))
            }
            Value::Vector(v) => v,
        }
    }

    /// Puts `val` into register `reg` of the machine in its own shape.
    fn set_register(m: &mut WarpMachine<'_>, reg: usize, val: &Value<Lanes>) {
        match *val {
            Value::Affine { base, stride } => m.shapes[reg] = Value::Affine { base, stride },
            Value::Vector(v) => {
                m.shapes[reg] = Value::Vector(());
                m.regs[reg] = v;
            }
        }
    }

    /// Seeds registers `0..SEEDED_REGS` in all three shapes and returns
    /// them as plain lanes. Vectors: noise, zeros in the odd lanes, shift
    /// counts of 64 and more, small values. Uniform: zero (a zero divisor in
    /// every lane), all ones, a shift count of 64 or more, noise. Affine:
    /// strides 1, 4, 128 and `u64::MAX`, and a base that wraps within the
    /// warp.
    fn seed_registers(m: &mut WarpMachine<'_>, seed: u64) -> Mirror {
        let mut r = seed;
        let mut next = || {
            r = splitmix64(r);
            r
        };
        let mut vector = |f: fn(usize, u64) -> u64| -> Value<Lanes> {
            Value::Vector(std::array::from_fn(|lane| f(lane, next())))
        };
        let seeded: [Value<Lanes>; SEEDED_REGS] = [
            vector(|_, noise| noise),
            Value::uniform(0),
            vector(|lane, noise| if lane % 2 == 1 { 0 } else { noise }),
            vector(|_, noise| 64 + noise % 200),
            Value::uniform(u64::MAX),
            vector(|_, noise| noise % 7),
            Value::Affine { base: splitmix64(seed ^ 6), stride: 1 },
            Value::Affine { base: splitmix64(seed ^ 7) >> 20, stride: 4 },
            Value::Affine { base: 0x1000_0000 + (seed << 12), stride: 128 },
            Value::Affine { base: splitmix64(seed ^ 9) >> 1, stride: u64::MAX },
            Value::uniform(64 + splitmix64(seed ^ 10) % 200),
            Value::uniform(splitmix64(seed ^ 11)),
            Value::Affine { base: u64::MAX - 9 - seed, stride: 3 },
        ];
        for (reg, val) in seeded.iter().enumerate() {
            set_register(m, reg, val);
        }
        seeded.map(|val| lanes_of(&val))
    }

    /// One operand of kind `kind` (0..8), its payload drawn from `r`.
    fn operand_of_kind(kind: u64, r: u64) -> Operand {
        match kind {
            0 => Operand::Reg(Reg((r % SEEDED_REGS as u64) as u8)),
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

    /// Differential test of the value path — closed forms and lane vectors
    /// alike — against the per-lane reference: every `ValueOp` with every
    /// `Operand` kind in every source position, over warps and register
    /// files seeded in all three shapes, written back under full, partial,
    /// single-lane and high-lanes-only masks onto uniform, affine and
    /// vector destinations. Inactive lanes must keep their previous value.
    #[test]
    fn warp_wide_evaluation_matches_the_per_lane_reference() {
        let mut b = KernelBuilder::new("k");
        let _ = b.alu(ValueOp::Add, &[Operand::Tid]);
        let k = b.finish(vec![0, 3, u64::MAX - 5]);
        let analysis = gpumech_analyze::analyze(&k);
        let cancel = CancelToken::never();
        let launch = LaunchConfig::new(128, 7);
        let mut m = WarpMachine::new(&k, &analysis, &cancel, launch);
        const DST: usize = 20;
        let (mut cases, mut closed, mut vector, mut kept_affine) = (0usize, 0usize, 0usize, 0usize);

        let r = |n: u8| Operand::Reg(Reg(n));
        // Cases the seeded fan may miss, by register (see `seed_registers`):
        // products of two affine values and of one with uniform factors,
        // shifts by uniform and per-lane counts of 64 and more, division by
        // a uniform zero of uniform, affine and vector dividends, a
        // difference that wraps.
        let pinned: Vec<(ValueOp, Vec<Operand>)> = vec![
            (ValueOp::Mul, vec![r(7), r(8)]),
            (ValueOp::Mul, vec![r(6), Operand::Tid]),
            (ValueOp::Mul, vec![r(11), r(7), Operand::Imm(3)]),
            (ValueOp::Mul, vec![r(4), r(9), r(10)]),
            (ValueOp::Shl, vec![r(7), Operand::Imm(64)]),
            (ValueOp::Shl, vec![r(8), Operand::Imm(200)]),
            (ValueOp::Shl, vec![r(9), r(10)]),
            (ValueOp::Shl, vec![r(6), r(3)]),
            (ValueOp::Shr, vec![r(7), r(10)]),
            (ValueOp::Div, vec![r(11), r(1)]),
            (ValueOp::Rem, vec![r(11), r(1)]),
            (ValueOp::Div, vec![r(8), r(1)]),
            (ValueOp::Rem, vec![r(0), r(1)]),
            (ValueOp::Div, vec![r(4), Operand::Imm(0)]),
            (ValueOp::Sub, vec![r(12), r(9)]),
            (ValueOp::Add, vec![r(12), r(12), r(9)]),
            (ValueOp::Mov, vec![r(9)]),
        ];

        for seed in 0..6u64 {
            let warp = WarpId::new((splitmix64(seed) % launch.total_warps() as u64) as u32);
            m.begin(warp);
            let regs = seed_registers(&mut m, seed);
            let r0 = splitmix64(seed ^ 0xD1FF);
            let masks = [
                FULL_MASK,
                (r0 as u32) | 1,                                 // seeded partial
                1 << ((r0 >> 32) % 32),                          // single lane
                0x8000_0000,                                     // the highest lane alone
                ((r0 >> 16) as u32 & 0xFFFF_0000) | 0x0001_0000, // high lanes only
            ];
            let mut fan = pinned.clone();
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
                            let r = splitmix64(r0 ^ (fan.len() as u64));
                            let srcs: Vec<Operand> = (0..arity)
                                .map(|p| {
                                    let rp = splitmix64(r ^ p as u64);
                                    operand_of_kind(if p == pos { kind } else { rp >> 8 & 7 }, rp)
                                })
                                .collect();
                            fan.push((op, srcs));
                        }
                    }
                }
            }

            for (case, (op, srcs)) in fan.iter().enumerate() {
                let val = m.compute(*op, srcs);
                match val {
                    Value::Affine { .. } => closed += 1,
                    Value::Vector(_) => vector += 1,
                }
                let got = lanes_of(&val);
                for (lane, &v) in got.iter().enumerate() {
                    assert_eq!(
                        v,
                        scalar_eval(&m, &regs, warp, *op, srcs, lane),
                        "seed {seed} {op:?} {srcs:?} lane {lane} ({val:?})"
                    );
                }
                let r = splitmix64(r0 ^ case as u64);
                // The destination before the write, one shape per case in
                // turn; now and then it already holds the result.
                let before: Value<Lanes> = match case % 4 {
                    0 => Value::uniform(r),
                    1 => Value::Affine { base: r, stride: [1, 4, u64::MAX][case / 4 % 3] },
                    2 => Value::Vector(std::array::from_fn(|l| splitmix64(r ^ l as u64))),
                    _ => val,
                };
                let old = lanes_of(&before);
                for mask in masks {
                    set_register(&mut m, DST, &before);
                    m.write_back(DST as u8, &val, mask);
                    let now = m.value(Operand::Reg(Reg(DST as u8))).lanes();
                    for (lane, &v) in now.iter().enumerate() {
                        let want = if mask & (1 << lane) != 0 { got[lane] } else { old[lane] };
                        assert_eq!(
                            v, want,
                            "seed {seed} {op:?} {srcs:?} onto {before:?} mask {mask:#x} lane {lane}"
                        );
                    }
                    // An affine register survives only a write of an affine
                    // value under a full mask or onto itself.
                    if let Value::Affine { .. } = m.shapes[DST] {
                        assert!(matches!(val, Value::Affine { .. }));
                        assert!(mask == FULL_MASK || before == val, "blend left {before:?} affine");
                        kept_affine += usize::from(mask != FULL_MASK);
                    }
                }
                // The mask helper behind branches, against its definition.
                let zeros = zero_lanes(&got);
                for (lane, &v) in got.iter().enumerate() {
                    assert_eq!(zeros >> lane & 1 == 1, v == 0, "zero_lanes lane {lane}");
                }
                cases += 1;
            }
        }
        assert!(cases >= 2000, "the case fan shrank to {cases}");
        assert!(closed >= 500 && vector >= 500, "one path starved: {closed} closed, {vector} vector");
        assert!(kept_affine >= 100, "partial writes of a held value were not exercised");
    }

    /// Traces every warp of a launch, on the product machine or on one
    /// that observes every register (the slice switched off).
    fn trace_all(
        kernel: &Kernel,
        launch: LaunchConfig,
        observe_everything: bool,
    ) -> (Vec<WarpTrace>, RunStats) {
        let analysis = pre_trace_analysis(kernel).unwrap();
        let cancel = CancelToken::never();
        let mut m = WarpMachine::new(kernel, &analysis, &cancel, launch);
        if observe_everything {
            m.observed = u64::MAX;
        }
        let mut stats = RunStats::default();
        let warps = launch
            .warps()
            .map(|w| {
                let (trace, s) = m.run(w, None).unwrap();
                stats.absorb(s);
                trace
            })
            .collect();
        (warps, stats)
    }

    /// A seeded kernel built to stress the observed-register slice: a small
    /// pool of registers is rewritten again and again — as data, as
    /// addresses, as branch conditions — through `Select`, `Hash`, loads
    /// whose value becomes the next address, and writes under divergent
    /// masks inside nested `if`s and lane-dependent loops.
    fn generated_kernel(seed: u64) -> Kernel {
        struct Gen {
            b: KernelBuilder,
            r: u64,
            /// Long-lived registers every statement may read and rewrite.
            pool: Vec<Reg>,
            /// Scratch registers for intermediate values, used in turn.
            temps: Vec<Reg>,
            /// Loads left: each takes a fresh register from the builder.
            loads: u32,
        }
        impl Gen {
            fn next(&mut self) -> u64 {
                self.r = splitmix64(self.r);
                self.r
            }
            fn reg(&mut self) -> Reg {
                let n = self.next();
                self.pool[(n % self.pool.len() as u64) as usize]
            }
            fn temp(&mut self) -> Reg {
                self.temps.rotate_left(1);
                self.temps[0]
            }
            fn operand(&mut self) -> Operand {
                match self.next() % 8 {
                    0 => Operand::Tid,
                    1 => Operand::Lane,
                    2 => Operand::Imm(self.next() % 64),
                    3 => Operand::Block,
                    _ => Operand::Reg(self.reg()),
                }
            }
            /// A global address derived from a pool register.
            fn address(&mut self) -> Operand {
                let (from, off, addr) = (Operand::Reg(self.reg()), self.temp(), self.temp());
                let base = 0x1000_0000 * (1 + self.next() % 4);
                match self.next() % 3 {
                    // Keeps an affine value affine, a uniform one uniform.
                    0 => self.b.alu_into(off, ValueOp::Shl, &[from, Operand::Imm(2)]),
                    1 => self.b.alu_into(off, ValueOp::Mul, &[from, Operand::Imm(128)]),
                    _ => self.b.alu_into(off, ValueOp::And, &[from, Operand::Imm(0xF_FFFC)]),
                }
                self.b.alu_into(addr, ValueOp::Add, &[Operand::Reg(off), Operand::Imm(base)]);
                Operand::Reg(addr)
            }
            /// A condition on which lanes usually disagree.
            fn condition(&mut self) -> Operand {
                let (from, h, c) = (self.operand(), self.temp(), self.temp());
                let salt = self.next() % 5;
                self.b.alu_into(h, ValueOp::Add, &[from, Operand::Lane, Operand::Imm(salt)]);
                self.b.alu_into(c, ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(2 + salt)]);
                Operand::Reg(c)
            }
            fn statements(&mut self, n: u64, depth: u32) {
                for _ in 0..n {
                    let dst = self.reg();
                    match self.next() % 10 {
                        0 | 1 => {
                            let op = [ValueOp::Add, ValueOp::Sub, ValueOp::Mul, ValueOp::Xor]
                                [(self.next() % 4) as usize];
                            let srcs = [self.operand(), self.operand()];
                            self.b.alu_into(dst, op, &srcs);
                        }
                        2 => {
                            let srcs = [self.operand(), self.operand(), self.operand()];
                            self.b.alu_into(dst, ValueOp::Select, &srcs);
                        }
                        3 => {
                            let srcs = [self.operand(), Operand::Imm(self.next())];
                            self.b.alu_into(dst, ValueOp::Hash, &srcs);
                        }
                        // A load into the pool: its value may be the next
                        // address (pointer chase), a condition, or data.
                        4 | 5 if self.loads > 0 => {
                            self.loads -= 1;
                            let addr = self.address();
                            let x = self.b.load(MemSpace::Global, addr);
                            self.b.alu_into(dst, ValueOp::Mov, &[Operand::Reg(x)]);
                        }
                        6 => {
                            let (addr, data) = (self.address(), self.operand());
                            self.b.store(MemSpace::Global, addr, data);
                        }
                        // An FMA chain: data only, unless the pool register
                        // it lands in later feeds an address.
                        7 => {
                            let srcs = [self.operand(), self.operand(), self.operand()];
                            let (x, y) = (self.temp(), self.temp());
                            self.b.compute_into(x, InstKind::FpFma, ValueOp::Add, &srcs);
                            let srcs = [Operand::Reg(x), Operand::Reg(x), srcs[0]];
                            self.b.compute_into(y, InstKind::FpFma, ValueOp::Add, &srcs);
                            self.b.compute_into(dst, InstKind::FpAdd, ValueOp::Add, &[Operand::Reg(y)]);
                        }
                        8 if depth < 2 => {
                            let cond = self.condition();
                            self.b.if_begin(cond);
                            let n = 1 + self.next() % 3;
                            self.statements(n, depth + 1);
                            if self.next() & 1 == 0 {
                                self.b.if_else();
                                let n = 1 + self.next() % 3;
                                self.statements(n, depth + 1);
                            }
                            self.b.if_end();
                        }
                        9 if depth < 2 => {
                            // Do-while with a lane-dependent trip count of
                            // at most four; counter and bound are fresh
                            // registers so the loop always ends.
                            let from = self.operand();
                            let trip = self.b.alu(ValueOp::Rem, &[from, Operand::Imm(4)]);
                            let i = self.b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
                            self.b.loop_begin();
                            let n = 1 + self.next() % 3;
                            self.statements(n, depth + 1);
                            self.b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
                            let c = self.temp();
                            self.b.alu_into(c, ValueOp::CmpLt, &[Operand::Reg(i), Operand::Reg(trip)]);
                            self.b.loop_end_while(Operand::Reg(c));
                        }
                        _ => {
                            let src = self.operand();
                            self.b.alu_into(dst, ValueOp::Mov, &[src]);
                        }
                    }
                }
            }
        }
        let mut g = Gen {
            b: KernelBuilder::new(format!("generated_{seed}")),
            r: seed,
            pool: vec![],
            temps: vec![],
            loads: 12,
        };
        // Every pool register is written before anything reads it, in one
        // of each shape.
        for init in [
            (ValueOp::Mul, vec![Operand::Tid, Operand::Imm(4)]),
            (ValueOp::Mov, vec![Operand::Imm(seed)]),
            (ValueOp::Hash, vec![Operand::Tid, Operand::Imm(seed)]),
            (ValueOp::Add, vec![Operand::Lane, Operand::Block]),
            (ValueOp::Mov, vec![Operand::WarpInBlock]),
        ] {
            let reg = g.b.alu(init.0, &init.1);
            g.pool.push(reg);
        }
        g.temps = (0..6).map(|_| g.b.alu(ValueOp::Mov, &[Operand::Imm(0)])).collect();
        let n = 8 + g.next() % 8;
        g.statements(n, 0);
        g.b.finish(vec![])
    }

    /// The slice is unobservable: a machine that computes every register
    /// produces the same traces as the product machine, over the whole
    /// workload library and over a fan of generated kernels.
    #[test]
    fn the_observed_slice_does_not_change_any_trace() {
        for w in crate::workloads::all() {
            let w = w.with_blocks(2);
            let (sliced, _) = trace_all(&w.kernel, w.launch, false);
            let (full, stats) = trace_all(&w.kernel, w.launch, true);
            assert_eq!(sliced, full, "{}", w.name);
            assert_eq!(stats.unobserved_insts, 0, "{}: the reference skipped a write", w.name);
        }

        let launch = LaunchConfig::new(64, 3);
        let mut totals = RunStats::default();
        for seed in 0..64u64 {
            let k = generated_kernel(seed);
            let (sliced, stats) = trace_all(&k, launch, false);
            let (full, _) = trace_all(&k, launch, true);
            assert_eq!(sliced, full, "generated kernel {seed}");
            totals.absorb(stats);
        }
        // The fan reaches every path it is meant to.
        for (what, n) in [
            ("unobserved writes", totals.unobserved_insts),
            ("closed-form writes", totals.scalar_insts),
            ("vector writes", totals.vector_insts),
            ("affine addresses", totals.affine_addr_insts),
            ("divergent branches", totals.divergent_branches),
            ("uniform branches", totals.uniform_branches),
        ] {
            assert!(n >= 100, "the generated kernels executed only {n} {what}");
        }
    }

    #[test]
    fn observed_registers_are_those_that_reach_an_address_or_a_condition() {
        let observed = |k: &Kernel, Reg(r): Reg| observed_registers(k) >> r & 1 != 0;

        // Store data and the FMA chain behind it are never observed; the
        // address arithmetic is.
        let mut b = KernelBuilder::new("k");
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let addr = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Imm(0x1000)]);
        let x = b.load(MemSpace::Global, Operand::Reg(addr));
        let y = b.fp_fma(&[Operand::Reg(x), Operand::Reg(x), Operand::Imm(1)]);
        let z = b.fp_fma(&[Operand::Reg(y), Operand::Reg(x), Operand::Imm(2)]);
        b.store(MemSpace::Global, Operand::Reg(addr), Operand::Reg(z));
        let k = b.finish(vec![]);
        assert!(observed(&k, off) && observed(&k, addr));
        assert!(!observed(&k, x) && !observed(&k, y) && !observed(&k, z));

        // A pointer chase: the loaded value is the next address, so the
        // load's destination and everything behind its address is observed.
        let mut b = KernelBuilder::new("k");
        let p = b.alu(ValueOp::Mul, &[Operand::Lane, Operand::Imm(8)]);
        let next = b.load(MemSpace::Global, Operand::Reg(p));
        let masked = b.alu(ValueOp::And, &[Operand::Reg(next), Operand::Imm(0xFFF8)]);
        let data = b.load(MemSpace::Shared, Operand::Reg(masked));
        let k = b.finish(vec![]);
        assert!(observed(&k, p) && observed(&k, next) && observed(&k, masked));
        assert!(!observed(&k, data));

        // A conditional branch observes its condition, through a `Select`
        // to all three of its sources; the unconditional jump over the
        // else arm observes nothing.
        let mut b = KernelBuilder::new("k");
        let a = b.alu(ValueOp::Rem, &[Operand::Lane, Operand::Imm(2)]);
        let c = b.alu(ValueOp::Hash, &[Operand::Tid]);
        let d = b.alu(ValueOp::Mov, &[Operand::Imm(1)]);
        let cond = b.alu(ValueOp::Select, &[Operand::Reg(a), Operand::Reg(c), Operand::Reg(d)]);
        let unused = b.alu(ValueOp::Add, &[Operand::Reg(cond), Operand::Imm(1)]);
        b.if_begin(Operand::Reg(cond));
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_else();
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(2)]);
        b.if_end();
        let k = b.finish(vec![]);
        assert!([a, c, d, cond].iter().all(|&r| observed(&k, r)));
        assert!(!observed(&k, unused));
        assert_eq!(observed_registers(&k).count_ones(), 4);

        let mut b = KernelBuilder::new("k");
        let x = b.alu(ValueOp::Add, &[Operand::Tid]);
        b.if_begin(Operand::Imm(1));
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(x)]);
        b.if_else();
        b.if_end();
        let k = b.finish(vec![]);
        assert!(k.insts.iter().any(|i| i.kind == InstKind::Branch && i.cond == BranchCond::Always));
        assert_eq!(observed_registers(&k), 0, "no register feeds an address or a condition");
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
        let load_addrs = t.addrs(load).to_vec();
        assert_eq!(load_addrs.len(), 32);
        // Warp 3 covers tids 96..128 → addresses 0x1000 + 4*tid.
        assert_eq!(load_addrs[0], 0x1000 + 4 * 96);
        assert_eq!(load_addrs[31], 0x1000 + 4 * 127);

        let store = t.insts.iter().find(|i| i.kind == InstKind::Store(MemSpace::Global)).unwrap();
        let store_addrs = t.addrs(store).to_vec();
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

    /// Loaded values in every shape, followed into the addresses they
    /// become: a uniform address loads one value, an affine or scattered
    /// one loads a value per lane, and a partial mask records only its
    /// lanes' addresses.
    #[test]
    fn loaded_values_reach_later_addresses_in_every_shape() {
        let content = |addr: u64| splitmix64(addr ^ MEMORY_SEED);
        let mut b = KernelBuilder::new("k");
        let x = b.load(MemSpace::Global, Operand::Imm(0x42));
        let a = b.alu(ValueOp::And, &[Operand::Reg(x), Operand::Imm(0xFFF8)]);
        let _ = b.load(MemSpace::Global, Operand::Reg(a)); // row 2: uniform address
        let p = b.alu(ValueOp::Mul, &[Operand::Lane, Operand::Imm(8)]);
        let z = b.load(MemSpace::Global, Operand::Reg(p)); // row 4: affine address
        let q = b.alu(ValueOp::And, &[Operand::Reg(z), Operand::Imm(0xFFF8)]);
        let _ = b.load(MemSpace::Global, Operand::Reg(q)); // row 6: scattered address
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        let _ = b.load(MemSpace::Global, Operand::Reg(p)); // affine, lanes 0..8
        let _ = b.load(MemSpace::Global, Operand::Reg(q)); // scattered, lanes 0..8
        b.if_end();
        let k = b.finish(vec![]);
        let t = trace_warp(&k, launch1(), WarpId::new(0)).unwrap();

        assert_eq!(t.addrs(&t.insts[2]).to_vec(), [content(0x42) & 0xFFF8; WARP_SIZE]);
        let affine: Vec<u64> = (0..WARP_SIZE as u64).map(|l| 8 * l).collect();
        assert_eq!(t.addrs(&t.insts[4]).to_vec(), affine);
        let scattered: Vec<u64> = affine.iter().map(|&a| content(a) & 0xFFF8).collect();
        assert_eq!(t.addrs(&t.insts[6]).to_vec(), scattered);
        let masked: Vec<_> = t.insts.iter().filter(|i| i.active_mask == 0xFF).collect();
        assert_eq!(masked.len(), 2);
        assert_eq!(t.addrs(masked[0]).to_vec(), affine[..8]);
        assert_eq!(t.addrs(masked[1]).to_vec(), scattered[..8]);
        // Affine and uniform addresses are stored as two words, a
        // scattered one lane by lane.
        for (row, affine_form) in [(2, true), (4, true), (6, false)] {
            let form = t.addrs(&t.insts[row]);
            assert_eq!(matches!(form, Addrs::Affine { .. }), affine_form, "row {row}: {form:?}");
        }
        assert!(matches!(t.addrs(masked[0]), Addrs::Affine { mask: 0xFF, .. }));
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
