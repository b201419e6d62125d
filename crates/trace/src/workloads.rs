//! The synthetic workload library.
//!
//! The paper evaluates 40 kernels from Rodinia 2.1, Parboil 2.5, and the
//! NVIDIA SDK. Those kernels (and the GPUOcelot toolchain that executed
//! them) are not available here, so this module provides 40 synthetic
//! analogues written in the kernel IR. Each analogue is *engineered to
//! reproduce the behaviour axis* that makes its namesake interesting to the
//! model — degree of memory divergence (coalesced / medium / maximal),
//! cache locality (L1-hot, L2-hot, streaming), write traffic, control
//! divergence (warp-correlated and lane-level), dependence distance, and
//! compute intensity — rather than its exact arithmetic. The mapping is
//! documented on each constructor.
//!
//! Workloads are deterministic: the same workload always produces the same
//! trace.

use gpumech_isa::{AddrPattern, Kernel, KernelBuilder, MemSpace, Operand, Reg, ValueOp};
use serde::{Deserialize, Serialize};

use crate::engine::{trace_kernel, TraceError};
use crate::launch::LaunchConfig;
use crate::record::KernelTrace;
#[cfg(test)]
use crate::record::WarpTrace;

/// Benchmark suite a workload's namesake belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// Rodinia 2.1.
    Rodinia,
    /// Parboil 2.5.
    Parboil,
    /// NVIDIA SDK samples.
    NvidiaSdk,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Rodinia => f.write_str("rodinia"),
            Suite::Parboil => f.write_str("parboil"),
            Suite::NvidiaSdk => f.write_str("sdk"),
        }
    }
}

/// Coarse memory-divergence class (requests per 32-lane memory instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DivergenceClass {
    /// ~1 request per warp memory instruction.
    Coalesced,
    /// Up to ~16 requests.
    Medium,
    /// Up to 32 requests.
    High,
}

/// A named kernel plus its launch geometry and behaviour tags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name (`suite_kernel` style, mirroring the paper).
    pub name: String,
    /// Originating suite of the namesake kernel.
    pub suite: Suite,
    /// Memory-divergence class the workload is engineered for.
    pub divergence: DivergenceClass,
    /// `true` if warps follow meaningfully different control-flow paths —
    /// the subset used for the representative-warp study (Figure 7).
    pub control_divergent: bool,
    /// The kernel body.
    pub kernel: Kernel,
    /// Launch geometry (paper: at least 3x system occupancy).
    pub launch: LaunchConfig,
    /// One-line description of the behaviour being mimicked.
    pub description: String,
}

impl Workload {
    /// Functionally executes the workload and returns its per-warp traces.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] from the functional simulator.
    pub fn trace(&self) -> Result<KernelTrace, TraceError> {
        trace_kernel(&self.kernel, self.launch)
    }

    /// [`Workload::trace`] under a [`gpumech_obs::CancelToken`] — aborts
    /// with [`TraceError::Interrupted`] once the token fires.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] from the functional simulator.
    pub fn trace_cancellable(
        &self,
        cancel: &gpumech_obs::CancelToken,
    ) -> Result<KernelTrace, TraceError> {
        crate::trace_kernel_cancellable(&self.kernel, self.launch, cancel)
    }

    /// Returns a copy with a different block count (used by fast tests and
    /// by sweeps that shrink the grid).
    #[must_use]
    pub fn with_blocks(mut self, num_blocks: usize) -> Self {
        self.launch = LaunchConfig::new(self.launch.threads_per_block, num_blocks);
        self
    }
}

/// Default grid: 256 threads (8 warps) per block, 192 blocks = 1536 warps —
/// 3x the occupancy of the Table I machine (16 cores x 32 warps), matching
/// the paper's "at least 3x system occupancy" requirement.
const DEFAULT_LAUNCH: (usize, usize) = (256, 192);

fn default_launch() -> LaunchConfig {
    LaunchConfig::new(DEFAULT_LAUNCH.0, DEFAULT_LAUNCH.1)
}

/// Distinct 4 GiB address region per array index, so workloads never alias.
fn region(idx: u64) -> u64 {
    (idx + 1) << 32
}

// ---------------------------------------------------------------------------
// Generator helpers
// ---------------------------------------------------------------------------

/// Emits `n` dependent FMAs rooted at `seed`, returning the chain head.
fn fma_chain(b: &mut KernelBuilder, seed: Reg, n: usize) -> Reg {
    let mut acc = seed;
    for _ in 0..n {
        acc = b.fp_fma(&[Operand::Reg(acc), Operand::Imm(3), Operand::Imm(1)]);
    }
    acc
}

/// Emits `n` *independent* FP adds all consuming `seed` (ILP, no chain).
fn independent_fp(b: &mut KernelBuilder, seed: Reg, n: usize) {
    for i in 0..n {
        let _ = b.fp_add(&[Operand::Reg(seed), Operand::Imm(i as u64)]);
    }
}

struct Gen;

impl Gen {
    /// Coalesced streaming: per loop trip, `loads` coalesced loads feed an
    /// FMA chain and `stores` coalesced stores. No reuse → every line is a
    /// cold L2 miss → DRAM-bound, perfectly coalesced (cfd_step_factor
    /// shape).
    fn streaming(name: &str, trips: u64, loads: usize, stores: usize, fma: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let elem = 4u64;
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(elem)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        // Per-trip address advance: the whole grid moves to a fresh chunk.
        let chunk = 64 * 1024 * 1024u64;
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(chunk)]);
        let mut last = None;
        for l in 0..loads {
            let base = region(l as u64);
            let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(base)]);
            let x = b.load(MemSpace::Global, Operand::Reg(a));
            last = Some(fma_chain(&mut b, x, fma));
        }
        let v = last.unwrap_or(off);
        for s in 0..stores {
            let base = region(16 + s as u64);
            let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(base)]);
            b.store(MemSpace::Global, Operand::Reg(a), Operand::Reg(v));
        }
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Strided accesses: each lane strides by `stride` bytes, producing
    /// `32*stride/128` clamped to `1..=32` requests per instruction
    /// (cfd_compute_flux and srad shapes). `region_bytes` bounds the
    /// footprint to tune L2 locality.
    fn strided(
        name: &str,
        trips: u64,
        stride: u64,
        region_bytes: u64,
        fma: usize,
        with_store: bool,
    ) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(stride)]);
        let wrapped = b.alu(ValueOp::Rem, &[Operand::Reg(off), Operand::Imm(region_bytes)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(stride * 67)]);
        let t2 = b.alu(ValueOp::Add, &[Operand::Reg(wrapped), Operand::Reg(t)]);
        let t3 = b.alu(ValueOp::Rem, &[Operand::Reg(t2), Operand::Imm(region_bytes)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(t3), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let v = fma_chain(&mut b, x, fma);
        if with_store {
            let sa = b.alu(ValueOp::Add, &[Operand::Reg(t3), Operand::Imm(region(1))]);
            b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(v));
        }
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Random gather within `region_bytes`: maximal (32-request) divergence;
    /// the region size controls the hit level (16 KiB → L1-hot, 256 KiB →
    /// L2-hot, 256 MiB → DRAM) (kmeans / streamcluster / bfs shapes).
    fn random_gather(name: &str, trips: u64, region_bytes: u64, fma: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let mix = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(0x9E37_79B9)]);
        let h = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(mix)]);
        let m = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(region_bytes)]);
        let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let _ = fma_chain(&mut b, x, fma);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// L1-hot divergent loads (with an occasional warp-uniform excursion to
    /// a DRAM-sized region) plus maximally divergent stores into a huge
    /// region: the kmeans_invert_mapping shape — loads mostly hit the L1
    /// (~90%, so MSHRs stay quiet), but the rare cold load queues behind
    /// the divergent write flood on the DRAM bus (the paper's Section VII
    /// analysis of this kernel).
    fn hot_loads_divergent_stores(
        name: &str,
        trips: u64,
        hot_bytes: u64,
        cold_every: u64,
    ) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let wid = b.alu(ValueOp::Div, &[Operand::Tid, Operand::Imm(32)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let x = b.fresh_reg();
        // Warp-uniform selector: every `cold_every`-th iteration (hashed per
        // warp) the whole warp gathers from a cold 1 GiB region instead of
        // the hot set.
        let hw = b.alu(ValueOp::Hash, &[Operand::Reg(wid), Operand::Reg(i)]);
        let sel = b.alu(ValueOp::Rem, &[Operand::Reg(hw), Operand::Imm(cold_every.max(1))]);
        let cold = b.alu(ValueOp::CmpEq, &[Operand::Reg(sel), Operand::Imm(0)]);
        b.if_begin(Operand::Reg(cold));
        {
            let h = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(i), Operand::Imm(5)]);
            let m = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(1u64 << 30)]);
            let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(3))]);
            let xv = b.load(MemSpace::Global, Operand::Reg(a));
            b.alu_into(x, ValueOp::Mov, &[Operand::Reg(xv)]);
        }
        b.if_else();
        {
            let h = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(i)]);
            let m = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(hot_bytes)]);
            let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(0))]);
            let xv = b.load(MemSpace::Global, Operand::Reg(a));
            b.alu_into(x, ValueOp::Mov, &[Operand::Reg(xv)]);
        }
        b.if_end();
        let v = fma_chain(&mut b, x, 2);
        // Maximally divergent store into a cold 1 GiB region.
        let h2 = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(i), Operand::Imm(0xABCD)]);
        let m2 = b.alu(ValueOp::Rem, &[Operand::Reg(h2), Operand::Imm(1u64 << 30)]);
        let al2 = b.alu(ValueOp::And, &[Operand::Reg(m2), Operand::Imm(!3u64)]);
        let sa = b.alu(ValueOp::Add, &[Operand::Reg(al2), Operand::Imm(region(1))]);
        b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(v));
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Coalesced loads with maximally divergent store traffic (the sad
    /// write-heavy shape that stresses DRAM bandwidth even at 8 warps).
    fn divergent_writer(name: &str, trips: u64, stores_per_trip: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(64 * 1024 * 1024)]);
        let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let v = fma_chain(&mut b, x, 1);
        for s in 0..stores_per_trip {
            let h = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(i), Operand::Imm(s as u64)]);
            let m = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(1u64 << 30)]);
            let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
            let sa = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(2 + s as u64))]);
            b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(v));
        }
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Stencil: several loads at small offsets around a coalesced index —
    /// neighbouring lanes and iterations share lines (L1/L2 locality), plus
    /// a coalesced store (hotspot / stencil / convolution shapes).
    fn stencil(name: &str, trips: u64, taps: usize, fma: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let row = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(8192)]);
        let center = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(row)]);
        let mut acc = None;
        for tap in 0..taps {
            let delta = (tap as u64) * 4 + 4;
            let a0 = b.alu(ValueOp::Add, &[Operand::Reg(center), Operand::Imm(delta)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
            let x = b.load(MemSpace::Global, Operand::Reg(a));
            acc = Some(match acc {
                None => x,
                Some(p) => b.fp_add(&[Operand::Reg(p), Operand::Reg(x)]),
            });
        }
        // Every caller passes taps >= 1; a tapless stencil degenerates to
        // accumulating the center address itself.
        let v = fma_chain(&mut b, acc.unwrap_or(center), fma);
        let sa = b.alu(ValueOp::Add, &[Operand::Reg(center), Operand::Imm(region(1))]);
        b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(v));
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Serial pointer chase: each loaded value provides the next address —
    /// zero memory-level parallelism, pure latency sensitivity.
    fn pointer_chase(name: &str, steps: u64, region_bytes: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let h0 = b.alu(ValueOp::Hash, &[Operand::Tid]);
        let ptr = b.alu(ValueOp::Rem, &[Operand::Reg(h0), Operand::Imm(region_bytes)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let al = b.alu(ValueOp::And, &[Operand::Reg(ptr), Operand::Imm(!3u64)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        b.alu_into(ptr, ValueOp::Rem, &[Operand::Reg(x), Operand::Imm(region_bytes)]);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(steps)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Tiled compute: coalesced global load → shared store → barrier →
    /// shared loads feeding dense FMA chains (sgemm / matrixMul shape).
    fn shared_tile(name: &str, trips: u64, shared_ops: usize, fma: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let soff = b.alu(ValueOp::Mul, &[Operand::TidInBlock, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(1024 * 1024)]);
        let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        b.store(MemSpace::Shared, Operand::Reg(soff), Operand::Reg(x));
        b.sync();
        let mut acc = x;
        for k in 0..shared_ops {
            let sa = b.alu(ValueOp::Add, &[Operand::Reg(soff), Operand::Imm((k as u64) * 4)]);
            let y = b.load(MemSpace::Shared, Operand::Reg(sa));
            acc = b.fp_fma(&[Operand::Reg(acc), Operand::Reg(y), Operand::Imm(1)]);
        }
        let _ = fma_chain(&mut b, acc, fma);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Compute-bound: a long dependent FMA/SFU pipeline with a single cold
    /// load at each end (mri-q / tpacf shape).
    fn compute_bound(name: &str, trips: u64, fma: usize, sfu: usize) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let x = b.load_pattern(AddrPattern::Coalesced { base: region(0), elem_bytes: 4 });
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let mut acc = fma_chain(&mut b, x, fma);
        for _ in 0..sfu {
            acc = b.sfu(&[Operand::Reg(acc)]);
        }
        independent_fp(&mut b, acc, 2);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.store_pattern(AddrPattern::Coalesced { base: region(1), elem_bytes: 4 }, Operand::Reg(x));
        b.finish(vec![])
    }

    /// Warp-correlated control divergence: warps whose hashed id falls
    /// under `heavy_pct` run a long streaming path, the rest a shorter,
    /// compute-denser one. Both paths are the same *cost class* (coalesced
    /// DRAM streaming) — real triangular-solve imbalance is a factor of a
    /// few — but their interval profiles differ in length and shape, which
    /// is what creates the two warp populations that defeat MAX/MIN
    /// representative selection (Figure 7) (lud / gaussian shapes).
    fn warp_bimodal(name: &str, heavy_pct: u64, heavy_trips: u64, light_trips: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        // Block-correlated divergence: whole thread blocks take the heavy
        // or the light path (as in triangular solves, where a block's
        // position in the matrix decides its work), so block turnover
        // keeps cores busy and no minority population dominates the tail.
        let h = b.alu(ValueOp::Hash, &[Operand::Block]);
        let sel = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(100)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(sel), Operand::Imm(heavy_pct)]);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        b.if_begin(Operand::Reg(c));
        {
            // Heavy path: more trips, sparse compute.
            let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
            b.loop_begin();
            let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(32 * 1024 * 1024)]);
            let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
            let x = b.load(MemSpace::Global, Operand::Reg(a));
            let _ = fma_chain(&mut b, x, 2);
            b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
            let cc = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(heavy_trips)]);
            b.loop_end_while(Operand::Reg(cc));
        }
        b.if_else();
        {
            // Light path: fewer trips, denser compute per trip.
            let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
            b.loop_begin();
            let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(32 * 1024 * 1024)]);
            let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
            let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(1))]);
            let x = b.load(MemSpace::Global, Operand::Reg(a));
            let _ = fma_chain(&mut b, x, 8);
            b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
            let cc = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(light_trips)]);
            b.loop_end_while(Operand::Reg(cc));
        }
        b.if_end();
        b.finish(vec![])
    }

    /// Data-dependent trip counts: each warp's loop length is a hashed
    /// function of its id (range `min_trips..min_trips+spread`), giving a
    /// spectrum of interval-profile lengths (bfs / nw shapes).
    fn variable_trips(name: &str, min_trips: u64, spread: u64, region_bytes: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        // Trip counts vary per *block* (a frontier chunk's size), with a
        // small per-warp perturbation so profiles differ within blocks too.
        let h0 = b.alu(ValueOp::Hash, &[Operand::Block, Operand::Imm(77)]);
        let h = b.alu(ValueOp::Add, &[Operand::Reg(h0), Operand::WarpInBlock]);
        let extra = b.alu(ValueOp::Rem, &[Operand::Reg(h), Operand::Imm(spread.max(1))]);
        let trips = b.alu(ValueOp::Add, &[Operand::Reg(extra), Operand::Imm(min_trips)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let hh = b.alu(ValueOp::Hash, &[Operand::Tid, Operand::Reg(i), Operand::Imm(3)]);
        let m = b.alu(ValueOp::Rem, &[Operand::Reg(hh), Operand::Imm(region_bytes)]);
        let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let _ = fma_chain(&mut b, x, 1);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Reg(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Indirect (index-driven) gather: a coalesced index load feeds a
    /// dependent divergent data load (spmv / gridding shape).
    fn indirect_gather(name: &str, trips: u64, region_bytes: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(1024 * 1024)]);
        let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
        let ia = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
        let idx = b.load(MemSpace::Global, Operand::Reg(ia));
        let m = b.alu(ValueOp::Rem, &[Operand::Reg(idx), Operand::Imm(region_bytes)]);
        let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
        let da = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(1))]);
        let x = b.load(MemSpace::Global, Operand::Reg(da));
        let _ = fma_chain(&mut b, x, 2);
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Intra-warp reduction: the active-lane population halves every
    /// iteration (lane-level control divergence, shared-memory traffic).
    fn reduction(name: &str, rounds: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let x = b.load_pattern(AddrPattern::Coalesced { base: region(0), elem_bytes: 4 });
        b.store(MemSpace::Shared, Operand::Lane, Operand::Reg(x));
        let stride = b.alu(ValueOp::Mov, &[Operand::Imm(16)]);
        let r = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Reg(stride)]);
        b.if_begin(Operand::Reg(c));
        let sa = b.alu(ValueOp::Add, &[Operand::Lane, Operand::Reg(stride)]);
        let y = b.load(MemSpace::Shared, Operand::Reg(sa));
        let s = b.fp_add(&[Operand::Reg(y), Operand::Reg(x)]);
        b.store(MemSpace::Shared, Operand::Lane, Operand::Reg(s));
        b.if_end();
        b.alu_into(stride, ValueOp::Shr, &[Operand::Reg(stride), Operand::Imm(1)]);
        b.alu_into(r, ValueOp::Add, &[Operand::Reg(r), Operand::Imm(1)]);
        let cont = b.alu(ValueOp::CmpLt, &[Operand::Reg(r), Operand::Imm(rounds)]);
        b.loop_end_while(Operand::Reg(cont));
        b.store_pattern(AddrPattern::Coalesced { base: region(1), elem_bytes: 4 }, Operand::Reg(x));
        b.finish(vec![])
    }

    /// Coalesced loads, strided (fully divergent) stores — the transpose
    /// shape.
    fn transpose(name: &str, trips: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let soff = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(512)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(16 * 1024 * 1024)]);
        let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let s0 = b.alu(ValueOp::Add, &[Operand::Reg(soff), Operand::Reg(t)]);
        let sm = b.alu(ValueOp::Rem, &[Operand::Reg(s0), Operand::Imm(1u64 << 30)]);
        let sa = b.alu(ValueOp::Add, &[Operand::Reg(sm), Operand::Imm(region(1))]);
        b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(x));
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }

    /// Random scatter stores into a small region (histogram shape): high
    /// store divergence with L2 locality.
    fn histogram(name: &str, trips: u64, bins_bytes: u64) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let off = b.alu(ValueOp::Mul, &[Operand::Tid, Operand::Imm(4)]);
        let i = b.alu(ValueOp::Mov, &[Operand::Imm(0)]);
        b.loop_begin();
        let t = b.alu(ValueOp::Mul, &[Operand::Reg(i), Operand::Imm(4 * 1024 * 1024)]);
        let a0 = b.alu(ValueOp::Add, &[Operand::Reg(off), Operand::Reg(t)]);
        let a = b.alu(ValueOp::Add, &[Operand::Reg(a0), Operand::Imm(region(0))]);
        let x = b.load(MemSpace::Global, Operand::Reg(a));
        let m = b.alu(ValueOp::Rem, &[Operand::Reg(x), Operand::Imm(bins_bytes)]);
        let al = b.alu(ValueOp::And, &[Operand::Reg(m), Operand::Imm(!3u64)]);
        let sa = b.alu(ValueOp::Add, &[Operand::Reg(al), Operand::Imm(region(1))]);
        b.store(MemSpace::Global, Operand::Reg(sa), Operand::Reg(x));
        b.alu_into(i, ValueOp::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let c = b.alu(ValueOp::CmpLt, &[Operand::Reg(i), Operand::Imm(trips)]);
        b.loop_end_while(Operand::Reg(c));
        b.finish(vec![])
    }
}

// ---------------------------------------------------------------------------
// The 40-kernel catalogue
// ---------------------------------------------------------------------------

fn wl(
    name: &str,
    suite: Suite,
    divergence: DivergenceClass,
    control_divergent: bool,
    kernel: Kernel,
    description: &str,
) -> Workload {
    Workload {
        name: name.to_string(),
        suite,
        divergence,
        control_divergent,
        kernel,
        launch: default_launch(),
        description: description.to_string(),
    }
}

/// Builds the full 40-workload catalogue (deterministic order and content).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn all() -> Vec<Workload> {
    use DivergenceClass::{Coalesced, High, Medium};
    use Suite::{NvidiaSdk, Parboil, Rodinia};
    vec![
        // ----- Rodinia ----------------------------------------------------
        wl("srad_kernel1", Rodinia, Medium, false,
            Gen::strided("srad_kernel1", 10, 32, 1 << 28, 3, true),
            "SRAD extract: 8-way divergent strided loads+stores over a large image (the Figure 4 case study)"),
        wl("srad_kernel2", Rodinia, Coalesced, false,
            Gen::stencil("srad_kernel2", 8, 4, 2),
            "SRAD reduce: 4-tap stencil with row reuse"),
        wl("kmeans_invert_mapping", Rodinia, High, false,
            Gen::hot_loads_divergent_stores("kmeans_invert_mapping", 12, 12 * 1024, 10),
            "90% L1-hot divergent loads, 10% DRAM gathers + maximally divergent writes (the paper's hardest kernel)"),
        wl("kmeans_kmeans_point", Rodinia, Medium, false,
            Gen::random_gather("kmeans_kmeans_point", 10, 192 * 1024, 3),
            "centroid gather with L2 locality"),
        wl("cfd_step_factor", Rodinia, Coalesced, false,
            Gen::streaming("cfd_step_factor", 8, 2, 1, 2),
            "fully coalesced streaming, DRAM-latency bound (Figure 16 kernel)"),
        wl("cfd_compute_flux", Rodinia, Medium, false,
            Gen::strided("cfd_compute_flux", 10, 64, 400 * 1024, 4, false),
            "up to 16-way divergent loads with L2 reuse (Figure 16 kernel)"),
        wl("bfs_kernel1", Rodinia, High, true,
            Gen::variable_trips("bfs_kernel1", 4, 8, 1 << 26),
            "frontier expansion: warp-varying trip counts + random gathers"),
        wl("bfs_kernel2", Rodinia, High, false,
            Gen::pointer_chase("bfs_kernel2", 8, 1 << 22),
            "edge chasing: serial dependent divergent loads (zero MLP)"),
        wl("hotspot_calculate_temp", Rodinia, Coalesced, false,
            Gen::stencil("hotspot_calculate_temp", 10, 5, 3),
            "5-tap 2D stencil, strong L1 reuse"),
        wl("pathfinder_dynproc", Rodinia, Coalesced, false,
            Gen::shared_tile("pathfinder_dynproc", 8, 3, 2),
            "tiled dynamic programming via shared memory"),
        wl("lud_diagonal", Rodinia, Medium, true,
            Gen::warp_bimodal("lud_diagonal", 25, 8, 6),
            "quarter of warps do long divergent work (triangular matrix)"),
        wl("lud_perimeter", Rodinia, Medium, true,
            Gen::warp_bimodal("lud_perimeter", 50, 8, 5),
            "half-heavy bimodal warp population"),
        wl("nw_needle1", Rodinia, Medium, true,
            Gen::variable_trips("nw_needle1", 4, 8, 1 << 24),
            "anti-diagonal wavefront: warp-dependent work"),
        wl("backprop_layerforward", Rodinia, Coalesced, true,
            Gen::reduction("backprop_layerforward", 5),
            "intra-warp tree reduction (lane-level divergence)"),
        wl("backprop_adjust_weights", Rodinia, Coalesced, false,
            Gen::streaming("backprop_adjust_weights", 8, 2, 2, 1),
            "weight update streaming: 2 loads, 2 stores per element"),
        wl("streamcluster_pgain", Rodinia, High, false,
            Gen::random_gather("streamcluster_pgain", 12, 1 << 28, 2),
            "random gathers over a DRAM-sized working set"),
        wl("heartwall_kernel", Rodinia, Medium, true,
            Gen::warp_bimodal("heartwall_kernel", 35, 8, 6),
            "image tracking: bimodal warps + divergent gathers"),
        wl("gaussian_fan1", Rodinia, Coalesced, true,
            Gen::warp_bimodal("gaussian_fan1", 60, 8, 5),
            "row elimination: most warps heavy, early-exit rest"),
        wl("gaussian_fan2", Rodinia, Medium, true,
            Gen::variable_trips("gaussian_fan2", 4, 6, 1 << 24),
            "submatrix update with shrinking work per warp"),
        wl("leukocyte_dilate", Rodinia, Medium, false,
            Gen::stencil("leukocyte_dilate", 9, 7, 1),
            "7-tap dilation stencil"),
        // ----- Parboil ----------------------------------------------------
        wl("parboil_sgemm", Parboil, Coalesced, false,
            Gen::shared_tile("parboil_sgemm", 10, 6, 4),
            "tiled dense GEMM: shared-memory tiles + dense FMA chains"),
        wl("parboil_spmv", Parboil, High, false,
            Gen::indirect_gather("parboil_spmv", 10, 1 << 27),
            "CSR SpMV: coalesced index load feeding divergent data gather"),
        wl("parboil_stencil", Parboil, Coalesced, false,
            Gen::stencil("parboil_stencil", 10, 6, 2),
            "7-point 3D stencil (6 neighbour taps)"),
        wl("parboil_sad_calc8", Parboil, High, false,
            Gen::divergent_writer("parboil_sad_calc8", 10, 2),
            "SAD: write-heavy with maximally divergent stores (DRAM-queue bound even at 8 warps)"),
        wl("parboil_sad_calc16", Parboil, High, false,
            Gen::divergent_writer("parboil_sad_calc16", 8, 3),
            "SAD 16x16 variant: even heavier write traffic"),
        wl("parboil_histo_main", Parboil, High, false,
            Gen::histogram("parboil_histo_main", 10, 64 * 1024),
            "histogram: random scatter stores into 64 KiB of bins"),
        wl("parboil_lbm", Parboil, Coalesced, false,
            Gen::streaming("parboil_lbm", 6, 5, 5, 1),
            "lattice-Boltzmann: many coalesced streams in and out"),
        wl("parboil_mriq_computeQ", Parboil, Coalesced, false,
            Gen::compute_bound("parboil_mriq_computeQ", 10, 6, 3),
            "compute-bound: trig-heavy FMA/SFU pipeline"),
        wl("parboil_mri_gridding", Parboil, High, false,
            Gen::random_gather("parboil_mri_gridding", 10, 1 << 26, 2),
            "gridding: scattered sample gathers"),
        wl("parboil_tpacf", Parboil, Coalesced, true,
            Gen::warp_bimodal("parboil_tpacf", 40, 8, 6),
            "angular correlation: data-dependent histogram walk per warp"),
        wl("parboil_cutcp", Parboil, Medium, false,
            Gen::strided("parboil_cutcp", 9, 48, 1 << 24, 3, false),
            "cutoff Coulomb potential: 12-way divergent lattice reads"),
        wl("parboil_bfs", Parboil, High, true,
            Gen::variable_trips("parboil_bfs", 3, 10, 1 << 26),
            "BFS with highly skewed per-warp frontier sizes"),
        // ----- NVIDIA SDK -------------------------------------------------
        wl("sdk_vectoradd", NvidiaSdk, Coalesced, false,
            Gen::streaming("sdk_vectoradd", 6, 2, 1, 1),
            "c[i] = a[i] + b[i]: minimal compute, pure bandwidth"),
        wl("sdk_matrixmul", NvidiaSdk, Coalesced, false,
            Gen::shared_tile("sdk_matrixmul", 9, 5, 3),
            "tiled matrix multiply"),
        wl("sdk_transpose", NvidiaSdk, High, false,
            Gen::transpose("sdk_transpose", 8),
            "naive transpose: coalesced reads, 32-way divergent writes"),
        wl("sdk_reduction", NvidiaSdk, Coalesced, true,
            Gen::reduction("sdk_reduction", 5),
            "tree reduction with halving lane population"),
        wl("sdk_blackscholes", NvidiaSdk, Coalesced, false,
            Gen::compute_bound("sdk_blackscholes", 8, 4, 4),
            "Black-Scholes: SFU-heavy per-option pricing"),
        wl("sdk_montecarlo", NvidiaSdk, Medium, false,
            Gen::random_gather("sdk_montecarlo", 10, 24 * 1024, 5),
            "Monte-Carlo paths: L1-hot random gathers + compute"),
        wl("sdk_convsep", NvidiaSdk, Coalesced, false,
            Gen::stencil("sdk_convsep", 9, 8, 2),
            "separable convolution: 8-tap row filter with heavy line reuse"),
        wl("sdk_sortingnetworks", NvidiaSdk, Medium, true,
            Gen::variable_trips("sdk_sortingnetworks", 4, 6, 1 << 23),
            "bitonic stages: stage count varies across warps"),
    ]
}

/// Looks up one workload by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The control-divergent subset used for the representative-warp selection
/// study (Figure 7).
#[must_use]
pub fn control_divergent() -> Vec<Workload> {
    all().into_iter().filter(|w| w.control_divergent).collect()
}

/// The three kernels whose CPI stacks Figure 16 examines.
#[must_use]
pub fn figure16() -> Vec<Workload> {
    ["cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping"]
        .iter()
        .copied()
        .filter_map(by_name)
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::record::Addrs;
    use gpumech_isa::WarpId;
    use std::collections::HashSet;

    /// Unique 128 B lines touched by one instruction (local helper; the real
    /// coalescer lives in `gpumech-mem`).
    fn requests(addrs: Addrs<'_>) -> usize {
        addrs.iter().map(|a| a >> 7).collect::<HashSet<_>>().len()
    }

    #[test]
    fn catalogue_has_40_unique_valid_workloads() {
        let ws = all();
        assert_eq!(ws.len(), 40);
        let names: HashSet<_> = ws.iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 40, "duplicate workload names");
        for w in &ws {
            w.kernel.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(w.kernel.name, w.name);
            assert!(!w.description.is_empty());
        }
    }

    #[test]
    fn suites_are_all_represented() {
        let ws = all();
        for suite in [Suite::Rodinia, Suite::Parboil, Suite::NvidiaSdk] {
            assert!(ws.iter().filter(|w| w.suite == suite).count() >= 8, "{suite} underrepresented");
        }
    }

    #[test]
    fn control_divergent_subset_is_substantial() {
        let cd = control_divergent();
        assert!(cd.len() >= 10, "only {} control-divergent kernels", cd.len());
        assert!(cd.iter().all(|w| w.control_divergent));
    }

    #[test]
    fn every_workload_traces_on_a_small_grid() {
        for w in all() {
            let name = w.name.clone();
            let t = w.with_blocks(2).trace().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(t.warps.len(), 16);
            for wt in &t.warps {
                assert!(wt.len() >= 5, "{name}: trivial trace ({} insts)", wt.len());
                assert!(wt.len() <= 100_000, "{name}: runaway trace");
            }
        }
    }

    #[test]
    fn coalesced_workloads_have_low_request_counts() {
        let w = by_name("sdk_vectoradd").unwrap().with_blocks(1);
        let t = w.trace().unwrap();
        let wt = &t.warps[0];
        for inst in wt.insts().filter(|i| i.kind.is_global_mem()) {
            let addrs = wt.addrs(&inst);
            assert!(requests(addrs) <= 2, "vectoradd should coalesce: {addrs:?}");
        }
    }

    #[test]
    fn high_divergence_workloads_reach_32_requests() {
        let w = by_name("sdk_transpose").unwrap().with_blocks(1);
        let t = w.trace().unwrap();
        let wt = &t.warps[0];
        let max_req = wt
            .insts()
            .filter(|i| i.kind.is_global_store())
            .map(|i| requests(wt.addrs(&i)))
            .max()
            .unwrap();
        assert_eq!(max_req, 32, "transpose stores should be fully divergent");

        let w = by_name("kmeans_invert_mapping").unwrap().with_blocks(1);
        let t = w.trace().unwrap();
        let wt = &t.warps[0];
        let max_req = wt
            .insts()
            .filter(|i| i.kind.is_global_store())
            .map(|i| requests(wt.addrs(&i)))
            .max()
            .unwrap();
        assert!(max_req >= 30, "invert_mapping stores should be ~fully divergent, got {max_req}");
    }

    #[test]
    fn medium_divergence_sits_between() {
        let w = by_name("cfd_compute_flux").unwrap().with_blocks(1);
        let t = w.trace().unwrap();
        let wt = &t.warps[0];
        let reqs: Vec<usize> = wt
            .insts()
            .filter(|i| i.kind.is_global_load())
            .map(|i| requests(wt.addrs(&i)))
            .collect();
        let max = *reqs.iter().max().unwrap();
        // 32 lanes x 64 B stride = 16 lines, +1 when the region wrap splits
        // the warp across the boundary.
        assert!((8..=17).contains(&max), "compute_flux divergence out of band: {max}");
    }

    #[test]
    fn bimodal_kernels_have_two_warp_populations() {
        let w = by_name("lud_diagonal").unwrap().with_blocks(4);
        let t = w.trace().unwrap();
        let lens: Vec<usize> = t.warps.iter().map(WarpTrace::len).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        // Two populations with moderately different lengths (real
        // triangular-solve imbalance, not orders of magnitude).
        assert!(max as f64 >= 1.15 * min as f64, "expected bimodal lengths, got {min}..{max}");
        let distinct: HashSet<usize> = lens.iter().copied().collect();
        assert!(distinct.len() >= 2, "expected two populations");
    }

    #[test]
    fn variable_trip_kernels_vary_across_warps() {
        let w = by_name("bfs_kernel1").unwrap().with_blocks(4);
        let t = w.trace().unwrap();
        let lens: HashSet<usize> = t.warps.iter().map(WarpTrace::len).collect();
        assert!(lens.len() >= 4, "expected varied warp lengths, got {lens:?}");
    }

    #[test]
    fn pointer_chase_has_serial_dependent_loads() {
        let k = Gen::pointer_chase("chase", 6, 1 << 20);
        let t = crate::trace_kernel(&k, LaunchConfig::new(32, 1)).unwrap();
        let wt = &t.warps[0];
        let load_idxs: Vec<u32> = wt
            .insts()
            .enumerate()
            .filter(|(_, i)| i.kind.is_global_load())
            .map(|(n, _)| n as u32)
            .collect();
        assert!(load_idxs.len() >= 6);
        // Each load (after the first) must transitively depend on the
        // previous load through the address computation.
        for pair in load_idxs.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            let mut frontier = vec![next];
            let mut reaches = false;
            let mut seen = HashSet::new();
            while let Some(n) = frontier.pop() {
                if n == prev {
                    reaches = true;
                    break;
                }
                if seen.insert(n) {
                    frontier.extend(wt.deps(&wt.inst(n as usize)));
                }
            }
            assert!(reaches, "load {next} does not depend on load {prev}");
        }
    }

    #[test]
    fn workload_traces_are_deterministic() {
        let w = by_name("parboil_spmv").unwrap().with_blocks(1);
        assert_eq!(w.trace().unwrap(), w.trace().unwrap());
    }

    #[test]
    fn fig16_kernels_exist_with_expected_divergence() {
        let ks = figure16();
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[0].divergence, DivergenceClass::Coalesced);
        assert_eq!(ks[1].divergence, DivergenceClass::Medium);
        assert_eq!(ks[2].divergence, DivergenceClass::High);
    }

    #[test]
    fn by_name_misses_return_none() {
        assert!(by_name("not_a_kernel").is_none());
    }

    #[test]
    fn hot_load_workload_is_mostly_hot_with_rare_cold_excursions() {
        let w = by_name("kmeans_invert_mapping").unwrap().with_blocks(4);
        let t = w.trace().unwrap();
        let hot_base = 1u64 << 32; // region(0)
        let (mut hot, mut cold) = (0usize, 0usize);
        for (wt, inst) in t.warps.iter().flat_map(|wt| wt.insts().map(move |i| (wt, i))) {
            if inst.kind.is_global_load() {
                if wt.addrs(&inst).iter().all(|a| a >= hot_base && a < hot_base + (1 << 20)) {
                    hot += 1;
                } else {
                    cold += 1;
                }
            }
        }
        let frac_cold = cold as f64 / (hot + cold) as f64;
        assert!(
            (0.03..=0.25).contains(&frac_cold),
            "expected ~10% cold loads, got {frac_cold} ({cold}/{})",
            hot + cold
        );
        let _ = WarpId::new(0); // keep import used
    }
}
