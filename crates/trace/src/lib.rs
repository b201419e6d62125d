//! SIMT functional simulation and per-warp trace generation.
//!
//! This crate plays the role of GPUOcelot in the paper's input collector
//! (Section V): it executes a [`gpumech_isa::Kernel`] functionally — no
//! timing — and emits, for every warp, the dynamic instruction trace tagged
//! with register-dependency information and per-lane memory addresses. Those
//! traces are the *only* interface between workloads and the rest of the
//! stack: the cache model, the interval model, and the cycle-level oracle
//! all consume [`KernelTrace`]s.
//!
//! The [`engine`] interprets a warp-instruction warp-wide — a register is
//! `base + stride·lane` or a 32-lane vector, the value operation is
//! dispatched once per warp-instruction, and values that no address or
//! branch can observe are not computed — and a [`WarpTrace`] holds its
//! instruction [`Stream`], shared with every warp of the launch that
//! executed the same one, beside its own masks and addresses, read as
//! [`TraceInst`] rows through [`WarpTrace::insts`], [`WarpTrace::deps`] and
//! [`WarpTrace::addrs`] (see [`record`] for the split, and for the two
//! forms — lanes or `(base, stride)` — a row's [`Addrs`] take).
//!
//! It also bundles the [`workloads`] library: 40 synthetic kernels that
//! stand in for the Rodinia 2.1 / Parboil 2.5 / NVIDIA SDK kernels of the
//! paper's evaluation, spanning the full space of memory divergence, cache
//! locality, write traffic, control divergence, and compute intensity.
//!
//! # Example
//!
//! ```
//! use gpumech_trace::{trace_kernel, LaunchConfig};
//! use gpumech_isa::{KernelBuilder, Operand, ValueOp, MemSpace, AddrPattern};
//!
//! let mut b = KernelBuilder::new("demo");
//! let x = b.load_pattern(AddrPattern::Coalesced { base: 0x1000_0000, elem_bytes: 4 });
//! let _ = b.fp_add(&[Operand::Reg(x), Operand::Imm(1)]);
//! let kernel = b.finish(vec![]);
//!
//! let launch = LaunchConfig::new(64, 4); // 64 threads/block, 4 blocks
//! let trace = trace_kernel(&kernel, launch)?;
//! assert_eq!(trace.warps.len(), 8);
//! let warp = &trace.warps[0];
//! assert!(warp.len() >= 4);
//! let load = warp.insts().find(|i| i.kind.is_global_load()).ok_or("no load")?;
//! assert_eq!(warp.addrs(&load).len(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod io;
pub mod launch;
pub mod record;
pub mod workloads;

pub use engine::{
    trace_kernel, trace_kernel_cancellable, trace_warp, TraceError, MAX_DYN_INSTS_PER_WARP,
};
pub use launch::LaunchConfig;
pub use record::{AddrIter, Addrs, KernelTrace, RowOverflow, Stream, TraceInst, WarpTrace};
pub use workloads::{DivergenceClass, Suite, Workload};

/// Deterministic 64-bit mixer (SplitMix64 finalizer). Used for synthetic
/// memory contents and the `Hash` value op, so every trace is reproducible.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Single-bit input changes flip roughly half the output bits.
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!((16..=48).contains(&d), "poor mixing: {d} bits");
    }
}
