//! Kernel IR, instruction kinds, and machine configuration shared by every
//! layer of the GPUMech performance-modeling stack.
//!
//! This crate is the vocabulary of the reproduction of *GPUMech: GPU
//! Performance Modeling Technique based on Interval Analysis* (MICRO 2014):
//!
//! * [`InstKind`] / [`MemSpace`] — the instruction classes whose latencies the
//!   model distinguishes,
//! * [`Kernel`] / [`StaticInst`] — a compact SIMT kernel IR that the
//!   functional simulator in `gpumech-trace` executes,
//! * [`SimConfig`] — the machine description of Table I of the paper
//!   (16 cores, 32-wide SIMT, 32 KB L1, 768 KB L2, 192 GB/s DRAM, …),
//! * id newtypes ([`WarpId`], [`BlockId`]) used across crates.
//!
//! # Example
//!
//! ```
//! use gpumech_isa::{SimConfig, InstKind, MemSpace};
//!
//! let cfg = SimConfig::default(); // Table I configuration
//! assert_eq!(cfg.num_cores, 16);
//! assert_eq!(cfg.l2_miss_latency(), 420); // 120-cycle L2 + 300-cycle DRAM
//! assert_eq!(cfg.latencies.latency_of(InstKind::FpAdd), 25);
//! assert!(cfg.validate().is_ok());
//! let _ = InstKind::Load(MemSpace::Global);
//! ```

pub mod config;
pub mod ids;
pub mod kernel;
pub mod opcode;
pub mod policy;

pub use config::{CacheConfig, ConfigError, LatencyTable, SimConfig};
pub use ids::{BlockId, WarpId};
pub use kernel::{AddrPattern, BranchCond, Kernel, KernelBuilder, Operand, Reg, StaticInst, ValueOp};
pub use opcode::{InstKind, MemSpace};
pub use policy::{SchedulingPolicy, UnknownWord};

/// Number of threads in a warp. Fixed at 32, matching the paper's Table I and
/// every NVIDIA architecture the paper models.
pub const WARP_SIZE: usize = 32;
