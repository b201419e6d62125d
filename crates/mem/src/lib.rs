//! Functional memory-hierarchy simulation for GPUMech.
//!
//! This crate is the "cache simulator" half of the paper's input collector
//! (Section V): it replays the per-warp memory instructions of a
//! [`gpumech_trace::KernelTrace`] against per-core L1 caches and a shared
//! L2 — round-robin across the resident warps of the modeled machine,
//! with no timing — and collects, for every memory PC:
//!
//! * the **distribution of miss events** at the instruction level (an
//!   instruction's event is its longest-latency request, Section V-B),
//! * request-level counts: total requests (divergence degree), L1-missing
//!   requests (the ones that allocate MSHRs), and DRAM-reaching requests
//!   (load L2 misses plus all store traffic),
//! * from which the per-PC **AMAT** latency used by the interval algorithm
//!   is derived.
//!
//! # Example
//!
//! ```
//! use gpumech_isa::SimConfig;
//! use gpumech_mem::simulate_hierarchy;
//! use gpumech_trace::workloads;
//!
//! let w = workloads::by_name("sdk_vectoradd").ok_or("missing workload")?.with_blocks(4);
//! let trace = w.trace()?;
//! let stats = simulate_hierarchy(&trace, &SimConfig::default());
//! // Streaming kernels never hit: every load PC resolves near 420 cycles.
//! let pc = stats.load_pcs().next().ok_or("no loads")?;
//! assert!(stats.load_latency(pc) > 300.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod coalesce;
pub mod hierarchy;
pub mod stats;

pub use cache::{Access, Cache};
pub use coalesce::{coalesce, Lines};
pub use hierarchy::{simulate_hierarchy, simulate_hierarchy_cancellable};
pub use stats::{MemStats, MissDistribution, MissEvent, PcStats};
