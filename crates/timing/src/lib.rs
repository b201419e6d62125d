//! Cycle-level GPU timing simulator — the validation oracle.
//!
//! The paper validates GPUMech against MacSim, a detailed cycle-level
//! CPU-GPU simulator. MacSim is not available here, so this crate is a
//! from-scratch cycle-level simulator implementing Table I's machine:
//!
//! * per-core in-order issue of 1 warp-instruction/cycle from a
//!   round-robin or greedy-then-oldest warp scheduler,
//! * a warp-level scoreboard (an instruction issues only when the producers
//!   of its source registers have completed),
//! * per-core L1 caches with a finite MSHR file (32 entries in Table I):
//!   a load that misses needs one MSHR per new line, merges with in-flight
//!   lines ("pending hits" complete when the fill returns), and reserves
//!   the entry that frees first when the file is full,
//! * a shared L2 (NoC latency folded into its 120-cycle access, as in the
//!   paper) and a bandwidth-limited DRAM channel: each line occupies the
//!   bus for `freq * L/B` cycles and then pays the 300-cycle access
//!   latency,
//! * write-through / no-write-allocate stores that bypass the MSHRs but
//!   consume DRAM bandwidth — the asymmetry behind the paper's
//!   `kmeans_invert_mapping` analysis — behind a bounded write queue that
//!   back-pressures store issue,
//! * thread-block dispatch in waves: blocks are dealt round-robin to cores
//!   and a core refills a block slot as soon as that block's warps finish,
//! * `__syncthreads` barriers at block scope.
//!
//! It consumes the same [`gpumech_trace::KernelTrace`] the model consumes,
//! so model and oracle see identical instruction streams.
//!
//! # How time advances
//!
//! Every completion cycle is computed when its instruction issues, so
//! nothing needs to be polled. A warp slot carries the cycle its next
//! instruction's operands are complete and a [`StallCause`] for why that is
//! not now; only the warp's own issue, the release of its barrier and the
//! refill of its block slot rewrite them. A core whose scan finds nothing
//! issuable sleeps until the earliest wake-up the scan saw, and the
//! simulation visits only cycles on which some core wakes, cores in index
//! order. Each of those wake-ups is exact rather than a bound to re-check:
//! operand completions are fixed at issue, the SFU port and barriers move
//! only when the sleeping core itself issues, and the write queue reports
//! the cycle it really drops below its limit
//! ([`DramChannel::write_admission_time`]) — while it is full no core is
//! admitted, so nothing can be enqueued before then. Every idle span is
//! charged to the cause that ended it ([`TimingResult::idle`]).
//!
//! # Example
//!
//! ```
//! use gpumech_isa::{SimConfig, SchedulingPolicy};
//! use gpumech_timing::simulate;
//! use gpumech_trace::workloads;
//!
//! let w = workloads::by_name("sdk_vectoradd").ok_or("missing workload")?.with_blocks(8);
//! let trace = w.trace()?;
//! let r = simulate(&trace, &SimConfig::default(), SchedulingPolicy::RoundRobin)?;
//! assert!(r.cycles > 0 && r.cpi() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod core;
pub mod dram;
pub mod sim;

pub use dram::DramChannel;
pub use crate::core::{IdleCycles, StallCause};
pub use sim::{simulate, simulate_with_issue_log, SimError, TimingResult};
