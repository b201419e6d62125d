//! The GPUMech performance model — interval analysis for GPU architectures.
//!
//! This crate implements the paper's contribution end to end:
//!
//! 1. **Interval algorithm** ([`interval`]) — walks a warp's dynamic trace
//!    under an in-order, 1-instruction/cycle issue model and builds its
//!    *interval profile*: runs of back-to-back issues separated by stall
//!    periods, each stall attributed to the compute or memory instruction
//!    that caused it (Section III-B, Equations 2 and 4).
//! 2. **Representative-warp selection** ([`cluster`]) — k-means (k = 2) over
//!    per-warp `(performance, instruction-count)` feature vectors; the warp
//!    nearest the centre of the larger cluster represents the kernel
//!    (Section III-C, Equations 5-6, Figure 7).
//! 3. **Multithreading model** ([`multiwarp`]) — scales the representative
//!    warp to N resident warps by counting *non-overlapped instructions*
//!    under round-robin or greedy-then-oldest scheduling (Section IV-A,
//!    Equations 7-16).
//! 4. **Resource-contention model** ([`contention`]) — queueing delays from
//!    the finite MSHR file and the bandwidth-limited DRAM channel under
//!    memory divergence (Section IV-B, Equations 17-23).
//! 5. **CPI stacks** ([`cpistack`]) — the per-category cycle breakdown of
//!    Section VII / Table III.
//! 6. **Baselines** ([`baselines`]) — the naive interval extension
//!    (Equation 1) and the Chen-Aamodt Markov-chain model the paper
//!    compares against (Section VIII-A).
//!
//! The one-stop entry point is a [`PredictionRequest`] executed by
//! [`Gpumech::run`]:
//!
//! ```
//! use gpumech_core::{Gpumech, PredictionRequest};
//! use gpumech_isa::SimConfig;
//! use gpumech_trace::workloads;
//!
//! let w = workloads::by_name("cfd_step_factor").ok_or("missing workload")?.with_blocks(16);
//! let report = Gpumech::new(SimConfig::default())
//!     .run(&PredictionRequest::from_workload(&w))?;
//! println!("CPI = {:.2}, of which DRAM queue = {:.2}",
//!          report.cpi.total(), report.cpi.queue);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baselines;
pub mod cluster;
pub mod contention;
pub mod cpistack;
pub mod interval;
pub mod model;
pub mod multiwarp;
pub mod request;

pub use cluster::{feature_vectors, kmeans2, kmeans2_cancellable, select_representative, Selection, SelectionMethod};
pub use contention::{contention_cpi, ContentionOptions, ContentionResult};
pub use cpistack::{CpiStack, StallCategory};
pub use interval::{build_profile, summarize_population, Interval, IntervalProfile, PopulationSummary, ProfileBuilder, ProfileSummary, StallCause};
pub use model::{Analysis, Gpumech, Model, ModelError, Prediction};
pub use multiwarp::{multithreading_cpi, MultithreadingResult};
pub use request::{parse_selection, PredictionRequest, Weighting};

// Re-export the vocabulary types callers need alongside the model.
pub use gpumech_isa::{SchedulingPolicy, UnknownWord};
