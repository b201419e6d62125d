//! Facade crate for the GPUMech reproduction: one `use gpumech::...` path
//! to every layer of the stack.
//!
//! - [`isa`] — kernel IR, instruction kinds, machine configuration (Table I);
//! - [`analyze`] — static analysis and linting over the IR (CFG,
//!   reconvergence verification, divergence and coalescing prediction);
//! - [`trace`] — SIMT functional simulator and the 40-kernel workload
//!   library (the GPUOcelot substitute);
//! - [`mem`] — coalescer, caches, and the functional hierarchy simulator;
//! - [`obs`] — zero-dependency tracing, metrics, and pipeline profiling;
//! - [`timing`] — the cycle-level validation oracle (MacSim substitute);
//! - [`core`] — the interval-analysis performance model itself;
//! - [`exec`] — the parallel batch-prediction engine and profile cache;
//! - [`perf`] — performance telemetry: self-time attribution and
//!   folded-stack export over the span tree, and the counting global
//!   allocator.
//!
//! The supported entry points are also re-exported at the crate root, so
//! most programs only need `use gpumech::{Gpumech, PredictionRequest, ...}`:
//!
//! ```
//! use gpumech::{Gpumech, PredictionRequest, SimConfig};
//!
//! let workload = gpumech::trace::workloads::by_name("sdk_vectoradd")
//!     .expect("bundled workload")
//!     .with_blocks(2);
//! let model = Gpumech::new(SimConfig::table1());
//! let prediction = model.run(&PredictionRequest::from_workload(&workload))?;
//! assert!(prediction.cpi_total() > 0.0);
//! # Ok::<(), gpumech::ModelError>(())
//! ```
//!
//! See `examples/quickstart.rs` for the end-to-end flow and
//! `examples/batch_sweep` usage in README.md for the parallel engine.

pub use gpumech_analyze as analyze;
pub use gpumech_core as core;
pub use gpumech_exec as exec;
pub use gpumech_isa as isa;
pub use gpumech_mem as mem;
pub use gpumech_obs as obs;
pub use gpumech_perf as perf;
pub use gpumech_timing as timing;
pub use gpumech_trace as trace;

pub use gpumech_core::{
    Analysis, Gpumech, Model, ModelError, Prediction, PredictionRequest, SelectionMethod,
    Weighting,
};
pub use gpumech_exec::{BatchEngine, BatchJob, ExecError, ProfileCache};
pub use gpumech_isa::{SchedulingPolicy, SimConfig};
