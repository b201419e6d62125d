//! Parallel execution engine for the GPUMech pipeline.
//!
//! GPUMech's selling point over cycle-accurate simulation is speed, and
//! a design-space sweep means running *many* pipeline invocations — all
//! bundled workloads, swept across machine configurations — not one. This
//! crate supplies the three pieces that make that cheap without touching
//! the model's numerics:
//!
//! 1. **Worker pool** ([`pool`]) — a zero-external-dep pool (one worker on
//!    the caller's thread, more over [`std::thread::scope`]) with a
//!    deterministic work queue: items are claimed by atomic index and
//!    results land in their item's slot, so the output order (and
//!    content, for pure tasks) is independent of worker count and
//!    interleaving. Workers are panic-isolated: a panic
//!    inside one task surfaces as a typed [`ExecError`] for that item
//!    while the rest of the batch completes.
//! 2. **Profile cache** ([`cache`]) — a content-addressed cache of
//!    [`Analysis`](gpumech_core::Analysis) results keyed by (trace
//!    fingerprint, analysis-relevant-config fingerprint). Interval
//!    profiles are computed once per (trace, cache configuration) and
//!    reused across config sweeps that only vary prediction-stage
//!    parameters (bandwidth, MSHRs, SFU width, clock), for as long as the
//!    cache lives. Each entry also keeps its representative-warp selection
//!    per method, made once.
//! 3. **Batch engine** ([`batch`]) — ties both together:
//!    [`BatchJob`] descriptors in,
//!    [`Prediction`](gpumech_core::Prediction)s out, bit-identical to the
//!    sequential path. It remembers each live trace's fingerprint, so a
//!    warm call over the same `Arc`'d traces hashes nothing. Its
//!    [`BatchOptions`] bound a run with a whole-run deadline and per-job
//!    timeouts, propagated as [`CancelToken`](gpumech_obs::CancelToken)s
//!    through every pipeline stage.
//!
//! Everything is instrumented under the existing `gpumech-obs` scheme
//! (`exec.pool.*`, `exec.cache.*`, `exec.batch.*`, `exec.fingerprint.*`,
//! `exec.resilience.*` spans and counters).

pub mod batch;
pub mod cache;
pub mod pool;

use std::fmt;

use gpumech_core::ModelError;
use gpumech_obs::Interrupt;

pub use batch::{
    canonical_prediction_json, job_fingerprint, job_fingerprints, BatchEngine, BatchJob,
    BatchOptions,
};
pub use cache::{analysis_config_fingerprint, cache_key, trace_fingerprint, CacheKey, ProfileCache};
pub use pool::{panic_message, run_indexed};

/// Error produced by the execution layer for one work item.
///
/// The pool never aborts a batch: each item independently resolves to a
/// value or to one of these, so callers always get exactly one outcome
/// per submitted item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The model itself rejected the item (propagated unchanged).
    Model(ModelError),
    /// The worker running this item panicked; the panic was contained and
    /// the rest of the batch continued.
    WorkerPanic {
        /// Index of the item whose task panicked.
        item: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The job ran out of time: its per-job timeout or the whole-run
    /// deadline fired and the pipeline aborted at its next cancellation
    /// poll point.
    Deadline,
    /// The run was cancelled explicitly (a fired
    /// [`CancelToken`](gpumech_obs::CancelToken), not a deadline).
    Cancelled,
    /// Static verification rejected the kernel before any tracing: every
    /// job over this kernel is skipped (a prediction for an undefined
    /// kernel would be meaningless, not merely inaccurate).
    RejectedByAnalysis {
        /// Name of the rejected kernel.
        kernel: String,
        /// Rendered Error-severity findings, in severity order.
        findings: Vec<String>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Model(e) => write!(f, "model error: {e}"),
            ExecError::WorkerPanic { item, message } => {
                write!(f, "worker panicked on item {item}: {message}")
            }
            ExecError::Deadline => write!(f, "deadline exceeded"),
            ExecError::Cancelled => write!(f, "cancelled"),
            ExecError::RejectedByAnalysis { kernel, findings } => {
                write!(
                    f,
                    "kernel {kernel:?} rejected by static verification ({} finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.first().map_or("", String::as_str)
                )
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Model(e) => Some(e),
            ExecError::WorkerPanic { .. }
            | ExecError::Deadline
            | ExecError::Cancelled
            | ExecError::RejectedByAnalysis { .. } => None,
        }
    }
}

impl From<ModelError> for ExecError {
    fn from(e: ModelError) -> Self {
        // An interrupted pipeline is a scheduling outcome, not a model
        // defect: surface it as the execution-layer variant so callers can
        // distinguish "ran out of budget" from "the model rejected it".
        match e {
            ModelError::Interrupted(why) => why.into(),
            other => ExecError::Model(other),
        }
    }
}

impl From<Interrupt> for ExecError {
    fn from(why: Interrupt) -> Self {
        match why {
            Interrupt::DeadlineExceeded => ExecError::Deadline,
            Interrupt::Cancelled => ExecError::Cancelled,
        }
    }
}

/// One batch job's failure, carrying enough identity to act on it: the
/// job's human-readable label (which names the kernel) and the
/// fingerprint of its full configuration, alongside the typed error.
///
/// The batch engine returns this instead of a bare [`ExecError`] so a
/// report line like `bfs_kernel1 @ 96GB/s: deadline exceeded` can be
/// produced without re-deriving which job the error belonged to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// The failing job's label (kernel name plus sweep point).
    pub label: String,
    /// Fingerprint of the job's full configuration and options
    /// ([`job_fingerprint`]).
    pub config_fingerprint: u64,
    /// What went wrong.
    pub error: ExecError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {:?} (config {:016x}): {}", self.label, self.config_fingerprint, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}
