//! Continuous performance telemetry for the GPUMech pipeline, layered on
//! `gpumech-obs` with no dependency outside the workspace.
//!
//! Four pieces (see DESIGN.md "Performance telemetry"):
//!
//! * **Attribution** ([`attribute`], [`to_folded`]) — turns the obs span
//!   tree's inclusive wall times into exclusive (self) times and renders
//!   the folded-stack format flamegraph tooling consumes
//!   (`gpumech profile --folded-out`).
//! * **Allocation tracking** ([`CountingAlloc`], [`AllocScope`]) — a
//!   counting `#[global_allocator]` wrapper (registered by this crate for
//!   every binary that links it) surfacing per-stage allocation counts,
//!   bytes, and peak live bytes; one relaxed load per allocation while
//!   disabled. It also tells glibc once to keep freed heap rather than
//!   hand it back to the kernel after every prediction.
//! * **The perf suite** ([`run_suite`]) — named stage-level and
//!   end-to-end micro-benchmarks (min-of-N with warmup, allocation
//!   counters included) emitting under the `perf.*` naming family.
//! * **Baselines** ([`Baseline`], [`compare`]) — `gpumech perf record`
//!   persists suite results to `results/PERF_BASELINE.json`;
//!   `gpumech perf compare` fails CI on noise-aware regressions.

pub mod alloc;
pub mod attr;
pub mod baseline;
pub mod suite;

pub use alloc::{counting_enabled, AllocDelta, AllocScope, CountingAlloc};
pub use attr::{attribute, to_folded, SpanAttribution};
pub use baseline::{compare, git_commit, Baseline, CompareLine, Comparison, Tolerance};
pub use suite::{run_suite, suite_config, BenchResult, SuiteOptions, STAGE_NAMES, SUITE_KERNEL};

/// The counting allocator is installed process-wide here, so every
/// binary linking `gpumech-perf` (the CLI, bench harnesses, fault suite)
/// measures with the same allocator it ships with.
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Error surfaced by the perf subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// A pipeline layer failed while benchmarking it.
    Pipeline(String),
    /// A baseline file was malformed or from an unsupported version.
    Format(String),
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Pipeline(e) => write!(f, "perf suite pipeline failure: {e}"),
            PerfError::Format(e) => write!(f, "perf baseline format error: {e}"),
        }
    }
}

impl std::error::Error for PerfError {}
