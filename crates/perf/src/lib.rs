//! Performance telemetry for the GPUMech pipeline, layered on
//! `gpumech-obs` with no dependency outside the workspace.
//!
//! Two pieces (see DESIGN.md "Performance telemetry"):
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
//!
//! Speed itself is measured from outside the product crates, by the repo
//! benchmark (`benchmark/run.sh`).

pub mod alloc;
pub mod attr;

pub use alloc::{counting_enabled, AllocDelta, AllocScope, CountingAlloc};
pub use attr::{attribute, to_folded, SpanAttribution};

/// The counting allocator is installed process-wide here, so every
/// binary linking `gpumech-perf` (the CLI, the benchmark, the figure
/// harnesses, the fault suite) measures with the same allocator it ships
/// with.
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;
