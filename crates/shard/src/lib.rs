//! Fleet-scale sharded sweeps: deterministic partitioning and verified
//! merges.
//!
//! A sweep at fleet scale is run as N independent `gpumech batch --shard
//! i/N` processes, each owning a deterministic subset of the job space
//! and writing its own result file (and, to survive a kill, its own
//! resume journal). This crate supplies the three layers that make that
//! safe to run unattended:
//!
//! 1. **Partitioning** ([`partition`]) — shard ownership is a pure
//!    function of the stable job fingerprint (splitmix64 over the same
//!    fingerprint the resume journal keys on), so any shard's job set is
//!    reproducible, independent of enumeration order, and provably
//!    disjoint from every other shard's.
//!    [`plan`] builds the enumeration itself — kernel × sweep point,
//!    rejected kernels inline — identically on every shard, and derives
//!    the fingerprints, manifest and owned subset from it.
//! 2. **Manifest + report** ([`manifest`], [`report`]) — every shard
//!    result file is stamped with a [`SweepManifest`] naming the sweep
//!    fingerprint, shard index/count, git commit, and configuration
//!    fingerprint, plus the full fingerprint list of the sweep — enough
//!    for a later merge to verify disjoint *and complete* coverage
//!    without re-deriving anything.
//! 3. **Merge** ([`merge`]) — unions shard result files, rejecting
//!    cross-sweep mixes, quarantining corrupt or torn files, resolving
//!    duplicate jobs by byte-equality, and verifying that the union
//!    covers the manifest exactly. Every violation is a typed
//!    [`MergeFinding`]; a merge with findings produces no output (never
//!    a silent partial merge). Rows are parsed and re-rendered through
//!    the one [`SweepReport`] writer, so a clean merge is byte-identical
//!    (from the `jobs_checksum` field on) to the same sweep run
//!    unsharded.
//!
//! The two on-disk formats have one job each. The journal resumes a run:
//! a killed shard is re-run with `batch --journal --resume`, the journal
//! replays its finished jobs, and the re-run's file is byte-identical.
//! The shard file is what `merge` reads: only it holds rejected kernels,
//! failed jobs, `--oracle` CPIs and the manifest.
//! Everything is instrumented under the `shard.*` metric family
//! (`shard.partition.*`, `shard.merge.*`).

pub mod manifest;
pub mod merge;
pub mod partition;
pub mod plan;
pub mod report;

use std::fmt;

pub use manifest::{fingerprint_hex, git_commit, parse_fingerprint, SweepManifest};
pub use merge::{merge_files, verify_expectation, FindingKind, MergeFinding, MergeOutcome};
pub use partition::{rejected_fingerprint, shard_of, sweep_fingerprint, ShardSpec};
pub use plan::{sweep_points, Outcome, SweepPlan};
pub use report::{load_shard_file, rows_checksum, CounterEntry, JobRow, SweepReport};

/// Error produced by the sharding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard spec (`i/N`) failed to parse.
    BadSpec(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::BadSpec(s) => write!(f, "bad shard spec: {s}"),
        }
    }
}

impl std::error::Error for ShardError {}
