//! Fleet-scale sharded sweeps: deterministic partitioning, verified
//! merges, and a crash-tolerant local supervisor.
//!
//! A sweep at fleet scale is run as N independent `gpumech batch --shard
//! i/N` processes, each owning a deterministic subset of the job space
//! and writing its own journal and result file. This crate supplies the
//! three layers that make that safe to run unattended:
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
//!    a silent partial merge). The merged file's job rows are spliced
//!    byte-for-byte from the shard files, so a clean merge is
//!    byte-identical (from the `jobs_checksum` field on) to the same
//!    sweep run unsharded.
//! 4. **Supervisor** ([`supervise()`]) — a local multi-process supervisor
//!    that spawns the N shard children, watches their journals as
//!    heartbeats, restarts crashed or hung shards with jittered backoff
//!    and `--resume`, enforces a per-shard restart budget and a
//!    whole-sweep deadline, and drains cleanly on SIGTERM.
//!
//! Everything is instrumented under the `shard.*` metric family
//! (`shard.partition.*`, `shard.merge.*`, `shard.supervisor.*`).

pub mod manifest;
pub mod merge;
pub mod partition;
pub mod plan;
pub mod report;
pub mod supervise;

use std::fmt;

pub use manifest::{fingerprint_hex, git_commit, parse_fingerprint, SweepManifest};
pub use merge::{merge_files, verify_expectation, FindingKind, MergeFinding, MergeOptions,
                MergeOutcome, MergedSweep};
pub use partition::{rejected_fingerprint, shard_of, sweep_fingerprint, ShardSpec};
pub use plan::{sweep_points, Outcome, SweepPlan};
pub use report::{load_shard_file, rows_checksum, CounterEntry, JobRow, ShardFile, SweepReport};
pub use supervise::{supervise, ChaosKill, ShardStatus, SupervisorConfig, SupervisorSummary};

/// Error produced by the sharding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard spec (`i/N`), chaos spec (`i@lines`), or other textual
    /// input failed to parse.
    BadSpec(String),
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// Rendered I/O error.
        msg: String,
    },
    /// Serializing or deserializing a sweep artifact failed.
    Serialize(String),
    /// Spawning a shard child process failed.
    Spawn {
        /// The shard whose child could not be spawned.
        shard: u32,
        /// Rendered spawn error.
        msg: String,
    },
    /// A shard kept dying: it was spawned `spawns` times (the first run
    /// plus restarts) and the restart budget is exhausted.
    RestartBudgetExhausted {
        /// The shard that exhausted its budget.
        shard: u32,
        /// Total times it was spawned.
        spawns: u32,
    },
    /// The whole-sweep deadline fired before every shard completed.
    DeadlineExceeded {
        /// The configured deadline in milliseconds.
        ms: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::BadSpec(s) => write!(f, "bad shard spec: {s}"),
            ShardError::Io { path, msg } => write!(f, "io error on {path}: {msg}"),
            ShardError::Serialize(s) => write!(f, "serialize error: {s}"),
            ShardError::Spawn { shard, msg } => {
                write!(f, "failed to spawn shard {shard}: {msg}")
            }
            ShardError::RestartBudgetExhausted { shard, spawns } => write!(
                f,
                "shard {shard} exhausted its restart budget after {spawns} spawn(s)"
            ),
            ShardError::DeadlineExceeded { ms } => {
                write!(f, "sweep deadline of {ms} ms exceeded before all shards completed")
            }
        }
    }
}

impl std::error::Error for ShardError {}
