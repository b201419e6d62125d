//! The sweep manifest: provenance and coverage metadata stamped into
//! every shard result file.
//!
//! A manifest names the sweep (its fingerprint over the full job list),
//! the shard that produced the file, the git commit and machine
//! configuration it ran under, and the complete fingerprint list of the
//! sweep in enumeration order. Two shard files belong to the same sweep
//! iff their manifests agree on everything except the shard index — the
//! check [`merge`](crate::merge) runs before unioning anything.

use serde::{Deserialize, Serialize};

use crate::partition::{sweep_fingerprint, ShardSpec};

/// Provenance and coverage stamp for one shard result file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Content hash of the sweep identity (config fingerprint + job
    /// fingerprint list), hex-encoded. See
    /// [`crate::partition::sweep_fingerprint`].
    pub sweep_fingerprint: String,
    /// Index of the shard that produced this file.
    pub shard_index: u32,
    /// Total shards in the sweep.
    pub shard_count: u32,
    /// Git commit of the producing build (`unknown` outside a checkout).
    pub git_commit: String,
    /// Fingerprint of the base machine configuration
    /// ([`analysis_config_fingerprint`](gpumech_exec::analysis_config_fingerprint)),
    /// hex-encoded.
    pub config_fingerprint: String,
    /// Total jobs in the sweep (always `jobs.len()`; duplicated so a
    /// truncated `jobs` array is detectable).
    pub total_jobs: u64,
    /// Every job fingerprint in the sweep, hex-encoded, in enumeration
    /// order — the coverage ground truth the merge verifies against.
    pub jobs: Vec<String>,
}

/// The commit a manifest's `git_commit` names: `git rev-parse --short=12
/// HEAD` run in the directory of this executable, so every shard of a
/// build stamps the same commit whatever directory it runs from;
/// `"unknown"` when the executable is not inside a git checkout or git is
/// unavailable.
#[must_use]
pub fn git_commit() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(exe.parent()?)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a fingerprint the way every sweep artifact stores it.
#[must_use]
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a stored fingerprint back; `None` if it is not 16 hex digits.
#[must_use]
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl SweepManifest {
    /// The manifest for shard `shard` of a sweep enumerating `job_fps`
    /// (in enumeration order) under `config_fingerprint` at `git_commit`.
    #[must_use]
    pub fn new(shard: ShardSpec, git_commit: &str, config_fingerprint: u64, job_fps: &[u64]) -> Self {
        Self {
            sweep_fingerprint: fingerprint_hex(sweep_fingerprint(config_fingerprint, job_fps)),
            shard_index: shard.index,
            shard_count: shard.count,
            git_commit: git_commit.to_string(),
            config_fingerprint: fingerprint_hex(config_fingerprint),
            total_jobs: job_fps.len() as u64,
            jobs: job_fps.iter().map(|&fp| fingerprint_hex(fp)).collect(),
        }
    }

    /// `true` when `other` belongs to the same sweep: every field agrees
    /// except the shard index. The shard *count* must agree too — a file
    /// from a 3-shard run cannot be unioned with files from a 5-shard run
    /// of the same job space, because their ownership functions differ.
    #[must_use]
    pub fn same_sweep(&self, other: &Self) -> bool {
        self.sweep_fingerprint == other.sweep_fingerprint
            && self.shard_count == other.shard_count
            && self.git_commit == other.git_commit
            && self.config_fingerprint == other.config_fingerprint
            && self.total_jobs == other.total_jobs
            && self.jobs == other.jobs
    }

    /// The decoded job fingerprint list.
    ///
    /// # Errors
    ///
    /// Names the first malformed entry.
    pub fn job_fps(&self) -> Result<Vec<u64>, String> {
        let mut out = Vec::with_capacity(self.jobs.len());
        for (i, s) in self.jobs.iter().enumerate() {
            match parse_fingerprint(s) {
                Some(fp) => out.push(fp),
                None => return Err(format!("manifest job {i} is not a fingerprint: {s:?}")),
            }
        }
        Ok(out)
    }

    /// Internal consistency of one manifest: the declared total matches
    /// the job list and every entry decodes.
    ///
    /// # Errors
    ///
    /// A one-line description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_jobs != self.jobs.len() as u64 {
            return Err(format!(
                "manifest declares {} job(s) but lists {}",
                self.total_jobs,
                self.jobs.len()
            ));
        }
        if self.shard_count == 0 {
            return Err("manifest shard_count is zero".to_string());
        }
        if self.shard_index >= self.shard_count {
            return Err(format!(
                "manifest shard_index {} out of range for {} shard(s)",
                self.shard_index, self.shard_count
            ));
        }
        if parse_fingerprint(&self.sweep_fingerprint).is_none() {
            return Err(format!("manifest sweep_fingerprint malformed: {:?}", self.sweep_fingerprint));
        }
        self.job_fps().map(|_| ())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn manifest(shard: ShardSpec) -> SweepManifest {
        SweepManifest::new(shard, "abc123", 7, &[10, 20, 30])
    }

    #[test]
    fn same_sweep_ignores_only_the_shard_index() {
        let a = manifest(ShardSpec { index: 0, count: 3 });
        let b = manifest(ShardSpec { index: 2, count: 3 });
        assert!(a.same_sweep(&b));
        let fewer = SweepManifest::new(ShardSpec { index: 0, count: 3 }, "abc123", 7, &[10, 20]);
        assert!(!a.same_sweep(&fewer));
        let other_commit = SweepManifest::new(ShardSpec { index: 0, count: 3 }, "def456", 7, &[10, 20, 30]);
        assert!(!a.same_sweep(&other_commit));
        let other_count = manifest(ShardSpec { index: 0, count: 4 });
        assert!(!a.same_sweep(&other_count), "different shard counts cannot mix");
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = manifest(ShardSpec { index: 1, count: 3 });
        m.validate().unwrap();
        assert_eq!(m.job_fps().unwrap(), vec![10, 20, 30]);
        let json = serde_json::to_string(&m).unwrap();
        let back: SweepManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);

        let mut torn = m.clone();
        torn.jobs.pop();
        assert!(torn.validate().is_err(), "truncated job list must be detected");
        let mut bad = m.clone();
        bad.jobs[0] = "nope".to_string();
        assert!(bad.validate().is_err());
        let mut oob = m;
        oob.shard_index = 9;
        assert!(oob.validate().is_err());
    }

    #[test]
    fn fingerprints_round_trip_through_hex() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(parse_fingerprint(&fingerprint_hex(fp)), Some(fp));
        }
        assert_eq!(parse_fingerprint("123"), None);
        assert_eq!(parse_fingerprint("zzzzzzzzzzzzzzzz"), None);
    }
}
