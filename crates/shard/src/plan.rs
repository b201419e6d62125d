//! The sweep plan: the enumeration every shard of a sweep computes
//! identically — kernel × sweep point, in order, with a kernel that static
//! verification rejects kept inline as one typed failure per point — and
//! what is derived from it: entry fingerprints, the [`SweepManifest`], and
//! the subset one shard owns. Coverage checking and the merge's row
//! order rest on exactly this list, which is why it is built here, beside
//! the manifest and [`ShardSpec`] it feeds.

use std::sync::Arc;

use gpumech_core::Prediction;
use gpumech_exec::{
    analysis_config_fingerprint, job_fingerprints, BatchError, BatchJob, ExecError,
};
use gpumech_isa::{SimConfig, UnknownWord};
use gpumech_trace::{TraceError, Workload};

use crate::manifest::SweepManifest;
use crate::partition::{rejected_fingerprint, ShardSpec};

/// The points of `--sweep AXIS=V1,V2,...` over `base`, each with its
/// job-label suffix (` @ axis=value`); without a spec, `base` alone with
/// an empty suffix. Swept values are *not* validated here: the batch
/// engine validates every job's full configuration and reports a bad
/// point as that job's error, so it cannot sink the rest of the batch.
///
/// # Errors
///
/// [`UnknownWord`] for a spec that is not `AXIS=V1,V2,...` with a known
/// axis and at least one parsable value.
pub fn sweep_points(
    spec: Option<&str>,
    base: &SimConfig,
) -> Result<Vec<(String, SimConfig)>, UnknownWord> {
    let Some(spec) = spec else {
        return Ok(vec![(String::new(), base.clone())]);
    };
    let bad = || UnknownWord {
        value: spec.to_string(),
        expected: "AXIS=V1,V2,... with AXIS one of warps|mshrs|bw|sfu",
    };
    let (axis, values) = spec.split_once('=').ok_or_else(bad)?;
    let mut out = Vec::new();
    for v in values.split(',').filter(|v| !v.is_empty()) {
        let cfg = match axis {
            "warps" => base.clone().with_warps_per_core(v.parse().map_err(|_| bad())?),
            "mshrs" => base.clone().with_mshrs(v.parse().map_err(|_| bad())?),
            "bw" => base.clone().with_dram_bandwidth(v.parse().map_err(|_| bad())?),
            "sfu" => base.clone().with_sfu_per_core(v.parse().map_err(|_| bad())?),
            _ => return Err(bad()),
        };
        out.push((format!(" @ {axis}={v}"), cfg));
    }
    if out.is_empty() {
        return Err(bad());
    }
    Ok(out)
}

/// What became of one owned entry: its prediction, with the job's index
/// in [`SweepPlan::jobs`], or the typed error of a failed job or a
/// rejected kernel.
pub type Outcome<'a> = Result<(usize, &'a Prediction), &'a BatchError>;

/// A sweep as one shard sees it.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Every entry of the sweep, in enumeration order: a job to run, or
    /// the rejection of its kernel. Identical on every shard.
    pub entries: Vec<Result<BatchJob, BatchError>>,
    /// Stable fingerprint per entry: the journal key
    /// ([`job_fingerprints`]) of a job, [`rejected_fingerprint`] of a
    /// rejected entry's label.
    pub fingerprints: Vec<u64>,
    /// The manifest stamped into this shard's result file.
    pub manifest: SweepManifest,
    /// Indices into `entries` of the entries this shard owns, ascending.
    pub owned: Vec<usize>,
    /// The owned entries that are jobs, in enumeration order: what this
    /// shard hands the batch engine.
    pub jobs: Vec<BatchJob>,
}

impl SweepPlan {
    /// Enumerates `kernels` × `points` for `shard`. Each kernel is traced
    /// once and shared by its points; `configure` sets a new job's
    /// pipeline options. `base` (the configuration the points came from)
    /// and `git_commit` go into the manifest only.
    ///
    /// # Errors
    ///
    /// `kernel: error` for a kernel whose trace fails for any reason other
    /// than rejection by static verification.
    pub fn enumerate(
        kernels: &[Workload],
        points: &[(String, SimConfig)],
        configure: impl Fn(&mut BatchJob),
        shard: ShardSpec,
        git_commit: &str,
        base: &SimConfig,
    ) -> Result<Self, String> {
        let mut entries = Vec::with_capacity(kernels.len() * points.len());
        for w in kernels {
            let traced = match w.trace() {
                Ok(t) => Ok(Arc::new(t)),
                Err(TraceError::RejectedByAnalysis { kernel, findings, .. }) => {
                    Err(ExecError::RejectedByAnalysis { kernel, findings })
                }
                Err(e) => return Err(format!("{}: {e}", w.name)),
            };
            for (suffix, cfg) in points {
                let label = format!("{}{suffix}", w.name);
                entries.push(match &traced {
                    Ok(trace) => {
                        let mut job = BatchJob::new(label, Arc::clone(trace), cfg.clone());
                        configure(&mut job);
                        Ok(job)
                    }
                    Err(e) => Err(BatchError { label, config_fingerprint: 0, error: e.clone() }),
                });
            }
        }

        let runnable: Vec<BatchJob> =
            entries.iter().filter_map(|e| e.as_ref().ok().cloned()).collect();
        let mut job_fps = job_fingerprints(&runnable).into_iter();
        let fingerprints: Vec<u64> = entries
            .iter()
            .map(|e| match e {
                Ok(_) => job_fps.next().unwrap_or(0),
                Err(rejected) => rejected_fingerprint(&rejected.label),
            })
            .collect();
        let manifest =
            SweepManifest::new(shard, git_commit, analysis_config_fingerprint(base), &fingerprints);
        let owned: Vec<usize> =
            (0..entries.len()).filter(|&i| shard.owns(fingerprints[i])).collect();
        let jobs = owned.iter().filter_map(|&i| entries[i].as_ref().ok().cloned()).collect();
        Ok(Self { entries, fingerprints, manifest, owned, jobs })
    }

    /// The [`Outcome`] of each owned entry, in enumeration order, beside
    /// its fingerprint. `results` is what the batch engine returned for
    /// [`SweepPlan::jobs`].
    #[must_use]
    pub fn outcomes<'a>(
        &'a self,
        results: &'a [Result<Prediction, BatchError>],
    ) -> Vec<(u64, Outcome<'a>)> {
        let mut ran = (0..).zip(results);
        self.owned
            .iter()
            .filter_map(|&i| {
                let outcome = match &self.entries[i] {
                    Err(rejected) => Err(rejected),
                    Ok(_) => {
                        let (j, result) = ran.next()?;
                        result.as_ref().map(|p| (j, p))
                    }
                };
                Some((self.fingerprints[i], outcome))
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_label_and_configure_each_value() {
        let base = SimConfig::table1();
        assert_eq!(sweep_points(None, &base).unwrap(), vec![(String::new(), base.clone())]);
        let points = sweep_points(Some("bw=96,,192"), &base).unwrap();
        assert_eq!(points.len(), 2, "empty values are skipped");
        assert_eq!(points[0].0, " @ bw=96");
        assert_eq!(points[1].1, base.clone().with_dram_bandwidth(192.0));
        // Out-of-range values are the batch engine's to reject, per job.
        assert_eq!(sweep_points(Some("warps=0"), &base).unwrap()[0].1.max_warps_per_core, 0);
        for bad in ["warps", "volts=1,2", "warps=abc", "warps=", "=8"] {
            let e = sweep_points(Some(bad), &base).expect_err("sweep should be rejected");
            assert_eq!(e.value, bad);
        }
    }
}
