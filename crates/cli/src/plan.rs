//! The sweep plan `batch` runs: kernel × sweep point, in order, with a
//! kernel that static verification rejects kept inline as one typed
//! failure per point, and each entry's stable fingerprint. The report's
//! row order rests on exactly this list.

use std::sync::Arc;

use gpumech_core::Prediction;
use gpumech_exec::cache::payload_checksum;
use gpumech_exec::{job_fingerprints, BatchError, BatchJob, ExecError};
use gpumech_isa::{SimConfig, UnknownWord};
use gpumech_trace::{TraceError, Workload};

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
pub(crate) fn sweep_points(
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

/// Synthetic fingerprint for a job whose kernel was rejected by static
/// verification before tracing: no trace exists to fingerprint, but its
/// row still needs one. The label is unique per sweep point, so it is
/// sufficient identity.
pub(crate) fn rejected_fingerprint(label: &str) -> u64 {
    payload_checksum(format!("rejected|{label}").as_bytes())
}

/// What became of one entry: its prediction, with the job's index in
/// [`SweepPlan::jobs`], or the typed error of a failed job or a rejected
/// kernel.
pub(crate) type Outcome<'a> = Result<(usize, &'a Prediction), &'a BatchError>;

/// A sweep, enumerated.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    /// Every entry of the sweep, in enumeration order, beside its stable
    /// fingerprint ([`job_fingerprints`] of a job,
    /// [`rejected_fingerprint`] of a rejected entry's label): the index in
    /// `jobs` of a runnable entry, or the rejection of its kernel.
    pub(crate) entries: Vec<(u64, Result<usize, BatchError>)>,
    /// The runnable entries, in enumeration order: what `batch` hands the
    /// batch engine.
    pub(crate) jobs: Vec<BatchJob>,
}

impl SweepPlan {
    /// Enumerates `kernels` × `points`. Each kernel is traced once and
    /// shared by its points; `configure` sets a new job's pipeline options.
    ///
    /// # Errors
    ///
    /// `kernel: error` for a kernel whose trace fails for any reason other
    /// than rejection by static verification.
    pub(crate) fn enumerate(
        kernels: &[Workload],
        points: &[(String, SimConfig)],
        configure: impl Fn(&mut BatchJob),
    ) -> Result<Self, String> {
        let mut jobs = Vec::new();
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
                        jobs.push(job);
                        Ok(jobs.len() - 1)
                    }
                    Err(e) => Err(BatchError { label, config_fingerprint: 0, error: e.clone() }),
                });
            }
        }
        let job_fps = job_fingerprints(&jobs);
        let entries = entries
            .into_iter()
            .map(|entry| {
                let fp = match &entry {
                    Ok(j) => job_fps[*j],
                    Err(rejected) => rejected_fingerprint(&rejected.label),
                };
                (fp, entry)
            })
            .collect();
        Ok(Self { entries, jobs })
    }

    /// The [`Outcome`] of each entry, in enumeration order, beside its
    /// fingerprint. `results` is what the batch engine returned for
    /// [`SweepPlan::jobs`].
    pub(crate) fn outcomes<'a>(
        &'a self,
        results: &'a [Result<Prediction, BatchError>],
    ) -> Vec<(u64, Outcome<'a>)> {
        self.entries
            .iter()
            .filter_map(|(fp, entry)| {
                let outcome = match entry {
                    Err(rejected) => Err(rejected),
                    Ok(j) => results.get(*j)?.as_ref().map(|p| (*j, p)),
                };
                Some((*fp, outcome))
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use gpumech_exec::BatchEngine;
    use gpumech_isa::{KernelBuilder, Operand, ValueOp};
    use gpumech_trace::workloads;

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

    #[test]
    fn rejected_fingerprints_are_stable_and_distinct() {
        assert_eq!(rejected_fingerprint("k @ bw=96"), rejected_fingerprint("k @ bw=96"));
        assert_ne!(rejected_fingerprint("k @ bw=96"), rejected_fingerprint("k @ bw=192"));
    }

    /// A clean kernel, one static verification rejects (a barrier under a
    /// divergent branch), and another clean one.
    fn sweep_kernels() -> Vec<Workload> {
        let clean = |name| workloads::by_name(name).unwrap().with_blocks(2);
        let mut b = KernelBuilder::new("bad_barrier");
        let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
        b.if_begin(Operand::Reg(c));
        b.sync();
        b.if_end();
        let mut rejected = clean("sdk_vectoradd");
        rejected.name = "bad_barrier".to_string();
        rejected.kernel = b.finish(vec![]);
        vec![clean("sdk_vectoradd"), rejected, clean("bfs_kernel1")]
    }

    #[test]
    fn a_rejected_kernel_gives_one_failed_row_per_point_in_enumeration_order() {
        let base = SimConfig::table1();
        let points = sweep_points(Some("bw=96,192"), &base).unwrap();
        let plan = SweepPlan::enumerate(&sweep_kernels(), &points, |_| {}).unwrap();
        assert_eq!(plan.entries.len(), 6);
        assert_eq!(plan.jobs.len(), 4, "the rejected kernel's points are not run");
        let results = BatchEngine::new(1).run(&plan.jobs);
        let outcomes = plan.outcomes(&results);
        let labels: Vec<String> = outcomes
            .iter()
            .map(|(_, outcome)| match outcome {
                Ok((j, p)) => {
                    assert_eq!(Ok(*p), results[*j].as_ref());
                    plan.jobs[*j].label.clone()
                }
                Err(e) => {
                    assert!(matches!(e.error, ExecError::RejectedByAnalysis { .. }), "{e}");
                    format!("rejected {}", e.label)
                }
            })
            .collect();
        assert_eq!(
            labels,
            [
                "sdk_vectoradd @ bw=96",
                "sdk_vectoradd @ bw=192",
                "rejected bad_barrier @ bw=96",
                "rejected bad_barrier @ bw=192",
                "bfs_kernel1 @ bw=96",
                "bfs_kernel1 @ bw=192",
            ]
        );
        let fps: Vec<u64> = outcomes.iter().map(|(fp, _)| *fp).collect();
        let entry_fps: Vec<u64> = plan.entries.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, entry_fps);
        assert_eq!(fps[2], rejected_fingerprint("bad_barrier @ bw=96"));
        assert_eq!(fps[0], job_fingerprints(&plan.jobs)[0], "a job's row carries its fingerprint");
    }
}
