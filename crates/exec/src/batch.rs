//! The batch engine: many (kernel, configuration, options) points in,
//! one [`Prediction`] (or typed error) per point out.
//!
//! A [`BatchJob`] is a self-contained descriptor of one pipeline run —
//! the shape the paper's design-space exploration needs (Section VI-D:
//! one trace swept across many hardware configurations). The engine runs
//! jobs on the [`pool`](crate::pool), deduplicates analysis and selection
//! work through the [`ProfileCache`], and guarantees the batch output is
//! bit-identical to running each job sequentially through
//! [`Gpumech::run`]: predictions are pure functions of
//! (trace, config, options), the pool publishes results by item index,
//! and the cache returns value-equal analyses and the selections
//! `Gpumech::run` would make over them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use gpumech_core::{
    Gpumech, Model, ModelError, Prediction, PredictionRequest, SelectionMethod, Weighting,
};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_obs::CancelToken;
use gpumech_trace::KernelTrace;

use crate::cache::{
    analysis_config, normalized_config_fingerprint, payload_checksum, trace_fingerprint,
    CacheKey, ProfileCache,
};
use crate::pool::run_indexed;
use crate::resilience::{BatchOptions, CircuitBreaker, Journal};
use crate::{BatchError, ExecError};

/// One batch item: a kernel trace plus everything needed to predict it.
///
/// Traces are shared via `Arc` so a configuration sweep over one kernel
/// costs one trace, not N clones.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable label carried into reports (e.g. `"bfs_kernel1 @ 32w"`).
    pub label: String,
    /// The kernel trace to model.
    pub trace: Arc<KernelTrace>,
    /// Machine configuration for this point.
    pub cfg: SimConfig,
    /// Warp scheduling policy.
    pub policy: SchedulingPolicy,
    /// Table II model.
    pub model: Model,
    /// Representative-selection method.
    pub selection: SelectionMethod,
    /// Cluster weighting.
    pub weighting: Weighting,
}

impl BatchJob {
    /// A job with the paper's default options (round-robin, full
    /// `MT_MSHR_BAND`, clustering selection, single representative).
    #[must_use]
    pub fn new(label: impl Into<String>, trace: Arc<KernelTrace>, cfg: SimConfig) -> Self {
        Self {
            label: label.into(),
            trace,
            cfg,
            policy: SchedulingPolicy::RoundRobin,
            model: Model::MtMshrBand,
            selection: SelectionMethod::Clustering,
            weighting: Weighting::SingleRepresentative,
        }
    }
}

/// Requested worker count clamped to the host: the pipeline is CPU-bound,
/// so threads beyond [`std::thread::available_parallelism`] only add
/// context-switch and allocator-contention overhead (measurably so on
/// small hosts).
fn effective_workers(requested: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    requested.clamp(1, host)
}

/// Parallel batch executor with a shared [`ProfileCache`] and the trace
/// fingerprints of every trace it has seen that is still alive.
///
/// The configured worker count is a *ceiling*: the engine never runs more
/// threads than the host exposes (see [`BatchEngine::effective_workers`]).
/// At one worker [`pool::run_indexed`](crate::pool::run_indexed) runs the
/// jobs on the calling thread; above that it spawns exactly what it is
/// asked for — the clamp is engine policy, kept out of the pool so tests
/// can still exercise real oversubscription.
#[derive(Debug)]
pub struct BatchEngine {
    cache: ProfileCache,
    workers: usize,
    fingerprints: FingerprintMemo,
}

impl BatchEngine {
    /// An engine with up to `workers` threads and a fresh in-memory cache.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_cache(workers, ProfileCache::in_memory())
    }

    /// An engine sharing an existing cache (e.g. a disk-backed one).
    #[must_use]
    pub fn with_cache(workers: usize, cache: ProfileCache) -> Self {
        Self { cache, workers, fingerprints: FingerprintMemo::default() }
    }

    /// The engine's profile cache.
    #[must_use]
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// Traces whose fingerprint the engine remembers: at most the number
    /// of traces alive when it last hashed one.
    #[must_use]
    pub fn remembered_traces(&self) -> usize {
        self.fingerprints.len()
    }

    /// Worker threads a batch actually runs with: the configured count
    /// clamped to the host's available parallelism (never zero).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        effective_workers(self.workers)
    }

    /// Runs every job, returning one outcome per job in job order.
    ///
    /// Failures are per-job: an invalid configuration, a model error, or
    /// even a panicking worker surfaces as that job's [`BatchError`] —
    /// which names the job and its configuration — while the rest of the
    /// batch completes.
    #[must_use]
    pub fn run(&self, jobs: &[BatchJob]) -> Vec<Result<Prediction, BatchError>> {
        self.run_with(jobs, &BatchOptions::default())
    }

    /// The resilient batch entry point: [`BatchEngine::run`] under a
    /// [`BatchOptions`] bundle of deadline, per-job timeout,
    /// circuit-breaker, and journal/resume behavior.
    ///
    /// Jobs that exhaust their time budget fail with
    /// [`ExecError::Deadline`]; explicitly cancelled runs with
    /// [`ExecError::Cancelled`]; jobs skipped by an open breaker with
    /// [`ExecError::CircuitOpen`]. Every other job completes normally —
    /// byte-identical to an unconstrained run.
    #[must_use]
    pub fn run_with(
        &self,
        jobs: &[BatchJob],
        opts: &BatchOptions,
    ) -> Vec<Result<Prediction, BatchError>> {
        let _span = gpumech_obs::span!("exec.batch.run", jobs = jobs.len(), workers = self.workers);
        let effective = self.effective_workers();
        if effective < self.workers {
            // Oversubscription is silently corrected; the counter makes
            // the correction visible to operators comparing configured
            // vs. actual throughput.
            gpumech_obs::counter!("exec.pool.workers_clamped");
        }
        let keys: Vec<CacheKey> = self
            .fingerprints
            .of(jobs)
            .into_iter()
            .zip(config_fingerprints(jobs))
            .map(|(trace, config)| CacheKey { trace, config })
            .collect();
        // Journal keys are read only by the journal and by a failed job's
        // error, which computes its own below.
        let fingerprints: Option<Vec<u64>> = (opts.journal.is_some() || opts.resume).then(|| {
            jobs.iter().zip(&keys).map(|(job, key)| job_fingerprint(key.trace, job)).collect()
        });
        let job_key = |i: usize| match &fingerprints {
            Some(fps) => fps[i],
            None => job_fingerprint(keys[i].trace, &jobs[i]),
        };

        let journal = opts.journal.as_ref().map(Journal::new);
        let completed = if opts.resume {
            journal.as_ref().map(Journal::load).unwrap_or_default()
        } else {
            HashMap::new()
        };
        let breaker = opts.breaker_threshold.map(CircuitBreaker::new);
        let run_token = opts.run_token();

        let results = run_indexed(effective, jobs, |i, job| {
            if let Some(entry) = fingerprints.as_ref().and_then(|fps| completed.get(&fps[i])) {
                gpumech_obs::counter!("exec.resilience.journal_hits");
                return serde_json::from_str::<Prediction>(&entry.prediction).map_err(|e| {
                    ExecError::Model(ModelError::Execution(format!("journal replay: {e}")))
                });
            }
            // Check the whole-run budget before spending anything on this
            // job (jobs the run outlived fail fast and uniformly), then
            // the breaker, then actually attempt it. Skipped jobs record
            // nothing against the breaker — only real attempts count.
            let mut outcome = match run_token.check().map_err(ExecError::from) {
                Err(e) => Err(e),
                Ok(()) => match breaker.as_ref().and_then(|b| b.is_open(&job.trace.name)) {
                    Some(failures) => {
                        gpumech_obs::counter!("exec.resilience.breaker_open");
                        Err(ExecError::CircuitOpen { kernel: job.trace.name.clone(), failures })
                    }
                    None => {
                        let outcome = self.run_job(job, keys[i], &opts.job_token(&run_token));
                        if let Some(b) = &breaker {
                            match &outcome {
                                Ok(_) => b.record_success(&job.trace.name),
                                Err(_) => {
                                    if b.record_failure(&job.trace.name) {
                                        gpumech_obs::counter!("exec.resilience.breaker_trips");
                                    }
                                }
                            }
                        }
                        outcome
                    }
                },
            };
            match &outcome {
                Err(ExecError::Deadline) => gpumech_obs::counter!("exec.resilience.deadline"),
                Err(ExecError::Cancelled) => gpumech_obs::counter!("exec.resilience.cancelled"),
                _ => {}
            }
            if let (Ok(p), Some(j)) = (&mut outcome, &journal) {
                if let Ok(json) = canonical_prediction_json(p) {
                    // A failed append costs resumability, not correctness;
                    // the warning travels with the prediction.
                    if let Err(w) = j.append(job_key(i), &job.label, &json) {
                        p.warnings.push(format!("cache: {w}"));
                    }
                }
            }
            outcome
        });
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map_err(|error| BatchError {
                    label: jobs[i].label.clone(),
                    config_fingerprint: job_key(i),
                    error,
                })
            })
            .collect()
    }

    /// One job, under its own token.
    fn run_job(
        &self,
        job: &BatchJob,
        key: CacheKey,
        token: &CancelToken,
    ) -> Result<Prediction, ExecError> {
        // Validate the *full* configuration before consulting the
        // cache: the fingerprint deliberately ignores prediction-stage
        // fields, so a NaN bandwidth must not ride in on a cache hit.
        job.cfg.validate().map_err(|e| ExecError::Model(ModelError::InvalidConfig(e)))?;
        let model = Gpumech::new(job.cfg.clone());
        let (entry, cache_warnings) =
            self.cache.entry_logged(key, || model.analyze_cancellable(&job.trace, token))?;
        // Every job over this entry shares its selection by this method.
        let selection = entry.selection(job.selection, token)?;
        let request = PredictionRequest::from_analysis(entry.analysis())
            .policy(job.policy)
            .model(job.model)
            .selection(job.selection)
            .weighting(job.weighting)
            .selected(&selection)
            .cancel(token.clone());
        let mut p = model.run(&request).map_err(ExecError::from)?;
        // Disk-layer incidents (quarantined corrupt entries, failed
        // persists) ride along as warnings: environmental, so prefixed and
        // stripped from the canonical JSON used for byte-identity.
        p.warnings.extend(cache_warnings.into_iter().map(|w| format!("cache: {w}")));
        Ok(p)
    }
}

/// Fingerprint identifying one batch job for the resume journal: the
/// trace content, the *full* configuration (prediction-stage fields
/// included — they change the answer even when they don't change the
/// analysis), every pipeline option, and the label (so two sweep points
/// that happen to share a config stay distinct). Counted under
/// `exec.fingerprint.job_keys`.
#[must_use]
pub fn job_fingerprint(trace_fp: u64, job: &BatchJob) -> u64 {
    gpumech_obs::counter!("exec.fingerprint.job_keys");
    let cfg = serde_json::to_string(&job.cfg).unwrap_or_else(|_| format!("{:?}", job.cfg));
    let blob = format!(
        "{trace_fp:016x}|{}|{cfg}|{:?}|{:?}|{:?}|{:?}",
        job.label, job.policy, job.model, job.selection, job.weighting
    );
    payload_checksum(blob.as_bytes())
}

/// Trace fingerprints remembered per allocation, for as long as it lives.
///
/// Keyed by `Arc::as_ptr`; each entry holds a `Weak` to the trace it was
/// computed from, and a hit needs that `Weak` to upgrade to the very
/// allocation asked about. That proves the content is what was hashed:
/// `Arc::get_mut` fails while a `Weak` exists, `Arc::make_mut` moves the
/// value away from its `Weak`s, a live `Weak` keeps the address from
/// being reused, and `KernelTrace` has no interior mutability. The value
/// is [`trace_fingerprint`]'s, so every cache filename, journal key and
/// shard manifest is the same as without the memo. Entries of dropped
/// traces are pruned on insert, so the map never outgrows the traces that
/// were alive at its last insert.
#[derive(Debug, Default)]
struct FingerprintMemo(Mutex<HashMap<usize, (Weak<KernelTrace>, u64)>>);

impl FingerprintMemo {
    /// The trace fingerprint of every job, each distinct `Arc` looked up
    /// once per call; `exec.fingerprint.{computed,reused}` count those
    /// lookups by outcome.
    fn of(&self, jobs: &[BatchJob]) -> Vec<u64> {
        let mut this_call: HashMap<usize, u64> = HashMap::new();
        let mut computed = 0u64;
        let fps = jobs
            .iter()
            .map(|job| {
                *this_call.entry(Arc::as_ptr(&job.trace) as usize).or_insert_with(|| {
                    self.get(&job.trace).unwrap_or_else(|| {
                        computed += 1;
                        self.compute(&job.trace)
                    })
                })
            })
            .collect();
        gpumech_obs::counter!("exec.fingerprint.computed", computed);
        gpumech_obs::counter!("exec.fingerprint.reused", this_call.len() as u64 - computed);
        fps
    }

    fn get(&self, trace: &Arc<KernelTrace>) -> Option<u64> {
        let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let (weak, fp) = memo.get(&(Arc::as_ptr(trace) as usize))?;
        weak.upgrade().is_some_and(|held| Arc::ptr_eq(&held, trace)).then_some(*fp)
    }

    /// Hashes `trace` outside the lock — a cold trace must not hold up
    /// warm lookups from other threads — and remembers the value.
    fn compute(&self, trace: &Arc<KernelTrace>) -> u64 {
        let fp = trace_fingerprint(trace);
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        memo.retain(|_, (weak, _)| weak.strong_count() > 0);
        memo.insert(Arc::as_ptr(trace) as usize, (Arc::downgrade(trace), fp));
        fp
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// [`analysis_config_fingerprint`](crate::cache::analysis_config_fingerprint)
/// of every job's configuration, each distinct analysis-relevant
/// configuration serialized once: a sweep over prediction-stage fields
/// normalizes to one.
fn config_fingerprints(jobs: &[BatchJob]) -> Vec<u64> {
    let mut seen: Vec<(SimConfig, u64)> = Vec::new();
    jobs.iter()
        .map(|job| {
            let normalized = analysis_config(&job.cfg);
            if let Some((_, fp)) = seen.iter().find(|(cfg, _)| *cfg == normalized) {
                return *fp;
            }
            let fp = normalized_config_fingerprint(&normalized);
            seen.push((normalized, fp));
            fp
        })
        .collect()
}

/// [`job_fingerprint`] over a whole job list — exactly the journal keys
/// [`BatchEngine::run_with`] computes. This is the enumeration-order
/// fingerprint list sharded sweeps partition on and stamp into their
/// manifests, so the shard partitioner and the journal key agree.
#[must_use]
pub fn job_fingerprints(jobs: &[BatchJob]) -> Vec<u64> {
    let traces = FingerprintMemo::default().of(jobs);
    jobs.iter().zip(traces).map(|(job, fp)| job_fingerprint(fp, job)).collect()
}

/// Canonical JSON of a prediction for byte-identity assertions:
/// `cache: `-prefixed warnings (the only environment-dependent bytes in a
/// [`Prediction`] — a quarantined disk entry changes what happened, not
/// what was predicted) are dropped before serializing.
///
/// # Errors
///
/// Returns [`ModelError::Execution`] if serialization fails (unreachable
/// for predictions produced by this workspace).
pub fn canonical_prediction_json(p: &Prediction) -> Result<String, ModelError> {
    let mut canon = p.clone();
    canon.warnings.retain(|w| !w.starts_with("cache: "));
    serde_json::to_string(&canon).map_err(|e| ModelError::Execution(format!("serialize: {e}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::cache::analysis_config_fingerprint;
    use gpumech_trace::workloads;

    fn job(name: &str, cfg: SimConfig) -> BatchJob {
        let trace =
            Arc::new(workloads::by_name(name).unwrap().with_blocks(2).trace().unwrap());
        BatchJob::new(name, trace, cfg)
    }

    #[test]
    fn batch_matches_sequential_run_per_job() {
        let names = ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping"];
        let jobs: Vec<BatchJob> = names.iter().map(|n| job(n, SimConfig::default())).collect();
        let engine = BatchEngine::new(2);
        let batch = engine.run(&jobs);
        for (j, got) in jobs.iter().zip(&batch) {
            let model = Gpumech::new(j.cfg.clone());
            let seq = model.run(&PredictionRequest::from_trace(&j.trace)).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(&seq, got, "{}", j.label);
            assert_eq!(
                canonical_prediction_json(&seq).unwrap(),
                canonical_prediction_json(got).unwrap()
            );
        }
    }

    #[test]
    fn config_sweep_reuses_one_analysis_per_trace() {
        let sweep: Vec<BatchJob> = [48.0, 96.0, 192.0]
            .into_iter()
            .map(|bw| {
                job("cfd_step_factor", SimConfig { dram_bandwidth_gbps: bw, ..SimConfig::default() })
            })
            .collect();
        let engine = BatchEngine::new(2);
        let out = engine.run(&sweep);
        assert!(out.iter().all(Result::is_ok));
        // One trace, three prediction-only configs: exactly one cache entry.
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn invalid_config_fails_only_its_job_and_names_it() {
        let mut jobs =
            vec![job("sdk_vectoradd", SimConfig::default()), job("bfs_kernel1", SimConfig::default())];
        jobs[1].cfg.num_mshrs = 0;
        let out = BatchEngine::new(2).run(&jobs);
        assert!(out[0].is_ok());
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(err.error, ExecError::Model(ModelError::InvalidConfig(_))));
        // The error payload identifies the failing job without positional
        // bookkeeping: its label and its config fingerprint.
        assert_eq!(err.label, "bfs_kernel1");
        let key = cache_key_for(&jobs[1]);
        assert_eq!(err.config_fingerprint, job_fingerprint(key.trace, &jobs[1]));
        assert!(err.to_string().contains("bfs_kernel1"), "{err}");
    }

    fn cache_key_for(job: &BatchJob) -> CacheKey {
        CacheKey {
            trace: trace_fingerprint(&job.trace),
            config: analysis_config_fingerprint(&job.cfg),
        }
    }
}
