//! The end-to-end GPUMech pipeline (Figure 5): input collection →
//! per-warp interval profiles → representative-warp selection → multi-warp
//! model → contention model → CPI stack.

use std::fmt;

use gpumech_isa::{ConfigError, SchedulingPolicy, SimConfig, UnknownWord};
use gpumech_mem::{simulate_hierarchy_cancellable, MemStats};
use gpumech_obs::{CancelToken, Interrupt};
use gpumech_trace::{KernelTrace, TraceError, WarpTrace};
use serde::{Deserialize, Serialize};

use crate::baselines::{markov_chain_cpi, naive_interval_cpi};
use crate::cluster::{Selection, SelectionMethod};
use crate::contention::{contention_cpi, ContentionResult};
use crate::cpistack::CpiStack;
use crate::interval::{IntervalProfile, ProfileBuilder};
use crate::multiwarp::{multithreading_cpi, MultithreadingResult};
use crate::request::{PredictionRequest, Source, Weighting};

/// The evaluated models of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    /// Optimistic overlap (Equation 1).
    NaiveInterval,
    /// Chen-Aamodt Markov-chain model (Section VIII-A).
    MarkovChain,
    /// Multithreading model only (Section IV-A).
    Mt,
    /// Multithreading + MSHR contention (Section IV-B1).
    MtMshr,
    /// Multithreading + MSHR + DRAM bandwidth — full GPUMech.
    MtMshrBand,
}

impl Model {
    /// All models in Table II order.
    pub const ALL: [Model; 5] =
        [Model::NaiveInterval, Model::MarkovChain, Model::Mt, Model::MtMshr, Model::MtMshrBand];
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Model::NaiveInterval => "Naive_Interval",
            Model::MarkovChain => "Markov_Chain",
            Model::Mt => "MT",
            Model::MtMshr => "MT_MSHR",
            Model::MtMshrBand => "MT_MSHR_BAND",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Model {
    type Err = UnknownWord;

    /// Parses the request word for a model: `naive`, `markov`, `mt`,
    /// `mt_mshr`, or `full` (alias `mt_mshr_band`).
    fn from_str(s: &str) -> Result<Self, UnknownWord> {
        match s {
            "naive" => Ok(Model::NaiveInterval),
            "markov" => Ok(Model::MarkovChain),
            "mt" => Ok(Model::Mt),
            "mt_mshr" => Ok(Model::MtMshr),
            "full" | "mt_mshr_band" => Ok(Model::MtMshrBand),
            other => Err(UnknownWord {
                value: other.to_string(),
                expected: "naive|markov|mt|mt_mshr|full",
            }),
        }
    }
}

/// Error produced by the modeling pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Functional tracing failed.
    Trace(TraceError),
    /// The machine configuration is inconsistent.
    InvalidConfig(ConfigError),
    /// The kernel produced no instructions to model.
    EmptyKernel,
    /// A [`PredictionRequest`] combined options that contradict each other
    /// (e.g. population weighting without clustering selection, or an
    /// explicit representative outside the analyzed grid).
    InvalidRequest(String),
    /// An execution layer driving the model (worker pool, cache) failed
    /// outside the model proper.
    Execution(String),
    /// The pipeline was interrupted by a [`CancelToken`] (explicit
    /// cancellation or an expired deadline) before the prediction finished.
    ///
    /// [`CancelToken`]: gpumech_obs::CancelToken
    Interrupted(Interrupt),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Trace(e) => write!(f, "trace generation failed: {e}"),
            ModelError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            ModelError::EmptyKernel => f.write_str("kernel produced no instructions"),
            ModelError::InvalidRequest(why) => write!(f, "invalid prediction request: {why}"),
            ModelError::Execution(why) => write!(f, "execution failed: {why}"),
            ModelError::Interrupted(why) => write!(f, "pipeline interrupted: {why}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Trace(e) => Some(e),
            ModelError::InvalidConfig(e) => Some(e),
            ModelError::EmptyKernel
            | ModelError::InvalidRequest(_)
            | ModelError::Execution(_)
            | ModelError::Interrupted(_) => None,
        }
    }
}

impl From<TraceError> for ModelError {
    fn from(e: TraceError) -> Self {
        ModelError::Trace(e)
    }
}

/// The reusable intermediate of the pipeline: cache statistics and per-warp
/// interval profiles. Computing it once and predicting many times is how
/// the harnesses evaluate all five models (and both policies) per kernel —
/// the same reuse the paper exploits when exploring hardware
/// configurations (Section VI-D).
///
/// Serializable so execution layers can persist analyses in a
/// content-addressed profile cache and reuse them across processes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Per-PC cache statistics of the functional hierarchy simulation.
    pub mem: MemStats,
    /// Interval profile of every warp in the grid.
    pub profiles: Vec<IntervalProfile>,
    /// Warps resident per core under the analyzed configuration.
    pub effective_warps: usize,
}

/// The model's output for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Which Table II model produced this prediction.
    pub model: Model,
    /// Scheduling policy modeled.
    pub policy: SchedulingPolicy,
    /// The CPI stack; [`CpiStack::total`] is the predicted core CPI.
    pub cpi: CpiStack,
    /// Index of the representative warp in the grid.
    pub representative: usize,
    /// Warps modeled per core.
    pub warps_per_core: usize,
    /// Representative warp's single-warp CPI.
    pub single_warp_cpi: f64,
    /// Multithreading-model detail (Equations 7-16).
    pub multithreading: MultithreadingResult,
    /// Contention-model detail (zeroed for models that exclude it).
    pub contention: ContentionResult,
    /// Human-readable degradation notices. Empty for a clean prediction;
    /// non-empty when the pipeline downgraded itself (e.g. k-means
    /// degenerated and a population-weighted selection was used instead).
    pub warnings: Vec<String>,
}

impl Prediction {
    /// Predicted core CPI (`CPI_final` of Equation 3).
    #[must_use]
    pub fn cpi_total(&self) -> f64 {
        self.cpi.total()
    }

    /// Predicted core IPC.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let c = self.cpi_total();
        if c == 0.0 { 0.0 } else { 1.0 / c }
    }
}

fn zero_contention(n: usize) -> ContentionResult {
    ContentionResult {
        cpi: 0.0,
        cpi_mshr: 0.0,
        cpi_queue: 0.0,
        cpi_sfu: 0.0,
        mshr_delays: vec![0.0; n],
        bandwidth_delays: vec![0.0; n],
    }
}

/// The GPUMech model, configured for one machine (Table I by default).
#[derive(Debug, Clone)]
pub struct Gpumech {
    cfg: SimConfig,
}

impl Gpumech {
    /// Creates a model for the given machine configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The machine configuration being modeled.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Executes a [`PredictionRequest`] — the single supported entry point
    /// into the pipeline.
    ///
    /// The request's source decides how much of the pipeline runs: a
    /// workload is traced first, a trace is analyzed first, and a
    /// precomputed [`Analysis`] goes straight to representative selection
    /// and the multi-warp + contention models. A request that carries a
    /// precomputed [`Selection`] skips selection too.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`], [`ModelError::Trace`], or
    /// [`ModelError::EmptyKernel`] from the analysis stages, and
    /// [`ModelError::InvalidRequest`] when the request's options
    /// contradict each other: population weighting combined with a
    /// non-clustering selection, population weighting of an explicit
    /// profile, a profile index outside the analyzed grid, or a
    /// precomputed selection made by another method, over another warp
    /// count, or beside a source other than an analysis.
    pub fn run(&self, request: &PredictionRequest<'_>) -> Result<Prediction, ModelError> {
        request.cancel.check().map_err(ModelError::Interrupted)?;
        if let Some(selected) = request.selected {
            if !matches!(request.source, Source::Analysis(_)) {
                return Err(ModelError::InvalidRequest(
                    "a precomputed selection needs a precomputed analysis".to_owned(),
                ));
            }
            if selected.method != request.selection {
                return Err(ModelError::InvalidRequest(format!(
                    "precomputed selection was made by {:?}, the request asks for {:?}",
                    selected.method,
                    request.selection
                )));
            }
        }
        if request.weighting == Weighting::PopulationWeighted {
            if request.selection != SelectionMethod::Clustering {
                return Err(ModelError::InvalidRequest(format!(
                    "population weighting requires clustering selection, not {:?}",
                    request.selection
                )));
            }
            if matches!(request.source, Source::Profile { .. }) {
                return Err(ModelError::InvalidRequest(
                    "population weighting contradicts an explicit representative profile"
                        .to_owned(),
                ));
            }
        }
        let cancel = &request.cancel;
        let owned: Analysis;
        let analysis: &Analysis = match &request.source {
            Source::Workload(w) => {
                let trace = w.trace_cancellable(cancel)?;
                owned = self.analyze_cancellable(&trace, cancel)?;
                &owned
            }
            Source::Trace(t) => {
                owned = self.analyze_cancellable(t, cancel)?;
                &owned
            }
            Source::Analysis(a) => a,
            Source::Profile { analysis, .. } => analysis,
        };
        cancel.check().map_err(ModelError::Interrupted)?;
        if let Source::Profile { rep, .. } = request.source {
            if rep >= analysis.profiles.len() {
                return Err(ModelError::InvalidRequest(format!(
                    "representative {rep} out of range for an analysis of {} warps",
                    analysis.profiles.len()
                )));
            }
            return Ok(self.profile_prediction(analysis, rep, request.policy, request.model));
        }
        let made: Selection;
        let selection = match request.selected {
            Some(s) if s.warps != analysis.profiles.len() => {
                return Err(ModelError::InvalidRequest(format!(
                    "precomputed selection over {} warps for an analysis of {} warps",
                    s.warps,
                    analysis.profiles.len()
                )));
            }
            Some(s) => s,
            None => {
                made = Selection::new(analysis, request.selection, cancel)
                    .map_err(ModelError::Interrupted)?;
                &made
            }
        };
        if request.weighting == Weighting::PopulationWeighted {
            return Ok(self.weighted_prediction(analysis, selection, request.policy, request.model));
        }
        Ok(self.selected_prediction(analysis, selection, request.policy, request.model))
    }

    /// Runs the input collector (functional cache simulation) and the
    /// interval algorithm for every warp — the per-kernel one-time cost.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] or [`ModelError::EmptyKernel`].
    pub fn analyze(&self, trace: &KernelTrace) -> Result<Analysis, ModelError> {
        self.analyze_cancellable(trace, &CancelToken::never())
    }

    /// [`Gpumech::analyze`] under a [`CancelToken`]: the cache simulation
    /// polls the token as it replays and the interval profiler checks it
    /// before every warp, so an expired deadline or explicit cancellation
    /// aborts the analysis within a bounded amount of work.
    ///
    /// # Errors
    ///
    /// Same as [`Gpumech::analyze`], plus [`ModelError::Interrupted`] once
    /// `cancel` fires.
    pub fn analyze_cancellable(
        &self,
        trace: &KernelTrace,
        cancel: &CancelToken,
    ) -> Result<Analysis, ModelError> {
        self.analyze_with_cancel(
            trace,
            |warps, cfg, mem| {
                ProfileBuilder::new(cfg, mem)
                    .build_all(warps, || cancel.check().map_err(ModelError::Interrupted))
            },
            cancel,
        )
    }

    /// [`Gpumech::analyze`] with a pluggable per-warp profiler — the seam
    /// that lets execution layers parallelize interval-profile
    /// construction without this crate depending on them.
    ///
    /// `profiler` receives every warp of the validated trace plus the
    /// shared cache statistics and must return one [`IntervalProfile`]
    /// per warp, in warp order. The sequential [`Gpumech::analyze`] is
    /// exactly this method with a serial `build_profile` loop, so a
    /// profiler that computes the same profiles (in any execution order)
    /// yields a bit-identical [`Analysis`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`], [`ModelError::Trace`], or
    /// [`ModelError::EmptyKernel`] for invalid inputs; any error from
    /// `profiler` is propagated, and a profiler returning the wrong
    /// number of profiles surfaces as [`ModelError::Execution`].
    pub fn analyze_with<F>(&self, trace: &KernelTrace, profiler: F) -> Result<Analysis, ModelError>
    where
        F: FnOnce(&[WarpTrace], &SimConfig, &MemStats) -> Result<Vec<IntervalProfile>, ModelError>,
    {
        self.analyze_with_cancel(trace, profiler, &CancelToken::never())
    }

    /// [`Gpumech::analyze_with`] under a [`CancelToken`]: the cache
    /// simulation polls `cancel` as it replays; `profiler` is responsible
    /// for its own polling (the sequential profiler checks between warps).
    ///
    /// # Errors
    ///
    /// Same as [`Gpumech::analyze_with`], plus [`ModelError::Interrupted`]
    /// once `cancel` fires.
    pub fn analyze_with_cancel<F>(
        &self,
        trace: &KernelTrace,
        profiler: F,
        cancel: &CancelToken,
    ) -> Result<Analysis, ModelError>
    where
        F: FnOnce(&[WarpTrace], &SimConfig, &MemStats) -> Result<Vec<IntervalProfile>, ModelError>,
    {
        let _span = gpumech_obs::span!(
            "core.pipeline.analyze",
            name = trace.name.as_str(),
            warps = trace.warps.len(),
        );
        self.cfg.validate().map_err(ModelError::InvalidConfig)?;
        trace.validate().map_err(ModelError::Trace)?;
        if trace.total_insts() == 0 {
            return Err(ModelError::EmptyKernel);
        }
        let mem = simulate_hierarchy_cancellable(trace, &self.cfg, cancel)
            .map_err(ModelError::Interrupted)?;
        let profiles: Vec<IntervalProfile> = {
            let _span = gpumech_obs::span!("core.pipeline.intervals", warps = trace.warps.len());
            profiler(&trace.warps, &self.cfg, &mem)?
        };
        if profiles.len() != trace.warps.len() {
            return Err(ModelError::Execution(format!(
                "profiler returned {} profiles for {} warps",
                profiles.len(),
                trace.warps.len()
            )));
        }
        let effective_warps = (trace.launch.blocks_per_core(self.cfg.max_warps_per_core)
            * trace.launch.warps_per_block())
        .min(trace.launch.total_warps());
        Ok(Analysis { mem, profiles, effective_warps })
    }

    /// Predicts from `selection`'s representative warp.
    fn selected_prediction(
        &self,
        analysis: &Analysis,
        selection: &Selection,
        policy: SchedulingPolicy,
        model: Model,
    ) -> Prediction {
        if selection.degenerate {
            // Graceful degradation: the cluster structure is unreliable
            // (non-finite features or Lloyd non-convergence), so blend by
            // population instead of trusting one representative.
            let mut p = self.weighted_prediction(analysis, selection, policy, model);
            p.warnings.push(
                "k-means clustering degenerated (non-finite features or no convergence); \
                 downgraded to population-weighted cluster selection"
                    .to_owned(),
            );
            return p;
        }
        self.profile_prediction(analysis, selection.representative, policy, model)
    }

    /// Runs the multi-warp + contention models for one explicit warp's
    /// profile (the building block of both the standard single-
    /// representative prediction and the weighted-clusters extension).
    /// `rep` must be in range for the analysis.
    fn profile_prediction(
        &self,
        analysis: &Analysis,
        rep: usize,
        policy: SchedulingPolicy,
        model: Model,
    ) -> Prediction {
        let _span = gpumech_obs::span!(
            "core.pipeline.predict",
            representative = rep,
            warps = analysis.effective_warps,
        );
        let profile = &analysis.profiles[rep];
        let warps = analysis.effective_warps.max(1);
        let n_intervals = profile.intervals.len();

        let mt = multithreading_cpi(profile, warps, policy);
        let (mt, rc) = match model {
            Model::NaiveInterval => {
                let cpi = naive_interval_cpi(profile, warps);
                (
                    MultithreadingResult {
                        cpi,
                        total_nonoverlapped: 0.0,
                        per_interval: vec![0.0; n_intervals],
                        num_warps: warps,
                    },
                    zero_contention(n_intervals),
                )
            }
            Model::MarkovChain => {
                let cpi = markov_chain_cpi(profile, warps);
                (
                    MultithreadingResult {
                        cpi,
                        total_nonoverlapped: 0.0,
                        per_interval: vec![0.0; n_intervals],
                        num_warps: warps,
                    },
                    zero_contention(n_intervals),
                )
            }
            Model::Mt => (mt, zero_contention(n_intervals)),
            Model::MtMshr => {
                let mut rc =
                    contention_cpi(profile, &self.cfg, warps, analysis.mem.avg_miss_latency(), mt.cpi);
                rc.cpi_queue = 0.0;
                rc.cpi_sfu = 0.0;
                rc.bandwidth_delays = vec![0.0; n_intervals];
                rc.cpi = rc.cpi_mshr;
                (mt, rc)
            }
            Model::MtMshrBand => {
                let rc =
                    contention_cpi(profile, &self.cfg, warps, analysis.mem.avg_miss_latency(), mt.cpi);
                (mt, rc)
            }
        };

        let cpi = CpiStack::multi_warp(profile, &analysis.mem, &mt, &rc);
        Prediction {
            model,
            policy,
            cpi,
            representative: rep,
            warps_per_core: warps,
            single_warp_cpi: profile.single_warp_cpi(),
            multithreading: mt,
            contention: rc,
            warnings: Vec::new(),
        }
    }

    /// **Extension beyond the paper**: population-weighted two-cluster
    /// prediction.
    ///
    /// The paper represents a kernel by the single warp nearest the
    /// *larger* cluster's centroid, which systematically underestimates
    /// kernels whose two warp populations both carry significant runtime
    /// (the residual errors visible in Figure 7). This method predicts
    /// once per cluster — using each cluster's own representative — and
    /// blends the CPI stacks by cluster population. With homogeneous warps
    /// it degenerates to the paper's method.
    ///
    /// Linearity keeps Equation 3 intact: the blended stack still sums to
    /// the blended `CPI_mt + CPI_rc`.
    ///
    /// The body of [`Gpumech::run`]'s population-weighted path and of the
    /// degenerate-clustering fallback, over `selection`'s clusters.
    fn weighted_prediction(
        &self,
        analysis: &Analysis,
        selection: &Selection,
        policy: SchedulingPolicy,
        model: Model,
    ) -> Prediction {
        let mut blended: Option<Prediction> = None;
        for &(rep, weight) in &selection.clusters {
            let p = self.profile_prediction(analysis, rep, policy, model);
            blended = Some(match blended {
                None => weighted(&p, weight),
                Some(acc) => {
                    let w = weighted(&p, weight);
                    let mut out = acc;
                    out.cpi = out.cpi.plus(&w.cpi);
                    out.multithreading.cpi += w.multithreading.cpi;
                    out.multithreading.total_nonoverlapped +=
                        w.multithreading.total_nonoverlapped;
                    out.contention.cpi += w.contention.cpi;
                    out.contention.cpi_mshr += w.contention.cpi_mshr;
                    out.contention.cpi_queue += w.contention.cpi_queue;
                    out.contention.cpi_sfu += w.contention.cpi_sfu;
                    out.single_warp_cpi += w.single_warp_cpi;
                    out
                }
            });
        }
        // At least one cluster is always populated; the fallback covers a
        // (theoretically unreachable) fully-empty assignment without a panic.
        let rep = selection.representative;
        let mut p =
            blended.unwrap_or_else(|| self.profile_prediction(analysis, rep, policy, model));
        p.representative = rep;
        p
    }
}

/// Scales a prediction's additive components by `weight` (helper for the
/// weighted-clusters blend).
fn weighted(p: &Prediction, weight: f64) -> Prediction {
    let mut out = p.clone();
    out.cpi = p.cpi.scaled(weight);
    out.multithreading.cpi *= weight;
    out.multithreading.total_nonoverlapped *= weight;
    out.contention.cpi *= weight;
    out.contention.cpi_mshr *= weight;
    out.contention.cpi_queue *= weight;
    out.contention.cpi_sfu *= weight;
    out.single_warp_cpi *= weight;
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::workloads;

    fn model() -> Gpumech {
        Gpumech::new(SimConfig::default())
    }

    fn trace_of(name: &str, blocks: usize) -> KernelTrace {
        workloads::by_name(name).expect("bundled").with_blocks(blocks).trace().expect("traces")
    }

    #[test]
    fn full_pipeline_produces_consistent_prediction() {
        let w = workloads::by_name("cfd_step_factor").unwrap().with_blocks(16);
        let p = model().run(&PredictionRequest::from_workload(&w)).unwrap();
        assert_eq!(p.model, Model::MtMshrBand);
        assert!(p.cpi_total() >= 1.0, "core CPI below the issue bound: {}", p.cpi_total());
        assert!(p.single_warp_cpi > p.cpi_total(), "multithreading must help");
        assert!((p.ipc() - 1.0 / p.cpi_total()).abs() < 1e-12);
        // Stack identity: total = CPI_mt + CPI_rc (Equation 3).
        assert!(
            (p.cpi_total() - (p.multithreading.cpi + p.contention.cpi)).abs() < 1e-9,
            "Equation 3 violated"
        );
    }

    #[test]
    fn table2_models_order_errors_on_a_divergent_kernel() {
        // On a divergent kernel the optimistic models must predict lower
        // CPI than the contention-aware ones.
        let t = trace_of("kmeans_invert_mapping", 16);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let cpi = |mo: Model| {
            m.run(&PredictionRequest::from_analysis(&a).model(mo)).unwrap().cpi_total()
        };
        let naive = cpi(Model::NaiveInterval);
        let mt = cpi(Model::Mt);
        let mshr = cpi(Model::MtMshr);
        let band = cpi(Model::MtMshrBand);
        assert!(naive <= mt + 1e-9, "naive is the most optimistic: {naive} vs {mt}");
        assert!(mt <= mshr + 1e-9, "MSHR adds delay: {mt} vs {mshr}");
        assert!(mshr <= band + 1e-9, "bandwidth adds delay: {mshr} vs {band}");
        assert!(band > mt, "divergent kernel must show contention");
    }

    #[test]
    fn coalesced_kernel_has_negligible_mshr_delay() {
        let t = trace_of("sdk_vectoradd", 16);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let p = m.run(&PredictionRequest::from_analysis(&a)).unwrap();
        assert!(
            p.contention.cpi_mshr < 0.05 * p.cpi_total(),
            "coalesced loads fit the MSHR file: {} of {}",
            p.contention.cpi_mshr,
            p.cpi_total()
        );
    }

    #[test]
    fn analysis_reuse_matches_direct_prediction() {
        let t = trace_of("parboil_spmv", 8);
        let m = model();
        let policy = SchedulingPolicy::GreedyThenOldest;
        let direct = m.run(&PredictionRequest::from_trace(&t).policy(policy)).unwrap();
        let a = m.analyze(&t).unwrap();
        let reused = m.run(&PredictionRequest::from_analysis(&a).policy(policy)).unwrap();
        assert_eq!(direct, reused);
    }

    #[test]
    fn effective_warps_respects_residency() {
        let m = Gpumech::new(SimConfig::default().with_warps_per_core(8));
        // 8 warps/block but only 8 resident → 1 block resident.
        let t = trace_of("sdk_vectoradd", 16);
        let a = m.analyze(&t).unwrap();
        assert_eq!(a.effective_warps, 8);
        let full = model().analyze(&t).unwrap();
        assert_eq!(full.effective_warps, 32);
    }

    #[test]
    fn model_display_names_match_table2() {
        let names: Vec<String> = Model::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(
            names,
            vec!["Naive_Interval", "Markov_Chain", "MT", "MT_MSHR", "MT_MSHR_BAND"]
        );
    }

    #[test]
    fn invalid_config_is_reported() {
        let cfg = SimConfig { num_mshrs: 0, ..SimConfig::default() };
        let t = trace_of("sdk_vectoradd", 2);
        assert!(matches!(
            Gpumech::new(cfg).analyze(&t),
            Err(ModelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn weighted_clusters_blends_between_the_extremes() {
        // On a bimodal kernel, the blended prediction must lie between the
        // per-cluster extremes (MIN/MAX selections bound it loosely).
        let t = trace_of("lud_diagonal", 16);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let lo = m
            .run(&PredictionRequest::from_analysis(&a).selection(SelectionMethod::Max))
            .unwrap()
            .cpi_total();
        let hi = m
            .run(&PredictionRequest::from_analysis(&a).selection(SelectionMethod::Min))
            .unwrap()
            .cpi_total();
        let blended =
            m.run(&PredictionRequest::from_analysis(&a).population_weighted()).unwrap();
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        assert!(
            blended.cpi_total() >= lo - 1e-9 && blended.cpi_total() <= hi + 1e-9,
            "blend {} outside [{lo}, {hi}]",
            blended.cpi_total()
        );
        // Equation 3 survives the blend.
        assert!(
            (blended.cpi_total()
                - (blended.multithreading.cpi + blended.contention.cpi))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn weighted_clusters_degenerates_on_homogeneous_kernels() {
        let t = trace_of("sdk_vectoradd", 8);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let single = m.run(&PredictionRequest::from_analysis(&a)).unwrap();
        let blended =
            m.run(&PredictionRequest::from_analysis(&a).population_weighted()).unwrap();
        let rel = (blended.cpi_total() - single.cpi_total()).abs() / single.cpi_total();
        assert!(rel < 0.05, "homogeneous blend should match single: {rel}");
    }

    #[test]
    fn gto_and_rr_predictions_differ_but_are_sane() {
        let t = trace_of("cfd_compute_flux", 16);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let rr = m.run(&PredictionRequest::from_analysis(&a).model(Model::Mt)).unwrap();
        let gto = m
            .run(
                &PredictionRequest::from_analysis(&a)
                    .model(Model::Mt)
                    .policy(SchedulingPolicy::GreedyThenOldest),
            )
            .unwrap();
        assert!(rr.cpi_total() >= 1.0 && gto.cpi_total() >= 1.0);
    }

    #[test]
    fn contradictory_requests_are_rejected_before_any_work() {
        let t = trace_of("sdk_vectoradd", 2);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let bad = PredictionRequest::from_analysis(&a)
            .selection(SelectionMethod::Max)
            .population_weighted();
        assert!(matches!(m.run(&bad), Err(ModelError::InvalidRequest(_))));
        let bad = PredictionRequest::from_profile(&a, 0).population_weighted();
        assert!(matches!(m.run(&bad), Err(ModelError::InvalidRequest(_))));
        let bad = PredictionRequest::from_profile(&a, a.profiles.len());
        assert!(matches!(m.run(&bad), Err(ModelError::InvalidRequest(_))));
    }

    /// An analysis whose warp 1 issues infinitely fast and stalls for the
    /// least positive time: its performance is infinite, its normalized
    /// feature NaN, so k-means flags the clustering degenerate.
    fn degenerate_analysis() -> Analysis {
        let mut a = model().analyze(&trace_of("bfs_kernel1", 2)).unwrap();
        a.profiles[1] = crate::IntervalProfile {
            intervals: vec![crate::Interval {
                insts: 10,
                stall_cycles: f64::from_bits(1),
                ..crate::Interval::default()
            }]
            .into(),
            issue_rate: f64::INFINITY,
        };
        a
    }

    #[test]
    fn a_precomputed_selection_predicts_the_same_bytes() {
        let m = model();
        let analyses: Vec<Analysis> = ["lud_diagonal", "bfs_kernel1", "sdk_vectoradd"]
            .iter()
            .map(|name| m.analyze(&trace_of(name, 8)).unwrap())
            .chain([degenerate_analysis()])
            .collect();
        let requests = [
            (SelectionMethod::Clustering, Weighting::SingleRepresentative),
            (SelectionMethod::Clustering, Weighting::PopulationWeighted),
            (SelectionMethod::Max, Weighting::SingleRepresentative),
            (SelectionMethod::Min, Weighting::SingleRepresentative),
        ];
        for a in &analyses {
            for (method, weighting) in requests {
                let selection = Selection::new(a, method, &CancelToken::never()).unwrap();
                for model_kind in Model::ALL {
                    for policy in SchedulingPolicy::ALL {
                        let request = PredictionRequest::from_analysis(a)
                            .selection(method)
                            .weighting(weighting)
                            .model(model_kind)
                            .policy(policy);
                        let inline = m.run(&request).unwrap();
                        let given = m.run(&request.clone().selected(&selection)).unwrap();
                        assert_eq!(
                            serde_json::to_string(&inline).unwrap(),
                            serde_json::to_string(&given).unwrap(),
                            "{method:?} {weighting:?} {model_kind} {policy}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_precomputed_selection_must_fit_its_request() {
        let m = model();
        let t = trace_of("bfs_kernel1", 4);
        let a = m.analyze(&t).unwrap();
        let never = CancelToken::never();
        let clustering = Selection::new(&a, SelectionMethod::Clustering, &never).unwrap();
        let max = Selection::new(&a, SelectionMethod::Max, &never).unwrap();
        let invalid = |request: PredictionRequest<'_>| {
            assert!(matches!(m.run(&request), Err(ModelError::InvalidRequest(_))));
        };
        invalid(PredictionRequest::from_analysis(&a).selected(&max));
        let min = PredictionRequest::from_analysis(&a).selection(SelectionMethod::Min);
        invalid(min.selected(&max));
        invalid(PredictionRequest::from_trace(&t).selected(&clustering));
        invalid(PredictionRequest::from_profile(&a, 0).selected(&clustering));
        let other = m.analyze(&trace_of("bfs_kernel1", 2)).unwrap();
        assert_ne!(other.profiles.len(), a.profiles.len());
        invalid(PredictionRequest::from_analysis(&other).selected(&clustering));
        let ok =
            PredictionRequest::from_analysis(&a).selection(SelectionMethod::Max).selected(&max);
        assert_eq!(m.run(&ok).unwrap().representative, max.representative);
    }

    #[test]
    fn explicit_profile_request_models_the_named_warp() {
        let t = trace_of("bfs_kernel1", 4);
        let m = model();
        let a = m.analyze(&t).unwrap();
        let p = m.run(&PredictionRequest::from_profile(&a, 3)).unwrap();
        assert_eq!(p.representative, 3);
        assert!(p.cpi_total() >= 1.0);
    }

    #[test]
    fn analyze_with_custom_profiler_matches_sequential() {
        let t = trace_of("parboil_spmv", 4);
        let m = model();
        let sequential = m.analyze(&t).unwrap();
        // A profiler that builds the same profiles in reverse order still
        // returns them in warp order, so the analyses must be equal.
        let custom = m
            .analyze_with(&t, |warps, cfg, mem| {
                let mut profiles: Vec<_> =
                    warps.iter().rev().map(|w| crate::build_profile(w, cfg, mem)).collect();
                profiles.reverse();
                Ok(profiles)
            })
            .unwrap();
        assert_eq!(sequential, custom);
    }

    #[test]
    fn analyze_with_length_mismatch_is_an_execution_error() {
        let t = trace_of("sdk_vectoradd", 2);
        let err = model().analyze_with(&t, |_, _, _| Ok(Vec::new())).unwrap_err();
        assert!(matches!(err, ModelError::Execution(_)));
    }

    #[test]
    fn run_rejects_a_cancelled_token_before_doing_any_work() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2);
        let cancelled = CancelToken::never();
        cancelled.cancel();
        let err =
            model().run(&PredictionRequest::from_workload(&w).cancel(cancelled)).unwrap_err();
        assert_eq!(err, ModelError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn fake_clock_deadline_interrupts_the_analysis_stages() {
        let t = trace_of("sdk_vectoradd", 2);
        let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
        let token = CancelToken::with_clock(clock, 1_500);
        let err = model().run(&PredictionRequest::from_trace(&t).cancel(token)).unwrap_err();
        assert_eq!(err, ModelError::Interrupted(Interrupt::DeadlineExceeded));

        // `run` polls once, then the cache simulation's gather once per
        // resident warp (8 in a one-block launch) before any replay pass:
        // a clock that runs out at the sixth poll stops inside the gather
        // of the first wave.
        let t = trace_of("sdk_vectoradd", 1);
        let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
        let token = CancelToken::with_clock(clock, 4_500);
        let err = model().run(&PredictionRequest::from_trace(&t).cancel(token)).unwrap_err();
        assert_eq!(err, ModelError::Interrupted(Interrupt::DeadlineExceeded));

        // The interval stage polls once per warp whether it builds the
        // warp's profile or shares an earlier warp's: all eight warps here
        // execute one stream, so seven of the polls are on shared warps,
        // and a clock that runs out at the analysis' last poll stops on
        // the last of them.
        assert!(t.warps.iter().all(|w| w.same_stream(&t.warps[0])));
        let m = model();
        let polls_of = |run: &dyn Fn(&CancelToken)| {
            let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
            run(&CancelToken::with_clock(clock.clone(), u64::MAX - 1));
            gpumech_obs::Clock::now_ns(&*clock) / 1_000
        };
        let mem_polls = polls_of(&|c| {
            simulate_hierarchy_cancellable(&t, m.config(), c).unwrap();
        });
        let polls = polls_of(&|c| {
            m.analyze_cancellable(&t, c).unwrap();
        });
        assert_eq!(polls, mem_polls + t.warps.len() as u64, "one poll per warp");
        let runs_out_at = |poll: u64| {
            let clock = std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000));
            CancelToken::with_clock(clock, poll * 1_000)
        };
        assert_eq!(
            m.analyze_cancellable(&t, &runs_out_at(polls - 1)).unwrap_err(),
            ModelError::Interrupted(Interrupt::DeadlineExceeded)
        );
        assert!(m.analyze_cancellable(&t, &runs_out_at(polls)).is_ok());
    }

    #[test]
    fn cancellable_analysis_is_bit_identical_to_the_plain_one() {
        let t = trace_of("parboil_spmv", 4);
        let m = model();
        let plain = m.analyze(&t).unwrap();
        let live = m.analyze_cancellable(&t, &CancelToken::never()).unwrap();
        assert_eq!(plain, live);
    }
}
