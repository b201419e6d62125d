//! The unified prediction request: one builder that expresses every way
//! of driving the GPUMech pipeline.
//!
//! Ways of driving the pipeline differ only in where the input comes from
//! (a workload, a trace, a finished analysis, one named warp of it) and in
//! how the representative warp is chosen. [`PredictionRequest`] expresses
//! both: pick an input *source* with a constructor, then adjust *options*
//! with builder methods, and hand the request to
//! [`Gpumech::run`](crate::model::Gpumech::run) — the only entry point
//! (the five `predict*` methods it replaced are gone; README lists the
//! request that stands in for each).
//!
//! ```
//! use gpumech_core::{Gpumech, Model, PredictionRequest, SchedulingPolicy};
//! use gpumech_isa::SimConfig;
//! use gpumech_trace::workloads;
//!
//! let w = workloads::by_name("sdk_vectoradd").ok_or("missing")?.with_blocks(4);
//! let req = PredictionRequest::from_workload(&w)
//!     .policy(SchedulingPolicy::GreedyThenOldest)
//!     .model(Model::MtMshr);
//! let p = Gpumech::new(SimConfig::default()).run(&req)?;
//! assert!(p.cpi_total() >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use gpumech_isa::{SchedulingPolicy, UnknownWord};
use gpumech_obs::CancelToken;
use gpumech_trace::{KernelTrace, Workload};
use serde::{Deserialize, Serialize};

use crate::cluster::{Selection, SelectionMethod};
use crate::model::{Analysis, Model};

/// How the per-cluster structure of the kernel feeds the final number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weighting {
    /// The paper's method: one representative warp stands in for the whole
    /// kernel (Section III-C).
    SingleRepresentative,
    /// Extension beyond the paper: predict once per k-means cluster and
    /// blend the CPI stacks by cluster population. Requires
    /// [`SelectionMethod::Clustering`].
    PopulationWeighted,
}

/// Parses the request word for representative selection into the
/// (method, weighting) pair a request takes. `weighted` is clustering
/// selection with population weighting
/// ([`Weighting::PopulationWeighted`]).
///
/// # Errors
///
/// [`UnknownWord`] for a word other than `max|min|clustering|weighted`.
pub fn parse_selection(word: &str) -> Result<(SelectionMethod, Weighting), UnknownWord> {
    match word {
        "max" => Ok((SelectionMethod::Max, Weighting::SingleRepresentative)),
        "min" => Ok((SelectionMethod::Min, Weighting::SingleRepresentative)),
        "clustering" => Ok((SelectionMethod::Clustering, Weighting::SingleRepresentative)),
        "weighted" => Ok((SelectionMethod::Clustering, Weighting::PopulationWeighted)),
        other => Err(UnknownWord {
            value: other.to_string(),
            expected: "max|min|clustering|weighted",
        }),
    }
}

/// Where the pipeline input comes from.
///
/// Borrowed, not owned: requests are cheap descriptors that can be built
/// in bulk (one per batch item) without cloning traces or analyses.
#[derive(Debug, Clone)]
pub(crate) enum Source<'a> {
    /// A bundled workload: trace it, analyze it, predict.
    Workload(&'a Workload),
    /// An already-traced kernel: analyze it, predict.
    Trace(&'a KernelTrace),
    /// A precomputed [`Analysis`]: select a representative and predict.
    Analysis(&'a Analysis),
    /// A precomputed [`Analysis`] and an explicit representative warp.
    Profile {
        /// The precomputed analysis.
        analysis: &'a Analysis,
        /// Index of the representative warp in the grid.
        rep: usize,
    },
}

/// One prediction job: an input source plus every pipeline option.
///
/// Construct with one of the `from_*` constructors, refine with the
/// builder methods, and execute with
/// [`Gpumech::run`](crate::model::Gpumech::run). Defaults mirror the
/// paper's headline configuration: round-robin scheduling, the full
/// `MT_MSHR_BAND` model, k-means representative selection, and a single
/// representative warp.
#[derive(Debug, Clone)]
pub struct PredictionRequest<'a> {
    pub(crate) source: Source<'a>,
    pub(crate) policy: SchedulingPolicy,
    pub(crate) model: Model,
    pub(crate) selection: SelectionMethod,
    pub(crate) weighting: Weighting,
    pub(crate) selected: Option<&'a Selection>,
    pub(crate) cancel: CancelToken,
}

impl<'a> PredictionRequest<'a> {
    fn new(source: Source<'a>) -> Self {
        Self {
            source,
            policy: SchedulingPolicy::RoundRobin,
            model: Model::MtMshrBand,
            selection: SelectionMethod::Clustering,
            weighting: Weighting::SingleRepresentative,
            selected: None,
            cancel: CancelToken::never(),
        }
    }

    /// A request that traces `workload` from scratch.
    #[must_use]
    pub fn from_workload(workload: &'a Workload) -> Self {
        Self::new(Source::Workload(workload))
    }

    /// A request over an already-traced kernel.
    #[must_use]
    pub fn from_trace(trace: &'a KernelTrace) -> Self {
        Self::new(Source::Trace(trace))
    }

    /// A request over a precomputed [`Analysis`] — the cheap path when
    /// evaluating many (model, policy) pairs or swept configurations for
    /// one kernel.
    #[must_use]
    pub fn from_analysis(analysis: &'a Analysis) -> Self {
        Self::new(Source::Analysis(analysis))
    }

    /// A request that skips representative selection and models warp `rep`
    /// of `analysis` directly.
    #[must_use]
    pub fn from_profile(analysis: &'a Analysis, rep: usize) -> Self {
        Self::new(Source::Profile { analysis, rep })
    }

    /// Sets the warp scheduling policy (default: round-robin).
    #[must_use]
    pub fn policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the Table II model (default: [`Model::MtMshrBand`]).
    #[must_use]
    pub fn model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Sets the representative-selection method (default:
    /// [`SelectionMethod::Clustering`]). Ignored for
    /// [`Self::from_profile`] requests, which name their warp explicitly.
    #[must_use]
    pub fn selection(mut self, selection: SelectionMethod) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the cluster weighting (default:
    /// [`Weighting::SingleRepresentative`]).
    #[must_use]
    pub fn weighting(mut self, weighting: Weighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Supplies the selection over the request's analysis, made once by
    /// [`Selection::new`] and shared by every prediction over that
    /// analysis, so this one runs no selection of its own. Its method must
    /// equal the request's [`selection`](Self::selection), and it needs a
    /// [`from_analysis`](Self::from_analysis) request over an analysis of
    /// as many warps; otherwise
    /// [`Gpumech::run`](crate::model::Gpumech::run) returns
    /// [`ModelError::InvalidRequest`](crate::model::ModelError::InvalidRequest).
    #[must_use]
    pub fn selected(mut self, selection: &'a Selection) -> Self {
        self.selected = Some(selection);
        self
    }

    /// Attaches a [`CancelToken`] (default: never fires). Every stage of
    /// the pipeline — tracing, cache simulation, interval profiling,
    /// k-means — polls the token and aborts with
    /// [`ModelError::Interrupted`](crate::model::ModelError::Interrupted)
    /// once it fires, which is how batch engines enforce per-job timeouts
    /// and whole-run deadlines.
    #[must_use]
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_headline_configuration() {
        let w = gpumech_trace::workloads::by_name("sdk_vectoradd").unwrap();
        let req = PredictionRequest::from_workload(&w);
        assert_eq!(req.policy, SchedulingPolicy::RoundRobin);
        assert_eq!(req.model, Model::MtMshrBand);
        assert_eq!(req.selection, SelectionMethod::Clustering);
        assert_eq!(req.weighting, Weighting::SingleRepresentative);
    }

    #[test]
    fn request_words_parse_to_their_options() {
        assert_eq!("full".parse(), Ok(Model::MtMshrBand));
        assert_eq!("mt_mshr_band".parse(), Ok(Model::MtMshrBand));
        assert_eq!("markov".parse(), Ok(Model::MarkovChain));
        let e = "quantum".parse::<Model>().unwrap_err();
        assert_eq!(e.to_string(), "must be naive|markov|mt|mt_mshr|full, got \"quantum\"");
        assert_eq!(
            parse_selection("weighted"),
            Ok((SelectionMethod::Clustering, Weighting::PopulationWeighted))
        );
        assert_eq!(parse_selection("min"), Ok((SelectionMethod::Min, Weighting::SingleRepresentative)));
        assert_eq!(parse_selection("random").unwrap_err().expected, "max|min|clustering|weighted");
    }

    #[test]
    fn builder_methods_override_each_option() {
        let w = gpumech_trace::workloads::by_name("sdk_vectoradd").unwrap();
        let req = PredictionRequest::from_workload(&w)
            .policy(SchedulingPolicy::GreedyThenOldest)
            .model(Model::Mt)
            .selection(SelectionMethod::Max)
            .weighting(Weighting::PopulationWeighted);
        assert_eq!(req.policy, SchedulingPolicy::GreedyThenOldest);
        assert_eq!(req.model, Model::Mt);
        assert_eq!(req.selection, SelectionMethod::Max);
        assert_eq!(req.weighting, Weighting::PopulationWeighted);
    }
}
