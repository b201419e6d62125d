//! Representative-warp selection (Section III-C).
//!
//! Kernels with control-divergent warps have heterogeneous interval
//! profiles; feeding a random warp to the multi-warp model can be wildly
//! wrong. GPUMech clusters the warps with k-means (k = 2) on a 2-D feature
//! vector — normalized warp performance and normalized instruction count
//! (Equation 6) — and uses the warp closest to the centre of the *larger*
//! cluster. The paper's Figure 7 compares this against picking the
//! fastest (MAX) or slowest (MIN) warp.

mod features;
mod kmeans;

pub use features::{feature_vectors, FeatureVector};
pub use kmeans::{kmeans2, kmeans2_cancellable, KmeansResult};

use std::convert::Infallible;

use gpumech_obs::{CancelToken, Interrupt};

use crate::interval::{insts_and_perfs, IntervalProfile};
use crate::model::Analysis;
use kmeans::kmeans2_checked;

/// How the representative warp is chosen (the three methods of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionMethod {
    /// Warp with the maximum warp performance.
    Max,
    /// Warp with the minimum warp performance.
    Min,
    /// k-means (k = 2) on Equation 6's features; representative = warp
    /// nearest the larger cluster's centroid. The paper's default.
    Clustering,
}

/// Everything a prediction takes from representative-warp selection over
/// one analysis.
///
/// Selection reads only the interval profiles, which no prediction-stage
/// parameter (bandwidth, MSHRs, policy, model) changes, so one
/// `Selection` serves every prediction over its analysis: build it once
/// with [`Selection::new`] and pass it along with
/// [`PredictionRequest::selected`](crate::PredictionRequest::selected).
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub(crate) method: SelectionMethod,
    /// Warps of the analysis it was made over.
    pub(crate) warps: usize,
    /// Index of the representative warp in the grid.
    pub(crate) representative: usize,
    /// k-means degenerated (non-finite features or no convergence).
    pub(crate) degenerate: bool,
    /// `(representative, population weight)` of each populated cluster,
    /// in cluster order; empty unless the method is clustering.
    pub(crate) clusters: Vec<(usize, f64)>,
}

impl Selection {
    /// Selects the representative warp of `analysis` by `method`; the
    /// k-means loop polls `cancel` before every Lloyd iteration.
    ///
    /// # Errors
    ///
    /// The [`Interrupt`] once `cancel` fires.
    ///
    /// # Panics
    ///
    /// Panics if the analysis has no warps.
    pub fn new(
        analysis: &Analysis,
        method: SelectionMethod,
        cancel: &CancelToken,
    ) -> Result<Self, Interrupt> {
        Self::of_profiles(&analysis.profiles, method, &|| cancel.check())
    }

    /// The one implementation of the selection rules; `check` is polled by
    /// the k-means loop and decides the error type.
    fn of_profiles<E>(
        profiles: &[IntervalProfile],
        method: SelectionMethod,
        check: &dyn Fn() -> Result<(), E>,
    ) -> Result<Self, E> {
        assert!(!profiles.is_empty(), "no warps to select from");
        let warps = profiles.len();
        let single = |representative: usize| Selection {
            method,
            warps,
            representative,
            degenerate: false,
            clusters: Vec::new(),
        };
        // Ties go to the last equal maximum and the first equal minimum.
        let perfs = insts_and_perfs(profiles).map(|(_, perf)| perf).enumerate();
        let by_perf = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1);
        match method {
            SelectionMethod::Max => Ok(single(perfs.max_by(by_perf).map_or(0, |(i, _)| i))),
            SelectionMethod::Min => Ok(single(perfs.min_by(by_perf).map_or(0, |(i, _)| i))),
            SelectionMethod::Clustering => {
                let feats = feature_vectors(profiles);
                let km = kmeans2_checked(&feats, check)?;
                // Per populated cluster: the member nearest its centroid,
                // weighted by the cluster's share of the warps.
                let clusters = (0..2u8)
                    .filter_map(|cluster| {
                        let centre = km.centroids[cluster as usize];
                        let rep = feats
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| km.assignment[*i] == cluster)
                            .min_by(|(_, a), (_, b)| a.dist2(&centre).total_cmp(&b.dist2(&centre)))
                            .map(|(i, _)| i)?;
                        let size = km.assignment.iter().filter(|&&a| a == cluster).count();
                        Some((rep, size as f64 / warps as f64))
                    })
                    .collect();
                Ok(Selection {
                    method,
                    warps,
                    representative: km.representative,
                    degenerate: km.degenerate,
                    clusters,
                })
            }
        }
    }
}

/// Selects the representative warp among `profiles` and returns its index:
/// [`Selection`]'s rules without a cancel token.
///
/// # Panics
///
/// Panics if `profiles` is empty.
#[must_use]
pub fn select_representative(profiles: &[IntervalProfile], method: SelectionMethod) -> usize {
    match Selection::of_profiles(profiles, method, &|| Ok::<(), Infallible>(())) {
        Ok(s) => s.representative,
        Err(never) => match never {},
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::{Interval, StallCause};

    fn profile(insts: u64, stall: f64) -> IntervalProfile {
        IntervalProfile {
            intervals: vec![Interval {
                insts,
                stall_cycles: stall,
                cause: if stall > 0.0 { StallCause::Compute } else { StallCause::None },
                load_insts: 0,
                store_insts: 0,
                mem_reqs: 0.0,
                mshr_reqs: 0.0,
                dram_reqs: 0.0,
                ..Interval::default()
            }]
            .into(),
            issue_rate: 1.0,
        }
    }

    #[test]
    fn max_and_min_pick_the_extremes() {
        let ps = vec![profile(10, 10.0), profile(10, 0.0), profile(10, 50.0)];
        assert_eq!(select_representative(&ps, SelectionMethod::Max), 1);
        assert_eq!(select_representative(&ps, SelectionMethod::Min), 2);
    }

    #[test]
    fn ties_go_to_the_last_maximum_and_the_first_minimum() {
        let (fast, slow) = (profile(10, 0.0), profile(10, 50.0));
        // Shared lists and equal lists of their own tie alike.
        let ps = vec![
            fast.clone(),
            slow.clone(),
            slow,
            profile(10, 0.0),
            profile(10, 50.0),
            fast,
        ];
        assert_eq!(select_representative(&ps, SelectionMethod::Max), 5);
        assert_eq!(select_representative(&ps, SelectionMethod::Min), 1);
    }

    #[test]
    fn clustering_picks_from_the_majority_population() {
        // 7 similar "slow" warps + 2 fast outliers: the representative must
        // be one of the slow majority.
        let mut ps: Vec<IntervalProfile> = (0..7).map(|i| profile(100, 400.0 + i as f64)).collect();
        ps.push(profile(100, 0.0));
        ps.push(profile(100, 1.0));
        let rep = select_representative(&ps, SelectionMethod::Clustering);
        assert!(rep < 7, "representative {rep} should come from the majority cluster");
    }

    #[test]
    fn homogeneous_warps_any_choice_is_fine() {
        let ps: Vec<IntervalProfile> = (0..8).map(|_| profile(50, 20.0)).collect();
        let rep = select_representative(&ps, SelectionMethod::Clustering);
        assert!(rep < 8);
    }

    #[test]
    #[should_panic(expected = "no warps")]
    fn empty_input_panics() {
        let _ = select_representative(&[], SelectionMethod::Clustering);
    }
}
