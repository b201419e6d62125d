//! Per-warp feature vectors for clustering (Equation 6).

use serde::{Deserialize, Serialize};

use crate::interval::{insts_and_perfs, IntervalProfile};

/// The 2-D feature vector of one warp: warp performance and instruction
/// count, each normalized by the all-warp average (Equation 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// `warp_perf / avg_warp_perf`.
    pub perf: f64,
    /// `#warp_insts / avg_warp_insts`.
    pub insts: f64,
}

impl FeatureVector {
    /// Squared Euclidean distance to another vector.
    #[must_use]
    pub fn dist2(&self, other: &FeatureVector) -> f64 {
        let dp = self.perf - other.perf;
        let di = self.insts - other.insts;
        dp * dp + di * di
    }
}

/// Builds the normalized feature vectors of every warp (Equation 6).
///
/// Degenerate inputs (zero average) normalize to zero rather than NaN.
#[must_use]
pub fn feature_vectors(profiles: &[IntervalProfile]) -> Vec<FeatureVector> {
    // At most one walk of each interval list; the vectors hold the raw
    // performance and instruction count until the averages are known.
    let mut feats: Vec<FeatureVector> = insts_and_perfs(profiles)
        .map(|(insts, perf)| FeatureVector { perf, insts: insts as f64 })
        .collect();
    let n = profiles.len().max(1) as f64;
    let avg_perf: f64 = feats.iter().map(|f| f.perf).sum::<f64>() / n;
    let avg_insts: f64 = feats.iter().map(|f| f.insts).sum::<f64>() / n;
    for f in &mut feats {
        f.perf = if avg_perf > 0.0 { f.perf / avg_perf } else { 0.0 };
        f.insts = if avg_insts > 0.0 { f.insts / avg_insts } else { 0.0 };
    }
    feats
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
                cause: StallCause::None,
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
    fn identical_warps_normalize_to_unity() {
        let ps = vec![profile(10, 10.0); 4];
        for f in feature_vectors(&ps) {
            assert!((f.perf - 1.0).abs() < 1e-12);
            assert!((f.insts - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn features_scale_relative_to_average() {
        // Warp 0: 10 insts in 20 cycles (perf 0.5); warp 1: 30 insts in 30
        // cycles (perf 1.0). Averages: perf 0.75, insts 20.
        let ps = vec![profile(10, 10.0), profile(30, 0.0)];
        let f = feature_vectors(&ps);
        assert!((f[0].perf - 0.5 / 0.75).abs() < 1e-12);
        assert!((f[1].perf - 1.0 / 0.75).abs() < 1e-12);
        assert!((f[0].insts - 0.5).abs() < 1e-12);
        assert!((f[1].insts - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_shared_list_under_another_issue_rate_is_walked_again() {
        let slow = profile(10, 10.0);
        let fast = IntervalProfile { issue_rate: 2.0, ..slow.clone() };
        let f = feature_vectors(&[slow.clone(), slow, fast]);
        assert_eq!(f[0], f[1]);
        // 10 insts in 20 cycles vs. in 15: perf 0.5 vs. 2/3.
        assert!((f[2].perf / f[0].perf - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_squared_euclidean() {
        let a = FeatureVector { perf: 0.0, insts: 0.0 };
        let b = FeatureVector { perf: 3.0, insts: 4.0 };
        assert!((a.dist2(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.dist2(&a), 0.0);
    }

    #[test]
    fn degenerate_profiles_do_not_nan() {
        let ps = vec![IntervalProfile { intervals: vec![].into(), issue_rate: 1.0 }];
        let f = feature_vectors(&ps);
        assert!(f[0].perf.is_finite() && f[0].insts.is_finite());
    }
}
