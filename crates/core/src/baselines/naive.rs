//! The naive interval-analysis extension to multithreading (Equation 1,
//! Section II-B).
//!
//! `IPC_core = IPC_single_warp * #warps`: assume every instruction of every
//! remaining warp hides inside the representative warp's stall cycles. The
//! core cannot exceed its issue rate, so the IPC is clamped there — without
//! the clamp the baseline would predict physically impossible throughput
//! for any moderately-threaded kernel.

use crate::interval::IntervalProfile;

/// Predicted core CPI of the naive model (Equation 1).
///
/// # Panics
///
/// Panics if `num_warps` is zero.
#[must_use]
pub fn naive_interval_cpi(profile: &IntervalProfile, num_warps: usize) -> f64 {
    assert!(num_warps > 0, "at least one warp required");
    let single_ipc = profile.warp_perf();
    if single_ipc == 0.0 {
        return 0.0;
    }
    let ipc = (single_ipc * num_warps as f64).min(profile.issue_rate);
    1.0 / ipc
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
    fn figure2_interval1_example() {
        // 1 instruction + 10 stall cycles, 3 warps: IPC = 3/11 (the paper's
        // worked example in Section II-B).
        let p = profile(1, 10.0);
        let cpi = naive_interval_cpi(&p, 3);
        assert!((cpi - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_at_the_issue_rate() {
        // perf = 1/11 per warp; 32 warps would give IPC 2.9 — impossible.
        let p = profile(1, 10.0);
        let cpi = naive_interval_cpi(&p, 32);
        assert!((cpi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_down_then_flat_in_warps() {
        let p = profile(2, 30.0);
        let mut prev = f64::INFINITY;
        for w in 1..=64 {
            let c = naive_interval_cpi(&p, w);
            assert!(c <= prev + 1e-12);
            assert!(c >= 1.0 - 1e-12, "never below the issue bound");
            prev = c;
        }
    }

    #[test]
    fn degenerate_profile_returns_zero() {
        let p = IntervalProfile { intervals: vec![].into(), issue_rate: 1.0 };
        assert_eq!(naive_interval_cpi(&p, 8), 0.0);
    }
}
