//! The multi-warp multithreading model (Section IV-A).
//!
//! Given the representative warp's interval profile, the model predicts
//! core CPI with N resident warps by counting the *non-overlapped
//! instructions* of the remaining warps — instructions that do not hide the
//! representative warp's stall cycles and therefore lengthen execution
//! (Figure 8). Equation 7 relates them to the multithreading CPI; the
//! per-interval counts are policy-specific (Equations 10-11 for
//! round-robin, 12-16 for greedy-then-oldest).
//!
//! Two transcription fixes relative to the paper's formulas, both of which
//! are required to reproduce its own worked example (Figure 8(b)) and are
//! noted in DESIGN.md:
//!
//! * Equation 7 as printed is instructions/cycles (an IPC); we use its
//!   reciprocal since the surrounding text and Equation 3 treat it as a CPI.
//! * Equation 15's `max(issue_prob * stall, 1)` is a probability and must
//!   be `min(..., 1)`; Equation 16's `min(x, 0)` must be `max(x, 0)` ("the
//!   non-overlapped instructions are incurred if the number of issued
//!   instructions is more than the stall cycles").

mod gto;
mod round_robin;

pub use gto::gto_nonoverlapped;
pub use round_robin::rr_nonoverlapped;

use gpumech_isa::SchedulingPolicy;
use serde::{Deserialize, Serialize};

use crate::interval::IntervalProfile;

/// Output of the multithreading model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultithreadingResult {
    /// Predicted core CPI under multithreading alone (no contention):
    /// the (corrected) Equation 7.
    pub cpi: f64,
    /// Total non-overlapped instructions (Equation 8).
    pub total_nonoverlapped: f64,
    /// Per-interval non-overlapped instruction counts.
    pub per_interval: Vec<f64>,
    /// Resident warps modeled.
    pub num_warps: usize,
}

/// Runs the multithreading model for `profile` under `policy` with
/// `num_warps` resident warps (Equations 7-16).
///
/// # Panics
///
/// Panics if `num_warps` is zero.
#[must_use]
pub fn multithreading_cpi(
    profile: &IntervalProfile,
    num_warps: usize,
    policy: SchedulingPolicy,
) -> MultithreadingResult {
    assert!(num_warps > 0, "at least one warp required");
    let issue_prob = profile.issue_prob();
    let per_interval: Vec<f64> = match policy {
        SchedulingPolicy::RoundRobin => profile
            .intervals
            .iter()
            .map(|iv| rr_nonoverlapped(iv, issue_prob, num_warps))
            .collect(),
        SchedulingPolicy::GreedyThenOldest => {
            let avg_insts = profile.avg_interval_insts();
            profile
                .intervals
                .iter()
                .map(|iv| gto_nonoverlapped(iv, issue_prob, num_warps, avg_insts, profile.issue_rate))
                .collect()
        }
    };
    let total_nonoverlapped: f64 = per_interval.iter().sum();
    let total_insts = profile.total_insts() as f64;
    let cpi = if total_insts == 0.0 {
        0.0
    } else {
        // Corrected Equation 7 (see module docs): extra issue cycles from
        // non-overlapped instructions stretch the representative warp.
        let cycles = profile.total_cycles() + total_nonoverlapped / profile.issue_rate;
        let cycles = cycles.max(num_warps as f64 * total_insts / profile.issue_rate);
        cycles / (num_warps as f64 * total_insts)
    };
    if gpumech_obs::enabled() {
        gpumech_obs::gauge!("core.multiwarp.cpi", cpi);
        gpumech_obs::gauge!("core.multiwarp.nonoverlap", total_nonoverlapped);
        gpumech_obs::gauge!("core.multiwarp.issue_prob", issue_prob);
        gpumech_obs::gauge!("core.multiwarp.warps", num_warps as f64);
    }
    MultithreadingResult { cpi, total_nonoverlapped, per_interval, num_warps }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::{Interval, StallCause};

    pub(crate) fn iv(insts: u64, stall: f64) -> Interval {
        Interval {
            insts,
            stall_cycles: stall,
            cause: if stall > 0.0 { StallCause::Compute } else { StallCause::None },
            load_insts: 0,
            store_insts: 0,
            mem_reqs: 0.0,
            mshr_reqs: 0.0,
            dram_reqs: 0.0,
            ..Interval::default()
        }
    }

    /// The Figure 8(c) profile: one interval of 3 instructions and 6 stall
    /// cycles, 4 warps, issue rate 1.
    fn figure8() -> IntervalProfile {
        IntervalProfile { intervals: vec![iv(3, 6.0)].into(), issue_rate: 1.0 }
    }

    #[test]
    fn rr_matches_equations_10_and_11_on_figure8() {
        let p = figure8();
        let r = multithreading_cpi(&p, 4, SchedulingPolicy::RoundRobin);
        // issue_prob = 3/9 = 1/3; waiting slots = 2; nonoverlap = 1/3*3*2 = 2.
        assert!((r.total_nonoverlapped - 2.0).abs() < 1e-12);
        // Raw Equation 7 gives (9 + 2)/(4 * 3) = 11/12 — but 12 issues
        // cannot fit in 11 cycles, so the issue-rate clamp lands on exactly
        // the 12 cycles Figure 8(a)'s schedule actually takes.
        assert!((r.cpi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gto_matches_figure8b_example() {
        let p = figure8();
        let r = multithreading_cpi(&p, 4, SchedulingPolicy::GreedyThenOldest);
        // issue_prob_in_stall = min(1/3 * 6, 1) = 1; warps_in_stall = 3;
        // issued = 3 * 3 = 9; nonoverlap = max(9 - 6, 0) = 3 — exactly the
        // three W3 instructions the paper's Figure 8(b) identifies.
        assert!((r.total_nonoverlapped - 3.0).abs() < 1e-12);
        assert!((r.cpi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_warps_never_increase_predicted_core_throughput_beyond_issue_rate() {
        let p = figure8();
        for warps in [1, 2, 4, 8, 16, 32] {
            let r = multithreading_cpi(&p, warps, SchedulingPolicy::RoundRobin);
            let core_ipc = 1.0 / r.cpi / 1.0; // per warp-instruction
            // Core IPC = warps*insts/cycles must not exceed issue rate 1.
            assert!(core_ipc <= 1.0 + 1e-9, "warps={warps} core ipc {core_ipc}");
        }
    }

    #[test]
    fn single_warp_has_no_nonoverlap() {
        let p = figure8();
        for policy in SchedulingPolicy::ALL {
            let r = multithreading_cpi(&p, 1, policy);
            assert!((r.total_nonoverlapped - 0.0).abs() < 1e-12, "{policy}");
            assert!((r.cpi - 3.0).abs() < 1e-12, "single-warp CPI = 9/3");
        }
    }

    #[test]
    fn saturated_multithreading_converges_to_issue_bound() {
        // With many warps, cycles are dominated by warps*insts: CPI → 1.
        let p = figure8();
        let r = multithreading_cpi(&p, 64, SchedulingPolicy::RoundRobin);
        assert!((r.cpi - 1.0).abs() < 0.35, "near issue bound, got {}", r.cpi);
    }

    #[test]
    fn stall_free_profile_is_issue_bound() {
        let p = IntervalProfile { intervals: vec![iv(10, 0.0)].into(), issue_rate: 1.0 };
        let r = multithreading_cpi(&p, 8, SchedulingPolicy::RoundRobin);
        assert!((r.cpi - 1.0).abs() < 1e-12, "no stalls → CPI = 1/issue_rate");
    }

    #[test]
    fn per_interval_counts_sum_to_total() {
        let p = IntervalProfile {
            intervals: vec![iv(1, 10.0), iv(4, 10.0), iv(7, 0.0)].into(),
            issue_rate: 1.0,
        };
        for policy in SchedulingPolicy::ALL {
            let r = multithreading_cpi(&p, 6, policy);
            let sum: f64 = r.per_interval.iter().sum();
            assert!((sum - r.total_nonoverlapped).abs() < 1e-12);
            assert!(r.per_interval.iter().all(|&x| x >= 0.0), "{policy}: negative nonoverlap");
        }
    }
}
