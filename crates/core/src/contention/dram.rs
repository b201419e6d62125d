//! DRAM-bandwidth queueing-delay model (Section IV-B2, Equations 21-23).
//!
//! DRAM bus service is short (a line transmission, `s = freq * L / B`
//! cycles per Equation 22) compared to MSHR residency, so arrival timing
//! matters: the model treats the bus as an **M/D/1 queue** — Poisson
//! arrivals, deterministic service time `s` — and uses its mean waiting
//! time `λ s² / (2 (1 - ρ))` (Equation 21).
//!
//! Two engineering choices around the paper's formulation, recorded in
//! DESIGN.md:
//!
//! * **Smoothed arrival rate.** Equation 23 computes λ per interval from
//!   that interval's own requests. Interval boundaries, however, split
//!   producers from consumers (a divergent store lands in the interval
//!   *after* the load that stalls on the bus behind it), which makes the
//!   per-interval rate degenerate. Loop kernels have near-periodic
//!   traffic, so we use the profile-wide rate: all of the representative
//!   warp's DRAM traffic, scaled to all warps and cores, over the wall
//!   clock the model has accumulated so far.
//! * **Saturation roofline.** When ρ ≥ 1 the queue has no steady state;
//!   the paper caps the delay by a half-backlog heuristic. We use the
//!   physical statement of the same idea: the kernel cannot finish before
//!   the bus has carried its traffic, i.e. core CPI is at least
//!   `s * #cores * (DRAM requests per warp-instruction)`; the shortfall
//!   relative to the no-queue model becomes QUEUE cycles.

use gpumech_isa::SimConfig;

use super::ContentionOptions;
use crate::interval::IntervalProfile;

/// Output of the DRAM-bandwidth stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DramQueueResult {
    /// Per-interval queueing cycles (for CPI-stack attribution).
    pub per_interval: Vec<f64>,
    /// QUEUE contribution to core CPI.
    pub cpi: f64,
    /// Modeled bus utilization ρ (may exceed 1 before the roofline kicks
    /// in; useful for reports).
    pub rho: f64,
}

/// Runs the DRAM-bandwidth queueing stage.
///
/// `cpi_before_queue` is the core CPI the model has accumulated so far
/// (multithreading + MSHR) — it determines the time window the traffic is
/// spread over, and the roofline tops it up when the bus is the real
/// bottleneck.
#[must_use]
pub fn dram_queue_delays(
    profile: &IntervalProfile,
    cfg: &SimConfig,
    num_warps: usize,
    cpi_before_queue: f64,
) -> DramQueueResult {
    dram_queue_delays_with(profile, cfg, num_warps, cpi_before_queue, ContentionOptions::default())
}

/// [`dram_queue_delays`] with explicit [`ContentionOptions`] (ablations):
/// `dram_roofline = false` reverts the saturated branch to the paper's
/// half-backlog cap, and `core_level_normalization = false` divides by the
/// representative warp's instructions alone, as Equation 17 is printed.
#[must_use]
pub fn dram_queue_delays_with(
    profile: &IntervalProfile,
    cfg: &SimConfig,
    num_warps: usize,
    cpi_before_queue: f64,
    opts: ContentionOptions,
) -> DramQueueResult {
    let insts = profile.total_insts() as f64;
    let n = profile.intervals.len();
    let total_dram: f64 = profile.intervals.iter().map(|iv| iv.dram_reqs).sum();
    if insts <= 0.0
        || total_dram <= 0.0
        || cpi_before_queue <= 0.0
        || !total_dram.is_finite()
        || !cpi_before_queue.is_finite()
    {
        return DramQueueResult { per_interval: vec![0.0; n], cpi: 0.0, rho: 0.0 };
    }
    let s = cfg.dram_service_cycles();
    let cores = cfg.num_cores as f64;
    let warps = num_warps as f64;
    let norm = insts * if opts.core_level_normalization { warps } else { 1.0 };

    // Profile-wide arrival rate: every warp on every core pushes the
    // representative warp's traffic within the modeled wall clock.
    let wall = cpi_before_queue * warps * insts;
    let lambda = total_dram * warps * cores / wall;
    let rho = lambda * s;

    if rho < 1.0 {
        // Light/moderate load: Equation 21's M/D/1 wait, felt once per
        // DRAM-bound load execution.
        let wait = lambda * s * s / (2.0 * (1.0 - rho));
        let per_interval: Vec<f64> =
            profile.intervals.iter().map(|iv| wait * iv.dram_load_events).collect();
        let cpi = per_interval.iter().sum::<f64>() / norm;
        DramQueueResult { per_interval, cpi, rho }
    } else if opts.dram_roofline {
        // Saturated: bandwidth roofline.
        let cpi_min = s * cores * total_dram / insts;
        let cpi = (cpi_min - cpi_before_queue).max(0.0);
        // Attribute the shortfall across intervals in proportion to their
        // DRAM traffic (reporting only).
        let total_cycles = cpi * warps * insts;
        let per_interval: Vec<f64> = profile
            .intervals
            .iter()
            .map(|iv| total_cycles * iv.dram_reqs / total_dram)
            .collect();
        DramQueueResult { per_interval, cpi, rho }
    } else {
        // Paper's Equation 21 cap: a request arrives behind half the
        // interval's maximum backlog.
        let per_interval: Vec<f64> = profile
            .intervals
            .iter()
            .map(|iv| {
                let cap = s * iv.dram_reqs * warps * cores / 2.0;
                cap * iv.dram_load_events
            })
            .collect();
        let cpi = per_interval.iter().sum::<f64>() / norm;
        DramQueueResult { per_interval, cpi, rho }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn iv(insts: u64, stall: f64, dram_reqs: f64, dram_events: f64) -> Interval {
        Interval {
            insts,
            stall_cycles: stall,
            load_insts: 1,
            mem_reqs: dram_reqs,
            dram_reqs,
            dram_load_events: dram_events,
            ..Interval::default()
        }
    }

    fn profile(intervals: Vec<Interval>) -> IntervalProfile {
        IntervalProfile { intervals: intervals.into(), issue_rate: 1.0 }
    }

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn no_dram_traffic_no_delay() {
        let p = profile(vec![iv(10, 100.0, 0.0, 0.0)]);
        let r = dram_queue_delays(&p, &cfg(), 32, 5.0);
        assert_eq!(r.cpi, 0.0);
        assert_eq!(r.rho, 0.0);
    }

    #[test]
    fn light_traffic_uses_md1_and_stays_small() {
        // 1 DRAM request per 10 instructions, generous wall clock.
        let p = profile(vec![iv(10, 0.0, 1.0, 1.0); 4]);
        let r = dram_queue_delays(&p, &cfg(), 32, 8.0);
        assert!(r.rho < 1.0, "rho = {}", r.rho);
        assert!(r.cpi < 0.5, "light load should queue little: {}", r.cpi);
        assert!(r.cpi > 0.0);
    }

    #[test]
    fn md1_wait_matches_hand_computation() {
        let c = cfg().with_dram_bandwidth(128.0); // s = 1
        let p = profile(vec![iv(10, 0.0, 0.5, 1.0); 2]);
        let warps = 4.0;
        let cpi0 = 10.0;
        let r = dram_queue_delays(&p, &c, 4, cpi0);
        let wall = cpi0 * warps * 20.0;
        let lambda = 1.0 * warps * 16.0 / wall;
        let wait = lambda / (2.0 * (1.0 - lambda));
        assert!((r.per_interval[0] - wait).abs() < 1e-12);
        assert!((r.cpi - 2.0 * wait / (warps * 20.0)).abs() < 1e-12);
    }

    #[test]
    fn saturation_tops_up_to_the_roofline() {
        // Write flood: 64 requests per 40 instructions → roofline CPI =
        // s * cores * 1.6 = 17.07 at Table I.
        let p = profile(vec![iv(40, 400.0, 64.0, 1.0); 5]);
        let r = dram_queue_delays(&p, &cfg(), 32, 2.0);
        assert!(r.rho >= 1.0);
        let roofline = cfg().dram_service_cycles() * 16.0 * (64.0 * 5.0) / 200.0;
        assert!((r.cpi - (roofline - 2.0)).abs() < 1e-9, "cpi {} roofline {roofline}", r.cpi);
    }

    #[test]
    fn roofline_never_reduces_cpi() {
        // If the model already exceeds the roofline, QUEUE adds nothing.
        let p = profile(vec![iv(40, 400.0, 8.0, 1.0)]);
        let roofline = cfg().dram_service_cycles() * 16.0 * 8.0 / 40.0;
        let r = dram_queue_delays(&p, &cfg(), 32, roofline + 50.0);
        assert!(r.cpi >= 0.0);
        if r.rho >= 1.0 {
            assert_eq!(r.cpi, 0.0);
        }
    }

    #[test]
    fn delay_increases_as_bandwidth_decreases() {
        let p = profile(vec![iv(10, 100.0, 2.0, 1.0); 4]);
        let hi = dram_queue_delays(&p, &cfg().with_dram_bandwidth(256.0), 32, 6.0);
        let lo = dram_queue_delays(&p, &cfg().with_dram_bandwidth(64.0), 32, 6.0);
        assert!(lo.cpi > hi.cpi, "64 GB/s must queue more: {} vs {}", lo.cpi, hi.cpi);
    }

    #[test]
    fn store_only_traffic_below_saturation_is_free() {
        // Stores feed lambda but nothing waits when rho < 1.
        let p = profile(vec![iv(20, 0.0, 1.0, 0.0); 3]);
        let r = dram_queue_delays(&p, &cfg(), 32, 4.0);
        assert!(r.rho < 1.0);
        assert_eq!(r.cpi, 0.0);
    }
}
