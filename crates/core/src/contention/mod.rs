//! Resource-contention modeling (Section IV-B).
//!
//! Memory divergence multiplies the requests behind each memory
//! instruction, congesting two resources the multithreading model ignores:
//! the per-core MSHR file and the shared DRAM bus. Both are modeled
//! per-interval from the representative warp's profile and summed into a
//! contention CPI (Equation 17):
//!
//! ```text
//! CPI_rc = Σ_i (MSHR_delay_i + Bandwidth_delay_i) / Σ_i #interval_insts_i
//! ```

mod dram;
mod mshr;

pub use dram::{dram_queue_delays, dram_queue_delays_with, DramQueueResult};
pub use mshr::mshr_delay;

use gpumech_isa::SimConfig;
use serde::{Deserialize, Serialize};

use crate::interval::IntervalProfile;

/// Output of the contention model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionResult {
    /// Contention CPI (Equation 17) — added to the multithreading CPI.
    pub cpi: f64,
    /// CPI share from MSHR queueing (the CPI stack's `MSHR` category).
    pub cpi_mshr: f64,
    /// CPI share from DRAM-bandwidth queueing (the `QUEUE` category).
    pub cpi_queue: f64,
    /// CPI share from special-function-unit serialization — the
    /// resource-contention generalization the paper suggests
    /// (Section IV-B1); zero at Table I's 32-lane default. Reported inside
    /// the CPI stack's `DEP` category (Table III has no SFU row).
    #[serde(default)]
    pub cpi_sfu: f64,
    /// Per-interval MSHR delays (cycles).
    pub mshr_delays: Vec<f64>,
    /// Per-interval DRAM-bandwidth delays (cycles).
    pub bandwidth_delays: Vec<f64>,
}

/// Toggles for the engineering decisions layered on the paper's printed
/// equations (see DESIGN.md); the ablation harness flips them
/// individually. Defaults reproduce full GPUMech as implemented here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionOptions {
    /// Divide queueing delays by `#warps × Σinsts` (core-level, consistent
    /// with Equation 7) rather than the printed Equation 17's `Σinsts`.
    pub core_level_normalization: bool,
    /// Apply the MSHR throughput roofline on top of Equation 19.
    pub mshr_roofline: bool,
    /// Use the bandwidth roofline when ρ ≥ 1 instead of the paper's
    /// half-backlog cap.
    pub dram_roofline: bool,
}

impl Default for ContentionOptions {
    fn default() -> Self {
        Self { core_level_normalization: true, mshr_roofline: true, dram_roofline: true }
    }
}

/// Runs the full contention model for the representative warp's `profile`
/// with `num_warps` resident warps per core.
///
/// `avg_miss_latency` is the mean no-contention L2/DRAM latency of
/// MSHR-allocating requests, from
/// [`gpumech_mem::MemStats::avg_miss_latency`]; `cpi_multithreading` is
/// the CPI the multithreading stage predicted (it sets the time window the
/// DRAM traffic is spread over).
#[must_use]
pub fn contention_cpi(
    profile: &IntervalProfile,
    cfg: &SimConfig,
    num_warps: usize,
    avg_miss_latency: f64,
    cpi_multithreading: f64,
) -> ContentionResult {
    contention_cpi_with(
        profile,
        cfg,
        num_warps,
        avg_miss_latency,
        cpi_multithreading,
        ContentionOptions::default(),
    )
}

/// [`contention_cpi`] with explicit [`ContentionOptions`] (ablations).
#[must_use]
pub fn contention_cpi_with(
    profile: &IntervalProfile,
    cfg: &SimConfig,
    num_warps: usize,
    avg_miss_latency: f64,
    cpi_multithreading: f64,
    opts: ContentionOptions,
) -> ContentionResult {
    let mshr_delays: Vec<f64> = profile
        .intervals
        .iter()
        .map(|iv| mshr_delay(iv, num_warps, cfg.num_mshrs, avg_miss_latency))
        .collect();

    // Equation 17, normalized consistently with the (corrected) Equation 7:
    // every resident warp experiences the queueing delay *concurrently* —
    // they are all waiting in the same queues — so the wall-clock stretch is
    // Σ delays once, and its contribution to the core-level CPI (which is
    // cycles per warp-instruction across all #warps warps) divides by
    // #warps × Σ insts. Dividing by Σ insts alone, as the equation is
    // printed, would charge the shared delay #warps times over.
    let insts = profile.total_insts() as f64;
    let norm_warps = if opts.core_level_normalization { num_warps as f64 } else { 1.0 };
    let denom = insts * norm_warps;
    let eq19_cpi =
        if denom == 0.0 { 0.0 } else { mshr_delays.iter().sum::<f64>() / denom };

    // MSHR throughput roofline: a core retires at most
    // `#MSHR / avg_miss_latency` misses per cycle, so core CPI is at least
    // `(misses per warp-instruction) * avg_miss_latency / #MSHR`.
    // Equation 19 charges the *mean* queue-position delay, which
    // underestimates the serialization when divergent loads recycle the
    // whole file many times over; the roofline is the physical floor.
    let cpi_mshr = if opts.mshr_roofline && insts > 0.0 && cfg.num_mshrs > 0 {
        let mshr_reqs_per_inst =
            profile.intervals.iter().map(|iv| iv.mshr_reqs).sum::<f64>() / insts;
        let roofline = mshr_reqs_per_inst * avg_miss_latency / cfg.num_mshrs as f64;
        eq19_cpi.max(roofline - cpi_multithreading).max(0.0)
    } else {
        eq19_cpi
    };

    let dram = dram_queue_delays_with(
        profile,
        cfg,
        num_warps,
        cpi_multithreading + cpi_mshr,
        opts,
    );

    // SFU throughput roofline (extension; see `sfu_cpi`).
    let cpi_sfu = sfu_cpi(profile, cfg, cpi_multithreading + cpi_mshr + dram.cpi);

    if gpumech_obs::enabled() {
        gpumech_obs::gauge!("core.contention.mshr_cpi", cpi_mshr);
        gpumech_obs::gauge!("core.contention.queue_cpi", dram.cpi);
        gpumech_obs::gauge!("core.contention.sfu_cpi", cpi_sfu);
    }
    ContentionResult {
        cpi: cpi_mshr + dram.cpi + cpi_sfu,
        cpi_mshr,
        cpi_queue: dram.cpi,
        cpi_sfu,
        mshr_delays,
        bandwidth_delays: dram.per_interval,
    }
}

/// Special-function-unit serialization CPI — the generalization of the
/// queueing methodology the paper leaves as future work (Section IV-B1).
///
/// A core's SFU accepts one warp instruction per initiation interval
/// (`ceil(warp_size / sfu_lanes)` cycles), so core CPI is at least
/// `initiation_interval * (SFU instructions per warp-instruction)`; the
/// shortfall relative to the rest of the model becomes SFU cycles. Zero at
/// the Table I default of 32 lanes.
#[must_use]
pub fn sfu_cpi(profile: &IntervalProfile, cfg: &SimConfig, cpi_before: f64) -> f64 {
    let ii = cfg.sfu_initiation_interval();
    if ii <= 1 {
        return 0.0;
    }
    let insts = profile.total_insts() as f64;
    if insts == 0.0 {
        return 0.0;
    }
    let sfu_frac =
        profile.intervals.iter().map(|iv| iv.sfu_insts).sum::<u64>() as f64 / insts;
    (ii as f64 * sfu_frac - cpi_before).max(0.0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::{Interval, StallCause};

    fn mem_iv(insts: u64, loads: u64, mshr_reqs: f64, dram_reqs: f64) -> Interval {
        Interval {
            insts,
            stall_cycles: 100.0,
            cause: StallCause::Compute,
            load_insts: loads,
            mem_reqs: mshr_reqs,
            mshr_reqs,
            dram_reqs,
            mshr_load_events: loads as f64,
            dram_load_events: loads as f64,
            ..Interval::default()
        }
    }

    #[test]
    fn compute_only_profile_has_zero_contention() {
        let p = IntervalProfile {
            intervals: vec![mem_iv(10, 0, 0.0, 0.0)].into(),
            issue_rate: 1.0,
        };
        let r = contention_cpi(&p, &SimConfig::default(), 32, 420.0, 2.0);
        assert_eq!(r.cpi, 0.0);
        assert_eq!(r.cpi_mshr, 0.0);
        assert_eq!(r.cpi_queue, 0.0);
    }

    #[test]
    fn divergent_profile_accumulates_both_components() {
        // 32-way divergent load per interval, 32 warps → 1024 core requests
        // against 32 MSHRs and the DRAM bus.
        let p = IntervalProfile {
            intervals: vec![mem_iv(5, 1, 32.0, 32.0); 4].into(),
            issue_rate: 1.0,
        };
        let r = contention_cpi(&p, &SimConfig::default(), 32, 420.0, 2.0);
        assert!(r.cpi_mshr > 0.0, "MSHR queueing expected");
        assert!(r.cpi_queue > 0.0, "DRAM queueing expected");
        assert!((r.cpi - (r.cpi_mshr + r.cpi_queue)).abs() < 1e-12);
        assert_eq!(r.mshr_delays.len(), 4);
        assert_eq!(r.bandwidth_delays.len(), 4);
    }

    #[test]
    fn contention_grows_with_warps() {
        let p = IntervalProfile {
            intervals: vec![mem_iv(5, 1, 32.0, 32.0); 4].into(),
            issue_rate: 1.0,
        };
        let cfg = SimConfig::default();
        let lo = contention_cpi(&p, &cfg, 8, 420.0, 2.0);
        let hi = contention_cpi(&p, &cfg, 48, 420.0, 2.0);
        assert!(lo.cpi > 0.0 && hi.cpi > 0.0);
        // This profile saturates the MSHR file at either warp count, so
        // the MSHR share sits on the throughput roofline — a property of
        // traffic per instruction, identical for both.
        assert!((hi.cpi_mshr - lo.cpi_mshr).abs() < 1e-9, "roofline is warp-independent");
        // The residual M/D/1 wait is shared wall clock amortized over more
        // instructions, so the total may shrink slightly — but only
        // slightly (bounded by the 8-warp queue share).
        assert!(hi.cpi >= lo.cpi_mshr - 1e-9);
    }

    #[test]
    fn sfu_roofline_is_zero_at_the_table1_default() {
        let mut iv = mem_iv(10, 0, 0.0, 0.0);
        iv.sfu_insts = 5;
        let p = IntervalProfile { intervals: vec![iv].into(), issue_rate: 1.0 };
        assert_eq!(sfu_cpi(&p, &SimConfig::default(), 2.0), 0.0, "32 lanes → no contention");
    }

    #[test]
    fn sfu_roofline_tops_up_on_narrow_units() {
        // Half the instructions are SFU, 4 lanes → ii = 8:
        // CPI floor = 8 * 0.5 = 4; with 1.5 already modeled, SFU adds 2.5.
        let mut iv = mem_iv(10, 0, 0.0, 0.0);
        iv.sfu_insts = 5;
        let p = IntervalProfile { intervals: vec![iv].into(), issue_rate: 1.0 };
        let cfg = SimConfig::default().with_sfu_per_core(4);
        let d = sfu_cpi(&p, &cfg, 1.5);
        assert!((d - 2.5).abs() < 1e-12, "got {d}");
        // Already-slow kernels absorb the serialization.
        assert_eq!(sfu_cpi(&p, &cfg, 10.0), 0.0);
    }

    #[test]
    fn sfu_contention_feeds_the_total() {
        let mut iv = mem_iv(10, 0, 0.0, 0.0);
        iv.sfu_insts = 8;
        let p = IntervalProfile { intervals: vec![iv].into(), issue_rate: 1.0 };
        let cfg = SimConfig::default().with_sfu_per_core(4);
        let r = contention_cpi(&p, &cfg, 32, 420.0, 1.0);
        assert!(r.cpi_sfu > 0.0);
        assert!((r.cpi - (r.cpi_mshr + r.cpi_queue + r.cpi_sfu)).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = IntervalProfile { intervals: vec![].into(), issue_rate: 1.0 };
        let r = contention_cpi(&p, &SimConfig::default(), 32, 420.0, 2.0);
        assert_eq!(r.cpi, 0.0);
    }
}
