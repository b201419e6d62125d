//! Human-oriented summaries of interval profiles — the inspection surface
//! behind the CLI's `profile` subcommand and useful when debugging why a
//! kernel models poorly.

use serde::{Deserialize, Serialize};

use super::profile::{insts_and_perfs, IntervalProfile, StallCause};

/// Aggregate statistics of one warp's interval profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Number of intervals.
    pub num_intervals: usize,
    /// Total instructions.
    pub total_insts: u64,
    /// Total stall cycles.
    pub total_stall_cycles: f64,
    /// Single-warp IPC (Equation 5).
    pub warp_perf: f64,
    /// Mean instructions per interval (Equation 13).
    pub avg_interval_insts: f64,
    /// Mean stall length over stalling intervals.
    pub avg_stall_cycles: f64,
    /// Stall cycles blamed on compute dependencies.
    pub compute_stall_cycles: f64,
    /// Stall cycles blamed on memory loads.
    pub memory_stall_cycles: f64,
    /// Global load instructions.
    pub load_insts: u64,
    /// Global store instructions.
    pub store_insts: u64,
    /// Coalesced requests per global memory instruction (divergence degree).
    pub divergence_degree: f64,
    /// MSHR-allocating requests per instruction.
    pub mshr_reqs_per_inst: f64,
    /// DRAM-reaching requests per instruction.
    pub dram_reqs_per_inst: f64,
}

impl IntervalProfile {
    /// Computes the profile's summary statistics.
    #[must_use]
    pub fn summary(&self) -> ProfileSummary {
        let total_insts = self.total_insts();
        let stalling: Vec<&super::profile::Interval> =
            self.intervals.iter().filter(|iv| iv.stall_cycles > 0.0).collect();
        let (mut compute, mut memory) = (0.0f64, 0.0f64);
        for iv in self.intervals.iter() {
            match iv.cause {
                StallCause::Compute => compute += iv.stall_cycles,
                StallCause::Memory { .. } => memory += iv.stall_cycles,
                StallCause::None => {}
            }
        }
        let loads: u64 = self.intervals.iter().map(|iv| iv.load_insts).sum();
        let stores: u64 = self.intervals.iter().map(|iv| iv.store_insts).sum();
        let reqs: f64 = self.intervals.iter().map(|iv| iv.mem_reqs).sum();
        let mem_insts = (loads + stores) as f64;
        ProfileSummary {
            num_intervals: self.intervals.len(),
            total_insts,
            total_stall_cycles: self.total_stall_cycles(),
            warp_perf: self.warp_perf(),
            avg_interval_insts: self.avg_interval_insts(),
            avg_stall_cycles: if stalling.is_empty() {
                0.0
            } else {
                stalling.iter().map(|iv| iv.stall_cycles).sum::<f64>() / stalling.len() as f64
            },
            compute_stall_cycles: compute,
            memory_stall_cycles: memory,
            load_insts: loads,
            store_insts: stores,
            divergence_degree: if mem_insts == 0.0 { 0.0 } else { reqs / mem_insts },
            mshr_reqs_per_inst: if total_insts == 0 {
                0.0
            } else {
                self.intervals.iter().map(|iv| iv.mshr_reqs).sum::<f64>() / total_insts as f64
            },
            dram_reqs_per_inst: if total_insts == 0 {
                0.0
            } else {
                self.intervals.iter().map(|iv| iv.dram_reqs).sum::<f64>() / total_insts as f64
            },
        }
    }
}

/// Population-level statistics over every warp of a kernel — the input the
/// clustering stage sees, summarized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSummary {
    /// Number of warps.
    pub num_warps: usize,
    /// Minimum / mean / maximum single-warp IPC.
    pub perf_min: f64,
    /// Mean single-warp IPC.
    pub perf_mean: f64,
    /// Maximum single-warp IPC.
    pub perf_max: f64,
    /// Coefficient of variation of warp performance (the heterogeneity the
    /// representative-warp selection has to cope with).
    pub perf_cv: f64,
    /// Minimum / mean / maximum instruction count.
    pub insts_min: u64,
    /// Mean instruction count.
    pub insts_mean: f64,
    /// Maximum instruction count.
    pub insts_max: u64,
}

/// Summarizes a warp population.
///
/// # Panics
///
/// Panics if `profiles` is empty.
#[must_use]
pub fn summarize_population(profiles: &[IntervalProfile]) -> PopulationSummary {
    assert!(!profiles.is_empty(), "population must be non-empty");
    let (insts, perfs): (Vec<u64>, Vec<f64>) = insts_and_perfs(profiles).unzip();
    let n = profiles.len() as f64;
    let perf_mean = perfs.iter().sum::<f64>() / n;
    let var = perfs.iter().map(|p| (p - perf_mean).powi(2)).sum::<f64>() / n;
    PopulationSummary {
        num_warps: profiles.len(),
        perf_min: perfs.iter().copied().fold(f64::INFINITY, f64::min),
        perf_mean,
        perf_max: perfs.iter().copied().fold(0.0, f64::max),
        perf_cv: if perf_mean > 0.0 { var.sqrt() / perf_mean } else { 0.0 },
        insts_min: insts.iter().copied().min().unwrap_or(0),
        insts_mean: insts.iter().sum::<u64>() as f64 / n,
        insts_max: insts.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn profile(pairs: &[(u64, f64, StallCause)]) -> IntervalProfile {
        IntervalProfile {
            intervals: pairs
                .iter()
                .map(|&(insts, stall, cause)| Interval {
                    insts,
                    stall_cycles: stall,
                    cause,
                    load_insts: 1,
                    mem_reqs: 4.0,
                    mshr_reqs: 2.0,
                    dram_reqs: 1.0,
                    ..Interval::default()
                })
                .collect(),
            issue_rate: 1.0,
        }
    }

    #[test]
    fn summary_partitions_stalls_by_cause() {
        let p = profile(&[
            (5, 20.0, StallCause::Compute),
            (5, 80.0, StallCause::Memory { pc: 3 }),
            (5, 0.0, StallCause::None),
        ]);
        let s = p.summary();
        assert_eq!(s.num_intervals, 3);
        assert_eq!(s.total_insts, 15);
        assert!((s.compute_stall_cycles - 20.0).abs() < 1e-12);
        assert!((s.memory_stall_cycles - 80.0).abs() < 1e-12);
        assert!((s.total_stall_cycles - 100.0).abs() < 1e-12);
        assert!((s.avg_stall_cycles - 50.0).abs() < 1e-12);
        assert_eq!(s.load_insts, 3);
        assert!((s.divergence_degree - 4.0).abs() < 1e-12);
        assert!((s.mshr_reqs_per_inst - 6.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn population_summary_captures_heterogeneity() {
        let fast = profile(&[(10, 0.0, StallCause::None)]);
        let slow = profile(&[(10, 90.0, StallCause::Compute)]);
        let pop = summarize_population(&[fast.clone(), fast, slow]);
        assert_eq!(pop.num_warps, 3);
        assert!((pop.perf_max - 1.0).abs() < 1e-12);
        assert!((pop.perf_min - 0.1).abs() < 1e-12);
        assert!(pop.perf_cv > 0.4, "bimodal population has high CV: {}", pop.perf_cv);
        assert_eq!(pop.insts_min, 10);
        assert_eq!(pop.insts_max, 10);
    }

    #[test]
    fn homogeneous_population_has_zero_cv() {
        let p = profile(&[(10, 10.0, StallCause::Compute)]);
        let pop = summarize_population(&[p.clone(), p]);
        assert!(pop.perf_cv < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_panics() {
        let _ = summarize_population(&[]);
    }
}
