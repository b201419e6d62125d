//! The interval profile of a warp (Equation 2) and the scalar statistics
//! derived from it (Equations 5, 9, 13).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// What ended an interval — the instruction the stalled consumer waited on.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StallCause {
    /// No stall (the final interval of a warp).
    #[default]
    None,
    /// Dependence on a compute-class instruction.
    Compute,
    /// Dependence on a global load at the given PC; its miss-event
    /// distribution splits the stall across L1/L2/DRAM CPI-stack
    /// categories.
    Memory {
        /// PC of the producing load.
        pc: u32,
    },
}

/// One interval: a run of `insts` back-to-back issues followed by
/// `stall_cycles` of silence (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Interval {
    /// Instructions issued in the interval (`#interval_insts_i`).
    pub insts: u64,
    /// Stall cycles after the last issue (`stall_cycles_i`); fractional
    /// because memory latencies are AMATs.
    pub stall_cycles: f64,
    /// The instruction class blamed for the stall.
    pub cause: StallCause,
    /// Global load instructions issued in this interval.
    pub load_insts: u64,
    /// Global store instructions issued in this interval.
    pub store_insts: u64,
    /// Expected coalesced requests from this interval (loads + stores).
    pub mem_reqs: f64,
    /// Expected MSHR-allocating requests (load requests that miss L1) —
    /// `#warp_mem_reqs_i` of Equation 18.
    pub mshr_reqs: f64,
    /// Expected DRAM-reaching requests (load L2 misses + all store
    /// traffic) — the arrival stream of Equation 23.
    pub dram_reqs: f64,
    /// Expected number of load executions in this interval whose miss
    /// event leaves the L1 (they occupy MSHRs and feel MSHR queueing).
    pub mshr_load_events: f64,
    /// Expected number of load executions whose miss event reaches DRAM
    /// (they sit in the DRAM queue and feel bandwidth queueing).
    pub dram_load_events: f64,
    /// Special-function-unit instructions issued in this interval (feeds
    /// the SFU-contention extension).
    pub sfu_insts: u64,
}

impl Interval {
    /// Total cycles the interval occupies at the given issue rate.
    #[must_use]
    pub fn cycles(&self, issue_rate: f64) -> f64 {
        self.insts as f64 / issue_rate + self.stall_cycles
    }

    /// A compute-only interval (no memory traffic) — convenient for tests
    /// and synthetic profiles.
    #[must_use]
    pub fn compute(insts: u64, stall_cycles: f64, cause: StallCause) -> Self {
        Self { insts, stall_cycles, cause, ..Self::default() }
    }
}

/// A warp's interval profile (Equation 2) plus the issue rate it was built
/// under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalProfile {
    /// The intervals in execution order: one list, shared by every warp of
    /// an analysis that ran the same instruction stream. Written and read
    /// as the JSON array of a `Vec`.
    pub intervals: Arc<[Interval]>,
    /// Warp-instructions issued per cycle when unstalled (Table I: 1.0).
    pub issue_rate: f64,
}

impl IntervalProfile {
    /// Total instructions and total stall cycles, in one walk.
    fn totals(&self) -> (u64, f64) {
        self.intervals
            .iter()
            .fold((0, 0.0), |(insts, stall), i| (insts + i.insts, stall + i.stall_cycles))
    }

    /// Total instructions across all intervals.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.totals().0
    }

    /// Total stall cycles across all intervals.
    #[must_use]
    pub fn total_stall_cycles(&self) -> f64 {
        self.totals().1
    }

    /// Single-warp execution time:
    /// `Σ (insts_i / issue_rate + stall_cycles_i)`.
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.insts_and_cycles().1
    }

    /// [`Self::total_insts`] and [`Self::total_cycles`] from one walk.
    fn insts_and_cycles(&self) -> (u64, f64) {
        let (insts, stall) = self.totals();
        (insts, insts as f64 / self.issue_rate + stall)
    }

    /// [`Self::total_insts`] and [`Self::warp_perf`] from one walk.
    pub(crate) fn insts_and_perf(&self) -> (u64, f64) {
        let (insts, cycles) = self.insts_and_cycles();
        (insts, if cycles == 0.0 { 0.0 } else { insts as f64 / cycles })
    }

    /// Warp performance (Equation 5): single-warp IPC.
    #[must_use]
    pub fn warp_perf(&self) -> f64 {
        self.insts_and_perf().1
    }

    /// Issue probability (Equation 9): the probability a lone warp can
    /// issue in a given cycle. Identical in form to [`Self::warp_perf`];
    /// kept separate to mirror the paper.
    #[must_use]
    pub fn issue_prob(&self) -> f64 {
        self.warp_perf()
    }

    /// Mean instructions per interval (Equation 13).
    #[must_use]
    pub fn avg_interval_insts(&self) -> f64 {
        if self.intervals.is_empty() {
            0.0
        } else {
            self.total_insts() as f64 / self.intervals.len() as f64
        }
    }

    /// Single-warp CPI (`1 / warp_perf`).
    #[must_use]
    pub fn single_warp_cpi(&self) -> f64 {
        let p = self.warp_perf();
        if p == 0.0 { 0.0 } else { 1.0 / p }
    }
}

/// [`IntervalProfile::insts_and_perf`] of every profile, in order. A warp
/// whose list and issue rate are the previous warp's reuses its result:
/// the same computation on the same data, without walking the list again.
pub(crate) fn insts_and_perfs(
    profiles: &[IntervalProfile],
) -> impl Iterator<Item = (u64, f64)> + '_ {
    profiles.iter().scan(None::<(&IntervalProfile, (u64, f64))>, |last, p| {
        let raw = match *last {
            Some((l, raw))
                if Arc::ptr_eq(&l.intervals, &p.intervals) && l.issue_rate == p.issue_rate =>
            {
                raw
            }
            _ => p.insts_and_perf(),
        };
        *last = Some((p, raw));
        Some(raw)
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn iv(insts: u64, stall: f64) -> Interval {
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

    /// The Figure 2 example: two intervals (1 inst + 10 stalls, 4 insts +
    /// 10 stalls) at 1 inst/cycle.
    fn figure2() -> IntervalProfile {
        IntervalProfile { intervals: vec![iv(1, 10.0), iv(4, 10.0)].into(), issue_rate: 1.0 }
    }

    #[test]
    fn a_shared_list_writes_and_reads_the_json_of_a_vec() {
        let list = vec![iv(1, 10.0), iv(4, 0.5), Interval { mem_reqs: 0.1, ..iv(2, 0.0) }];
        let shared: Arc<[Interval]> = list.clone().into();
        let json = serde_json::to_string(&list).unwrap();
        assert_eq!(serde_json::to_string(&shared).unwrap(), json);
        assert_eq!(*serde_json::from_str::<Arc<[Interval]>>(&json).unwrap(), *list);
    }

    #[test]
    fn totals_match_figure2() {
        let p = figure2();
        assert_eq!(p.total_insts(), 5);
        assert!((p.total_stall_cycles() - 20.0).abs() < 1e-12);
        assert!((p.total_cycles() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn warp_perf_is_ipc_of_a_lone_warp() {
        let p = figure2();
        assert!((p.warp_perf() - 0.2).abs() < 1e-12);
        assert!((p.single_warp_cpi() - 5.0).abs() < 1e-12);
        assert!((p.issue_prob() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn avg_interval_insts_eq13() {
        let p = figure2();
        assert!((p.avg_interval_insts() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interval_cycles_scale_with_issue_rate() {
        let i = iv(4, 10.0);
        assert!((i.cycles(1.0) - 14.0).abs() < 1e-12);
        assert!((i.cycles(2.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = IntervalProfile { intervals: vec![].into(), issue_rate: 1.0 };
        assert_eq!(p.total_insts(), 0);
        assert_eq!(p.warp_perf(), 0.0);
        assert_eq!(p.single_warp_cpi(), 0.0);
        assert_eq!(p.avg_interval_insts(), 0.0);
    }
}
