//! CPI stacks — the bottleneck-visualization output of GPUMech
//! (Section VII, Table III).
//!
//! A CPI stack splits the predicted cycles-per-instruction into additive
//! categories so developers can see *what* limits performance. GPUMech
//! builds the representative warp's stack from its interval profile (each
//! stall charged to the compute dependence or to the blamed load's
//! miss-event distribution), rescales it by the multithreading speedup so
//! relative importance is preserved, then appends the modeled MSHR and
//! DRAM-queue delays as their own categories.

use std::fmt;

use gpumech_mem::MemStats;
use serde::{Deserialize, Serialize};

use crate::contention::ContentionResult;
use crate::interval::{IntervalProfile, StallCause};
use crate::multiwarp::MultithreadingResult;

/// The stall categories of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StallCategory {
    /// Instruction issue cycles.
    Base,
    /// Compute dependencies.
    Dep,
    /// L1 hits.
    L1,
    /// L2 hits.
    L2,
    /// DRAM access latency (no queueing).
    Dram,
    /// MSHR queueing delay.
    Mshr,
    /// DRAM-bandwidth queueing delay.
    Queue,
}

impl StallCategory {
    /// All categories in Table III order.
    pub const ALL: [StallCategory; 7] = [
        StallCategory::Base,
        StallCategory::Dep,
        StallCategory::L1,
        StallCategory::L2,
        StallCategory::Dram,
        StallCategory::Mshr,
        StallCategory::Queue,
    ];
}

impl fmt::Display for StallCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallCategory::Base => "BASE",
            StallCategory::Dep => "DEP",
            StallCategory::L1 => "L1",
            StallCategory::L2 => "L2",
            StallCategory::Dram => "DRAM",
            StallCategory::Mshr => "MSHR",
            StallCategory::Queue => "QUEUE",
        };
        f.write_str(s)
    }
}

/// A CPI stack: additive per-category cycles-per-instruction.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CpiStack {
    /// Issue cycles (`BASE`).
    pub base: f64,
    /// Compute-dependence stalls (`DEP`).
    pub dep: f64,
    /// Stalls resolved in the L1 (`L1`).
    pub l1: f64,
    /// Stalls resolved in the L2 (`L2`).
    pub l2: f64,
    /// Stalls paying the raw DRAM access latency (`DRAM`).
    pub dram: f64,
    /// MSHR queueing (`MSHR`).
    pub mshr: f64,
    /// DRAM-bandwidth queueing (`QUEUE`).
    pub queue: f64,
}

impl CpiStack {
    /// Total predicted CPI (the sum of all categories).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.base + self.dep + self.l1 + self.l2 + self.dram + self.mshr + self.queue
    }

    /// Value of one category.
    #[must_use]
    pub fn get(&self, cat: StallCategory) -> f64 {
        match cat {
            StallCategory::Base => self.base,
            StallCategory::Dep => self.dep,
            StallCategory::L1 => self.l1,
            StallCategory::L2 => self.l2,
            StallCategory::Dram => self.dram,
            StallCategory::Mshr => self.mshr,
            StallCategory::Queue => self.queue,
        }
    }

    /// `(category, value)` pairs in Table III order.
    #[must_use]
    pub fn components(&self) -> [(StallCategory, f64); 7] {
        StallCategory::ALL.map(|c| (c, self.get(c)))
    }

    /// Component-wise sum of two stacks (used when blending cluster
    /// predictions).
    #[must_use]
    pub fn plus(&self, other: &CpiStack) -> Self {
        Self {
            base: self.base + other.base,
            dep: self.dep + other.dep,
            l1: self.l1 + other.l1,
            l2: self.l2 + other.l2,
            dram: self.dram + other.dram,
            mshr: self.mshr + other.mshr,
            queue: self.queue + other.queue,
        }
    }

    /// This stack scaled by `factor` (used for normalized plots).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            base: self.base * factor,
            dep: self.dep * factor,
            l1: self.l1 * factor,
            l2: self.l2 * factor,
            dram: self.dram * factor,
            mshr: self.mshr * factor,
            queue: self.queue * factor,
        }
    }

    /// Renders the stack as a single-line ASCII bar of `width` characters
    /// plus a legend — the paper's CPI-stack visualization, terminal
    /// edition. Categories below half a character are dropped from the
    /// bar but still listed in the legend when non-zero.
    ///
    /// ```
    /// use gpumech_core::CpiStack;
    /// let stack = CpiStack { base: 1.0, dep: 1.0, dram: 2.0, ..Default::default() };
    /// let bar = stack.render_bar(40);
    /// assert!(bar.contains("DRAM"));
    /// ```
    #[must_use]
    pub fn render_bar(&self, width: usize) -> String {
        const GLYPHS: [char; 7] = ['#', 'd', '1', '2', 'D', 'M', 'Q'];
        let total = self.total();
        if total <= 0.0 || width == 0 {
            return String::from("(empty stack)");
        }
        let mut bar = String::with_capacity(width + 64);
        bar.push('[');
        for (i, (cat, value)) in self.components().iter().enumerate() {
            let chars = (value / total * width as f64).round() as usize;
            let _ = cat;
            bar.extend(std::iter::repeat_n(GLYPHS[i], chars));
        }
        bar.push(']');
        bar.push(' ');
        let legend: Vec<String> = self
            .components()
            .iter()
            .zip(GLYPHS)
            .filter(|((_, v), _)| *v > 1e-6)
            .map(|((cat, v), g)| format!("{g}={cat}:{v:.2}"))
            .collect();
        bar.push_str(&legend.join(" "));
        bar
    }

    /// Builds the single-warp CPI stack of the representative warp
    /// (Section VII, first step): `BASE` is the issue cycles per
    /// instruction; each interval's stall goes to `DEP` or is split across
    /// `L1`/`L2`/`DRAM` by the blamed load's miss-event distribution
    /// (assuming no queueing).
    #[must_use]
    pub fn single_warp(profile: &IntervalProfile, mem: &MemStats) -> Self {
        let insts = profile.total_insts() as f64;
        if insts == 0.0 {
            return Self::default();
        }
        // A corrupt profile could carry a zero/NaN issue rate; treat it as
        // the 1-inst/cycle default instead of producing an Inf/NaN BASE.
        let issue_rate =
            if profile.issue_rate.is_finite() && profile.issue_rate > 0.0 { profile.issue_rate } else { 1.0 };
        let mut stack = CpiStack { base: 1.0 / issue_rate, ..Default::default() };
        for iv in profile.intervals.iter() {
            match iv.cause {
                StallCause::None => {}
                StallCause::Compute => stack.dep += iv.stall_cycles / insts,
                StallCause::Memory { pc } => {
                    let d = mem.miss_dist(pc);
                    stack.l1 += d.l1_hit * iv.stall_cycles / insts;
                    stack.l2 += d.l2_hit * iv.stall_cycles / insts;
                    stack.dram += d.l2_miss * iv.stall_cycles / insts;
                }
            }
        }
        stack
    }

    /// Builds the full multi-warp CPI stack (Section VII): the single-warp
    /// stack shrunk by `CPI_multithreading / CPI_single_warp`, plus the
    /// `MSHR` and `QUEUE` categories from the contention model.
    #[must_use]
    pub fn multi_warp(
        profile: &IntervalProfile,
        mem: &MemStats,
        mt: &MultithreadingResult,
        rc: &ContentionResult,
    ) -> Self {
        let single = Self::single_warp(profile, mem);
        let single_cpi = single.total();
        let factor = if single_cpi > 0.0 { mt.cpi / single_cpi } else { 0.0 };
        let mut stack = single.scaled(factor);
        stack.mshr = rc.cpi_mshr;
        stack.queue = rc.cpi_queue;
        // SFU serialization is compute-resource pressure; Table III has no
        // SFU row, so it reports under DEP (zero at the Table I default).
        stack.dep += rc.cpi_sfu;
        // Component provenance: which Table III row each modeled cycle
        // landed in, as observed series.
        if gpumech_obs::enabled() {
            gpumech_obs::gauge!("core.cpistack.base", stack.base);
            gpumech_obs::gauge!("core.cpistack.dep", stack.dep);
            gpumech_obs::gauge!("core.cpistack.l1", stack.l1);
            gpumech_obs::gauge!("core.cpistack.l2", stack.l2);
            gpumech_obs::gauge!("core.cpistack.dram", stack.dram);
            gpumech_obs::gauge!("core.cpistack.mshr", stack.mshr);
            gpumech_obs::gauge!("core.cpistack.queue", stack.queue);
            gpumech_obs::gauge!("core.cpistack.total", stack.total());
        }
        stack
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use gpumech_mem::PcStats;

    fn iv(insts: u64, stall: f64, cause: StallCause) -> Interval {
        Interval {
            insts,
            stall_cycles: stall,
            cause,
            load_insts: 0,
            store_insts: 0,
            mem_reqs: 0.0,
            mshr_reqs: 0.0,
            dram_reqs: 0.0,
            ..Interval::default()
        }
    }

    fn mem_with_dist(pc: u32, l1: u64, l2: u64, dram: u64) -> MemStats {
        let mut m = MemStats::new(25, 120, 420);
        *m.entry(pc) = PcStats {
            is_store: false,
            insts: l1 + l2 + dram,
            l1_hit_insts: l1,
            l2_hit_insts: l2,
            l2_miss_insts: dram,
            reqs: l1 + l2 + dram,
            mshr_reqs: l2 + dram,
            dram_reqs: dram,
        };
        m
    }

    #[test]
    fn single_warp_stack_sums_to_single_warp_cpi() {
        let p = IntervalProfile {
            intervals: vec![
                iv(4, 24.0, StallCause::Compute),
                iv(6, 100.0, StallCause::Memory { pc: 3 }),
            ]
            .into(),
            issue_rate: 1.0,
        };
        let mem = mem_with_dist(3, 1, 0, 9);
        let stack = CpiStack::single_warp(&p, &mem);
        assert!((stack.total() - p.single_warp_cpi()).abs() < 1e-9);
        assert!((stack.base - 1.0).abs() < 1e-12);
        assert!((stack.dep - 2.4).abs() < 1e-12);
    }

    #[test]
    fn memory_stall_splits_by_miss_distribution() {
        // Paper's example: 100 stall cycles, 10% L2 hit / 90% L2 miss →
        // 10 cycles L2, 90 cycles DRAM.
        let p = IntervalProfile {
            intervals: vec![iv(1, 100.0, StallCause::Memory { pc: 7 })].into(),
            issue_rate: 1.0,
        };
        let mem = mem_with_dist(7, 0, 1, 9);
        let stack = CpiStack::single_warp(&p, &mem);
        assert!((stack.l2 - 10.0).abs() < 1e-9);
        assert!((stack.dram - 90.0).abs() < 1e-9);
        assert_eq!(stack.l1, 0.0);
        assert_eq!(stack.mshr, 0.0);
    }

    #[test]
    fn multi_warp_stack_sums_to_final_cpi() {
        let p = IntervalProfile {
            intervals: vec![iv(5, 45.0, StallCause::Compute), iv(5, 0.0, StallCause::None)].into(),
            issue_rate: 1.0,
        };
        let mem = MemStats::new(25, 120, 420);
        let mt = MultithreadingResult {
            cpi: 1.25,
            total_nonoverlapped: 0.0,
            per_interval: vec![0.0, 0.0],
            num_warps: 8,
        };
        let rc = ContentionResult {
            cpi: 0.5,
            cpi_mshr: 0.3,
            cpi_queue: 0.2,
            cpi_sfu: 0.0,
            mshr_delays: vec![],
            bandwidth_delays: vec![],
        };
        let stack = CpiStack::multi_warp(&p, &mem, &mt, &rc);
        assert!((stack.total() - (mt.cpi + rc.cpi)).abs() < 1e-9, "stack sums to CPI_final");
        assert!((stack.mshr - 0.3).abs() < 1e-12);
        assert!((stack.queue - 0.2).abs() < 1e-12);
        // Relative importance preserved: dep/base ratio unchanged.
        let single = CpiStack::single_warp(&p, &mem);
        assert!(((stack.dep / stack.base) - (single.dep / single.base)).abs() < 1e-9);
    }

    #[test]
    fn components_cover_all_categories() {
        let s = CpiStack { base: 1.0, dep: 2.0, l1: 3.0, l2: 4.0, dram: 5.0, mshr: 6.0, queue: 7.0 };
        let comps = s.components();
        assert_eq!(comps.len(), 7);
        let sum: f64 = comps.iter().map(|(_, v)| v).sum();
        assert!((sum - s.total()).abs() < 1e-12);
        assert_eq!(comps[0].0, StallCategory::Base);
        assert_eq!(comps[6].0, StallCategory::Queue);
    }

    #[test]
    fn display_names_match_table3() {
        let names: Vec<String> = StallCategory::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, vec!["BASE", "DEP", "L1", "L2", "DRAM", "MSHR", "QUEUE"]);
    }

    #[test]
    fn empty_profile_gives_empty_stack() {
        let p = IntervalProfile { intervals: vec![].into(), issue_rate: 1.0 };
        let mem = MemStats::new(25, 120, 420);
        assert_eq!(CpiStack::single_warp(&p, &mem).total(), 0.0);
    }

    #[test]
    fn render_bar_is_proportional_and_legended() {
        let s = CpiStack { base: 1.0, dep: 0.0, l1: 0.0, l2: 0.0, dram: 3.0, mshr: 0.0, queue: 0.0 };
        let bar = s.render_bar(40);
        let bar_only = &bar[..bar.find(']').expect("bar has a closing bracket")];
        let hashes = bar_only.chars().filter(|&c| c == '#').count();
        let drams = bar_only.chars().filter(|&c| c == 'D').count();
        assert_eq!(hashes, 10, "BASE is a quarter of the bar");
        assert_eq!(drams, 30, "DRAM is three quarters");
        assert!(bar.contains("#=BASE:1.00"));
        assert!(bar.contains("D=DRAM:3.00"));
        assert!(!bar.contains("MSHR"), "zero categories stay out of the legend");
    }

    #[test]
    fn render_bar_handles_degenerate_stacks() {
        assert_eq!(CpiStack::default().render_bar(40), "(empty stack)");
        let s = CpiStack { base: 1.0, ..Default::default() };
        assert_eq!(s.render_bar(0), "(empty stack)");
    }
}
