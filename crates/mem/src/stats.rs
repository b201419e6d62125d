//! Per-PC memory statistics and AMAT derivation (Section V-B of the paper).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The miss event of one memory *instruction* — its longest-latency request
/// (Section V-B: "the miss event of the memory instruction is determined by
/// the memory request with the longest latency").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MissEvent {
    /// All requests hit the L1.
    L1Hit,
    /// At least one request reached the L2 and all such requests hit.
    L2Hit,
    /// At least one request missed the L2 (DRAM access).
    L2Miss,
}

/// Instruction-level miss-event distribution of a load PC; fractions sum
/// to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissDistribution {
    /// Fraction of executions resolving in the L1.
    pub l1_hit: f64,
    /// Fraction resolving in the L2.
    pub l2_hit: f64,
    /// Fraction reaching DRAM.
    pub l2_miss: f64,
}

impl MissDistribution {
    /// A distribution that always hits L1 (used for PCs with no recorded
    /// executions).
    #[must_use]
    pub fn all_l1() -> Self {
        Self { l1_hit: 1.0, l2_hit: 0.0, l2_miss: 0.0 }
    }
}

/// Statistics accumulated for one static memory instruction (PC).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PcStats {
    /// `true` for store PCs (write-through traffic, no miss events).
    pub is_store: bool,
    /// Dynamic executions across all warps.
    pub insts: u64,
    /// Executions whose event was [`MissEvent::L1Hit`] (loads only).
    pub l1_hit_insts: u64,
    /// Executions whose event was [`MissEvent::L2Hit`].
    pub l2_hit_insts: u64,
    /// Executions whose event was [`MissEvent::L2Miss`].
    pub l2_miss_insts: u64,
    /// Total coalesced requests issued (divergence degree x executions).
    pub reqs: u64,
    /// Requests that missed the L1 — the ones that allocate MSHR entries.
    /// Always zero for stores (no-write-allocate, Section VI-B).
    pub mshr_reqs: u64,
    /// Requests that reach DRAM: load L2 misses, or *every* store request
    /// (write-through).
    pub dram_reqs: u64,
}

impl PcStats {
    /// Average requests per execution (the divergence degree).
    #[must_use]
    pub fn reqs_per_inst(&self) -> f64 {
        if self.insts == 0 { 0.0 } else { self.reqs as f64 / self.insts as f64 }
    }

    /// Average MSHR-allocating requests per execution.
    #[must_use]
    pub fn mshr_reqs_per_inst(&self) -> f64 {
        if self.insts == 0 { 0.0 } else { self.mshr_reqs as f64 / self.insts as f64 }
    }

    /// Average DRAM-reaching requests per execution.
    #[must_use]
    pub fn dram_reqs_per_inst(&self) -> f64 {
        if self.insts == 0 { 0.0 } else { self.dram_reqs as f64 / self.insts as f64 }
    }

    /// Instruction-level miss-event distribution of this PC. Stores and
    /// PCs that never executed report all-L1 (zero extra latency).
    #[must_use]
    pub fn miss_dist(&self) -> MissDistribution {
        if self.is_store || self.insts == 0 {
            return MissDistribution::all_l1();
        }
        let n = self.insts as f64;
        MissDistribution {
            l1_hit: self.l1_hit_insts as f64 / n,
            l2_hit: self.l2_hit_insts as f64 / n,
            l2_miss: self.l2_miss_insts as f64 / n,
        }
    }
}

/// All per-PC statistics of one kernel under one machine configuration,
/// plus the latency constants needed to turn distributions into AMATs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// L1 hit latency (Table I: 25).
    pub l1_latency: u64,
    /// L2 hit latency (Table I: 120).
    pub l2_hit_latency: u64,
    /// L2 miss latency: L2 + DRAM access (Table I: 420).
    pub l2_miss_latency: u64,
    per_pc: BTreeMap<u32, PcStats>,
}

impl MemStats {
    /// Creates an empty statistics table with the given latency constants.
    #[must_use]
    pub fn new(l1_latency: u64, l2_hit_latency: u64, l2_miss_latency: u64) -> Self {
        Self { l1_latency, l2_hit_latency, l2_miss_latency, per_pc: BTreeMap::new() }
    }

    /// Mutable accessor used by the hierarchy simulator.
    pub fn entry(&mut self, pc: u32) -> &mut PcStats {
        self.per_pc.entry(pc).or_default()
    }

    /// Statistics of one PC, if it executed.
    #[must_use]
    pub fn pc_stats(&self, pc: u32) -> Option<&PcStats> {
        self.per_pc.get(&pc)
    }

    /// Every PC that executed with its statistics, in ascending PC order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u32, &PcStats)> + '_ {
        self.per_pc.iter().map(|(&pc, s)| (pc, s))
    }

    /// Instruction-level miss-event distribution of a load PC. PCs that
    /// never executed report all-L1 (zero extra latency).
    #[must_use]
    pub fn miss_dist(&self, pc: u32) -> MissDistribution {
        self.per_pc.get(&pc).map_or_else(MissDistribution::all_l1, PcStats::miss_dist)
    }

    /// AMAT of a load whose miss events are distributed as `dist`.
    #[must_use]
    pub fn amat(&self, dist: &MissDistribution) -> f64 {
        dist.l1_hit * self.l1_latency as f64
            + dist.l2_hit * self.l2_hit_latency as f64
            + dist.l2_miss * self.l2_miss_latency as f64
    }

    /// AMAT of a load PC — the latency the interval algorithm assigns to it
    /// (Section V-B worked example: 90% L2 hit + 10% L2 miss at 120/420
    /// cycles → 150 cycles).
    #[must_use]
    pub fn load_latency(&self, pc: u32) -> f64 {
        self.amat(&self.miss_dist(pc))
    }

    /// Average L2/DRAM latency of the requests that allocate MSHRs, without
    /// any queueing — the `avg_miss_latency` of Equation 19. Falls back to
    /// the L2 miss latency when no load ever missed the L1.
    #[must_use]
    pub fn avg_miss_latency(&self) -> f64 {
        let (mut miss_reqs, mut dram_reqs) = (0u64, 0u64);
        for s in self.per_pc.values().filter(|s| !s.is_store) {
            miss_reqs += s.mshr_reqs;
            dram_reqs += s.dram_reqs;
        }
        if miss_reqs == 0 {
            return self.l2_miss_latency as f64;
        }
        let l2_hit_reqs = miss_reqs - dram_reqs;
        (l2_hit_reqs as f64 * self.l2_hit_latency as f64
            + dram_reqs as f64 * self.l2_miss_latency as f64)
            / miss_reqs as f64
    }

    /// Iterator over the load PCs that executed.
    pub fn load_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_pc.iter().filter(|(_, s)| !s.is_store).map(|(&pc, _)| pc)
    }

    /// Iterator over the store PCs that executed.
    pub fn store_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_pc.iter().filter(|(_, s)| s.is_store).map(|(&pc, _)| pc)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn stats_with(pc: u32, s: PcStats) -> MemStats {
        let mut m = MemStats::new(25, 120, 420);
        *m.entry(pc) = s;
        m
    }

    #[test]
    fn amat_matches_the_papers_worked_example() {
        // Section V-B: 90% L2 hit (120) + 10% L2 miss (420) → 150 cycles.
        let m = stats_with(
            7,
            PcStats {
                is_store: false,
                insts: 100,
                l1_hit_insts: 0,
                l2_hit_insts: 90,
                l2_miss_insts: 10,
                reqs: 100,
                mshr_reqs: 100,
                dram_reqs: 10,
            },
        );
        assert!((m.load_latency(7) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_pc_defaults_to_l1_latency() {
        let m = MemStats::new(25, 120, 420);
        assert!((m.load_latency(99) - 25.0).abs() < 1e-9);
        assert_eq!(m.miss_dist(99), MissDistribution::all_l1());
    }

    #[test]
    fn miss_dist_fractions_sum_to_one() {
        let m = stats_with(
            1,
            PcStats {
                insts: 4,
                l1_hit_insts: 1,
                l2_hit_insts: 2,
                l2_miss_insts: 1,
                reqs: 4,
                mshr_reqs: 3,
                dram_reqs: 1,
                is_store: false,
            },
        );
        let d = m.miss_dist(1);
        assert!((d.l1_hit + d.l2_hit + d.l2_miss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_miss_latency_weights_l2_hits_and_misses() {
        // 3 L1-missing requests: 2 hit L2 (120), 1 misses (420) → 220.
        let m = stats_with(
            1,
            PcStats {
                insts: 1,
                l1_hit_insts: 0,
                l2_hit_insts: 0,
                l2_miss_insts: 1,
                reqs: 3,
                mshr_reqs: 3,
                dram_reqs: 1,
                is_store: false,
            },
        );
        assert!((m.avg_miss_latency() - 220.0).abs() < 1e-9);
    }

    #[test]
    fn avg_miss_latency_without_misses_falls_back_to_dram() {
        let m = MemStats::new(25, 120, 420);
        assert!((m.avg_miss_latency() - 420.0).abs() < 1e-9);
    }

    #[test]
    fn per_inst_rates() {
        let s = PcStats { insts: 4, reqs: 64, mshr_reqs: 32, dram_reqs: 16, ..Default::default() };
        assert!((s.reqs_per_inst() - 16.0).abs() < 1e-12);
        assert!((s.mshr_reqs_per_inst() - 8.0).abs() < 1e-12);
        assert!((s.dram_reqs_per_inst() - 4.0).abs() < 1e-12);
        assert_eq!(PcStats::default().reqs_per_inst(), 0.0);
    }

    #[test]
    fn load_and_store_pc_iterators_partition() {
        let mut m = MemStats::new(25, 120, 420);
        m.entry(1).is_store = false;
        m.entry(2).is_store = true;
        m.entry(3).is_store = false;
        assert_eq!(m.load_pcs().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(m.store_pcs().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn store_pcs_have_no_miss_distribution() {
        let mut m = MemStats::new(25, 120, 420);
        let e = m.entry(5);
        e.is_store = true;
        e.insts = 10;
        e.reqs = 320;
        e.dram_reqs = 320;
        assert_eq!(m.miss_dist(5), MissDistribution::all_l1());
    }
}
