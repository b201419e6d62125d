//! Kernel launch geometry: grid and block dimensions, warp numbering, and
//! the block-to-core assignment rule shared by the functional cache
//! simulator and the cycle-level oracle.

use gpumech_isa::{BlockId, WarpId, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// Grid geometry of one kernel launch (1-D, as in all the paper's kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Threads per block; must be a non-zero multiple of the 32-thread warp.
    pub threads_per_block: usize,
    /// Number of thread blocks in the grid.
    pub num_blocks: usize,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is zero or not a multiple of 32, or if
    /// `num_blocks` is zero.
    #[must_use]
    pub fn new(threads_per_block: usize, num_blocks: usize) -> Self {
        assert!(
            threads_per_block > 0 && threads_per_block.is_multiple_of(WARP_SIZE),
            "threads_per_block must be a non-zero multiple of {WARP_SIZE}"
        );
        assert!(num_blocks > 0, "num_blocks must be non-zero");
        Self { threads_per_block, num_blocks }
    }

    /// Fallible [`LaunchConfig::new`] for untrusted inputs (deserialized
    /// traces): returns a description of the violated constraint instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns an error if `threads_per_block` is zero or not a multiple of
    /// 32, if `num_blocks` is zero, or if the grid exceeds [`Self::MAX_WARPS`]
    /// total warps.
    pub fn try_new(threads_per_block: usize, num_blocks: usize) -> Result<Self, String> {
        if threads_per_block == 0 || !threads_per_block.is_multiple_of(WARP_SIZE) {
            return Err(format!(
                "threads_per_block ({threads_per_block}) must be a non-zero multiple of {WARP_SIZE}"
            ));
        }
        if num_blocks == 0 {
            return Err("num_blocks must be non-zero".to_string());
        }
        let warps = (threads_per_block / WARP_SIZE).checked_mul(num_blocks);
        match warps {
            Some(w) if w <= Self::MAX_WARPS => Ok(Self { threads_per_block, num_blocks }),
            _ => Err(format!(
                "grid of {threads_per_block}x{num_blocks} threads exceeds {} total warps",
                Self::MAX_WARPS
            )),
        }
    }

    /// Largest grid (in warps) accepted from untrusted inputs.
    pub const MAX_WARPS: usize = 1 << 24;

    /// Warps per thread block.
    #[must_use]
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block / WARP_SIZE
    }

    /// Total warps in the grid.
    #[must_use]
    pub fn total_warps(&self) -> usize {
        self.warps_per_block() * self.num_blocks
    }

    /// The block containing a grid-global warp.
    #[must_use]
    pub fn block_of_warp(&self, warp: WarpId) -> BlockId {
        BlockId::new((warp.index() / self.warps_per_block()) as u32)
    }

    /// Warp index within its block.
    #[must_use]
    pub fn warp_in_block(&self, warp: WarpId) -> usize {
        warp.index() % self.warps_per_block()
    }

    /// Grid-global thread id of `lane` of `warp`.
    #[must_use]
    pub fn global_tid(&self, warp: WarpId, lane: usize) -> u64 {
        (warp.index() * WARP_SIZE + lane) as u64
    }

    /// The grid's blocks dealt round-robin to `num_cores` cores (at least
    /// one): core `c` runs blocks `c, c + num_cores, c + 2 * num_cores, …`
    /// in that order. Both the functional cache simulator and the timing
    /// oracle deal by this rule, keeping their per-core access streams
    /// comparable.
    #[must_use]
    pub fn blocks_by_core(&self, num_cores: usize) -> Vec<Vec<usize>> {
        (0..num_cores).map(|c| (c..self.num_blocks).step_by(num_cores).collect()).collect()
    }

    /// Number of blocks that fit on one core given a resident-warp budget.
    /// At least one block is always resident, mirroring real hardware which
    /// cannot split a block.
    #[must_use]
    pub fn blocks_per_core(&self, max_warps_per_core: usize) -> usize {
        (max_warps_per_core / self.warps_per_block()).max(1)
    }

    /// Iterator over all warp ids in the grid.
    pub fn warps(&self) -> impl Iterator<Item = WarpId> {
        (0..self.total_warps() as u32).map(WarpId::new)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let l = LaunchConfig::new(256, 192);
        assert_eq!(l.warps_per_block(), 8);
        assert_eq!(l.total_warps(), 1536);
        assert_eq!(l.block_of_warp(WarpId::new(9)), BlockId::new(1));
        assert_eq!(l.warp_in_block(WarpId::new(9)), 1);
        assert_eq!(l.global_tid(WarpId::new(2), 5), 69);
    }

    #[test]
    fn blocks_deal_round_robin_to_cores() {
        let by_core = LaunchConfig::new(256, 40).blocks_by_core(16);
        assert_eq!(by_core.len(), 16);
        assert_eq!(by_core[0], [0, 16, 32]);
        assert_eq!(by_core[1], [1, 17, 33]);
        assert_eq!(by_core[8], [8, 24]);
        assert_eq!(by_core[15], [15, 31]);
        // Fewer blocks than cores leaves the tail cores empty.
        let by_core = LaunchConfig::new(256, 3).blocks_by_core(4);
        assert_eq!(by_core, [vec![0], vec![1], vec![2], vec![]]);
    }

    #[test]
    fn blocks_per_core_respects_warp_budget() {
        let l = LaunchConfig::new(256, 10); // 8 warps/block
        assert_eq!(l.blocks_per_core(32), 4);
        assert_eq!(l.blocks_per_core(8), 1);
        // A block never splits: even a 4-warp budget holds one 8-warp block.
        assert_eq!(l.blocks_per_core(4), 1);
        assert_eq!(l.blocks_per_core(48), 6);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_non_warp_multiple() {
        let _ = LaunchConfig::new(100, 1);
    }

    #[test]
    fn warp_iterator_covers_grid() {
        let l = LaunchConfig::new(64, 3);
        let warps: Vec<_> = l.warps().collect();
        assert_eq!(warps.len(), 6);
        assert_eq!(warps[0], WarpId::new(0));
        assert_eq!(warps[5], WarpId::new(5));
    }
}
