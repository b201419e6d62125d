//! The functional cache-hierarchy simulator.
//!
//! Replays every global memory instruction of a kernel trace against
//! per-core L1 caches and one shared L2, with the access interleaving the
//! paper prescribes: "the cache simulator reads the memory instructions and
//! their addresses from the trace of each warp in a round-robin fashion"
//! and "models a system with the number of warps and cores equal to that of
//! the modeled system without timing information" (Section V-A).
//!
//! Thread blocks are dealt to cores round-robin ([`LaunchConfig`] rule) and
//! occupy them in *waves*: a core holds `blocks_per_core` blocks at a time,
//! and when a wave's memory instructions are exhausted the next wave of
//! blocks becomes resident.
//!
//! Policy choices (the timing oracle makes the same ones for loads, so the
//! two see the same load hit/miss behaviour for the same access order):
//! * L1 and L2 allocate on load misses (fill at access time),
//! * stores are write-through / no-write-allocate all the way to DRAM —
//!   they never allocate MSHRs and every store request consumes DRAM
//!   bandwidth, which is what makes write-divergent kernels DRAM-queue
//!   bound in the paper (Section VI-B). Here a store touches no cache at
//!   all. The oracle's stores do differ: they look their lines up in the
//!   L2 without allocating, which refreshes the recency of a line already
//!   there (DESIGN.md, "Oracle stores touch L2 recency").

use std::convert::Infallible;

use gpumech_isa::SimConfig;
use gpumech_obs::{CancelToken, Interrupt};
use gpumech_trace::{KernelTrace, LaunchConfig};

use crate::cache::{Access, Cache};
use crate::coalesce::coalesce_into;
use crate::stats::{MemStats, PcStats};

/// Round-robin passes between [`CancelToken`] polls in the cancellable
/// path (each pass replays at most one memory instruction per core).
const CANCEL_CHECK_MASK: u64 = 0x3F;

/// One global-memory instruction of the wave being replayed, coalesced
/// while the wave was gathered. A load's `reqs` line addresses sit in the
/// wave's line list, a warp's loads back to back in program order; a store
/// needs only the count.
#[derive(Clone, Copy)]
struct WaveOp {
    pc: u32,
    reqs: u8,
    is_store: bool,
}

/// One resident warp's position in the wave's two lists: its remaining
/// instructions `op..op_end` and the first line of its next load.
struct Cursor {
    op: usize,
    op_end: usize,
    line: usize,
}

/// The resident warps of one core that still have memory instructions, in
/// warp order, and the position of the one whose turn is next (always in
/// range unless the queue is empty).
#[derive(Default)]
struct CoreQueue {
    cursors: Vec<Cursor>,
    turn: usize,
}

/// Runs the functional hierarchy simulation and returns per-PC statistics.
///
/// # Panics
///
/// Panics if `cfg` fails validation (call [`SimConfig::validate`] to get a
/// proper error) or if the trace's warp ids are inconsistent with its
/// launch geometry.
#[must_use]
pub fn simulate_hierarchy(trace: &KernelTrace, cfg: &SimConfig) -> MemStats {
    match simulate_impl(trace, cfg, &|| Ok::<(), Infallible>(())) {
        Ok(stats) => stats,
        Err(never) => match never {},
    }
}

/// [`simulate_hierarchy`] under a [`CancelToken`]: the gather of a wave
/// polls the token once per resident warp and the round-robin replay at a
/// fixed stride of passes, so an expired deadline or explicit cancellation
/// aborts the simulation within a bounded amount of work.
///
/// # Errors
///
/// The [`Interrupt`] once `cancel` fires.
///
/// # Panics
///
/// Same panics as [`simulate_hierarchy`] (invalid `cfg`, inconsistent
/// launch geometry).
pub fn simulate_hierarchy_cancellable(
    trace: &KernelTrace,
    cfg: &SimConfig,
    cancel: &CancelToken,
) -> Result<MemStats, Interrupt> {
    simulate_impl(trace, cfg, &|| cancel.check())
}

fn simulate_impl<E>(
    trace: &KernelTrace,
    cfg: &SimConfig,
    check: &dyn Fn() -> Result<(), E>,
) -> Result<MemStats, E> {
    let _span = gpumech_obs::span!(
        "mem.cachesim.simulate",
        name = trace.name.as_str(),
        warps = trace.warps.len(),
    );
    assert!(cfg.validate().is_ok(), "invalid SimConfig");
    let launch: LaunchConfig = trace.launch;
    let line_bytes = cfg.l1.line_bytes as u64;

    let mut l1s: Vec<Cache> = (0..cfg.num_cores).map(|_| Cache::new(&cfg.l1)).collect();
    let mut l2 = Cache::new(&cfg.l2);
    let mut stats = MemStats::new(cfg.l1.latency, cfg.l2_hit_latency(), cfg.l2_miss_latency());

    let core_blocks = launch.blocks_by_core(cfg.num_cores);
    let bpc = launch.blocks_per_core(cfg.max_warps_per_core);
    let max_waves = core_blocks.iter().map(|bs| bs.len().div_ceil(bpc)).max().unwrap_or(0);
    let wpb = launch.warps_per_block();
    let mut passes: u64 = 0;
    // Per-PC statistics, indexed by PC while the replay runs (one table
    // touch per memory instruction) and folded into `stats` at the end.
    // Validated traces bound every PC by `MAX_STATIC_INSTS`.
    let mut per_pc: Vec<PcStats> = Vec::new();
    // The current wave: every resident warp's global-memory instructions,
    // warp after warp, and the lines of its loads in the same order.
    let mut ops: Vec<WaveOp> = Vec::new();
    let mut lines: Vec<u64> = Vec::new();
    let mut queues: Vec<CoreQueue> = (0..cfg.num_cores).map(|_| CoreQueue::default()).collect();

    // Sizes of the waves, emitted once when a recorder is installed; each
    // wave's gather and replay are timed by a span of their own.
    let (mut wave_ops, mut wave_lines) = (0u64, 0u64);

    for wave in 0..max_waves {
        // Gather: walk each resident warp's rows and address arena once, in
        // order, and coalesce there, so that the replay below — which hops
        // between up to `num_cores x max_warps_per_core` warps — reads only
        // the two compact wave lists.
        let gather = gpumech_obs::span!("mem.cachesim.gather");
        ops.clear();
        lines.clear();
        for (queue, blocks) in queues.iter_mut().zip(&core_blocks) {
            queue.cursors.clear();
            queue.turn = 0;
            for &b in blocks.iter().skip(wave * bpc).take(bpc) {
                for w in 0..wpb {
                    // A validated trace always has `total_warps` entries;
                    // skip (don't panic) if a corrupt one slipped through.
                    let Some(warp) = trace.warps.get(b * wpb + w) else { continue };
                    check()?;
                    let (op, line) = (ops.len(), lines.len());
                    for inst in warp.insts().filter(|i| i.kind.is_global_mem()) {
                        if inst.pc as usize >= per_pc.len() {
                            per_pc.resize(inst.pc as usize + 1, PcStats::default());
                        }
                        let addrs = warp.addrs(&inst);
                        let first = lines.len();
                        lines.resize(first + addrs.len(), 0);
                        let reqs = coalesce_into(addrs, line_bytes, &mut lines[first..]);
                        let is_store = inst.kind.is_global_store();
                        lines.truncate(if is_store { first } else { first + usize::from(reqs) });
                        ops.push(WaveOp { pc: inst.pc, reqs, is_store });
                    }
                    // A warp without memory instructions never gets a turn.
                    if ops.len() > op {
                        queue.cursors.push(Cursor { op, op_end: ops.len(), line });
                    }
                }
            }
        }
        wave_ops += ops.len() as u64;
        wave_lines += lines.len() as u64;
        drop(gather);

        // Round-robin: each pass replays one memory instruction of the next
        // warp in turn on every core.
        let _replay = gpumech_obs::span!("mem.cachesim.replay");
        loop {
            if passes & CANCEL_CHECK_MASK == 0 {
                check()?;
            }
            passes += 1;
            let mut progressed = false;
            for (queue, l1) in queues.iter_mut().zip(&mut l1s) {
                let Some(cur) = queue.cursors.get_mut(queue.turn) else { continue };
                progressed = true;
                let op = ops[cur.op];
                cur.op += 1;

                let reqs = u64::from(op.reqs);
                let entry = &mut per_pc[op.pc as usize];
                entry.is_store = op.is_store;
                entry.insts += 1;
                entry.reqs += reqs;
                if op.is_store {
                    // Write-through, no-allocate: every request reaches DRAM.
                    entry.dram_reqs += reqs;
                } else {
                    let mut worst_l1_miss = false;
                    let mut worst_l2_miss = false;
                    let last = cur.line + usize::from(op.reqs);
                    for &l in &lines[cur.line..last] {
                        if l1.access(l, true) == Access::Miss {
                            worst_l1_miss = true;
                            entry.mshr_reqs += 1;
                            if l2.access(l, true) == Access::Miss {
                                worst_l2_miss = true;
                                entry.dram_reqs += 1;
                            }
                        }
                    }
                    cur.line = last;
                    if worst_l2_miss {
                        entry.l2_miss_insts += 1;
                    } else if worst_l1_miss {
                        entry.l2_hit_insts += 1;
                    } else {
                        entry.l1_hit_insts += 1;
                    }
                }

                // The turn passes to the next warp of the queue; a warp
                // with nothing left leaves it, and its successor moves up.
                if cur.op == cur.op_end {
                    queue.cursors.remove(queue.turn);
                } else {
                    queue.turn += 1;
                }
                if queue.turn == queue.cursors.len() {
                    queue.turn = 0;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    if gpumech_obs::enabled() {
        gpumech_obs::counter!("mem.cachesim.wave_ops", wave_ops);
        gpumech_obs::counter!("mem.cachesim.wave_lines", wave_lines);
    }
    for (pc, s) in per_pc.into_iter().enumerate().filter(|(_, s)| s.insts > 0) {
        *stats.entry(pc as u32) = s;
    }
    record_hierarchy_metrics(&stats);
    Ok(stats)
}

/// Emits the per-run `mem.cachesim.*` series from the finished statistics
/// table. A no-op (one branch) when no recorder is installed.
fn record_hierarchy_metrics(stats: &MemStats) {
    if !gpumech_obs::enabled() {
        return;
    }
    // Memory instructions by their worst request, beside line requests.
    let mut l1_hit_insts = 0u64;
    let mut l2_hit_insts = 0u64;
    let mut l2_miss_insts = 0u64;
    let mut mshr_reqs = 0u64;
    let mut dram_reqs = 0u64;
    for pc in stats.load_pcs().chain(stats.store_pcs()) {
        let Some(s) = stats.pc_stats(pc) else { continue };
        l1_hit_insts += s.l1_hit_insts;
        l2_hit_insts += s.l2_hit_insts;
        l2_miss_insts += s.l2_miss_insts;
        mshr_reqs += s.mshr_reqs;
        dram_reqs += s.dram_reqs;
        gpumech_obs::histogram!("mem.cachesim.reqs_per_inst", s.reqs_per_inst());
    }
    gpumech_obs::counter!("mem.cachesim.l1_hit_insts", l1_hit_insts);
    gpumech_obs::counter!("mem.cachesim.l2_hit_insts", l2_hit_insts);
    gpumech_obs::counter!("mem.cachesim.l2_miss_insts", l2_miss_insts);
    gpumech_obs::counter!("mem.cachesim.mshr_reqs", mshr_reqs);
    gpumech_obs::counter!("mem.cachesim.dram_reqs", dram_reqs);
    gpumech_obs::gauge!("mem.cachesim.avg_miss_latency", stats.avg_miss_latency());
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::{AddrPattern, KernelBuilder, Operand, SimConfig};
    use gpumech_trace::{trace_kernel, workloads};

    fn small_cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn cold_streaming_loads_all_miss_to_dram() {
        let mut b = KernelBuilder::new("stream");
        let _ = b.load_pattern(AddrPattern::Coalesced { base: 1 << 32, elem_bytes: 4 });
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(256, 16)).unwrap();
        let stats = simulate_hierarchy(&t, &small_cfg());
        let pc = stats.load_pcs().next().unwrap();
        let d = stats.miss_dist(pc);
        assert!(d.l2_miss > 0.99, "cold streaming should miss L2: {d:?}");
        assert!((stats.load_latency(pc) - 420.0).abs() < 5.0);
    }

    #[test]
    fn broadcast_load_hits_l1_after_first_warp() {
        let mut b = KernelBuilder::new("bcast");
        let _ = b.load_pattern(AddrPattern::Broadcast { addr: 1 << 32 });
        let k = b.finish(vec![]);
        // 64 warps on 16 cores → 4 warps per core → 1 cold miss per core.
        let t = trace_kernel(&k, LaunchConfig::new(32, 64)).unwrap();
        let stats = simulate_hierarchy(&t, &small_cfg());
        let pc = stats.load_pcs().next().unwrap();
        let s = stats.pc_stats(pc).unwrap();
        assert_eq!(s.insts, 64);
        assert_eq!(s.reqs, 64, "one request per warp");
        // 16 cores take one L1 miss each; of those, 15 hit L2 (filled by the
        // first core's miss).
        assert_eq!(s.mshr_reqs, 16);
        assert_eq!(s.dram_reqs, 1);
        let d = stats.miss_dist(pc);
        assert!(d.l1_hit >= 0.7, "most executions hit L1: {d:?}");
    }

    #[test]
    fn stores_bypass_caches_and_reach_dram() {
        let mut b = KernelBuilder::new("st");
        b.store_pattern(AddrPattern::Strided { base: 1 << 32, stride_bytes: 128 }, Operand::Imm(1));
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(32, 4)).unwrap();
        let stats = simulate_hierarchy(&t, &small_cfg());
        let pc = stats.store_pcs().next().unwrap();
        let s = stats.pc_stats(pc).unwrap();
        assert!(s.is_store);
        assert_eq!(s.insts, 4);
        assert_eq!(s.reqs, 4 * 32, "fully divergent stores");
        assert_eq!(s.dram_reqs, s.reqs, "write-through: all store requests reach DRAM");
        assert_eq!(s.mshr_reqs, 0, "stores never allocate MSHRs");
    }

    #[test]
    fn hot_region_develops_l1_hits() {
        let w = workloads::by_name("kmeans_invert_mapping").unwrap().with_blocks(16);
        let t = w.trace().unwrap();
        let stats = simulate_hierarchy(&t, &small_cfg());
        // The load in the loop reads a 12 KiB region: it must show a high
        // L1 hit fraction once warm.
        let best_l1 = stats.load_pcs().map(|pc| stats.miss_dist(pc).l1_hit).fold(0.0, f64::max);
        assert!(best_l1 > 0.6, "expected L1-hot loads, best fraction {best_l1}");
    }

    #[test]
    fn divergence_is_visible_in_request_rates() {
        let w = workloads::by_name("sdk_transpose").unwrap().with_blocks(8);
        let t = w.trace().unwrap();
        let stats = simulate_hierarchy(&t, &small_cfg());
        let max_store_div = stats
            .store_pcs()
            .map(|pc| stats.pc_stats(pc).unwrap().reqs_per_inst())
            .fold(0.0, f64::max);
        assert!(max_store_div > 30.0, "transpose stores should be ~32-way: {max_store_div}");
    }

    #[test]
    fn cancellable_path_matches_and_honors_the_token() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(8);
        let t = w.trace().unwrap();
        let plain = simulate_hierarchy(&t, &small_cfg());
        let live = simulate_hierarchy_cancellable(&t, &small_cfg(), &CancelToken::never()).unwrap();
        assert_eq!(plain, live);

        let cancelled = CancelToken::never();
        cancelled.cancel();
        assert_eq!(
            simulate_hierarchy_cancellable(&t, &small_cfg(), &cancelled),
            Err(Interrupt::Cancelled)
        );

        // One block: 8 warps x 18 memory instructions on one core, so the
        // replay is 145 passes and polls three times (passes 0, 64, 128),
        // after the gather's one poll per warp. A clock that ticks per poll
        // and runs out at the fourth stops the gather; three polls alone
        // would not reach it.
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(1);
        let t = w.trace().unwrap();
        assert_eq!((t.warps.len(), t.total_global_mem_insts()), (8, 144));
        let deadline = |ns| {
            CancelToken::with_clock(std::sync::Arc::new(gpumech_obs::FakeClock::new(1_000)), ns)
        };
        assert_eq!(
            simulate_hierarchy_cancellable(&t, &small_cfg(), &deadline(2_500)),
            Err(Interrupt::DeadlineExceeded)
        );
        // Eleven polls in all: the last reads 10 000.
        assert_eq!(
            simulate_hierarchy_cancellable(&t, &small_cfg(), &deadline(10_500)),
            Ok(simulate_hierarchy(&t, &small_cfg()))
        );
        assert_eq!(
            simulate_hierarchy_cancellable(&t, &small_cfg(), &deadline(9_500)),
            Err(Interrupt::DeadlineExceeded)
        );
    }

    #[test]
    fn hierarchy_is_deterministic() {
        let w = workloads::by_name("cfd_compute_flux").unwrap().with_blocks(8);
        let t = w.trace().unwrap();
        let a = simulate_hierarchy(&t, &small_cfg());
        let b = simulate_hierarchy(&t, &small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_resident_warps_changes_wave_structure_not_totals() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(32);
        let t = w.trace().unwrap();
        let full = simulate_hierarchy(&t, &small_cfg());
        let tight = simulate_hierarchy(&t, &small_cfg().with_warps_per_core(8));
        // Total instruction and request counts are trace properties and
        // must not depend on residency.
        for pc in full.load_pcs() {
            let a = full.pc_stats(pc).unwrap();
            let b = tight.pc_stats(pc).unwrap();
            assert_eq!(a.insts, b.insts);
            assert_eq!(a.reqs, b.reqs);
        }
    }
}
