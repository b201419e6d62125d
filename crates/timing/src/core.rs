//! Per-core (streaming multiprocessor) state for the timing oracle:
//! warp contexts with a scoreboard, the warp scheduler, the L1 cache with
//! its finite MSHR file, block-slot dispatch, and barriers.

use std::collections::HashMap;

use gpumech_isa::{InstKind, MemSpace, SchedulingPolicy, SimConfig};
use gpumech_mem::{coalesce, Access, Cache};
use gpumech_trace::KernelTrace;

use crate::dram::DramChannel;

/// Finite MSHR file with entry *reservation*: one entry per in-flight line.
/// Loads to an in-flight line merge ("pending hit") and complete when the
/// fill returns. A miss that finds the file full reserves the entry that
/// frees earliest and its request only starts service then — so a full
/// file serializes misses (request `j` effectively waits
/// `ceil(j / #MSHR)` fill rounds, the structure Equation 19 models) rather
/// than deadlocking warps whose divergent loads need more lines than the
/// file holds.
#[derive(Debug)]
struct MshrFile {
    capacity: usize,
    /// line address → fill completion cycle (for merges / pending hits).
    pending: HashMap<u64, u64>,
    /// Fill-completion time of every occupied (or future-reserved) entry.
    occupancy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
}

impl MshrFile {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            pending: HashMap::new(),
            occupancy: std::collections::BinaryHeap::new(),
        }
    }

    fn reclaim(&mut self, now: u64) {
        self.pending.retain(|_, &mut done| done > now);
        while let Some(&std::cmp::Reverse(t)) = self.occupancy.peek() {
            if t <= now {
                self.occupancy.pop();
            } else {
                break;
            }
        }
    }

    /// Cycle at which a new miss can begin service: immediately if an entry
    /// is free, otherwise when the earliest in-flight fill completes (that
    /// entry is consumed — reserved for this request).
    fn entry_available(&mut self, now: u64) -> u64 {
        if self.occupancy.len() < self.capacity {
            return now;
        }
        match self.occupancy.pop() {
            Some(std::cmp::Reverse(t)) => t.max(now),
            None => now,
        }
    }

    /// Records a fill in flight for `line`, completing at `done`.
    fn insert(&mut self, line: u64, done: u64) {
        self.pending.insert(line, done);
        self.occupancy.push(std::cmp::Reverse(done));
    }
}

/// Execution state of one resident warp.
#[derive(Debug)]
struct WarpCtx {
    /// Index into `trace.warps`.
    trace_idx: usize,
    /// Next instruction (index into the warp trace) to issue.
    next: usize,
    /// Completion cycle of each issued instruction (scoreboard).
    done: Vec<u64>,
    /// Dispatch age for GTO's "oldest" rule (smaller = older).
    age: u64,
    /// Barrier generation this warp is waiting on, if any.
    waiting_gen: Option<u64>,
    finished: bool,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    gen: u64,
}

#[derive(Debug)]
struct BlockSlot {
    /// Unfinished warps of the resident block (0 = slot empty).
    live: usize,
}

/// Why a warp cannot issue this cycle (with a lower bound on when it might).
enum Stall {
    /// Warp can issue now.
    Ready,
    /// Blocked; may become ready at the given cycle (None = woken by
    /// another warp's issue, e.g. a barrier).
    Until(Option<u64>),
}

/// One streaming multiprocessor.
pub(crate) struct Core<'t> {
    trace: &'t KernelTrace,
    cfg: &'t SimConfig,
    l1: Cache,
    mshr: MshrFile,
    /// Flat warp slots: block slot `s` owns `[s*wpb, (s+1)*wpb)`.
    warps: Vec<Option<WarpCtx>>,
    slots: Vec<BlockSlot>,
    barriers: Vec<BarrierState>,
    wpb: usize,
    /// Grid block ids assigned to this core, dispatched in order.
    my_blocks: Vec<usize>,
    next_block: usize,
    rr_ptr: usize,
    gto_current: Option<usize>,
    age_counter: u64,
    /// Cycle the special-function unit next accepts a warp instruction.
    sfu_free_at: u64,
    /// Warp-instructions issued by this core.
    pub issued: u64,
    /// Optional per-instruction issue-cycle log, indexed like
    /// `trace.warps` (grid-global): filled only when requested.
    pub issue_log: Option<Vec<Vec<u64>>>,
}

impl<'t> Core<'t> {
    pub(crate) fn new(trace: &'t KernelTrace, cfg: &'t SimConfig, my_blocks: Vec<usize>) -> Self {
        let wpb = trace.launch.warps_per_block();
        let bpc = trace.launch.blocks_per_core(cfg.max_warps_per_core);
        let mut core = Self {
            trace,
            cfg,
            l1: Cache::new(&cfg.l1),
            mshr: MshrFile::new(cfg.num_mshrs),
            warps: (0..bpc * wpb).map(|_| None).collect(),
            slots: (0..bpc).map(|_| BlockSlot { live: 0 }).collect(),
            barriers: (0..bpc).map(|_| BarrierState::default()).collect(),
            wpb,
            my_blocks,
            next_block: 0,
            rr_ptr: 0,
            gto_current: None,
            age_counter: 0,
            sfu_free_at: 0,
            issued: 0,
            issue_log: None,
        };
        for s in 0..bpc {
            core.refill_slot(s);
        }
        core
    }

    /// `true` once every assigned block has been dispatched and finished.
    pub(crate) fn done(&self) -> bool {
        self.next_block >= self.my_blocks.len() && self.slots.iter().all(|s| s.live == 0)
    }

    fn refill_slot(&mut self, slot: usize) {
        if self.next_block >= self.my_blocks.len() {
            return;
        }
        let block = self.my_blocks[self.next_block];
        self.next_block += 1;
        self.barriers[slot] = BarrierState::default();
        let mut live = 0;
        for w in 0..self.wpb {
            let trace_idx = block * self.wpb + w;
            let len = self.trace.warps[trace_idx].insts.len();
            self.warps[slot * self.wpb + w] = Some(WarpCtx {
                trace_idx,
                next: 0,
                done: vec![0; len],
                age: self.age_counter,
                waiting_gen: None,
                finished: len == 0,
            });
            self.age_counter += 1;
            if len > 0 {
                live += 1;
            }
        }
        self.slots[slot].live = live;
    }

    /// Classifies warp `idx`'s readiness at `now`. Does not mutate caches.
    fn readiness(&self, idx: usize, now: u64, dram: &mut DramChannel) -> Stall {
        let Some(w) = &self.warps[idx] else { return Stall::Until(None) };
        if w.finished {
            return Stall::Until(None);
        }
        if let Some(gen) = w.waiting_gen {
            if self.barriers[idx / self.wpb].gen == gen {
                return Stall::Until(None);
            }
        }
        let trace = &self.trace.warps[w.trace_idx];
        let inst = &trace.insts[w.next];
        // Equation 4 convention: a consumer issues no earlier than the
        // producer's done cycle + 1.
        let ready_at = trace.deps(inst).iter().map(|&d| w.done[d as usize] + 1).max().unwrap_or(0);
        if ready_at > now {
            return Stall::Until(Some(ready_at));
        }
        // Bounded write queue: a store cannot issue while the DRAM write
        // backlog is above the limit (memory-pipeline backpressure).
        if inst.kind == InstKind::Store(MemSpace::Global) {
            let admit = dram.write_admission_time(now);
            if admit > now {
                return Stall::Until(Some(admit));
            }
        }
        // Structural hazard: the SFU accepts one warp instruction per
        // initiation interval.
        if inst.kind == InstKind::Sfu && self.sfu_free_at > now {
            return Stall::Until(Some(self.sfu_free_at));
        }
        Stall::Ready
    }

    fn pick_warp(&mut self, now: u64, dram: &mut DramChannel, policy: SchedulingPolicy) -> Option<usize> {
        let n = self.warps.len();
        match policy {
            SchedulingPolicy::RoundRobin => {
                for k in 0..n {
                    let i = (self.rr_ptr + k) % n;
                    if matches!(self.readiness(i, now, dram), Stall::Ready) {
                        self.rr_ptr = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            SchedulingPolicy::GreedyThenOldest => {
                if let Some(cur) = self.gto_current {
                    if matches!(self.readiness(cur, now, dram), Stall::Ready) {
                        return Some(cur);
                    }
                }
                let oldest = (0..n)
                    .filter(|&i| matches!(self.readiness(i, now, dram), Stall::Ready))
                    .min_by_key(|&i| self.warps[i].as_ref().map_or(u64::MAX, |w| w.age));
                self.gto_current = oldest;
                oldest
            }
        }
    }

    /// Attempts to issue one warp-instruction; returns `true` on issue.
    pub(crate) fn try_issue(
        &mut self,
        now: u64,
        l2: &mut Cache,
        dram: &mut DramChannel,
        policy: SchedulingPolicy,
    ) -> bool {
        self.mshr.reclaim(now);
        let Some(idx) = self.pick_warp(now, dram, policy) else { return false };
        self.issue(idx, now, l2, dram);
        true
    }

    fn issue(&mut self, idx: usize, now: u64, l2: &mut Cache, dram: &mut DramChannel) {
        let slot = idx / self.wpb;
        // `pick_warp` only returns indices of occupied slots.
        let Some(w) = self.warps[idx].as_mut() else { return };
        let trace = &self.trace.warps[w.trace_idx];
        let inst = &trace.insts[w.next];
        let line_bytes = self.cfg.l1.line_bytes as u64;

        let done_cycle = match inst.kind {
            InstKind::Load(MemSpace::Global) => {
                let lines = coalesce(trace.addrs(inst), line_bytes);
                let mut done = now + self.cfg.l1.latency;
                for &l in lines.iter() {
                    let line_done = if let Some(&fill) = self.mshr.pending.get(&l) {
                        fill // pending hit: merge with the in-flight fill
                    } else if self.l1.access(l, true) == Access::Hit {
                        now + self.cfg.l1.latency
                    } else {
                        // The lookup allocated the tags. An MSHR entry
                        // gates when the miss starts service (a full file
                        // serializes misses in rounds of #MSHR — the
                        // structure Equation 19 models); the windowed DRAM
                        // channel makes the future arrival harmless to
                        // earlier traffic.
                        let start = self.mshr.entry_available(now);
                        let fill = if l2.access(l, true) == Access::Hit {
                            start + self.cfg.l2.latency
                        } else {
                            dram.request(now, start + self.cfg.l2.latency)
                        };
                        self.mshr.insert(l, fill);
                        fill
                    };
                    done = done.max(line_done);
                }
                done
            }
            InstKind::Store(MemSpace::Global) => {
                // Write-through, no-allocate: traffic only; retires at once.
                for &l in coalesce(trace.addrs(inst), line_bytes).iter() {
                    let _ = l2.access(l, false);
                    dram.request_write(now, now + self.cfg.l2.latency);
                }
                now + 1
            }
            InstKind::Sync => {
                let live = self.slots[slot].live;
                let bar = &mut self.barriers[slot];
                bar.arrived += 1;
                if bar.arrived >= live {
                    bar.arrived = 0;
                    bar.gen += 1; // release everyone
                } else {
                    w.waiting_gen = Some(bar.gen);
                }
                now + 1
            }
            InstKind::Sfu => {
                // Readiness guarantees the unit is free at issue; occupy it
                // for one initiation interval.
                self.sfu_free_at = now + self.cfg.sfu_initiation_interval();
                now + self.cfg.latencies.latency_of(InstKind::Sfu)
            }
            kind => now + self.cfg.latencies.latency_of(kind),
        };

        let Some(w) = self.warps[idx].as_mut() else { return };
        if let Some(log) = &mut self.issue_log {
            log[w.trace_idx].push(now);
        }
        if w.waiting_gen.is_some() {
            // Arrived at a barrier that has since been released?
            let bar_gen = self.barriers[slot].gen;
            if w.waiting_gen != Some(bar_gen) {
                w.waiting_gen = None;
            }
        }
        w.done[w.next] = done_cycle;
        w.next += 1;
        self.issued += 1;

        if w.next == self.trace.warps[w.trace_idx].insts.len() {
            w.finished = true;
            self.slots[slot].live -= 1;
            if self.gto_current == Some(idx) {
                self.gto_current = None;
            }
            // A finishing warp can complete a barrier it never reaches.
            let live = self.slots[slot].live;
            let bar = &mut self.barriers[slot];
            if live > 0 && bar.arrived >= live {
                bar.arrived = 0;
                bar.gen += 1;
            }
            if live == 0 {
                self.refill_slot(slot);
            }
        }
    }

    /// Earliest cycle after `now` at which some warp *may* become ready —
    /// the skip-ahead bound used when every core is idle.
    pub(crate) fn next_event_time(&self, now: u64, dram: &mut DramChannel) -> Option<u64> {
        (0..self.warps.len())
            .filter_map(|i| match self.readiness(i, now, dram) {
                Stall::Ready => Some(now + 1),
                Stall::Until(t) => t.filter(|&t| t > now),
            })
            .min()
    }
}
