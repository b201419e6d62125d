//! Per-core (streaming multiprocessor) state for the timing oracle: warp
//! slots with a scoreboard, the warp scheduler, the L1 cache with its
//! finite MSHR file, block-slot dispatch, and barriers.
//!
//! A core is driven by wake-ups, not by polling (see the crate
//! documentation): each warp slot carries the cycle its next instruction's
//! operands are complete and the [`StallCause`] behind it, and a scan that
//! finds nothing issuable puts the whole core to sleep until the earliest
//! wake-up it saw.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpumech_isa::{InstKind, MemSpace, SchedulingPolicy, SimConfig};
use gpumech_mem::{coalesce, Access, Cache};
use gpumech_trace::KernelTrace;
use serde::{Deserialize, Serialize};

use crate::dram::DramChannel;

/// The wake-up of a warp or core that only another issue can wake.
pub(crate) const NEVER: u64 = u64::MAX;

/// Why a warp slot cannot issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallCause {
    /// A source operand's producer has not completed.
    Operand,
    /// A global store facing a full DRAM write queue.
    WriteQueue,
    /// An SFU instruction inside the unit's initiation interval.
    SfuPort,
    /// Parked at a barrier until the last warp of its block arrives.
    Barrier,
    /// Nothing left to issue: a finished warp or an empty slot.
    Drained,
}

/// Core-cycles in which a core issued nothing, by the [`StallCause`] of the
/// warp whose wake-up ended the idle span (ties go to the warp the policy
/// ranks first). A span is charged whole when the core goes to sleep.
/// Together with the issue slots that were used, the breakdown covers the
/// machine: `insts + total() == cycles * num_cores`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleCycles {
    /// Waiting for an operand (any latency: ALU, SFU, L1, L2, DRAM, MSHR).
    pub operand: u64,
    /// Waiting for the DRAM write queue to drain.
    pub write_queue: u64,
    /// Waiting for the SFU port.
    pub sfu_port: u64,
    /// Always zero under span-end attribution: a barrier is released by a
    /// sibling's issue, so the span goes to what that sibling waited for.
    pub barrier: u64,
    /// No work: before a core's first block, after its last, or never.
    pub drained: u64,
}

impl IdleCycles {
    pub(crate) fn charge(&mut self, cause: StallCause, cycles: u64) {
        *match cause {
            StallCause::Operand => &mut self.operand,
            StallCause::WriteQueue => &mut self.write_queue,
            StallCause::SfuPort => &mut self.sfu_port,
            StallCause::Barrier => &mut self.barrier,
            StallCause::Drained => &mut self.drained,
        } += cycles;
    }

    /// Idle core-cycles over all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.operand + self.write_queue + self.sfu_port + self.barrier + self.drained
    }
}

/// What the scheduler must check beyond operands before a warp's next
/// instruction may issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    /// Nothing to check.
    Open,
    /// Global store: needs room in the DRAM write queue.
    WriteQueue,
    /// SFU instruction: needs the unit's port.
    Sfu,
}

/// Finite MSHR file with entry *reservation*: one entry per in-flight line.
/// Loads to an in-flight line merge ("pending hit") and complete when the
/// fill returns. A miss that finds the file full reserves the entry that
/// frees earliest and its request only starts service then — so a full
/// file serializes misses (request `j` effectively waits
/// `ceil(j / #MSHR)` fill rounds, the structure Equation 19 models) rather
/// than deadlocking warps whose divergent loads need more lines than the
/// file holds.
///
/// Nothing is swept: a fill that has completed is simply not seen by the
/// next lookup, and its table slot is reused by a later insert.
#[derive(Debug)]
struct MshrFile {
    capacity: usize,
    /// Open-addressed `(line, fill completion)` table with linear probing,
    /// a power of two long. It holds the in-flight lines — at most one per
    /// entry plus the reserved ones — and whatever completed fills have not
    /// been overwritten yet.
    lines: Vec<(u64, u64)>,
    /// Slots of `lines` that are not `VACANT`.
    used: usize,
    /// Fill-completion time of every occupied (or future-reserved) entry.
    occupancy: BinaryHeap<Reverse<u64>>,
}

/// Key of a never-used table slot; no line address has all bits set.
const VACANT: u64 = u64::MAX;

impl MshrFile {
    fn new(capacity: usize) -> Self {
        Self { capacity, lines: vec![(VACANT, 0); 64], used: 0, occupancy: BinaryHeap::new() }
    }

    fn home(&self, line: u64) -> usize {
        let bits = self.lines.len().trailing_zeros();
        (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// Fill-completion cycle of `line` if it is in flight at `now`.
    fn pending(&self, line: u64, now: u64) -> Option<u64> {
        let mask = self.lines.len() - 1;
        let mut at = self.home(line);
        loop {
            let (key, fill) = self.lines[at];
            if key == line {
                return (fill > now).then_some(fill);
            }
            if key == VACANT {
                return None;
            }
            at = (at + 1) & mask;
        }
    }

    /// Cycle at which a new miss can begin service: immediately if an entry
    /// is free, otherwise when the earliest in-flight fill completes (that
    /// entry is consumed — reserved for this request).
    fn entry_available(&mut self, now: u64) -> u64 {
        while self.occupancy.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.occupancy.pop();
        }
        if self.occupancy.len() < self.capacity {
            return now;
        }
        self.occupancy.pop().map_or(now, |Reverse(t)| t)
    }

    /// The slot an insert of `line` at `now` writes: the first on its probe
    /// path that is vacant, holds a completed fill, or holds `line` itself.
    /// (A completed fill of `line` further down the path may survive; it can
    /// never be seen as pending.)
    fn slot_for(&self, line: u64, now: u64) -> usize {
        let mask = self.lines.len() - 1;
        let mut at = self.home(line);
        loop {
            let (key, fill) = self.lines[at];
            if key == VACANT || key == line || fill <= now {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Records a fill in flight for `line`, completing at `done`.
    fn insert(&mut self, line: u64, done: u64, now: u64) {
        self.occupancy.push(Reverse(done));
        if 2 * self.used >= self.lines.len() {
            // Rebuild from the fills still in flight, at most a quarter full.
            let live: Vec<(u64, u64)> =
                self.lines.iter().copied().filter(|&(key, fill)| key != VACANT && fill > now).collect();
            self.lines.clear();
            self.lines.resize((4 * live.len()).next_power_of_two().max(64), (VACANT, 0));
            self.used = 0;
            for (key, fill) in live {
                self.place(key, fill, now);
            }
        }
        self.place(line, done, now);
    }

    fn place(&mut self, line: u64, done: u64, now: u64) {
        let at = self.slot_for(line, now);
        self.used += usize::from(self.lines[at].0 == VACANT);
        self.lines[at] = (line, done);
    }
}

/// What the cores share: the L2, the DRAM channel, the optional
/// per-instruction issue-cycle log (indexed like `trace.warps`), and the
/// idle account.
pub(crate) struct Uncore {
    pub l2: Cache,
    pub dram: DramChannel,
    pub issue_log: Option<Vec<Vec<u64>>>,
    /// Idle core-cycles charged so far, over all cores.
    pub idle: IdleCycles,
}

/// One streaming multiprocessor.
pub(crate) struct Core<'t> {
    trace: &'t KernelTrace,
    cfg: &'t SimConfig,
    l1: Cache,
    mshr: MshrFile,

    // Warp slots, one array per field so the scheduler's scan reads
    // `ready_at` (and little else) contiguously. Block slot `s` owns warp
    // slots `[s*wpb, (s+1)*wpb)`.
    /// Cycle the next instruction's operands are complete; [`NEVER`] for a
    /// warp that only another warp's issue can wake.
    ready_at: Vec<u64>,
    /// Why `ready_at` is in the future.
    cause: Vec<StallCause>,
    /// Structural resource of the next instruction.
    port: Vec<Port>,
    /// Next instruction (index into the warp trace) to issue.
    next: Vec<usize>,
    /// Index into `trace.warps`.
    trace_idx: Vec<usize>,
    /// The warp slots, oldest dispatch first (GTO's "oldest" rule).
    by_age: Vec<usize>,
    at_barrier: Vec<bool>,
    /// Completion cycle of each issued instruction; a slot's buffer is
    /// reused, unzeroed, by the next warp dispatched to it (an instruction
    /// reads only entries its own warp has written).
    scoreboard: Vec<Vec<u64>>,

    /// Unfinished warps of each block slot's resident block (0 = empty).
    live: Vec<usize>,
    /// Warps arrived at each block slot's current barrier.
    arrived: Vec<usize>,
    /// Block slots holding an unfinished block.
    live_slots: usize,
    wpb: usize,
    /// Grid block ids assigned to this core, dispatched in order.
    my_blocks: Vec<usize>,
    next_block: usize,

    rr_ptr: usize,
    gto_current: Option<usize>,
    /// Cycle the special-function unit next accepts a warp instruction.
    sfu_free_at: u64,

    /// Earliest cycle this core may issue; [`NEVER`] once it is done.
    pub wake: u64,
    /// Cycles before this one are accounted for, as issue or as idle.
    pub accounted: u64,
    /// Warp-instructions issued by this core.
    pub issued: u64,
}

impl<'t> Core<'t> {
    pub(crate) fn new(trace: &'t KernelTrace, cfg: &'t SimConfig, my_blocks: Vec<usize>) -> Self {
        let wpb = trace.launch.warps_per_block();
        let bpc = trace.launch.blocks_per_core(cfg.max_warps_per_core);
        let n = bpc * wpb;
        let mut core = Self {
            trace,
            cfg,
            l1: Cache::new(&cfg.l1),
            mshr: MshrFile::new(cfg.num_mshrs),
            ready_at: vec![NEVER; n],
            cause: vec![StallCause::Drained; n],
            port: vec![Port::Open; n],
            next: vec![0; n],
            trace_idx: vec![0; n],
            by_age: Vec::with_capacity(n),
            at_barrier: vec![false; n],
            scoreboard: vec![Vec::new(); n],
            live: vec![0; bpc],
            arrived: vec![0; bpc],
            live_slots: 0,
            wpb,
            my_blocks,
            next_block: 0,
            rr_ptr: 0,
            gto_current: None,
            sfu_free_at: 0,
            wake: NEVER,
            accounted: 0,
            issued: 0,
        };
        for s in 0..bpc {
            core.refill_slot(s);
        }
        if !core.done() {
            core.wake = 0;
        }
        core
    }

    /// `true` once every assigned block has been dispatched and finished
    /// (a slot is refilled the moment it empties, so no live slot means no
    /// block left to dispatch).
    pub(crate) fn done(&self) -> bool {
        self.live_slots == 0
    }

    fn refill_slot(&mut self, slot: usize) {
        let Some(&block) = self.my_blocks.get(self.next_block) else { return };
        self.next_block += 1;
        self.arrived[slot] = 0;
        let slots = slot * self.wpb..(slot + 1) * self.wpb;
        self.by_age.retain(|idx| !slots.contains(idx));
        self.by_age.extend(slots.clone());
        for (w, idx) in slots.enumerate() {
            let trace_idx = block * self.wpb + w;
            let len = self.trace.warps[trace_idx].len();
            if self.scoreboard[idx].len() < len {
                self.scoreboard[idx].resize(len, 0);
            }
            self.trace_idx[idx] = trace_idx;
            self.next[idx] = 0;
            self.at_barrier[idx] = false;
            self.arm(idx);
        }
        self.live[slot] = self.wpb;
        self.live_slots += 1;
    }

    /// Sets warp `idx`'s wake-up from its next instruction: the operands'
    /// completion (Equation 4 convention: a consumer issues no earlier than
    /// the producer's done cycle + 1) and the port it will need.
    fn arm(&mut self, idx: usize) {
        let warp = &self.trace.warps[self.trace_idx[idx]];
        let inst = warp.inst(self.next[idx]);
        let done = &self.scoreboard[idx];
        self.ready_at[idx] =
            warp.deps(&inst).iter().map(|&d| done[d as usize] + 1).max().unwrap_or(0);
        self.cause[idx] = StallCause::Operand;
        self.port[idx] = match inst.kind {
            InstKind::Store(MemSpace::Global) => Port::WriteQueue,
            InstKind::Sfu => Port::Sfu,
            _ => Port::Open,
        };
    }

    /// Releases block slot `slot`'s barrier: every warp parked at it gets
    /// its operand wake-up back.
    fn release_barrier(&mut self, slot: usize) {
        self.arrived[slot] = 0;
        for idx in slot * self.wpb..(slot + 1) * self.wpb {
            if self.at_barrier[idx] {
                self.at_barrier[idx] = false;
                self.arm(idx);
            }
        }
    }

    /// `None` if warp `idx` can issue at `now`, else its wake-up and cause.
    /// `admit` caches the write-queue admission cycle for one scan (the
    /// queue does not change while a core looks for a warp).
    fn blocked(
        &self,
        idx: usize,
        now: u64,
        admit: &mut Option<u64>,
        dram: &mut DramChannel,
    ) -> Option<(u64, StallCause)> {
        let ready_at = self.ready_at[idx];
        if ready_at > now {
            return Some((ready_at, self.cause[idx]));
        }
        match self.port[idx] {
            Port::Open => None,
            // Bounded write queue: a store cannot issue while the DRAM
            // write backlog is at the limit (memory-pipeline backpressure).
            Port::WriteQueue => {
                let admit = *admit.get_or_insert_with(|| dram.write_admission_time(now));
                (admit > now).then_some((admit, StallCause::WriteQueue))
            }
            // Structural hazard: the SFU accepts one warp instruction per
            // initiation interval.
            Port::Sfu => (self.sfu_free_at > now).then_some((self.sfu_free_at, StallCause::SfuPort)),
        }
    }

    /// The warp `policy` issues at `now`, or — when none can — the earliest
    /// wake-up among the warps and its cause, ties to the warp the policy
    /// ranks first (round-robin: next in rotation; GTO: oldest).
    fn pick_warp(
        &mut self,
        now: u64,
        dram: &mut DramChannel,
        policy: SchedulingPolicy,
    ) -> Result<usize, (u64, StallCause)> {
        let n = self.ready_at.len();
        let mut admit = None;
        let mut sleep = (NEVER, StallCause::Drained);
        match policy {
            SchedulingPolicy::RoundRobin => {
                let mut i = self.rr_ptr;
                for _ in 0..n {
                    let after = if i + 1 == n { 0 } else { i + 1 };
                    match self.blocked(i, now, &mut admit, dram) {
                        None => {
                            self.rr_ptr = after;
                            return Ok(i);
                        }
                        Some(b) if b.0 < sleep.0 => sleep = b,
                        Some(_) => {}
                    }
                    i = after;
                }
            }
            SchedulingPolicy::GreedyThenOldest => {
                if let Some(cur) = self.gto_current {
                    if self.blocked(cur, now, &mut admit, dram).is_none() {
                        return Ok(cur);
                    }
                }
                for &i in &self.by_age {
                    match self.blocked(i, now, &mut admit, dram) {
                        None => {
                            self.gto_current = Some(i);
                            return Ok(i);
                        }
                        Some(b) if b.0 < sleep.0 => sleep = b,
                        Some(_) => {}
                    }
                }
                // A cycle without an issue forgets the greedy warp.
                self.gto_current = None;
            }
        }
        Err(sleep)
    }

    /// Visits the core at `now == self.wake`: issues one warp-instruction,
    /// or goes to sleep until the earliest wake-up the scan saw.
    pub(crate) fn step(&mut self, now: u64, uncore: &mut Uncore, policy: SchedulingPolicy) {
        debug_assert_eq!((self.wake, self.accounted), (now, now), "a core is visited at its wake-up");
        match self.pick_warp(now, &mut uncore.dram, policy) {
            Ok(idx) => {
                self.issue(idx, now, uncore);
                self.accounted = now + 1;
                // The cycle after an issue is always visited: GTO's greedy
                // warp keeps its priority only over consecutive issues.
                self.wake = if self.done() { NEVER } else { now + 1 };
            }
            Err((wake, cause)) => {
                if wake != NEVER {
                    uncore.idle.charge(cause, wake - now);
                    self.accounted = wake;
                }
                self.wake = wake;
            }
        }
    }

    fn issue(&mut self, idx: usize, now: u64, uncore: &mut Uncore) {
        let slot = idx / self.wpb;
        let trace_idx = self.trace_idx[idx];
        let trace: &'t KernelTrace = self.trace;
        let warp = &trace.warps[trace_idx];
        let k = self.next[idx];
        let inst = warp.inst(k);
        let line_bytes = self.cfg.l1.line_bytes as u64;

        let done_cycle = match inst.kind {
            InstKind::Load(MemSpace::Global) => {
                let lines = coalesce(warp.addrs(&inst), line_bytes);
                let mut done = now + self.cfg.l1.latency;
                for &l in lines.iter() {
                    let line_done = if let Some(fill) = self.mshr.pending(l, now) {
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
                        let fill = if uncore.l2.access(l, true) == Access::Hit {
                            start + self.cfg.l2.latency
                        } else {
                            uncore.dram.request(now, start + self.cfg.l2.latency)
                        };
                        self.mshr.insert(l, fill, now);
                        fill
                    };
                    done = done.max(line_done);
                }
                done
            }
            InstKind::Store(MemSpace::Global) => {
                // Write-through, no-allocate: traffic only; retires at once.
                for &l in coalesce(warp.addrs(&inst), line_bytes).iter() {
                    let _ = uncore.l2.access(l, false);
                    uncore.dram.request_write(now, now + self.cfg.l2.latency);
                }
                now + 1
            }
            InstKind::Sync => {
                self.arrived[slot] += 1;
                if self.arrived[slot] >= self.live[slot] {
                    self.release_barrier(slot);
                } else {
                    self.at_barrier[idx] = true;
                }
                now + 1
            }
            InstKind::Sfu => {
                // The scan guarantees the unit is free at issue; occupy it
                // for one initiation interval.
                self.sfu_free_at = now + self.cfg.sfu_initiation_interval();
                now + self.cfg.latencies.latency_of(InstKind::Sfu)
            }
            kind => now + self.cfg.latencies.latency_of(kind),
        };

        if let Some(log) = &mut uncore.issue_log {
            log[trace_idx].push(now);
        }
        self.scoreboard[idx][k] = done_cycle;
        self.next[idx] = k + 1;
        self.issued += 1;

        if k + 1 < warp.len() {
            if self.at_barrier[idx] {
                self.ready_at[idx] = NEVER;
                self.cause[idx] = StallCause::Barrier;
            } else {
                self.arm(idx);
            }
            return;
        }

        // The warp is finished.
        self.ready_at[idx] = NEVER;
        self.cause[idx] = StallCause::Drained;
        self.at_barrier[idx] = false;
        self.gto_current = None;
        self.live[slot] -= 1;
        let live = self.live[slot];
        // A finishing warp can complete a barrier it never reaches.
        if live > 0 && self.arrived[slot] >= live {
            self.release_barrier(slot);
        }
        if live == 0 {
            self.live_slots -= 1;
            self.refill_slot(slot);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::splitmix64;

    /// The line table against the map-and-sweep it replaced: random fills
    /// over a small set of lines (so chains collide, slots are reused and
    /// the table is rebuilt) must be seen, and expire, exactly alike.
    #[test]
    fn mshr_line_table_matches_a_swept_map() {
        let mut file = MshrFile::new(4);
        let mut swept = std::collections::HashMap::new();
        let (mut now, mut seed) = (0u64, 1u64);
        for _ in 0..20_000 {
            seed = splitmix64(seed);
            now += seed % 3;
            swept.retain(|_, &mut fill| fill > now);
            let line = (seed >> 8) % 512 * 128;
            assert_eq!(file.pending(line, now), swept.get(&line).copied(), "line {line} at {now}");
            swept.entry(line).or_insert_with(|| {
                let fill = now + (seed >> 32) % 700;
                file.insert(line, fill, now);
                fill
            });
        }
        assert!(file.lines.len() > 64, "the table grew");
    }

    #[test]
    fn full_mshr_file_reserves_the_entry_that_frees_first() {
        let mut file = MshrFile::new(2);
        assert_eq!(file.entry_available(0), 0);
        file.insert(128, 400, 0);
        assert_eq!(file.entry_available(0), 0);
        file.insert(256, 300, 0);
        // Full: the next miss starts when the earlier fill returns, and the
        // one after it when the later one does.
        assert_eq!(file.entry_available(1), 300);
        file.insert(384, 700, 1);
        assert_eq!(file.entry_available(1), 400);
        file.insert(512, 800, 1);
        // A reserved line is still in flight until its own fill.
        assert_eq!(file.pending(256, 299), Some(300));
        assert_eq!(file.pending(256, 300), None);
        // Completed fills free their entries without a sweep.
        assert_eq!(file.entry_available(750), 750);
    }
}
