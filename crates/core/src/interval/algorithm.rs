//! The interval construction algorithm (Section III-B, Equation 4).
//!
//! The algorithm replays a warp's trace under an idealized in-order core:
//! one instruction issues per cycle unless a source operand is not ready.
//! Whenever the issue stream breaks, the gap becomes the previous
//! interval's stall cycles and a new interval begins. Compute latencies
//! come from the latency table; global-load latencies are the per-PC AMATs
//! produced by the functional cache simulation (Section V-B).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use gpumech_isa::{InstKind, MemSpace, SimConfig};
use gpumech_mem::{MemStats, PcStats};
use gpumech_trace::{KernelTrace, Stream, TraceInst, WarpTrace};

use super::profile::{Interval, IntervalProfile, StallCause};

/// What the interval loop needs from the cache statistics of one PC: the
/// AMAT a load there resolves in, and the expected requests and miss
/// events one execution adds to its interval.
#[derive(Debug, Clone, Copy)]
struct PcRow {
    load_latency: f64,
    mem_reqs: f64,
    mshr_reqs: f64,
    dram_reqs: f64,
    mshr_load_events: f64,
    dram_load_events: f64,
}

impl PcRow {
    /// Default `stats` (a PC that never executed) give an L1 hit that
    /// issues nothing.
    fn new(mem: &MemStats, stats: &PcStats) -> Self {
        let dist = stats.miss_dist();
        Self {
            load_latency: mem.amat(&dist),
            mem_reqs: stats.reqs_per_inst(),
            mshr_reqs: stats.mshr_reqs_per_inst(),
            dram_reqs: stats.dram_reqs_per_inst(),
            mshr_load_events: dist.l2_hit + dist.l2_miss,
            dram_load_events: dist.l2_miss,
        }
    }
}

/// Builds the interval profiles of the warps of one analysis (Equations 2
/// and 4): everything that depends only on the machine and the cache
/// statistics is worked out once, and the buffers a warp needs are kept
/// for the next.
#[derive(Debug)]
pub struct ProfileBuilder<'a> {
    cfg: &'a SimConfig,
    mem: &'a MemStats,
    /// [`PcRow`]s indexed by PC, covering every PC of `mem` a validated
    /// trace can hold; any other PC is looked up in `mem` when met.
    rows: Vec<PcRow>,
    /// The row of a PC without statistics.
    absent: PcRow,
    issue_rate: f64,
    /// Cycles one issue takes, `1 / issue_rate`.
    issue_slot: f64,
    /// Completion time of every instruction of the warp being profiled.
    done: Vec<f64>,
    /// The intervals of the warp being profiled, frozen into the profile's
    /// shared list once the warp is done.
    intervals: Vec<Interval>,
}

impl<'a> ProfileBuilder<'a> {
    /// A builder for warps of a kernel whose cache statistics are `mem`.
    #[must_use]
    pub fn new(cfg: &'a SimConfig, mem: &'a MemStats) -> Self {
        let absent = PcRow::new(mem, &PcStats::default());
        let bound = KernelTrace::MAX_STATIC_INSTS;
        let len = mem.iter().next_back().map_or(0, |(pc, _)| pc.min(bound - 1) + 1);
        let mut rows = vec![absent; len as usize];
        for (pc, stats) in mem.iter().take_while(|&(pc, _)| pc < len) {
            rows[pc as usize] = PcRow::new(mem, stats);
        }
        let issue_rate = cfg.issue_rate();
        Self {
            cfg,
            mem,
            rows,
            absent,
            issue_rate,
            issue_slot: 1.0 / issue_rate,
            done: Vec::new(),
            intervals: Vec::new(),
        }
    }

    fn row(&self, pc: u32) -> PcRow {
        match self.rows.get(pc as usize) {
            Some(&row) => row,
            None => self.mem.pc_stats(pc).map_or(self.absent, |s| PcRow::new(self.mem, s)),
        }
    }

    /// Adds `inst` to the interval being formed and returns the latency the
    /// model assigns to it.
    fn account(&self, cur: &mut Interval, inst: &TraceInst) -> f64 {
        cur.insts += 1;
        match inst.kind {
            InstKind::Load(MemSpace::Global) => {
                let row = self.row(inst.pc);
                cur.load_insts += 1;
                cur.mem_reqs += row.mem_reqs;
                cur.mshr_reqs += row.mshr_reqs;
                cur.dram_reqs += row.dram_reqs;
                cur.mshr_load_events += row.mshr_load_events;
                cur.dram_load_events += row.dram_load_events;
                row.load_latency
            }
            InstKind::Store(MemSpace::Global) => {
                let row = self.row(inst.pc);
                cur.store_insts += 1;
                cur.mem_reqs += row.mem_reqs;
                // Stores never allocate MSHRs; all their traffic hits DRAM.
                cur.dram_reqs += row.dram_reqs;
                // Stores retire at issue (write-through, nothing depends on
                // them).
                1.0
            }
            kind => {
                if kind == InstKind::Sfu {
                    cur.sfu_insts += 1;
                }
                self.cfg.latencies.latency_of(kind) as f64
            }
        }
    }

    /// Builds the interval profile of every warp of a kernel, in warp
    /// order, calling `check` before each warp.
    ///
    /// A build reads only the `pc`, `kind` and dependency list of each row
    /// (and this builder's per-PC table), so warps that hold the same
    /// instruction stream ([`WarpTrace::stream`]) have the same profile:
    /// the algorithm runs once per distinct stream and every other warp
    /// shares the list built for the first warp of its stream.
    ///
    /// # Errors
    ///
    /// The first error `check` returns.
    pub fn build_all<E>(
        &mut self,
        warps: &[WarpTrace],
        mut check: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<IntervalProfile>, E> {
        let mut profiles: Vec<IntervalProfile> = Vec::with_capacity(warps.len());
        // The first warp of every stream met so far.
        let mut streams: HashMap<*const Stream, usize> = HashMap::new();
        for (i, warp) in warps.iter().enumerate() {
            check()?;
            let profile = match streams.entry(Arc::as_ptr(warp.stream())) {
                Entry::Occupied(first) => profiles[*first.get()].clone(),
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    self.build(warp)
                }
            };
            profiles.push(profile);
        }
        gpumech_obs::counter!("core.intervals.distinct_streams", streams.len() as u64);
        gpumech_obs::counter!(
            "core.intervals.shared_profiles",
            (warps.len() - streams.len()) as u64
        );
        Ok(profiles)
    }

    /// Builds the interval profile of one warp.
    ///
    /// Each interval also accumulates the expected memory-request
    /// statistics of its instructions (from the per-PC cache statistics),
    /// which the contention models of Section IV-B consume.
    pub fn build(&mut self, warp: &WarpTrace) -> IntervalProfile {
        let mut insts = warp.insts();
        let Some(first) = insts.next() else {
            return IntervalProfile { intervals: Arc::new([]), issue_rate: self.issue_rate };
        };
        let mut intervals = std::mem::take(&mut self.intervals);
        intervals.clear();
        let mut done = std::mem::take(&mut self.done);
        done.clear();
        done.resize(warp.len(), 0.0);

        // Accumulators for the interval currently being formed.
        let mut cur = Interval::default();
        let mut issue_prev = 0.0f64;
        done[0] = issue_prev + self.account(&mut cur, &first);

        for (k, inst) in insts.enumerate().map(|(k, inst)| (k + 1, inst)) {
            // Equation 4: issue(k) = max(issue(k-1) + 1, done(source) + 1).
            let mut dep_done = 0.0f64;
            let mut blamed: Option<TraceInst> = None;
            for &d in warp.deps(&inst) {
                let dd = done[d as usize];
                if dd > dep_done {
                    dep_done = dd;
                    blamed = Some(warp.inst(d as usize));
                }
            }
            let seq = issue_prev + self.issue_slot;
            let issue = seq.max(dep_done + self.issue_slot);

            let stall = issue - seq;
            if stall > 1e-9 {
                // Close the current interval; the stalled consumer's producer
                // gets the blame (Figure 6: the instruction "that leads to
                // stall cycles").
                cur.stall_cycles = stall;
                cur.cause = match blamed {
                    Some(b) if matches!(b.kind, InstKind::Load(MemSpace::Global)) => {
                        StallCause::Memory { pc: b.pc }
                    }
                    _ => StallCause::Compute,
                };
                intervals.push(std::mem::take(&mut cur));
            }
            done[k] = issue + self.account(&mut cur, &inst);
            issue_prev = issue;
        }
        // The final interval ends with the trace (no trailing stall).
        intervals.push(cur);
        let profile =
            IntervalProfile { intervals: intervals.as_slice().into(), issue_rate: self.issue_rate };
        self.intervals = intervals;
        self.done = done;
        profile
    }
}

/// Builds the interval profile of one warp (Equations 2 and 4): a
/// [`ProfileBuilder`] used once. Profile the warps of one kernel through
/// one builder instead.
#[must_use]
pub fn build_profile(warp: &WarpTrace, cfg: &SimConfig, mem: &MemStats) -> IntervalProfile {
    ProfileBuilder::new(cfg, mem).build(warp)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::{AddrPattern, KernelBuilder, Operand, ValueOp, WarpId};
    use gpumech_mem::simulate_hierarchy;
    use gpumech_trace::{trace_kernel, trace_warp, LaunchConfig};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn empty_mem(cfg: &SimConfig) -> MemStats {
        MemStats::new(cfg.l1.latency, cfg.l2_hit_latency(), cfg.l2_miss_latency())
    }

    #[test]
    fn independent_instructions_form_one_interval() {
        let mut b = KernelBuilder::new("k");
        for i in 0..6 {
            let _ = b.fp_add(&[Operand::Imm(i)]);
        }
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(32, 1), WarpId::new(0)).unwrap();
        let p = build_profile(&t, &cfg(), &empty_mem(&cfg()));
        assert_eq!(p.intervals.len(), 1, "no dependencies → no stalls");
        assert_eq!(p.total_insts(), 7); // 6 + exit
        assert_eq!(p.total_stall_cycles(), 0.0);
    }

    #[test]
    fn dependent_chain_creates_stalls_with_exact_latency() {
        // fp_add (25 cyc, done at 25) → dependent alu issues at 26
        // (Equation 4): 25 empty slots between issue 0 and issue 26.
        let mut b = KernelBuilder::new("k");
        let a = b.fp_add(&[Operand::Imm(1)]);
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(a)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(32, 1), WarpId::new(0)).unwrap();
        let p = build_profile(&t, &cfg(), &empty_mem(&cfg()));
        assert_eq!(p.intervals.len(), 2);
        assert_eq!(p.intervals[0].insts, 1);
        assert!((p.intervals[0].stall_cycles - 25.0).abs() < 1e-9);
        assert_eq!(p.intervals[0].cause, StallCause::Compute);
        assert_eq!(p.intervals[1].cause, StallCause::None);
        // 3 issue cycles + 25 stall cycles.
        assert!((p.total_cycles() - 28.0).abs() < 1e-9);
    }

    #[test]
    fn memory_stall_is_blamed_on_the_load_pc() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Coalesced { base: 1 << 32, elem_bytes: 4 });
        let _ = b.fp_add(&[Operand::Reg(x)]);
        let k = b.finish(vec![]);
        let launch = LaunchConfig::new(32, 1);
        let trace = trace_kernel(&k, launch).unwrap();
        let mem = simulate_hierarchy(&trace, &cfg());
        let p = build_profile(&trace.warps[0], &cfg(), &mem);

        let load_pc = trace.warps[0]
            .insts()
            .find(|i| i.kind.is_global_load())
            .map(|i| i.pc)
            .unwrap();
        // The address-arithmetic chain stalls first (IntAlu latency); the
        // memory-caused interval is the one blamed on the load.
        let stall_iv = p
            .intervals
            .iter()
            .find(|iv| matches!(iv.cause, StallCause::Memory { .. }))
            .expect("has a memory stall");
        assert_eq!(stall_iv.cause, StallCause::Memory { pc: load_pc });
        // A cold load resolves at the L2-miss AMAT (420): stall = 420.
        assert!(
            (stall_iv.stall_cycles - 420.0).abs() < 2.0,
            "stall {} should be ~420",
            stall_iv.stall_cycles
        );
    }

    #[test]
    fn unrelated_instructions_between_producer_and_consumer_shrink_the_stall() {
        let mut b = KernelBuilder::new("k");
        let a = b.fp_add(&[Operand::Imm(1)]); // done at 25
        for i in 0..10 {
            let _ = b.alu(ValueOp::Add, &[Operand::Imm(i)]); // fill 10 slots
        }
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(a)]);
        let k = b.finish(vec![]);
        let t = trace_warp(&k, LaunchConfig::new(32, 1), WarpId::new(0)).unwrap();
        let p = build_profile(&t, &cfg(), &empty_mem(&cfg()));
        assert_eq!(p.intervals.len(), 2);
        assert_eq!(p.intervals[0].insts, 11);
        // Producer done at 0+25; consumer would issue at 11; stall = 25+1-11 = 15? No:
        // issue(consumer) = max(11, 25+1) = 26 → stall = 26 - 11 = 15.
        assert!((p.intervals[0].stall_cycles - 15.0).abs() < 1e-9);
    }

    #[test]
    fn interval_memory_statistics_accumulate() {
        let mut b = KernelBuilder::new("k");
        let x = b.load_pattern(AddrPattern::Strided { base: 1 << 32, stride_bytes: 128 });
        b.store_pattern(
            AddrPattern::Strided { base: 1 << 33, stride_bytes: 128 },
            Operand::Reg(x),
        );
        let _ = b.fp_add(&[Operand::Reg(x)]);
        let k = b.finish(vec![]);
        let launch = LaunchConfig::new(32, 1);
        let trace = trace_kernel(&k, launch).unwrap();
        let mem = simulate_hierarchy(&trace, &cfg());
        let p = build_profile(&trace.warps[0], &cfg(), &mem);

        let loads: u64 = p.intervals.iter().map(|i| i.load_insts).sum();
        let stores: u64 = p.intervals.iter().map(|i| i.store_insts).sum();
        let reqs: f64 = p.intervals.iter().map(|i| i.mem_reqs).sum();
        let dram: f64 = p.intervals.iter().map(|i| i.dram_reqs).sum();
        assert_eq!(loads, 1);
        assert_eq!(stores, 1);
        assert!((reqs - 64.0).abs() < 1e-9, "32 load + 32 store requests, got {reqs}");
        // Cold divergent load: all 32 requests reach DRAM; all 32 store
        // requests are write-through → 64 DRAM requests.
        assert!((dram - 64.0).abs() < 1e-9, "got {dram}");
    }

    /// Two warp-uniform arms of equal length and equal dependency count,
    /// taken by alternate warps: two streams that only a content compare
    /// tells apart.
    fn two_stream_trace() -> KernelTrace {
        let mut b = KernelBuilder::new("k");
        let c = b.alu(ValueOp::CmpEq, &[Operand::WarpInBlock, Operand::Imm(0)]);
        b.if_begin(Operand::Reg(c));
        let x = b.fp_add(&[Operand::Tid]);
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(x)]);
        b.if_else(); // emits the then arm's jump over the else arm
        let y = b.sfu(&[Operand::Tid]);
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(y)]);
        let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
        b.if_end();
        let k = b.finish(vec![]);
        trace_kernel(&k, LaunchConfig::new(64, 3)).unwrap()
    }

    #[test]
    fn warps_of_one_stream_share_a_build_and_other_streams_do_not() {
        let trace = two_stream_trace();
        let (a, b) = (&trace.warps[0], &trace.warps[1]);
        let n_deps = |w: &WarpTrace| w.insts().map(|i| w.deps(&i).len()).sum::<usize>();
        assert_eq!((a.len(), n_deps(a)), (b.len(), n_deps(b)));
        let same = |a: &WarpTrace, b: &WarpTrace| Arc::ptr_eq(a.stream(), b.stream());
        assert!(!same(a, b) && same(a, &trace.warps[2]));

        let cfg = cfg();
        let mem = empty_mem(&cfg);
        let profiles =
            ProfileBuilder::new(&cfg, &mem).build_all(&trace.warps, || Ok::<(), ()>(())).unwrap();
        let one_by_one: Vec<IntervalProfile> =
            trace.warps.iter().map(|w| build_profile(w, &cfg, &mem)).collect();
        assert_eq!(profiles, one_by_one);
        // The arms stall for different lengths, so a profile handed to the
        // wrong stream would show.
        assert_ne!(profiles[0], profiles[1]);
        // One list per stream, shared by every warp of it.
        for (w, p) in profiles.iter().enumerate() {
            assert!(Arc::ptr_eq(&p.intervals, &profiles[w % 2].intervals), "warp {w}");
        }
        assert_eq!(distinct_lists(&profiles), 2);
    }

    /// How many allocations the interval lists of `profiles` take.
    fn distinct_lists(profiles: &[IntervalProfile]) -> usize {
        let mut lists: Vec<_> = profiles.iter().map(|p| p.intervals.as_ptr()).collect();
        lists.sort_unstable();
        lists.dedup();
        lists.len()
    }

    #[test]
    fn build_all_matches_per_warp_builds_on_a_control_divergent_kernel() {
        let w = gpumech_trace::workloads::by_name("bfs_kernel1").unwrap().with_blocks(6);
        let trace = w.trace().unwrap();
        let cfg = cfg();
        let mem = simulate_hierarchy(&trace, &cfg);
        let profiles =
            ProfileBuilder::new(&cfg, &mem).build_all(&trace.warps, || Ok::<(), ()>(())).unwrap();
        assert_eq!(profiles.len(), trace.warps.len());
        for (wt, p) in trace.warps.iter().zip(&profiles) {
            assert_eq!(*p, build_profile(wt, &cfg, &mem), "warp {}", wt.warp);
        }
        let distinct = trace.distinct_streams();
        assert_eq!(distinct_lists(&profiles), distinct, "one list per distinct stream");
        for (a, pa) in trace.warps.iter().zip(&profiles) {
            for (b, pb) in trace.warps.iter().zip(&profiles) {
                let shared = Arc::ptr_eq(a.stream(), b.stream());
                assert_eq!(shared, Arc::ptr_eq(&pa.intervals, &pb.intervals));
            }
        }
        assert!(
            1 < distinct && distinct < trace.warps.len(),
            "{distinct} streams over {} warps: nothing to tell apart, or nothing to share",
            trace.warps.len()
        );
    }

    #[test]
    fn build_all_polls_before_every_warp_and_stops_at_the_first_error() {
        let trace = two_stream_trace();
        let cfg = cfg();
        let mem = empty_mem(&cfg);
        let mut polls = 0;
        // Warp 3 shares warp 1's stream: it is polled all the same.
        let err = ProfileBuilder::new(&cfg, &mem).build_all(&trace.warps, || {
            polls += 1;
            if polls == 4 { Err("stop") } else { Ok(()) }
        });
        assert_eq!((err, polls), (Err("stop"), 4));
    }

    #[test]
    fn instruction_conservation() {
        let w = gpumech_trace::workloads::by_name("cfd_compute_flux").unwrap().with_blocks(2);
        let trace = w.trace().unwrap();
        let mem = simulate_hierarchy(&trace, &cfg());
        for wt in &trace.warps {
            let p = build_profile(wt, &cfg(), &mem);
            assert_eq!(p.total_insts() as usize, wt.len(), "every instruction in an interval");
            assert!(p.intervals.iter().all(|iv| iv.insts > 0), "no empty intervals");
            assert_eq!(p.intervals.last().unwrap().cause, StallCause::None);
        }
    }
}
