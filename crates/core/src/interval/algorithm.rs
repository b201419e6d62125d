//! The interval construction algorithm (Section III-B, Equation 4).
//!
//! The algorithm replays a warp's trace under an idealized in-order core:
//! one instruction issues per cycle unless a source operand is not ready.
//! Whenever the issue stream breaks, the gap becomes the previous
//! interval's stall cycles and a new interval begins. Compute latencies
//! come from the latency table; global-load latencies are the per-PC AMATs
//! produced by the functional cache simulation (Section V-B).

use gpumech_isa::{InstKind, MemSpace, SimConfig};
use gpumech_mem::MemStats;
use gpumech_trace::{TraceInst, WarpTrace};

use super::profile::{Interval, IntervalProfile, StallCause};

/// Latency the interval model assigns to one dynamic instruction.
fn latency_of(inst: &TraceInst, cfg: &SimConfig, mem: &MemStats) -> f64 {
    match inst.kind {
        InstKind::Load(MemSpace::Global) => mem.load_latency(inst.pc),
        // Stores retire at issue (write-through, nothing depends on them).
        InstKind::Store(MemSpace::Global) => 1.0,
        kind => cfg.latencies.latency_of(kind) as f64,
    }
}

/// Builds the interval profile of one warp (Equations 2 and 4).
///
/// Each interval also accumulates the expected memory-request statistics of
/// its instructions (from the per-PC cache statistics), which the
/// contention models of Section IV-B consume.
#[must_use]
pub fn build_profile(warp: &WarpTrace, cfg: &SimConfig, mem: &MemStats) -> IntervalProfile {
    let issue_rate = cfg.issue_rate();
    let n = warp.insts.len();
    let mut profile = IntervalProfile { intervals: Vec::new(), issue_rate };
    if n == 0 {
        return profile;
    }

    let mut done = vec![0.0f64; n];
    let mut issue_prev = 0.0f64;
    done[0] = issue_prev + latency_of(&warp.insts[0], cfg, mem);

    // Accumulators for the interval currently being formed.
    let mut cur = new_interval();
    accumulate(&mut cur, &warp.insts[0], mem, cfg);

    for k in 1..n {
        let inst = &warp.insts[k];
        // Equation 4: issue(k) = max(issue(k-1) + 1, done(source) + 1).
        let mut dep_done = 0.0f64;
        let mut blamed: Option<&TraceInst> = None;
        for &d in warp.deps(inst) {
            let dd = done[d as usize];
            if dd > dep_done {
                dep_done = dd;
                blamed = Some(&warp.insts[d as usize]);
            }
        }
        let seq = issue_prev + 1.0 / issue_rate;
        let issue = seq.max(dep_done + 1.0 / issue_rate);
        done[k] = issue + latency_of(inst, cfg, mem);

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
            profile.intervals.push(std::mem::replace(&mut cur, new_interval()));
        }
        accumulate(&mut cur, inst, mem, cfg);
        issue_prev = issue;
    }
    // The final interval ends with the trace (no trailing stall).
    profile.intervals.push(cur);
    profile
}

fn new_interval() -> Interval {
    Interval::default()
}

fn accumulate(cur: &mut Interval, inst: &TraceInst, mem: &MemStats, _cfg: &SimConfig) {
    cur.insts += 1;
    match inst.kind {
        InstKind::Load(MemSpace::Global) => {
            cur.load_insts += 1;
            if let Some(s) = mem.pc_stats(inst.pc) {
                cur.mem_reqs += s.reqs_per_inst();
                cur.mshr_reqs += s.mshr_reqs_per_inst();
                cur.dram_reqs += s.dram_reqs_per_inst();
                let d = mem.miss_dist(inst.pc);
                cur.mshr_load_events += d.l2_hit + d.l2_miss;
                cur.dram_load_events += d.l2_miss;
            }
        }
        InstKind::Sfu => {
            cur.sfu_insts += 1;
        }
        InstKind::Store(MemSpace::Global) => {
            cur.store_insts += 1;
            if let Some(s) = mem.pc_stats(inst.pc) {
                cur.mem_reqs += s.reqs_per_inst();
                // Stores never allocate MSHRs; all their traffic hits DRAM.
                cur.dram_reqs += s.dram_reqs_per_inst();
            }
        }
        _ => {}
    }
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
            .insts
            .iter()
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
