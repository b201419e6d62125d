//! Top-level cycle loop of the timing oracle.

use std::fmt;

use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_mem::Cache;
use gpumech_trace::{KernelTrace, TraceError};
use serde::{Deserialize, Serialize};

use crate::core::{Core, IdleCycles, StallCause, Uncore, NEVER};
use crate::dram::DramChannel;

/// Hard cap on simulated cycles: exceeded only by a deadlocked
/// configuration (reported as an error, never a hang).
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Error returned by [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine configuration failed validation.
    InvalidConfig(gpumech_isa::ConfigError),
    /// The trace violates a structural invariant
    /// ([`gpumech_trace::KernelTrace::validate`]).
    MalformedTrace(TraceError),
    /// The simulation exceeded [`MAX_CYCLES`].
    CycleLimit,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SimError::MalformedTrace(e) => write!(f, "malformed trace: {e}"),
            SimError::CycleLimit => write!(f, "simulation exceeded {MAX_CYCLES} cycles"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::MalformedTrace(e) => Some(e),
            SimError::CycleLimit => None,
        }
    }
}

/// Outcome of a timing simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingResult {
    /// Total cycles until the last block finished.
    pub cycles: u64,
    /// Warp-instructions issued across all cores.
    pub insts: u64,
    /// Cores in the simulated machine.
    pub num_cores: usize,
    /// Warp-instructions issued per core.
    pub per_core_insts: Vec<u64>,
    /// Total DRAM line requests served.
    pub dram_requests: u64,
    /// DRAM bus utilization (busy cycles / total cycles).
    pub dram_utilization: f64,
    /// Core-cycles without an issue, by what the core was waiting for:
    /// `insts + idle.total() == cycles * num_cores`.
    pub idle: IdleCycles,
}

impl TimingResult {
    /// Core-level CPI: cycles per warp-instruction per core, i.e.
    /// `cycles / (insts / num_cores)` — the quantity the GPUMech model
    /// predicts and the paper's validation metric.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.insts == 0 {
            return 0.0;
        }
        self.cycles as f64 * self.num_cores as f64 / self.insts as f64
    }

    /// Core-level IPC (warp-instructions per cycle per core).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let cpi = self.cpi();
        if cpi == 0.0 { 0.0 } else { 1.0 / cpi }
    }
}

/// Runs the cycle-level simulation of `trace` on the machine `cfg` under
/// the given warp scheduling policy.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for inconsistent configurations,
/// [`SimError::MalformedTrace`] if the trace does not match its launch
/// geometry, and [`SimError::CycleLimit`] on deadlock.
pub fn simulate(
    trace: &KernelTrace,
    cfg: &SimConfig,
    policy: SchedulingPolicy,
) -> Result<TimingResult, SimError> {
    simulate_impl(trace, cfg, policy, false).map(|(r, _)| r)
}

/// [`simulate`] that additionally records every instruction's issue cycle,
/// indexed `[grid_warp][instruction]`. Used by validation tests (a lone
/// warp's issue times must reproduce the interval algorithm's Equation 4
/// schedule exactly) and by schedule-debugging tools; costs memory
/// proportional to the trace.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_with_issue_log(
    trace: &KernelTrace,
    cfg: &SimConfig,
    policy: SchedulingPolicy,
) -> Result<(TimingResult, Vec<Vec<u64>>), SimError> {
    simulate_impl(trace, cfg, policy, true).map(|(r, log)| (r, log.unwrap_or_default()))
}

#[allow(clippy::type_complexity)]
fn simulate_impl(
    trace: &KernelTrace,
    cfg: &SimConfig,
    policy: SchedulingPolicy,
    with_log: bool,
) -> Result<(TimingResult, Option<Vec<Vec<u64>>>), SimError> {
    let _span = gpumech_obs::span!(
        "timing.oracle.simulate",
        name = trace.name.as_str(),
        warps = trace.warps.len(),
    );
    cfg.validate().map_err(SimError::InvalidConfig)?;
    trace.validate().map_err(SimError::MalformedTrace)?;

    let mut cores: Vec<Core<'_>> = trace
        .launch
        .blocks_by_core(cfg.num_cores)
        .into_iter()
        .map(|blocks| Core::new(trace, cfg, blocks))
        .collect();
    let mut uncore = Uncore {
        l2: Cache::new(&cfg.l2),
        dram: DramChannel::new(cfg),
        issue_log: with_log
            .then(|| trace.warps.iter().map(|w| Vec::with_capacity(w.len())).collect()),
        idle: IdleCycles::default(),
    };

    // Visit only cycles on which some core wakes, and on them only the
    // cores that do — in core order, which is the order they reach the
    // shared L2 and DRAM within a cycle.
    let mut running = cores.iter().filter(|c| !c.done()).count();
    let mut cycle: u64 = 0;
    while running > 0 {
        if cycle > MAX_CYCLES {
            return Err(SimError::CycleLimit);
        }
        let mut next = NEVER;
        for core in &mut cores {
            if core.wake <= cycle {
                core.step(cycle, &mut uncore, policy);
                if core.done() {
                    running -= 1;
                }
            }
            next = next.min(core.wake);
        }
        // The last issue ends the simulation on the following cycle; with
        // work left and no wake-up anywhere (a deadlock) `next` is `NEVER`
        // and the cycle limit reports it.
        cycle = if running == 0 { cycle + 1 } else { next };
    }

    // A core is drained from its last activity to the end.
    for core in &cores {
        uncore.idle.charge(StallCause::Drained, cycle - core.accounted);
    }
    let per_core_insts: Vec<u64> = cores.iter().map(|c| c.issued).collect();
    let insts = per_core_insts.iter().sum();
    let result = TimingResult {
        cycles: cycle,
        insts,
        num_cores: cfg.num_cores,
        per_core_insts,
        dram_requests: uncore.dram.requests(),
        dram_utilization: if cycle == 0 { 0.0 } else { uncore.dram.busy_time() / cycle as f64 },
        idle: uncore.idle,
    };
    gpumech_obs::counter!("timing.oracle.cycles", result.cycles);
    gpumech_obs::counter!("timing.oracle.insts", result.insts);
    gpumech_obs::counter!("timing.oracle.dram_requests", result.dram_requests);
    gpumech_obs::gauge!("timing.oracle.dram_utilization", result.dram_utilization);
    gpumech_obs::gauge!("timing.oracle.cpi", result.cpi());
    Ok((result, uncore.issue_log))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::{AddrPattern, BlockId, InstKind, KernelBuilder, Operand, ValueOp, WarpId};
    use gpumech_trace::{trace_kernel, workloads, LaunchConfig, WarpTrace};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn rr() -> SchedulingPolicy {
        SchedulingPolicy::RoundRobin
    }

    #[test]
    fn single_warp_compute_chain_has_exact_latency() {
        // One warp, one core machine: issue + dependent FP chain.
        let mut b = KernelBuilder::new("chain");
        let a = b.fp_add(&[Operand::Imm(1)]);
        let c = b.fp_add(&[Operand::Reg(a), Operand::Imm(1)]);
        let _ = b.fp_add(&[Operand::Reg(c), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(32, 1)).unwrap();
        let mut one = cfg();
        one.num_cores = 1;
        let r = simulate(&t, &one, rr()).unwrap();
        // i0 at 0 (done 25), i1 at 26 (done 51), i2 at 52 (done 77),
        // exit (no deps) at 53 → sim ends the cycle after, 54.
        assert_eq!(r.insts, 4);
        assert_eq!(r.cycles, 54);
    }

    #[test]
    fn independent_instructions_issue_back_to_back() {
        let mut b = KernelBuilder::new("ilp");
        for i in 0..5 {
            let _ = b.fp_add(&[Operand::Imm(i)]);
        }
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(32, 1)).unwrap();
        let mut one = cfg();
        one.num_cores = 1;
        let r = simulate(&t, &one, rr()).unwrap();
        assert_eq!(r.cycles, 6, "6 independent instructions, 1/cycle");
    }

    #[test]
    fn multithreading_hides_latency() {
        // Same dependent chain, 1 warp vs 8 warps on one core: more warps
        // must improve IPC (Figure 2's premise).
        let mut b = KernelBuilder::new("mt");
        let x = b.load_pattern(AddrPattern::Coalesced { base: 1 << 32, elem_bytes: 4 });
        let y = b.fp_add(&[Operand::Reg(x), Operand::Imm(1)]);
        let _ = b.fp_add(&[Operand::Reg(y), Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let mut one = cfg();
        one.num_cores = 1;
        let t1 = trace_kernel(&k, LaunchConfig::new(32, 1)).unwrap();
        let t8 = trace_kernel(&k, LaunchConfig::new(256, 1)).unwrap();
        let r1 = simulate(&t1, &one, rr()).unwrap();
        let r8 = simulate(&t8, &one, rr()).unwrap();
        assert!(r8.ipc() > 2.0 * r1.ipc(), "8 warps should hide latency: {} vs {}", r8.ipc(), r1.ipc());
    }

    #[test]
    fn mshr_pressure_slows_divergent_loads() {
        // A maximally divergent load: 32 requests/warp. With 4 MSHRs the
        // same kernel must take longer than with 64.
        let mut b = KernelBuilder::new("div");
        let x = b.load_pattern(AddrPattern::Strided { base: 1 << 32, stride_bytes: 128 });
        let _ = b.fp_add(&[Operand::Reg(x)]);
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(256, 1)).unwrap();
        let mut small = cfg();
        small.num_cores = 1;
        small.num_mshrs = 4;
        let mut big = small.clone();
        big.num_mshrs = 64;
        let slow = simulate(&t, &small, rr()).unwrap();
        let fast = simulate(&t, &big, rr()).unwrap();
        assert!(
            slow.cycles > fast.cycles + 100,
            "4 MSHRs {} vs 64 MSHRs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn dram_bandwidth_limits_write_floods() {
        let w = workloads::by_name("parboil_sad_calc8").unwrap().with_blocks(16);
        let t = w.trace().unwrap();
        let lo = simulate(&t, &cfg().with_dram_bandwidth(32.0), rr()).unwrap();
        let hi = simulate(&t, &cfg().with_dram_bandwidth(512.0), rr()).unwrap();
        assert!(
            lo.cycles as f64 > 1.2 * hi.cycles as f64,
            "write flood must be bandwidth sensitive: {} vs {}",
            lo.cycles,
            hi.cycles
        );
    }

    #[test]
    fn gto_and_rr_both_complete_with_same_work() {
        let w = workloads::by_name("cfd_step_factor").unwrap().with_blocks(16);
        let t = w.trace().unwrap();
        let a = simulate(&t, &cfg(), SchedulingPolicy::RoundRobin).unwrap();
        let b = simulate(&t, &cfg(), SchedulingPolicy::GreedyThenOldest).unwrap();
        assert_eq!(a.insts, b.insts, "same instructions under both policies");
        assert_eq!(a.insts, t.total_insts() as u64);
        assert!(a.cycles > 0 && b.cycles > 0);
    }

    #[test]
    fn barriers_serialize_block_phases() {
        // warp A has a long pre-barrier stall; warp B must wait at the
        // barrier until A arrives.
        let mut b = KernelBuilder::new("bar");
        let x = b.load_pattern(AddrPattern::Coalesced { base: 1 << 33, elem_bytes: 4 });
        let y = b.fp_add(&[Operand::Reg(x)]);
        let _ = b.alu(ValueOp::Add, &[Operand::Reg(y)]);
        b.sync();
        let _ = b.fp_add(&[Operand::Imm(1)]);
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(64, 1)).unwrap();
        let mut one = cfg();
        one.num_cores = 1;
        let r = simulate(&t, &one, rr()).unwrap();
        // Total time must exceed the memory latency (barrier prevents warp
        // B from racing ahead); bound it loosely.
        assert!(r.cycles > 420, "barrier must hold warps: {}", r.cycles);
        assert_eq!(r.insts, t.total_insts() as u64);
    }

    #[test]
    fn waves_dispatch_all_blocks() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(48); // 3 waves at 16 cores x 1 block? 8 warps/block → 4 blocks/core
        let t = w.trace().unwrap();
        let r = simulate(&t, &cfg(), rr()).unwrap();
        assert_eq!(r.insts, t.total_insts() as u64, "every instruction issued exactly once");
    }

    #[test]
    fn narrow_sfu_serializes_sfu_heavy_warps() {
        // Back-to-back independent SFU ops from many warps: with 4 lanes
        // (initiation interval 8) the unit throttles issue far below the
        // 32-lane configuration.
        let mut b = KernelBuilder::new("sfu");
        for i in 0..6 {
            let _ = b.sfu(&[Operand::Imm(i)]);
        }
        let k = b.finish(vec![]);
        let t = trace_kernel(&k, LaunchConfig::new(256, 1)).unwrap();
        let mut wide = cfg();
        wide.num_cores = 1;
        let narrow = wide.clone().with_sfu_per_core(4);
        let fast = simulate(&t, &wide, rr()).unwrap();
        let slow = simulate(&t, &narrow, rr()).unwrap();
        assert!(
            slow.cycles as f64 > 2.0 * fast.cycles as f64,
            "SFU serialization expected: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    /// A one-block, two-warp trace written row by row: `(kind, deps)` per
    /// instruction, warp 0 dispatched first (the older under GTO).
    fn two_warps(rows: [&[(InstKind, &[u32])]; 2]) -> KernelTrace {
        let warps = rows
            .iter()
            .enumerate()
            .map(|(w, rows)| {
                let mut wt = WarpTrace::new(WarpId::new(w as u32), BlockId::new(0));
                for (pc, &(kind, deps)) in rows.iter().enumerate() {
                    wt.push(pc as u32, kind, u32::MAX, deps, &[]).unwrap();
                }
                wt
            })
            .collect();
        KernelTrace { name: "two_warps".into(), launch: LaunchConfig::new(64, 1), warps }
    }

    #[test]
    fn gto_forgets_the_greedy_warp_after_a_cycle_without_an_issue() {
        // FP add completes 25 cycles after issue, integer ALU 24: the older
        // warp's consumer (issued at 0) and the younger warp's consumer
        // (issued at 1) both have their operands at cycle 26.
        let mut one = cfg();
        one.num_cores = 1;
        one.latencies.int_alu = one.latencies.fp_add - 1;
        let gto = SchedulingPolicy::GreedyThenOldest;
        let older: [(InstKind, &[u32]); 2] = [(InstKind::FpAdd, &[]), (InstKind::Branch, &[0])];

        // The younger warp issues at 1 and is the greedy warp; cycles 2..=25
        // issue nothing, so at 26 greed is forgotten and the older warp goes
        // first.
        let gap = two_warps([&older, &[(InstKind::IntAlu, &[]), (InstKind::Branch, &[0])]]);
        let (_, log) = simulate_with_issue_log(&gap, &one, gto).unwrap();
        assert_eq!(log, [vec![0, 26], vec![1, 27]]);

        // The younger warp issues on every cycle from 1 on: at 26 it is
        // still the greedy warp and keeps the slot until it has drained.
        let busy: Vec<(InstKind, &[u32])> = vec![(InstKind::Branch, &[]); 27];
        let no_gap = two_warps([&older, &busy]);
        let (_, log) = simulate_with_issue_log(&no_gap, &one, gto).unwrap();
        assert_eq!(log, [vec![0, 28], (1..=27).collect::<Vec<u64>>()]);
    }

    fn hostile() -> SimConfig {
        let mut cfg = cfg().with_dram_bandwidth(64.0).with_sfu_per_core(4);
        cfg.num_cores = 2;
        cfg.num_mshrs = 8;
        cfg
    }

    #[test]
    fn idle_cycles_and_issues_cover_every_core_cycle() {
        let policies = [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest];
        let mut seen = [false; 4];
        for w in workloads::all() {
            let t = w.clone().with_blocks(12).trace().unwrap();
            for cfg in [cfg(), hostile()] {
                for policy in policies {
                    let r = simulate(&t, &cfg, policy).unwrap();
                    assert_eq!(
                        r.insts + r.idle.total(),
                        r.cycles * r.num_cores as u64,
                        "{} under {policy} on {} cores: {:?}",
                        w.name,
                        r.num_cores,
                        r.idle
                    );
                    assert_eq!(r.idle.barrier, 0, "a barrier wake-up never ends a span");
                    let idle = [r.idle.operand, r.idle.write_queue, r.idle.sfu_port, r.idle.drained];
                    seen = std::array::from_fn(|i| seen[i] || idle[i] > 0);
                }
            }
        }
        // 12 blocks leave four of Table I's cores without work, and the
        // library binds every other cause somewhere.
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn idle_spans_are_charged_to_the_wake_up_that_ends_them() {
        // One warp, a dependent FP chain: issues at 0, 26, 52, exit at 53,
        // 54 cycles. The two 25-cycle gaps wait for an operand.
        let mut b = KernelBuilder::new("chain");
        let a = b.fp_add(&[Operand::Imm(1)]);
        let c = b.fp_add(&[Operand::Reg(a), Operand::Imm(1)]);
        let _ = b.fp_add(&[Operand::Reg(c), Operand::Imm(1)]);
        let t = trace_kernel(&b.finish(vec![]), LaunchConfig::new(32, 1)).unwrap();
        let mut two = cfg();
        two.num_cores = 2;
        let r = simulate(&t, &two, rr()).unwrap();
        assert_eq!((r.cycles, r.insts), (54, 4));
        // The second core never has a block.
        assert_eq!(r.idle, IdleCycles { operand: 50, drained: 54, ..IdleCycles::default() });
    }

    #[test]
    fn result_is_deterministic() {
        let w = workloads::by_name("parboil_spmv").unwrap().with_blocks(8);
        let t = w.trace().unwrap();
        let a = simulate(&t, &cfg(), rr()).unwrap();
        let b = simulate(&t, &cfg(), rr()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cpi_definition_is_per_core() {
        let r = TimingResult {
            cycles: 100,
            insts: 400,
            num_cores: 4,
            per_core_insts: vec![100; 4],
            dram_requests: 0,
            dram_utilization: 0.0,
            idle: IdleCycles::default(),
        };
        assert!((r.cpi() - 1.0).abs() < 1e-12);
        assert!((r.ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn malformed_trace_is_rejected() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2);
        let mut t = w.trace().unwrap();
        t.warps.pop();
        assert!(matches!(simulate(&t, &cfg(), rr()), Err(SimError::MalformedTrace(_))));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2);
        let t = w.trace().unwrap();
        let mut bad = cfg();
        bad.num_cores = 0;
        assert!(matches!(simulate(&t, &bad, rr()), Err(SimError::InvalidConfig(_))));
    }
}
