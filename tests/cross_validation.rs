//! A lone warp on a one-core machine has nothing to contend with, so the
//! cycle-level oracle and the interval algorithm — two independent
//! implementations of the same in-order issue rule (Equation 4) — must
//! schedule it alike: instruction for instruction where every latency is
//! fixed, and within one DRAM service time where a cold miss is involved
//! (the model charges the miss its no-queueing latency, the oracle also
//! moves the line over the bus).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech::core::IntervalProfile;
use gpumech::isa::{AddrPattern, Kernel, KernelBuilder, Operand, ValueOp};
use gpumech::timing::simulate_with_issue_log;
use gpumech::trace::{trace_kernel, LaunchConfig};
use gpumech::{Gpumech, SchedulingPolicy, SimConfig};

fn one_core() -> SimConfig {
    let mut cfg = SimConfig::table1();
    cfg.num_cores = 1;
    cfg
}

/// The issue cycle of every instruction that the profile's intervals imply:
/// an interval issues its instructions back to back, then stalls.
fn implied_schedule(profile: &IntervalProfile) -> Vec<f64> {
    let mut cycle = 0.0;
    let mut schedule = Vec::new();
    for interval in profile.intervals.iter() {
        for _ in 0..interval.insts {
            schedule.push(cycle);
            cycle += 1.0 / profile.issue_rate;
        }
        cycle += interval.stall_cycles;
    }
    schedule
}

/// Runs one warp of `kernel` through both and checks the two schedules, the
/// per-interval stalls against the oracle's gaps, and the totals, each to
/// within `slack` cycles.
fn check(kernel: &Kernel, slack: f64) {
    let cfg = one_core();
    let trace = trace_kernel(kernel, LaunchConfig::new(32, 1)).unwrap();
    let analysis = Gpumech::new(cfg.clone()).analyze(&trace).unwrap();
    let profile = &analysis.profiles[0];
    let implied = implied_schedule(profile);
    for policy in [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest] {
        let (result, log) = simulate_with_issue_log(&trace, &cfg, policy).unwrap();
        let issued = &log[0];
        assert_eq!(issued.len(), implied.len(), "{}: instruction count", kernel.name);
        for (k, (&oracle, &model)) in issued.iter().zip(&implied).enumerate() {
            assert!(
                (oracle as f64 - model).abs() <= slack,
                "{} under {policy}: instruction {k} issues at {oracle} in the oracle, {model} in the model",
                kernel.name
            );
        }
        // Every gap in the oracle's issue stream is one interval's stall.
        let gaps: Vec<f64> =
            issued.windows(2).map(|w| (w[1] - w[0] - 1) as f64).filter(|&g| g > 0.0).collect();
        let stalls: Vec<f64> =
            profile.intervals.iter().map(|i| i.stall_cycles).filter(|&s| s > 0.0).collect();
        assert_eq!(gaps.len(), stalls.len(), "{}: stall count", kernel.name);
        for (gap, stall) in gaps.iter().zip(&stalls) {
            assert!((gap - stall).abs() <= slack, "{}: gap {gap} vs stall {stall}", kernel.name);
        }
        assert!(
            (result.cycles as f64 - profile.total_cycles()).abs() <= slack,
            "{}: {} cycles in the oracle, {} in the model",
            kernel.name,
            result.cycles,
            profile.total_cycles()
        );
    }
}

#[test]
fn compute_chain_schedules_agree_exactly() {
    let mut b = KernelBuilder::new("compute_chain");
    let a = b.fp_add(&[Operand::Imm(1)]);
    let i = b.alu(ValueOp::Add, &[Operand::Imm(2)]);
    let c = b.fp_mul(&[Operand::Reg(a), Operand::Reg(i)]);
    let _ = b.alu(ValueOp::Add, &[Operand::Reg(i)]);
    let d = b.fp_add(&[Operand::Reg(c)]);
    let _ = b.alu(ValueOp::Add, &[Operand::Reg(d), Operand::Reg(a)]);
    check(&b.finish(vec![]), 0.0);
}

#[test]
fn sfu_chain_schedules_agree_exactly() {
    let mut b = KernelBuilder::new("sfu_chain");
    let x = b.sfu(&[Operand::Imm(3)]);
    let y = b.sfu(&[Operand::Reg(x)]);
    let _ = b.fp_add(&[Operand::Imm(1)]);
    let z = b.sfu(&[Operand::Reg(y)]);
    let _ = b.fp_add(&[Operand::Reg(z)]);
    check(&b.finish(vec![]), 0.0);
}

#[test]
fn cold_miss_schedules_agree_within_one_dram_service_time() {
    let mut b = KernelBuilder::new("cold_miss");
    let x = b.load_pattern(AddrPattern::Coalesced { base: 1 << 32, elem_bytes: 4 });
    let _ = b.alu(ValueOp::Add, &[Operand::Imm(1)]);
    let y = b.fp_add(&[Operand::Reg(x)]);
    let _ = b.fp_add(&[Operand::Reg(y)]);
    // The bus hands the line over in whole cycles.
    check(&b.finish(vec![]), one_core().dram_service_cycles().ceil());
}
