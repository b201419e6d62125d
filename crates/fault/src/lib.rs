//! Deterministic fault-injection harness for the GPUMech pipeline.
//!
//! The robustness contract of this workspace is: **no input — however
//! corrupt — may panic the pipeline**. Malformed traces and configurations
//! must surface as typed errors ([`gpumech_trace::TraceError`],
//! [`gpumech_isa::ConfigError`], [`gpumech_core::ModelError`],
//! [`gpumech_timing::SimError`]), and inputs that pass validation must
//! produce a finite CPI.
//!
//! This crate provides the machinery to prove that contract by brute
//! force: a corpus of deterministic [`MUTATORS`] that corrupt a healthy
//! `(KernelTrace, SimConfig)` pair in targeted ways (truncation, dropped
//! warps, zeroed active masks, scrambled dependencies, extreme
//! configurations, corrupted address streams, rows left pointing outside
//! their warp's arenas), and runners
//! ([`run_pipeline`], [`run_oracle`]) that execute the analytical model
//! and the timing oracle under `catch_unwind` and classify the result as
//! an [`Outcome`].
//!
//! Finally, the static verifier is held to a completeness contract by
//! the [`defects`] module: a seeded injector that plants a divergent
//! barrier into structurally-valid kernel IR, which
//! `gpumech_analyze::analyze` must report as `barrier-divergence` on
//! every mutant.
//!
//! All randomness is derived from [`gpumech_trace::splitmix64`], so every
//! mutation is a pure function of its seed: a failing case found in CI
//! reproduces byte-for-byte locally.

pub mod defects;

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_exec::panic_message;
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::simulate;
use gpumech_trace::{splitmix64, KernelTrace};

/// What happened when a (possibly corrupted) input was fed to a runner.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The input was accepted and produced this CPI.
    Cpi(f64),
    /// The input was rejected with a typed error (its `Display` rendering).
    TypedError(String),
    /// The runner panicked — always a bug; the suite fails on any of these.
    Panic(String),
}

impl Outcome {
    /// `true` for [`Outcome::Panic`].
    #[must_use]
    pub fn is_panic(&self) -> bool {
        matches!(self, Outcome::Panic(_))
    }

    /// `true` when the outcome honours the robustness contract: a typed
    /// error, or a finite, non-negative CPI.
    #[must_use]
    pub fn is_contract_ok(&self) -> bool {
        match self {
            Outcome::Cpi(c) => c.is_finite() && *c >= 0.0,
            Outcome::TypedError(_) => true,
            Outcome::Panic(_) => false,
        }
    }
}

/// Classifies the result of `f` — which returns `Result<CPI, typed error>`
/// — catching any panic it raises.
fn classify<E: std::fmt::Display>(f: impl FnOnce() -> Result<f64, E>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(cpi)) => Outcome::Cpi(cpi),
        Ok(Err(e)) => Outcome::TypedError(e.to_string()),
        Err(payload) => Outcome::Panic(panic_message(payload.as_ref())),
    }
}

/// Runs the full analytical pipeline (validation, cache simulation,
/// interval analysis, clustering, multithreading + contention models) on
/// the input and classifies the result.
///
/// Uses the paper's flagship configuration: `MT_MSHR_BAND` with
/// clustering-based representative selection under round-robin
/// scheduling — the path that exercises the most numeric code.
#[must_use]
pub fn run_pipeline(trace: &KernelTrace, cfg: &SimConfig) -> Outcome {
    // The span closes even when the pipeline panics: guards unwind out of
    // `catch_unwind`, which is exactly what the suite's no-leaked-spans
    // assertion checks.
    let _span = gpumech_obs::span!("fault.case.pipeline");
    classify(|| {
        let model = Gpumech::new(cfg.clone());
        // The paper's flagship path, expressed as a request with default
        // options (round-robin, MT_MSHR_BAND, clustering selection).
        let p = model.run(&PredictionRequest::from_trace(trace))?;
        Ok::<f64, gpumech_core::ModelError>(p.cpi_total())
    })
}

/// Runs the cycle-level timing oracle on the input and classifies the
/// result.
#[must_use]
pub fn run_oracle(trace: &KernelTrace, cfg: &SimConfig) -> Outcome {
    let _span = gpumech_obs::span!("fault.case.oracle");
    classify(|| simulate(trace, cfg, SchedulingPolicy::RoundRobin).map(|r| r.cpi()))
}

/// Records one classified fault case through the installed recorder — a
/// no-op when observability is disabled. Emits a `fault.case.classified`
/// span tagged with the mutator and runner, a `fault.case.total` counter,
/// and a per-[`Outcome`] tally (`fault.outcome.cpi` /
/// `fault.outcome.typed_error` / `fault.outcome.panic`).
pub fn record_case(mutator: &str, runner: &str, outcome: &Outcome) {
    if !gpumech_obs::enabled() {
        return;
    }
    let _span = gpumech_obs::span!("fault.case.classified", mutator = mutator, runner = runner);
    gpumech_obs::counter!("fault.case.total", 1u64);
    match outcome {
        Outcome::Cpi(_) => gpumech_obs::counter!("fault.outcome.cpi", 1u64),
        Outcome::TypedError(_) => gpumech_obs::counter!("fault.outcome.typed_error", 1u64),
        Outcome::Panic(_) => gpumech_obs::counter!("fault.outcome.panic", 1u64),
    }
}

/// A deterministic corruption of a `(trace, config)` pair, driven by a
/// splitmix64 seed.
pub type Mutator = fn(&mut KernelTrace, &mut SimConfig, u64);

/// The mutation corpus: `(name, mutator)` pairs. Every entry corrupts a
/// different structural or numeric aspect of the input; together they
/// cover each validation invariant and each numeric guard in the
/// pipeline.
pub const MUTATORS: &[(&str, Mutator)] = &[
    ("truncate_trace", truncate_trace),
    ("drop_warps", drop_warps),
    ("zero_masks", zero_masks),
    ("scramble_deps", scramble_deps),
    ("extreme_config", extreme_config),
    ("corrupt_addrs", corrupt_addrs),
    ("swap_warp_ids", swap_warp_ids),
    ("dangle_rows", dangle_rows),
];

/// Truncates the warp list (and, on odd seeds, the surviving warps'
/// instruction streams) so the trace no longer matches its launch
/// geometry.
pub fn truncate_trace(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let r = splitmix64(seed);
    let cut = (r as usize) % (trace.warps.len() + 1);
    trace.warps.truncate(cut);
    if r & 1 == 1 {
        for w in &mut trace.warps {
            let keep = (splitmix64(r ^ w.warp.index() as u64) as usize) % (w.len() + 1);
            w.truncate(keep);
        }
    }
}

/// Removes a seeded subset of warps from the middle of the grid,
/// breaking both the warp count and the id-equals-index invariant.
pub fn drop_warps(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let mut r = splitmix64(seed);
    let mut i = 0;
    trace.warps.retain(|_| {
        r = splitmix64(r.wrapping_add(i));
        i += 1;
        r & 3 != 0 // drop ~1 warp in 4
    });
}

/// Zeroes the active mask (and address list) of a seeded subset of
/// instructions — the trace-level analog of a zero-length interval.
pub fn zero_masks(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let mut r = splitmix64(seed);
    for w in &mut trace.warps {
        for k in 0..w.len() {
            r = splitmix64(r);
            if r & 7 == 0 {
                w.set_mask(k, 0);
                // An empty list always fits the row layout.
                let _ = w.set_addrs(k, &[]);
            }
        }
    }
}

/// Overwrites dependency lists with seeded garbage: forward references,
/// self-references, duplicates, and out-of-range indices.
pub fn scramble_deps(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let mut r = splitmix64(seed);
    for w in &mut trace.warps {
        let n = w.len() as u32;
        for k in 0..w.len() {
            r = splitmix64(r);
            // Lists of one and three entries always fit the row layout.
            if r & 3 == 0 {
                let a = (r >> 8) as u32 % (n + 2); // may be >= k or == k
                let b = a / 2; // unsorted when a > 0
                let _ = w.set_deps(k, &[a, b, a]); // duplicates too
            } else if r & 3 == 1 {
                let _ = w.set_deps(k, &[k as u32]); // self-dependency
            }
        }
    }
}

/// Replaces the machine configuration with a seeded pick from a menu of
/// pathological configurations: zero resources, absurd sizes, and
/// non-finite bandwidth.
pub fn extreme_config(_trace: &mut KernelTrace, cfg: &mut SimConfig, seed: u64) {
    match splitmix64(seed) % 8 {
        0 => cfg.max_warps_per_core = 0,
        1 => cfg.max_warps_per_core = usize::MAX,
        2 => cfg.num_mshrs = 0,
        3 => cfg.num_mshrs = usize::MAX / 2,
        4 => cfg.dram_bandwidth_gbps = 0.0,
        5 => cfg.dram_bandwidth_gbps = f64::NAN,
        6 => cfg.dram_bandwidth_gbps = f64::INFINITY,
        _ => {
            cfg.issue_width = 0;
            cfg.sfu_per_core = 0;
        }
    }
}

/// Corrupts memory address streams: extreme values on even seeds (cache
/// index arithmetic stress), dropped or duplicated entries on odd seeds
/// (count-vs-mask invariant violations).
pub fn corrupt_addrs(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let mut r = splitmix64(seed);
    for w in &mut trace.warps {
        for k in 0..w.len() {
            let mut addrs = w.addrs(&w.inst(k)).to_vec();
            if addrs.is_empty() {
                continue;
            }
            r = splitmix64(r);
            if seed & 1 == 0 {
                for a in &mut addrs {
                    r = splitmix64(r);
                    *a = r | (u64::MAX << 40); // near the top of the address space
                }
            } else if r & 1 == 0 {
                addrs.pop();
            } else {
                addrs.push(addrs[0]);
            }
            // At most one more address than lanes: fits the row layout.
            let _ = w.set_addrs(k, &addrs);
        }
    }
}

/// Cuts a seeded subset of warps' arenas short, leaving their later rows
/// pointing outside the dependency or address arena — the corruption the
/// row-plus-arena layout makes possible, which validation must catch
/// before any list is read.
pub fn dangle_rows(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let mut r = splitmix64(seed);
    for (i, w) in trace.warps.iter_mut().enumerate() {
        r = splitmix64(r);
        // Warp 0 always, so every seed corrupts something.
        if i == 0 || r & 3 == 0 {
            // Cut inside each arena as stored: an affine row's addresses take
            // two slots, not one per lane.
            let (deps, addrs) = w.arena_lens();
            w.truncate_arenas((r >> 8) as usize % deps.max(1), (r >> 32) as usize % addrs.max(1));
        }
    }
}

/// Swaps two seeded warp slots, so stored warp ids disagree with their
/// grid positions.
pub fn swap_warp_ids(trace: &mut KernelTrace, _cfg: &mut SimConfig, seed: u64) {
    let n = trace.warps.len();
    if n < 2 {
        return;
    }
    let a = (splitmix64(seed) as usize) % n;
    let b = (splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15) as usize) % n;
    if a != b {
        trace.warps.swap(a, b);
    } else {
        trace.warps.swap(a, (a + 1) % n);
    }
}

/// Installs a no-op panic hook so a fault-injection run does not spam
/// stderr with backtraces for the panics it deliberately provokes and
/// catches. Call once at the start of a suite.
pub fn silence_panic_output() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Restores the default panic hook after [`silence_panic_output`], so a
/// suite's own assertion failures print normally. Call before asserting.
pub fn restore_panic_output() {
    drop(std::panic::take_hook());
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_trace::workloads;

    #[test]
    fn classify_catches_panics_and_errors() {
        silence_panic_output();
        let ok = classify(|| Ok::<f64, String>(1.5));
        assert_eq!(ok, Outcome::Cpi(1.5));
        assert!(ok.is_contract_ok());

        let err = classify(|| Err::<f64, String>("boom".to_string()));
        assert_eq!(err, Outcome::TypedError("boom".to_string()));
        assert!(err.is_contract_ok());

        let p = classify(|| -> Result<f64, String> { panic!("deliberate") });
        assert_eq!(p, Outcome::Panic("deliberate".to_string()));
        assert!(p.is_panic());
        assert!(!p.is_contract_ok());

        assert!(!Outcome::Cpi(f64::NAN).is_contract_ok());
        assert!(!Outcome::Cpi(-1.0).is_contract_ok());
    }

    #[test]
    fn mutators_are_deterministic() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2);
        let trace = w.trace().unwrap();
        for &(name, m) in MUTATORS {
            let mut t1 = trace.clone();
            let mut c1 = SimConfig::table1();
            m(&mut t1, &mut c1, 0xDEAD_BEEF);
            let mut t2 = trace.clone();
            let mut c2 = SimConfig::table1();
            m(&mut t2, &mut c2, 0xDEAD_BEEF);
            assert_eq!(t1, t2, "{name} trace mutation is not deterministic");
            assert_eq!(format!("{c1:?}"), format!("{c2:?}"), "{name} config mutation differs");
        }
    }

    #[test]
    fn healthy_input_passes_both_runners() {
        let w = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2);
        let trace = w.trace().unwrap();
        let cfg = SimConfig::table1();
        let model = run_pipeline(&trace, &cfg);
        let oracle = run_oracle(&trace, &cfg);
        assert!(matches!(model, Outcome::Cpi(c) if c.is_finite() && c > 0.0), "{model:?}");
        assert!(matches!(oracle, Outcome::Cpi(c) if c.is_finite() && c > 0.0), "{oracle:?}");
    }
}
