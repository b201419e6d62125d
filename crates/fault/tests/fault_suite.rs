//! The fault-injection suite: every mutator over every bundled workload,
//! asserting the robustness contract — corrupted inputs yield a typed
//! error or a finite CPI, never a panic.
//!
//! Coverage: 40 workloads x 8 mutators x 1 seed per pair = 320 mutated
//! pipeline runs plus 320 mutated oracle runs, all deterministic
//! (seeds are splitmix64 chains of the workload and mutator indices).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Mutex, PoisonError};

use gpumech_fault::{
    record_case, restore_panic_output, run_oracle, run_pipeline, silence_panic_output, Outcome,
    MUTATORS,
};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::{splitmix64, workloads, Addrs};

/// Serializes the suite's tests: the recorder slot is process-global, and
/// the open-spans assertion below must not observe another test's
/// in-flight spans.
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn no_mutation_panics_the_pipeline_or_oracle() {
    let _serial = suite_lock();
    silence_panic_output();
    let all = workloads::all();
    assert_eq!(all.len(), 40, "the bundled workload suite changed size");

    // Every case runs under an installed recorder; panicking cases must
    // still unwind their spans closed (asserted at the bottom).
    let rec = Arc::new(Recorder::new());
    let installed = gpumech_obs::install(Arc::clone(&rec));

    let mut cases = 0usize;
    let mut typed_errors = 0usize;
    let mut finite_cpis = 0usize;
    let mut failures: Vec<String> = Vec::new();

    for (wi, workload) in all.into_iter().enumerate() {
        let w = workload.with_blocks(2);
        let trace = w.trace().expect("bundled workloads trace cleanly");
        for (mi, &(name, mutate)) in MUTATORS.iter().enumerate() {
            let seed = splitmix64((wi as u64) << 32 | mi as u64);
            let mut t = trace.clone();
            let mut cfg = SimConfig::table1();
            mutate(&mut t, &mut cfg, seed);

            for (runner_name, outcome) in
                [("pipeline", run_pipeline(&t, &cfg)), ("oracle", run_oracle(&t, &cfg))]
            {
                cases += 1;
                record_case(name, runner_name, &outcome);
                match &outcome {
                    Outcome::TypedError(_) => typed_errors += 1,
                    Outcome::Cpi(c) if c.is_finite() && *c >= 0.0 => finite_cpis += 1,
                    _ => failures.push(format!(
                        "{}: mutator {name} (seed {seed:#x}) broke the {runner_name} \
                         contract: {outcome:?}",
                        w.name
                    )),
                }
            }
        }
    }

    restore_panic_output();

    // Observability accounting: all cases flowed through the recorder, and
    // no span survived its case — not even the ones that panicked inside
    // `catch_unwind`.
    assert_eq!(rec.open_spans(), 0, "fault cases leaked open spans");
    let snap = rec.snapshot();
    let total = snap.counters.get("fault.case.total").map_or(0, |c| c.total);
    assert_eq!(total as usize, cases, "every case must be recorded");
    let tallied: u64 = ["fault.outcome.cpi", "fault.outcome.typed_error", "fault.outcome.panic"]
        .iter()
        .filter_map(|n| snap.counters.get(n).map(|c| c.total))
        .sum();
    assert_eq!(tallied, total, "outcome tallies must partition the cases");
    assert!(snap.invalid_names.is_empty(), "bad metric names: {:?}", snap.invalid_names);
    drop(installed);

    assert!(failures.is_empty(), "contract violations:\n{}", failures.join("\n"));
    assert!(cases >= 400, "suite shrank to {cases} cases");
    assert!(
        typed_errors > 0,
        "no mutation was rejected — the corpus is not corrupting anything"
    );
    assert!(
        finite_cpis > 0,
        "every mutation was rejected — the corpus never exercises the numeric guards"
    );
    println!("fault suite: {cases} cases, {typed_errors} typed errors, {finite_cpis} finite CPIs");
}

#[test]
fn suite_is_deterministic_across_runs() {
    let _serial = suite_lock();
    silence_panic_output();
    let w = workloads::by_name("bfs_kernel1").expect("bundled").with_blocks(2);
    let trace = w.trace().expect("traces cleanly");
    let mut mismatches: Vec<String> = Vec::new();
    for (mi, &(name, mutate)) in MUTATORS.iter().enumerate() {
        let seed = splitmix64(mi as u64);
        let run = || {
            let mut t = trace.clone();
            let mut cfg = SimConfig::table1();
            mutate(&mut t, &mut cfg, seed);
            (run_pipeline(&t, &cfg), run_oracle(&t, &cfg))
        };
        let (a, b) = (run(), run());
        if a != b {
            mismatches.push(format!("mutator {name}: first {a:?} vs second {b:?}"));
        }
    }
    restore_panic_output();
    assert!(mismatches.is_empty(), "nondeterministic outcomes:\n{}", mismatches.join("\n"));
}

/// Every invalid configuration produced by the `extreme_config` menu must
/// be caught by `SimConfig::validate` (surfacing as a typed error), not by
/// arithmetic deep inside the models.
#[test]
fn extreme_configs_yield_typed_errors() {
    let _serial = suite_lock();
    silence_panic_output();
    let w = workloads::by_name("sdk_vectoradd").expect("bundled").with_blocks(2);
    let trace = w.trace().expect("traces cleanly");
    let mut violations: Vec<String> = Vec::new();
    for seed in 0..64u64 {
        let mut t = trace.clone();
        let mut cfg = SimConfig::table1();
        gpumech_fault::extreme_config(&mut t, &mut cfg, seed);
        if cfg.validate().is_ok() {
            continue; // this seed landed on a configuration the machine accepts
        }
        let outcome = run_pipeline(&t, &cfg);
        if !matches!(outcome, Outcome::TypedError(_)) {
            violations
                .push(format!("seed {seed}: invalid config not surfaced as typed error: {outcome:?}"));
        }
    }
    restore_panic_output();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// The corruption the row-plus-arena trace layout introduces — a row whose
/// offset + length points outside its arena — must be caught by validation,
/// in both runners, before any list is read.
#[test]
fn dangling_rows_yield_typed_errors() {
    let _serial = suite_lock();
    silence_panic_output();
    let mut violations: Vec<String> = Vec::new();
    for name in ["sdk_vectoradd", "cfd_compute_flux", "sdk_reduction"] {
        let trace = workloads::by_name(name).expect("bundled").with_blocks(2).trace().expect("traces");
        for seed in 0..16u64 {
            let mut t = trace.clone();
            let mut cfg = SimConfig::table1();
            gpumech_fault::dangle_rows(&mut t, &mut cfg, seed);
            for (runner, outcome) in
                [("pipeline", run_pipeline(&t, &cfg)), ("oracle", run_oracle(&t, &cfg))]
            {
                if !matches!(&outcome, Outcome::TypedError(e) if e.contains("arena")) {
                    violations.push(format!("{name} seed {seed} {runner}: {outcome:?}"));
                }
            }
        }
    }
    restore_panic_output();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Traced coalesced rows store their addresses as two arena slots; the
/// address edits must reach those rows too: `dangle_rows` leaves some
/// affine row outside its arena, and `corrupt_addrs` rewrites every
/// affine row's addresses.
#[test]
fn address_mutators_reach_affine_rows() {
    let _serial = suite_lock();
    let w = workloads::by_name("sdk_vectoradd").expect("bundled").with_blocks(2);
    let trace = w.trace().expect("traces");
    let affine = |t: &gpumech_trace::KernelTrace, w: usize, k: usize| {
        let warp = &t.warps[w];
        matches!(warp.addrs(&warp.inst(k)), Addrs::Affine { .. })
    };
    let rows: Vec<(usize, usize)> = (0..trace.warps.len())
        .flat_map(|w| (0..trace.warps[w].len()).map(move |k| (w, k)))
        .filter(|&(w, k)| affine(&trace, w, k))
        .collect();
    assert!(!rows.is_empty(), "a coalesced kernel traces affine rows");

    let mut dangled = 0;
    for seed in 0..16u64 {
        let mut t = trace.clone();
        gpumech_fault::dangle_rows(&mut t, &mut SimConfig::table1(), seed);
        let cut = |&&(w, k): &&(usize, usize)| t.warps[w].addrs(&t.warps[w].inst(k)).is_empty();
        dangled += rows.iter().filter(cut).count();
    }
    assert!(dangled > 0, "dangle_rows never cut an affine row's slots");

    for seed in [2u64, 3] {
        let mut t = trace.clone();
        gpumech_fault::corrupt_addrs(&mut t, &mut SimConfig::table1(), seed);
        for &(w, k) in &rows {
            let (before, after) = (&trace.warps[w], &t.warps[w]);
            assert_ne!(
                before.addrs(&before.inst(k)).to_vec(),
                after.addrs(&after.inst(k)).to_vec(),
                "seed {seed}: warp {w} row {k} kept its addresses"
            );
        }
    }
}

/// An affine row's lanes are its active mask, so a mask edit in place (the
/// edit `exec`'s fingerprint tests make) moves its addresses with it: the
/// row stays consistent, validates, and both runners still give a finite
/// CPI.
#[test]
fn a_mask_edit_moves_an_affine_rows_addresses() {
    let _serial = suite_lock();
    let w = workloads::by_name("sdk_vectoradd").expect("bundled").with_blocks(2);
    let mut t = w.trace().expect("traces");
    let mut edited = 0;
    for warp in &mut t.warps {
        for k in 0..warp.len() {
            let Addrs::Affine { base, stride, mask } = warp.addrs(&warp.inst(k)) else { continue };
            warp.set_mask(k, mask ^ 1);
            let want = Addrs::Affine { base, stride, mask: mask ^ 1 };
            assert_eq!(warp.addrs(&warp.inst(k)), want);
            assert_eq!(warp.addrs(&warp.inst(k)).len(), (mask ^ 1).count_ones() as usize);
            edited += 1;
        }
    }
    assert!(edited > 0, "a coalesced kernel traces affine rows");
    t.validate().expect("a mask edit keeps an affine row consistent");
    let cfg = SimConfig::table1();
    for (runner, outcome) in
        [("pipeline", run_pipeline(&t, &cfg)), ("oracle", run_oracle(&t, &cfg))]
    {
        assert!(matches!(outcome, Outcome::Cpi(c) if c.is_finite()), "{runner}: {outcome:?}");
    }
}
