//! Resume-journal corruption suite: drives every [`JOURNAL_MUTATORS`]
//! case through a real seed-run → corrupt → `--resume` cycle and asserts
//! the exactly-once contract:
//!
//! * every job is either **replayed** from the journal or **recomputed**
//!   (appending one fresh line) — replays + recomputes == jobs, so no job
//!   is silently double-run and none is dropped;
//! * replayed and recomputed predictions are byte-identical (canonical
//!   form) to an uncorrupted run;
//! * a journal entry whose payload is poisoned, or whose prediction had a
//!   digit changed, fails with a *typed* journal-replay error — never a
//!   panic, never a silent recompute or a wrong replay that would mask the
//!   corruption.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::sync::{Arc, Mutex, PoisonError};

use gpumech_exec::{
    canonical_prediction_json, BatchEngine, BatchJob, BatchOptions, ProfileCache,
};
use gpumech_fault::JOURNAL_MUTATORS;
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::workloads;

/// Serializes tests that install the process-global recorder.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn jobs() -> Vec<BatchJob> {
    ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping", "cfd_step_factor"]
        .iter()
        .map(|n| {
            let trace = workloads::by_name(n).unwrap().with_blocks(1).trace().unwrap();
            BatchJob::new(*n, Arc::new(trace), SimConfig::default())
        })
        .collect()
}

fn line_count(path: &std::path::Path) -> usize {
    fs::read_to_string(path).map_or(0, |t| t.lines().count())
}

#[test]
fn resume_after_journal_corruption_covers_every_job_exactly_once() {
    let _serial = RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let all = jobs();

    // Ground truth: canonical predictions from an unjournaled run.
    let expect: Vec<String> = BatchEngine::with_cache(2, ProfileCache::in_memory())
        .run_with(&all, &BatchOptions::default())
        .iter()
        .map(|r| canonical_prediction_json(r.as_ref().unwrap()).unwrap())
        .collect();

    for &(name, mutate) in JOURNAL_MUTATORS {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let path = std::env::temp_dir().join(format!(
                "gpumech-journal-suite-{}-{name}-{seed}.jsonl",
                std::process::id()
            ));
            let _ = fs::remove_file(&path);

            // Seed run: complete the whole batch, journaling every job.
            let engine = BatchEngine::with_cache(2, ProfileCache::in_memory());
            let opts =
                BatchOptions { journal: Some(path.clone()), ..BatchOptions::default() };
            let seeded = engine.run_with(&all, &opts);
            assert!(seeded.iter().all(Result::is_ok), "{name}: seed run must succeed");
            assert_eq!(line_count(&path), all.len());

            // Corrupt the journal the way this mutator corrupts journals.
            let mut text = fs::read_to_string(&path).unwrap();
            mutate(&mut text, seed);
            fs::write(&path, &text).unwrap();
            let lines_before = line_count(&path);

            // Resume with a fresh engine (cold cache: any coverage gap
            // would force a visible recompute, not a cache hit).
            let rec = Arc::new(Recorder::new());
            let engine = BatchEngine::with_cache(2, ProfileCache::in_memory());
            let opts = BatchOptions {
                journal: Some(path.clone()),
                resume: true,
                ..BatchOptions::default()
            };
            let resumed = {
                let _obs = gpumech_obs::install(Arc::clone(&rec));
                engine.run_with(&all, &opts)
            };

            // Exactly-once accounting: every job is a replay (counter) or
            // a recompute (one fresh journal line) — never both, never
            // neither.
            let replays = rec
                .snapshot()
                .counters
                .get("exec.resilience.journal_hits")
                .map_or(0, |c| c.total) as usize;
            let recomputed = line_count(&path) - lines_before;
            assert_eq!(
                replays + recomputed,
                all.len(),
                "{name} seed {seed:#x}: {replays} replays + {recomputed} recomputes \
                 must cover {} jobs exactly once",
                all.len()
            );

            let mut typed_failures = 0usize;
            for (i, r) in resumed.iter().enumerate() {
                match r {
                    Ok(p) => assert_eq!(
                        canonical_prediction_json(p).unwrap(),
                        expect[i],
                        "{name} seed {seed:#x}: job {i} not byte-identical after resume"
                    ),
                    Err(e) => {
                        let msg = e.to_string();
                        assert!(
                            msg.contains("journal replay:"),
                            "{name} seed {seed:#x}: untyped resume failure: {msg}"
                        );
                        typed_failures += 1;
                    }
                }
            }
            if matches!(name, "journal_poison_prediction" | "journal_flip_digit") {
                assert_eq!(
                    typed_failures, 1,
                    "{name} seed {seed:#x}: the corrupted entry must fail typed"
                );
            } else {
                assert_eq!(
                    typed_failures, 0,
                    "{name} seed {seed:#x}: only a corrupted prediction may fail a resume"
                );
            }
            let _ = fs::remove_file(&path);
        }
    }
}

/// The mutators themselves are pure functions of (text, seed): the same
/// corruption reproduces byte-for-byte from its case name + seed alone.
#[test]
fn journal_mutators_are_deterministic() {
    let sample = "{\"fingerprint\":\"00aa\",\"label\":\"a\",\"prediction\":\"{\\\"cpi\\\":1.0}\"}\n\
                  {\"fingerprint\":\"00bb\",\"label\":\"b\",\"prediction\":\"{\\\"cpi\\\":2.0}\"}\n\
                  {\"fingerprint\":\"00cc\",\"label\":\"c\",\"prediction\":\"{\\\"cpi\\\":3.0}\"}\n";
    for &(name, m) in JOURNAL_MUTATORS {
        let mut t1 = sample.to_string();
        let mut t2 = sample.to_string();
        m(&mut t1, 0xFEED_FACE);
        m(&mut t2, 0xFEED_FACE);
        assert_eq!(t1, t2, "{name} is not deterministic");
        let mut t3 = sample.to_string();
        m(&mut t3, 0xFEED_FACE ^ 7);
        // Not required to differ for every seed pair, but the corpus
        // must at least not be seed-blind across all mutators.
        let _ = t3;
    }
}
