//! Shard-merge corruption suite: fabricates healthy sharded sweeps,
//! corrupts them with every [`SHARD_FAULTS`] mutator across several
//! seeds, and asserts the merge contract:
//!
//! * every corruption surfaces as a **typed finding** of the declared
//!   kind — under `catch_unwind`, so a panic is a loud failure, not a
//!   crashed test binary;
//! * a corrupted sweep **never produces merged output** (`merged` stays
//!   `None`), and files that fail load-verification are quarantined;
//! * the clean fabricated sweep merges successfully, in manifest
//!   enumeration order, byte-identical (from `jobs_checksum` on) to the
//!   same rows rendered as a single unsharded file;
//! * byte-identical duplicate files are resolved with a note, not a
//!   finding.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use gpumech_fault::shardfaults::{fabricate_sweep, SHARD_FAULTS};
use gpumech_shard::{
    merge_files, verify_expectation, FindingKind, ShardSpec, SweepManifest, SweepReport,
};

fn workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpumech-merge-suite-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_fabricated_sweep_merges_byte_identically() {
    let dir = workspace("clean");
    let case = fabricate_sweep(&dir, 3, 12).unwrap();
    let outcome = merge_files(&case.paths);
    assert!(outcome.findings.is_empty(), "clean sweep: {:?}", outcome.findings);
    assert_eq!(outcome.files_ok, 3);
    let merged = outcome.merged.expect("clean sweep must merge");

    // Rows come back in manifest enumeration order, fully covered.
    assert_eq!(merged.jobs.len(), case.manifest_fps.len());
    let merged_fps: Vec<String> = merged.jobs.iter().map(|r| r.fingerprint.clone()).collect();
    let expect_fps: Vec<String> =
        case.manifest_fps.iter().map(|&fp| gpumech_shard::fingerprint_hex(fp)).collect();
    assert_eq!(merged_fps, expect_fps, "merged rows must follow manifest order");

    // Byte-identity: the merged file equals (from jobs_checksum on) the
    // same rows written as one unsharded report.
    let reference = SweepReport {
        manifest: SweepManifest::new(ShardSpec::single(), "deadbeef", 0xC0FF_EE00,
                                     &case.manifest_fps),
        workers: 2,
        cache_entries: 0,
        counters: Vec::new(),
        jobs_checksum: String::new(),
        jobs: merged.jobs.clone(),
    };
    let merged_text = merged.render().unwrap();
    let reference_text = reference.render().unwrap();
    assert_eq!(
        verify_expectation(&merged_text, &reference_text),
        None,
        "sharded merge must be byte-identical to the unsharded rendering"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn byte_identical_duplicate_is_a_note_not_a_finding() {
    let dir = workspace("dup-identical");
    let mut case = fabricate_sweep(&dir, 3, 12).unwrap();
    // A byte-for-byte retry copy of shard 0's file.
    let copy = dir.join("shard-0-retry.json");
    std::fs::copy(&case.paths[0], &copy).unwrap();
    case.paths.push(copy);
    let outcome = merge_files(&case.paths);
    assert!(outcome.findings.is_empty(), "identical duplicate: {:?}", outcome.findings);
    assert!(outcome.merged.is_some());
    assert!(
        outcome.notes.iter().any(|n| n.contains("byte-identically")),
        "duplicate resolution must leave an audit note: {:?}",
        outcome.notes
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_corruption_yields_its_typed_finding_and_no_merge() {
    for fault in SHARD_FAULTS {
        for seed in [1u64, 7, 0xBAD_5EED] {
            let dir = workspace(&format!("{}-{seed:x}", fault.name));
            let mut case = fabricate_sweep(&dir, 3, 12)
                .unwrap_or_else(|e| panic!("{}: fabricate: {e}", fault.name));
            (fault.mutate)(&mut case, seed)
                .unwrap_or_else(|e| panic!("{}: mutate: {e}", fault.name));

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                merge_files(&case.paths)
            }))
            .unwrap_or_else(|_| panic!("{} seed {seed:#x}: merge panicked", fault.name));

            assert!(
                outcome.merged.is_none(),
                "{} seed {seed:#x}: corruption must not produce merged output",
                fault.name
            );
            assert!(
                outcome.findings.iter().any(|f| f.kind == fault.expect),
                "{} seed {seed:#x}: expected a {:?} finding, got {:?}",
                fault.name,
                fault.expect,
                outcome.findings
            );
            // Load-level corruption quarantines the offending file.
            if fault.expect == FindingKind::CorruptShardFile {
                assert!(
                    !outcome.quarantined.is_empty(),
                    "{} seed {seed:#x}: corrupt file must be quarantined",
                    fault.name
                );
                assert!(
                    outcome.quarantined.iter().all(|q| q.ends_with(".quarantine")),
                    "{} seed {seed:#x}: quarantine naming convention",
                    fault.name
                );
            }
            // Every finding renders with its stable kebab-case code, and a
            // finding about no one file names none.
            for f in &outcome.findings {
                let shown = f.to_string();
                assert!(
                    shown.starts_with(&format!("[{}]", f.kind.code())),
                    "finding rendering must lead with its code: {shown}"
                );
                assert!(!shown.contains("] : "), "empty path rendered: {shown}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
