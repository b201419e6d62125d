//! End-to-end sharded sweep through the real `gpumech` binary:
//!
//! * an unsharded `batch --json` reference run;
//! * the same sweep split `--shard 0/2` / `--shard 1/2`, each shard
//!   writing its own `--journal`, and re-united with `merge --expect` —
//!   exit 0 and byte-identical (from `jobs_checksum` on) to the
//!   reference, also when the two shards run from different working
//!   directories, one outside any checkout;
//! * a shard killed mid-append to its journal and rerun with `--resume`
//!   still merges: the torn line it leaves behind is a job not done;
//! * a corrupted shard file — `merge` exits 5 with a typed finding and
//!   quarantines the file.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Small, behaviorally distinct kernels; two sweep points each so every
/// shard owns work.
const SWEEP_ARGS: [&str; 8] = [
    "sdk_vectoradd",
    "bfs_kernel1",
    "kmeans_invert_mapping",
    "cfd_step_factor",
    "--blocks",
    "2",
    "--sweep",
    "warps=16,32",
];

fn gpumech_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary spawns")
}

fn gpumech(args: &[&str]) -> Output {
    gpumech_in(Path::new("."), args)
}

/// Runs shard `shard` (`i/N`) of the sweep from working directory `cwd`
/// into `dir/shard-i.json`, journalling to `dir/shard-i.journal`, with the
/// `extra` batch arguments, and returns the result path.
fn shard_run(dir: &Path, shard: &str, cwd: &Path, extra: &[&str]) -> PathBuf {
    let path = dir.join(format!("shard-{}.json", &shard[..1]));
    let journal = path.with_extension("journal");
    let mut args: Vec<&str> = vec!["batch"];
    args.extend_from_slice(&SWEEP_ARGS);
    args.extend_from_slice(&[
        "--shard", shard,
        "--journal", journal.to_str().unwrap(),
        "--json", path.to_str().unwrap(),
    ]);
    args.extend_from_slice(extra);
    let out = gpumech_in(cwd, &args);
    assert_eq!(out.status.code(), Some(0), "shard {shard}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("# shard {shard}: owns")), "shard banner missing: {stdout}");
    path
}

/// The part of a sweep file a merge must reproduce byte for byte.
fn tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text[text.find("\"jobs_checksum\"").unwrap()..].to_string()
}

fn workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpumech-shard-merge-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the unsharded sweep to `ref.json` and returns its path.
fn reference_run(dir: &Path) -> PathBuf {
    let reference = dir.join("ref.json");
    let mut args: Vec<&str> = vec!["batch"];
    args.extend_from_slice(&SWEEP_ARGS);
    args.extend_from_slice(&["--json", reference.to_str().unwrap()]);
    let out = gpumech(&args);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    reference
}

#[test]
fn manual_shards_merge_byte_identically_to_unsharded() {
    let dir = workspace("manual");
    let reference = reference_run(&dir);
    let here = Path::new(".");
    let shard_paths = [shard_run(&dir, "0/2", here, &[]), shard_run(&dir, "1/2", here, &[])];

    let merged = dir.join("merged.json");
    let report = dir.join("report.md");
    let out = gpumech(&[
        "merge",
        shard_paths[0].to_str().unwrap(),
        shard_paths[1].to_str().unwrap(),
        "--out", merged.to_str().unwrap(),
        "--report", report.to_str().unwrap(),
        "--expect", reference.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("byte-identical to the reference run"), "{stdout}");

    // The contract the --expect note claims: merged == reference from the
    // jobs_checksum field on.
    assert_eq!(tail(&merged), tail(&reference));

    // The markdown report renders the sweep sections.
    let md = std::fs::read_to_string(&report).unwrap();
    for section in ["# GPUMech sweep report", "## Per-kernel CPI stacks", "## Model vs oracle"] {
        assert!(md.contains(section), "report missing {section:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_shard_resumed_after_a_torn_journal_append_merges_byte_identically() {
    let dir = workspace("torn-resume");
    let reference = reference_run(&dir);
    let here = Path::new(".");
    let shard_paths = [shard_run(&dir, "0/2", here, &[]), shard_run(&dir, "1/2", here, &[])];
    let journals: Vec<PathBuf> = shard_paths.iter().map(|p| p.with_extension("journal")).collect();

    // Shard 1 was killed while appending its last entry: only a prefix of
    // that line reached the disk.
    let text = std::fs::read_to_string(&journals[1]).unwrap();
    let last = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
    let torn = &text[last..last + (text.len() - last) / 2];
    std::fs::write(&journals[1], format!("{}{torn}", &text[..last])).unwrap();

    // The rerun replays the whole entries, recomputes the torn job and
    // journals it on a fresh line; the torn prefix stays in the file.
    shard_run(&dir, "1/2", here, &["--resume"]);
    let healed = std::fs::read_to_string(&journals[1]).unwrap();
    assert_eq!(healed.lines().count(), text.lines().count() + 1, "{healed}");
    assert!(healed.contains(&format!("{torn}\n")), "the torn prefix stays: {healed}");

    let merged = dir.join("merged.json");
    let out = gpumech(&[
        "merge",
        shard_paths[0].to_str().unwrap(),
        shard_paths[1].to_str().unwrap(),
        "--out", merged.to_str().unwrap(),
        "--expect", reference.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(tail(&merged), tail(&reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_shard_fails_merge_with_exit_5() {
    let dir = workspace("corrupt");
    let here = Path::new(".");
    let shard_paths = [shard_run(&dir, "0/2", here, &[]), shard_run(&dir, "1/2", here, &[])];
    // Flip one digit inside the rows of shard 1.
    let text = std::fs::read_to_string(&shard_paths[1]).unwrap();
    let jobs_at = text.find("\"jobs\": [").unwrap();
    let digit_at = jobs_at
        + text[jobs_at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("rows contain digits");
    let mut bytes = text.into_bytes();
    bytes[digit_at] = if bytes[digit_at] == b'9' { b'8' } else { bytes[digit_at] + 1 };
    std::fs::write(&shard_paths[1], bytes).unwrap();

    let out = gpumech(&[
        "merge",
        shard_paths[0].to_str().unwrap(),
        shard_paths[1].to_str().unwrap(),
        "--out", dir.join("merged.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[corrupt-shard-file]"), "{stdout}");
    assert!(stdout.contains("[missing-shard]"), "the corrupt shard's work is uncovered: {stdout}");
    assert!(!dir.join("merged.json").exists(), "no merged output on failure");
    assert!(
        PathBuf::from(format!("{}.quarantine", shard_paths[1].display())).exists(),
        "corrupt file quarantined"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shards_stamp_the_binary_commit_whatever_their_working_directory() {
    // Provenance follows the executable, not the working directory: shard
    // 0 runs inside the checkout, shard 1 from a temp dir outside any, and
    // the two must still be one sweep to `merge`.
    let dir = workspace("provenance");
    let reference = reference_run(&dir);
    let shard_paths = [shard_run(&dir, "0/2", Path::new("."), &[]), shard_run(&dir, "1/2", &dir, &[])];
    let merged = dir.join("merged.json");
    let out = gpumech(&[
        "merge",
        shard_paths[0].to_str().unwrap(),
        shard_paths[1].to_str().unwrap(),
        "--out", merged.to_str().unwrap(),
        "--expect", reference.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(tail(&merged), tail(&reference));
    std::fs::remove_dir_all(&dir).unwrap();
}
