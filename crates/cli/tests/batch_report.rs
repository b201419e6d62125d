//! The `batch --json` report's provenance through the real binary: the
//! `git_commit` it stamps follows the executable, not the working
//! directory, so a run from outside any checkout names the same commit as
//! a run from inside one.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::Path;
use std::process::Command;

/// Runs `batch --json <json>` from `cwd` and returns the report's
/// `git_commit` line.
fn stamped_commit(cwd: &Path, json: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(["batch", "sdk_vectoradd", "--blocks", "2", "--workers", "1", "--json"])
        .arg(json)
        .current_dir(cwd)
        .output()
        .expect("binary spawns");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(json).unwrap();
    let line = text.lines().find(|l| l.starts_with("  \"git_commit\": "));
    line.unwrap_or_else(|| panic!("no git_commit line: {text}")).to_string()
}

#[test]
fn batch_json_stamps_the_binary_commit_whatever_its_working_directory() {
    let dir = std::env::temp_dir().join(format!("gpumech-batch-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let inside = stamped_commit(Path::new(env!("CARGO_MANIFEST_DIR")), &dir.join("inside.json"));
    let outside = stamped_commit(&dir, &dir.join("outside.json"));
    assert_eq!(inside, outside);
    std::fs::remove_dir_all(&dir).unwrap();
}
