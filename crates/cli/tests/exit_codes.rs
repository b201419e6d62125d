//! Exit-code taxonomy contract for the `gpumech` binary.
//!
//! The README documents the exit-code taxonomy CI scripts branch on;
//! this suite spawns the real binary once per code and pins each one:
//!
//! | code | meaning                                         |
//! |------|-------------------------------------------------|
//! | 0    | success                                         |
//! | 1    | usage / pipeline error                          |
//! | 2    | `lint` found Error-severity findings            |
//! | 3    | retired (was the trace validator's), not reused |
//! | 4    | retired (was the perf gate's), not reused       |
//! | 5    | `merge` found merge findings                    |
//!
//! Failure codes must also keep their report-then-error shape: the full
//! report on stdout (for the CI log) and a one-line `error:` on stderr.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::{Command, Output};

use gpumech_isa::{KernelBuilder, Operand, ValueOp};
use gpumech_shard::{fingerprint_hex, JobRow, ShardSpec, SweepManifest, SweepReport};

fn gpumech(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary spawns")
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gpumech-exit-codes-{}-{tag}", std::process::id()))
}

#[test]
fn exit_0_on_success() {
    let out = gpumech(&["list"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "a clean run writes nothing to stderr");
}

#[test]
fn exit_1_on_usage_error() {
    let out = gpumech(&["no-such-command"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "stderr names the problem: {stderr}");
    // The retired perf gate's subcommand is the same class of failure.
    assert_eq!(gpumech(&["perf", "compare"]).status.code(), Some(1));

    // A broken flag value is the same class of failure.
    let out = gpumech(&["batch", "sdk_vectoradd", "--shard", "9/3"]);
    assert_eq!(out.status.code(), Some(1), "out-of-range shard spec is a usage error");
    let out = gpumech(&["predict", "sdk_vectoradd", "--blocks", "0"]);
    assert_eq!(out.status.code(), Some(1), "an empty grid is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--blocks"));
    let out = gpumech(&["batch", "sdk_vectoradd", "--retries", "1"]);
    assert_eq!(out.status.code(), Some(1), "--retries is not a flag");
}

#[test]
fn exit_2_on_lint_error_findings() {
    // A kernel with a barrier inside divergent control flow: the one
    // verification finding that is Error severity.
    let mut b = KernelBuilder::new("bad_barrier");
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
    b.if_begin(Operand::Reg(c));
    b.sync();
    b.if_end();
    let kernel = b.finish(vec![]);
    let path = tmp("lint.json");
    std::fs::write(&path, serde_json::to_string(&kernel).unwrap()).unwrap();

    let out = gpumech(&["lint", "--from-json", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error-severity finding"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn exit_5_on_merge_failure() {
    // A structurally valid one-shard sweep file with a forged row: the
    // checksum check must fail the merge.
    let fps = [0xA1u64, 0xB2, 0xC3];
    let report = SweepReport {
        manifest: SweepManifest::new(ShardSpec::single(), "cafe", 1, &fps),
        workers: 1,
        cache_entries: 0,
        counters: Vec::new(),
        jobs_checksum: String::new(),
        jobs: fps
            .iter()
            .map(|&fp| JobRow {
                label: format!("k-{fp:x}"),
                fingerprint: fingerprint_hex(fp),
                cpi: Some(2.5),
                ipc: Some(0.4),
                stack: None,
                oracle_cpi: None,
                error: None,
                warnings: Vec::new(),
            })
            .collect(),
    };
    let path = tmp("shard-0.json");
    report.write(&path).unwrap();
    let honest = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, honest.replacen("2.5", "9.9", 1)).unwrap();

    let out = gpumech(&["merge", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[corrupt-shard-file]"), "stdout carries the findings: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("merge failed"), "stderr: {stderr}");

    // The corrupt file was quarantined, not left in place.
    assert!(!path.exists(), "corrupt shard file must be quarantined");
    let quarantined = PathBuf::from(format!("{}.quarantine", path.display()));
    assert!(quarantined.exists());
    std::fs::remove_file(&quarantined).unwrap();
}
