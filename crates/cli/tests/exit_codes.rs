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
//! | 5    | retired (was the shard merge's), not reused     |
//!
//! Failure codes must also keep their report-then-error shape: the full
//! report on stdout (for the CI log) and a one-line `error:` on stderr.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::{Command, Output};

use gpumech_isa::{KernelBuilder, Operand, ValueOp};

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
    let out = gpumech(&["batch", "sdk_vectoradd", "--sweep", "warps=abc"]);
    assert_eq!(out.status.code(), Some(1), "an unparsable sweep value is a usage error");
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
fn batch_at_its_default_worker_count_writes_nothing_to_stderr() {
    // The default of 4 workers may exceed the host's parallelism; only a
    // `--workers` the user chose is worth a warning.
    let out = gpumech(&["batch", "sdk_vectoradd", "--blocks", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
