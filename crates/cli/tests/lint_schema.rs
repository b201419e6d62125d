//! Golden-schema test for `gpumech lint --format json`.
//!
//! Builds a corpus of kernels covering each finding severity, lints it
//! via `--from-json` through the library entry point (and through the
//! real binary for the exit-code contract), and validates the JSON
//! against the documented schema: field names, severity spellings,
//! finding codes, and severity-then-pc ordering.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

use gpumech_analyze::KernelAnalysis;
use gpumech_cli::{run, CliError};
use gpumech_isa::{Kernel, KernelBuilder, MemSpace, Operand, ValueOp};
use serde::Value;

/// An Error kernel, a Warning kernel and two clean ones.
fn corpus() -> Vec<Kernel> {
    let mut kernels = Vec::new();

    // barrier-divergence (Error).
    let mut b = KernelBuilder::new("bad_barrier");
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
    b.if_begin(Operand::Reg(c));
    b.sync();
    b.if_end();
    kernels.push(b.finish(vec![]));

    // maybe-uninit-read (Warning): written on one arm only, read after.
    let mut b = KernelBuilder::new("maybe_uninit");
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
    b.if_begin(Operand::Reg(c));
    let r = b.alu(ValueOp::Mov, &[Operand::Imm(1)]);
    b.if_end();
    b.store(MemSpace::Shared, Operand::Lane, Operand::Reg(r));
    kernels.push(b.finish(vec![]));

    // clean: shared-memory layout is not linted — every warp stores
    // shared[lane] and loads shared[lane * 128].
    let mut b = KernelBuilder::new("shared_strided");
    let v = b.alu(ValueOp::Mov, &[Operand::Imm(1)]);
    b.store(MemSpace::Shared, Operand::Lane, Operand::Reg(v));
    let off = b.alu(ValueOp::Mul, &[Operand::Lane, Operand::Imm(128)]);
    let _ = b.load(MemSpace::Shared, Operand::Reg(off));
    kernels.push(b.finish(vec![]));

    // clean: tile exchange across a barrier.
    let mut b = KernelBuilder::new("clean_tile");
    let off = b.alu(ValueOp::Mul, &[Operand::TidInBlock, Operand::Imm(4)]);
    let v = b.alu(ValueOp::Mov, &[Operand::Imm(7)]);
    b.store(MemSpace::Shared, Operand::Reg(off), Operand::Reg(v));
    b.sync();
    let _ = b.load(MemSpace::Shared, Operand::Reg(off));
    kernels.push(b.finish(vec![]));

    kernels
}

fn corpus_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join(format!("gpumech-lint-schema-{}-{tag}.json", std::process::id()));
    let json = serde_json::to_string(&corpus()).expect("serialize corpus");
    std::fs::write(&path, json).expect("write corpus");
    path
}

fn severity_rank(sev: &str) -> u32 {
    match sev {
        "Error" => 0,
        "Warning" => 1,
        "Info" => 2,
        other => panic!("unexpected severity spelling {other:?}"),
    }
}

#[test]
fn lint_json_covers_every_finding_kind_with_stable_schema() {
    let path = corpus_file("schema");
    let err = run([
        "lint".to_string(),
        "--format".to_string(),
        "json".to_string(),
        "--from-json".to_string(),
        path.display().to_string(),
    ])
    .expect_err("corpus contains an Error finding");
    let CliError::LintFailed { report, errors } = err else {
        panic!("expected LintFailed, got another error");
    };
    assert_eq!(errors, 1, "exactly the barrier-divergence finding is an Error");

    // Typed round-trip: the report is a JSON array of KernelAnalysis.
    let parsed: Vec<KernelAnalysis> = serde_json::from_str(&report).expect("typed parse");
    assert_eq!(parsed.len(), 4);

    // Schema-level checks on the raw JSON value.
    let raw = serde_json::parse_value(&report).expect("raw parse");
    let Value::Array(arr) = raw else { panic!("top level must be an array") };
    assert_eq!(arr.len(), 4);
    for obj in &arr {
        for key in [
            "kernel_name",
            "diagnostics",
            "branch_uniform",
            "coalescing",
            "metrics",
        ] {
            assert!(obj.get_field(key).is_some(), "missing field {key}");
        }
        let Some(Value::Array(diags)) = obj.get_field("diagnostics") else {
            panic!("diagnostics must be an array")
        };
        let mut last: Option<(u32, Option<u64>)> = None;
        for d in diags {
            let Some(Value::Str(sev)) = d.get_field("severity") else {
                panic!("severity must be a string")
            };
            let Some(Value::Str(code)) = d.get_field("code") else {
                panic!("code must be a string")
            };
            assert!(!code.is_empty());
            let Some(Value::Str(message)) = d.get_field("message") else {
                panic!("message must be a string")
            };
            assert!(!message.is_empty());
            let pc = match d.get_field("pc") {
                Some(Value::Null) => None,
                Some(v) => Some(v.as_u64().expect("pc must be an integer")),
                None => panic!("pc field must be present"),
            };
            // Severity-ranked: Errors first, ties broken by ascending pc.
            let rank = severity_rank(sev);
            if let Some((prev_rank, prev_pc)) = last {
                assert!(
                    prev_rank < rank || (prev_rank == rank && prev_pc <= pc),
                    "diagnostics not severity-then-pc ordered"
                );
            }
            last = Some((rank, pc));
        }
    }

    // Each finding lands on the kernel that carries its defect.
    let find = |name: &str| parsed.iter().find(|a| a.kernel_name == name).expect("kernel present");
    assert!(find("bad_barrier").diagnostics.iter().any(|d| d.code == "barrier-divergence"));
    assert!(find("maybe_uninit").diagnostics.iter().any(|d| d.code == "maybe-uninit-read"));
    for clean in ["shared_strided", "clean_tile"] {
        assert!(
            find(clean).diagnostics.iter().all(|d| d.severity == gpumech_analyze::Severity::Info),
            "{clean} must have nothing above Info severity"
        );
    }

    let _ = std::fs::remove_file(path);
}

#[test]
fn lint_exits_with_code_two_on_error_findings() {
    let path = corpus_file("exit");
    let out = Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(["lint", "--format", "json", "--from-json"])
        .arg(&path)
        .output()
        .expect("spawn gpumech");
    assert_eq!(out.status.code(), Some(2), "lint errors must exit 2");
    // The report still lands on stdout, in full.
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let parsed: Vec<KernelAnalysis> = serde_json::from_str(&stdout).expect("typed parse");
    assert_eq!(parsed.len(), 4);
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("error-severity"), "stderr: {stderr}");

    // A clean catalogue kernel exits 0.
    let ok = Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(["lint", "sdk_vectoradd"])
        .output()
        .expect("spawn gpumech");
    assert_eq!(ok.status.code(), Some(0));
    let _ = std::fs::remove_file(path);
}
