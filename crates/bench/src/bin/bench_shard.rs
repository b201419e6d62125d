//! Sharded-sweep harness: runs the same sweep unsharded and under the
//! crash-tolerant supervisor (with a chaos kill armed), verifies the
//! merged output byte-identical to the reference, and writes a
//! provenance-stamped report (`results/BENCH_shard.json`).
//!
//! Three phases, all against the real `gpumech` binary:
//!
//! 1. **Reference** — one unsharded `batch --json` run of the sweep.
//! 2. **Supervised** — the same sweep split across `--shards` child
//!    processes via [`gpumech_shard::supervise()`], with one shard
//!    SIGKILLed mid-run ([`ChaosKill`]) to exercise journal-replay
//!    recovery under time pressure.
//! 3. **Verified merge** — the shard files (plus journals) are merged
//!    and the result compared to the reference from `jobs_checksum` on;
//!    any deviation fails the harness.
//!
//! Usage: `bench_shard [--shard-bin PATH] [--shards N] [--quick]
//!         [--json PATH]`

use std::path::PathBuf;
use std::time::Instant;

use gpumech_bench::{arg_value, gpumech_bin};
use gpumech_shard::{
    merge_files, supervise, verify_expectation, ChaosKill, MergeOptions, SupervisorConfig,
};
use serde::Serialize;

/// Sweep kernels: small, behaviorally distinct, enough work that the
/// chaos kill has a window to land.
const KERNELS: [&str; 6] = [
    "sdk_vectoradd",
    "bfs_kernel1",
    "kmeans_invert_mapping",
    "cfd_step_factor",
    "hotspot_calculate_temp",
    "srad_kernel1",
];

#[derive(Serialize)]
struct ShardLine {
    shard: u32,
    spawns: u32,
    restarts: u32,
    done: bool,
}

/// `git_commit` and `config_fingerprint` tie the numbers to the exact
/// build and Table I machine they measured.
#[derive(Serialize)]
struct Report {
    git_commit: String,
    config_fingerprint: u64,
    shards: u32,
    jobs: usize,
    reference_wall_ms: f64,
    supervised_wall_ms: f64,
    speedup: f64,
    chaos_kill_fired: bool,
    restarts: u32,
    merge_files_ok: usize,
    merge_notes: usize,
    byte_identical: bool,
    per_shard: Vec<ShardLine>,
}

fn run_reference(bin: &PathBuf, sweep: &[String], out: &PathBuf) -> f64 {
    let t0 = Instant::now();
    let status = std::process::Command::new(bin)
        .args(sweep)
        .arg("--json")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("spawn reference: {e}")));
    if !status.success() {
        gpumech_bench::fail(format_args!("reference batch failed: {status}"));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shards: u32 = arg_value("--shards").and_then(|v| v.parse().ok()).unwrap_or(3).max(1);
    let bin = gpumech_bin("--shard-bin");
    let scratch =
        std::env::temp_dir().join(format!("gpumech-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("scratch dir: {e}")));

    // The sweep: every kernel at several warp counts. --quick halves the
    // axis; the full run gives the chaos kill a wider window.
    let warp_axis = if quick { "warps=16,32" } else { "warps=8,16,32,64" };
    let sweep_points = if quick { 2 } else { 4 };
    let mut sweep: Vec<String> = vec!["batch".to_string()];
    sweep.extend(KERNELS.iter().map(|k| (*k).to_string()));
    sweep.extend(["--blocks", "4", "--sweep", warp_axis].iter().map(|s| (*s).to_string()));
    let jobs = KERNELS.len() * sweep_points;

    // ---- Phase 1: unsharded reference --------------------------------
    let reference = scratch.join("ref.json");
    let reference_wall_ms = run_reference(&bin, &sweep, &reference);
    eprintln!("reference: {jobs} job(s) in {reference_wall_ms:.0} ms");

    // ---- Phase 2: supervised sharded run with a chaos kill -----------
    let sweep_dir = scratch.join("sweep");
    let mut cfg = SupervisorConfig::new(bin, sweep_dir.clone(), shards);
    cfg.shared_args = sweep.clone();
    cfg.poll_ms = 10;
    cfg.chaos_kills = vec![ChaosKill { shard: 0, after_journal_lines: 1 }];
    let t0 = Instant::now();
    let summary = supervise(&cfg)
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("supervise: {e}")));
    let supervised_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if summary.result_paths.len() != shards as usize {
        gpumech_bench::fail(format_args!(
            "only {} of {shards} shard(s) completed",
            summary.result_paths.len()
        ));
    }
    let restarts: u32 = summary.shards.iter().map(|s| s.restarts).sum();
    eprintln!(
        "supervised: {shards} shard(s) in {supervised_wall_ms:.0} ms, {restarts} restart(s)"
    );

    // ---- Phase 3: verified merge + byte identity ---------------------
    let journals: Vec<PathBuf> = (0..shards).map(|i| cfg.journal_path(i)).collect();
    let outcome = merge_files(
        &summary.result_paths,
        &MergeOptions { quarantine: false, journals },
    );
    let Some(merged) = outcome.merged else {
        for f in &outcome.findings {
            eprintln!("finding: {f}");
        }
        gpumech_bench::fail("supervised sweep did not merge cleanly");
    };
    let merged_text = merged
        .render_json()
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("render merged: {e}")));
    let reference_text = std::fs::read_to_string(&reference)
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("read reference: {e}")));
    if let Some(mismatch) = verify_expectation(&merged_text, &reference_text) {
        gpumech_bench::fail(format_args!("sharded run diverged from reference: {mismatch}"));
    }
    eprintln!("merge: byte-identical to the unsharded reference");

    let report = Report {
        git_commit: gpumech_perf::git_commit(),
        config_fingerprint: gpumech_exec::analysis_config_fingerprint(
            &gpumech_isa::SimConfig::table1(),
        ),
        shards,
        jobs,
        reference_wall_ms,
        supervised_wall_ms,
        speedup: reference_wall_ms / supervised_wall_ms.max(1e-9),
        chaos_kill_fired: restarts > 0,
        restarts,
        merge_files_ok: outcome.files_ok,
        merge_notes: outcome.notes.len(),
        byte_identical: true,
        per_shard: summary
            .shards
            .iter()
            .map(|s| ShardLine {
                shard: s.shard,
                spawns: s.spawns,
                restarts: s.restarts,
                done: s.done,
            })
            .collect(),
    };
    let path = arg_value("--json").unwrap_or_else(|| "results/BENCH_shard.json".to_string());
    if let Some(dir) = PathBuf::from(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("serialize report: {e}")));
    std::fs::write(&path, json)
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("write {path}: {e}")));
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("report written to {path}");
}
