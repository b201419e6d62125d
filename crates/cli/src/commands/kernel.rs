//! The single-kernel commands: `list`, `config`, `trace`, `predict`,
//! `simulate`, `compare`, `stacks`, `intervals` and `profile`.

use gpumech_core::{
    summarize_population, Gpumech, Model, Prediction, PredictionRequest, SchedulingPolicy,
    SelectionMethod, StallCategory,
};
use gpumech_isa::SimConfig;
use gpumech_timing::simulate as simulate_oracle;
use gpumech_trace::{workloads, Workload};

use super::{choice, lookup, machine_config, recorded, selection, CliError};
use crate::args::Args;

pub(super) fn list() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28}{:<10}{:<12}{:<8}description\n",
        "name", "suite", "divergence", "cdiv"
    ));
    for w in workloads::all() {
        out.push_str(&format!(
            "{:<28}{:<10}{:<12}{:<8}{}\n",
            w.name,
            w.suite.to_string(),
            format!("{:?}", w.divergence).to_lowercase(),
            if w.control_divergent { "yes" } else { "-" },
            w.description,
        ));
    }
    out
}

pub(super) fn config(args: &Args) -> Result<String, CliError> {
    let cfg = machine_config(args)?;
    Ok(format!(
        "cores: {}\nclock: {} GHz\nwarps/core: {}\nissue width: {}\n\
         L1: {} KB, {}-way, {} cycles, {} MSHRs\nL2: {} KB, {}-way, {} cycles\n\
         DRAM: {} GB/s, {} cycles (service {:.3} cyc/line)\nSFU lanes: {} (initiation interval {})\n",
        cfg.num_cores,
        cfg.clock_ghz,
        cfg.max_warps_per_core,
        cfg.issue_width,
        cfg.l1.size_bytes / 1024,
        cfg.l1.assoc,
        cfg.l1.latency,
        cfg.num_mshrs,
        cfg.l2.size_bytes / 1024,
        cfg.l2.assoc,
        cfg.l2.latency,
        cfg.dram_bandwidth_gbps,
        cfg.dram_latency,
        cfg.dram_service_cycles(),
        cfg.sfu_per_core,
        cfg.sfu_initiation_interval(),
    ))
}

pub(super) fn trace(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let mut out = format!(
        "kernel: {}\nwarps: {}\ntotal instructions: {}\nglobal memory instructions: {}\n",
        trace.name,
        trace.warps.len(),
        trace.total_insts(),
        trace.total_global_mem_insts(),
    );
    let lens: Vec<usize> = trace.warps.iter().map(gpumech_trace::WarpTrace::len).collect();
    let min = lens.iter().min().copied().unwrap_or(0);
    let max = lens.iter().max().copied().unwrap_or(0);
    out.push_str(&format!(
        "per-warp length: min {min}, max {max}, mean {:.1}\n",
        trace.total_insts() as f64 / trace.warps.len().max(1) as f64
    ));
    if let Some(path) = args.flag("json") {
        let json = serde_json::to_string(&trace).map_err(|e| CliError::Model(e.to_string()))?;
        std::fs::write(path, json)?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn render_prediction(p: &Prediction, header: &str) -> String {
    let mut out = format!("{header}\n");
    out.push_str(&format!(
        "predicted CPI: {:.3}  (IPC {:.3})\n",
        p.cpi_total(),
        p.ipc()
    ));
    out.push_str(&format!(
        "  multithreading {:.3} + contention {:.3} (MSHR {:.3}, QUEUE {:.3}, SFU {:.3})\n",
        p.multithreading.cpi,
        p.contention.cpi,
        p.contention.cpi_mshr,
        p.contention.cpi_queue,
        p.contention.cpi_sfu,
    ));
    out.push_str(&format!(
        "  representative warp: #{} (single-warp CPI {:.2}), {} warps/core\n",
        p.representative, p.single_warp_cpi, p.warps_per_core
    ));
    out.push_str(&format!("  {}\n", p.cpi.render_bar(60)));
    for w in &p.warnings {
        out.push_str(&format!("  warning: {w}\n"));
    }
    out
}

pub(super) fn predict(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = machine_config(args)?;
    let pol: SchedulingPolicy = choice(args, "policy", "rr")?;
    let kind: Model = choice(args, "model", "full")?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let (sel, weighting) = selection(args)?;
    let req = PredictionRequest::from_analysis(&analysis)
        .policy(pol)
        .model(kind)
        .selection(sel)
        .weighting(weighting);
    let p = model.run(&req).map_err(|e| CliError::Model(e.to_string()))?;
    Ok(render_prediction(&p, &format!("kernel: {} ({} policy, {})", w.name, pol, kind)))
}

pub(super) fn simulate(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = machine_config(args)?;
    let pol: SchedulingPolicy = choice(args, "policy", "rr")?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let t0 = std::time::Instant::now();
    let r = simulate_oracle(&trace, &cfg, pol).map_err(|e| CliError::Model(e.to_string()))?;
    let dt = t0.elapsed();
    Ok(format!(
        "kernel: {} ({pol} policy)\ncycles: {}\ninstructions: {}\nCPI: {:.3}  (IPC {:.3})\n\
         DRAM requests: {}  (bus utilization {:.1}%)\nsimulated in {dt:.2?}\n",
        w.name,
        r.cycles,
        r.insts,
        r.cpi(),
        r.ipc(),
        r.dram_requests,
        100.0 * r.dram_utilization,
    ))
}

pub(super) fn compare(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = machine_config(args)?;
    let pol: SchedulingPolicy = choice(args, "policy", "rr")?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let oracle = simulate_oracle(&trace, &cfg, pol).map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;

    let mut out = format!(
        "kernel: {} ({pol} policy)\noracle CPI: {:.3}\n\n{:<16}{:>10}{:>10}\n",
        w.name,
        oracle.cpi(),
        "model",
        "CPI",
        "error"
    );
    for kind in Model::ALL {
        let p = model
            .run(&PredictionRequest::from_analysis(&analysis).policy(pol).model(kind))
            .map_err(|e| CliError::Model(e.to_string()))?;
        let err = (p.cpi_total() - oracle.cpi()).abs() / oracle.cpi();
        out.push_str(&format!(
            "{:<16}{:>10.3}{:>9.1}%\n",
            kind.to_string(),
            p.cpi_total(),
            100.0 * err
        ));
    }
    Ok(out)
}

pub(super) fn stacks(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let pol: SchedulingPolicy = choice(args, "policy", "rr")?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let mut out = format!("kernel: {} ({pol} policy)\n", w.name);
    out.push_str(&format!("{:<8}", "warps"));
    for cat in StallCategory::ALL {
        out.push_str(&format!("{:>8}", cat.to_string()));
    }
    out.push_str(&format!("{:>10}\n", "CPI"));
    for warps in [8usize, 16, 32, 48] {
        let cfg = SimConfig::table1().with_warps_per_core(warps);
        let model = Gpumech::new(cfg);
        let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
        let p = model
            .run(&PredictionRequest::from_analysis(&analysis).policy(pol))
            .map_err(|e| CliError::Model(e.to_string()))?;
        out.push_str(&format!("{warps:<8}"));
        for cat in StallCategory::ALL {
            out.push_str(&format!("{:>8.2}", p.cpi.get(cat)));
        }
        out.push_str(&format!("{:>10.2}\n", p.cpi_total()));
    }
    Ok(out)
}

pub(super) fn intervals(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = machine_config(args)?;
    let limit: usize = args.flag_or("limit", 20)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let rep = gpumech_core::select_representative(&analysis.profiles, SelectionMethod::Clustering);
    let profile = &analysis.profiles[rep];

    let mut out = format!(
        "kernel: {} — representative warp #{rep} ({} intervals, showing {})\n\n",
        w.name,
        profile.intervals.len(),
        limit.min(profile.intervals.len())
    );
    out.push_str(&format!(
        "{:<6}{:>7}{:>10}{:>10}{:>8}{:>8}{:>9}{:>9}  cause\n",
        "#", "insts", "stall", "loads", "stores", "reqs", "mshr", "dram"
    ));
    for (i, iv) in profile.intervals.iter().take(limit).enumerate() {
        let cause = match iv.cause {
            gpumech_core::StallCause::None => "-".to_string(),
            gpumech_core::StallCause::Compute => "compute".to_string(),
            gpumech_core::StallCause::Memory { pc } => format!("load@pc{pc}"),
        };
        out.push_str(&format!(
            "{:<6}{:>7}{:>10.1}{:>10}{:>8}{:>8.1}{:>9.2}{:>9.2}  {cause}\n",
            i, iv.insts, iv.stall_cycles, iv.load_insts, iv.store_insts, iv.mem_reqs,
            iv.mshr_reqs, iv.dram_reqs,
        ));
    }
    if profile.intervals.len() > limit {
        out.push_str(&format!("... {} more (use --limit)\n", profile.intervals.len() - limit));
    }
    Ok(out)
}

/// The traced portion of `profile`: everything that should land inside
/// the installed recorder's spans runs here, between install and snapshot.
fn profile_pipeline(
    w: &Workload,
    cfg: SimConfig,
) -> Result<(gpumech_core::Analysis, Prediction), CliError> {
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let p = model
        .run(&PredictionRequest::from_analysis(&analysis))
        .map_err(|e| CliError::Model(e.to_string()))?;
    Ok((analysis, p))
}

pub(super) fn profile(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = machine_config(args)?;

    // `profile` is the observability entry point: it always records, and
    // appends the recorder summary to its output.
    let (profiled, snap) = recorded(|| profile_pipeline(&w, cfg));
    let (analysis, p) = profiled?;
    let pop = summarize_population(&analysis.profiles);
    let rep = p.representative;
    let s = analysis.profiles[rep].summary();

    let mut out = format!("kernel: {}\n\n== warp population ==\n", w.name);
    out.push_str(&format!(
        "warps: {}\nper-warp IPC: min {:.4}, mean {:.4}, max {:.4} (cv {:.2})\n\
         per-warp instructions: min {}, mean {:.1}, max {}\n",
        pop.num_warps,
        pop.perf_min,
        pop.perf_mean,
        pop.perf_max,
        pop.perf_cv,
        pop.insts_min,
        pop.insts_mean,
        pop.insts_max,
    ));
    out.push_str(&format!("\n== representative warp #{rep} ==\n"));
    out.push_str(&format!(
        "intervals: {} (avg {:.1} insts, avg stall {:.1} cycles)\n\
         instructions: {} ({} loads, {} stores)\n\
         stall cycles: {:.0} total — {:.0} compute, {:.0} memory\n\
         divergence degree: {:.1} requests per memory instruction\n\
         MSHR-allocating requests/inst: {:.2}\nDRAM-reaching requests/inst: {:.2}\n\
         avg miss latency (no queueing): {:.0} cycles\n",
        s.num_intervals,
        s.avg_interval_insts,
        s.avg_stall_cycles,
        s.total_insts,
        s.load_insts,
        s.store_insts,
        s.total_stall_cycles,
        s.compute_stall_cycles,
        s.memory_stall_cycles,
        s.divergence_degree,
        s.mshr_reqs_per_inst,
        s.dram_reqs_per_inst,
        analysis.mem.avg_miss_latency(),
    ));
    out.push_str("\n== recorder ==\n");
    out.push_str(&gpumech_obs::render_tree(&snap));
    if let Some(path) = args.flag("obs-out") {
        std::fs::write(path, gpumech_obs::to_jsonl(&snap))?;
        out.push_str(&format!("observability trace written to {path}\n"));
    }
    if let Some(path) = args.flag("chrome-out") {
        std::fs::write(path, gpumech_obs::to_chrome_trace(&snap))?;
        out.push_str(&format!("Chrome trace written to {path}\n"));
    }
    if let Some(path) = args.flag("folded-out") {
        std::fs::write(path, gpumech_perf::to_folded(&snap))?;
        out.push_str(&format!("folded stacks written to {path}\n"));
    }
    // Self-time attribution: where the wall time actually went, not just
    // which stage contained it.
    let attrs = gpumech_perf::attribute(&snap);
    if !attrs.is_empty() {
        out.push_str("\n== self-time attribution ==\n");
        out.push_str(&format!(
            "{:<44}{:>6}{:>12}{:>12}{:>12}\n",
            "span", "count", "total", "self", "child"
        ));
        for a in &attrs {
            out.push_str(&format!(
                "{:<44}{:>6}{:>11.3}m{:>11.3}m{:>11.3}m\n",
                a.name,
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                a.child_ns as f64 / 1e6,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use crate::commands::tests::{run_ok, tmp_path};

    #[test]
    fn list_names_all_40_workloads() {
        let out = run_ok(&["list"]);
        assert_eq!(out.lines().count(), 41, "header + 40 rows");
        assert!(out.contains("kmeans_invert_mapping"));
        assert!(out.contains("cfd_step_factor"));
    }

    #[test]
    fn config_reflects_overrides() {
        let out = run_ok(&["config", "--mshrs", "64", "--bw", "96"]);
        assert!(out.contains("64 MSHRs"));
        assert!(out.contains("96 GB/s"));
        assert!(out.contains("cores: 16"));
    }

    #[test]
    fn trace_reports_statistics() {
        let out = run_ok(&["trace", "sdk_vectoradd", "--blocks", "2"]);
        assert!(out.contains("warps: 16"));
        assert!(out.contains("total instructions:"));
    }

    #[test]
    fn predict_outputs_cpi_and_stack_bar() {
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "8"]);
        assert!(out.contains("predicted CPI:"));
        assert!(out.contains("=BASE:"), "stack bar legend expected: {out}");
    }

    #[test]
    fn predict_weighted_selection_works() {
        let out =
            run_ok(&["predict", "lud_diagonal", "--blocks", "8", "--selection", "weighted"]);
        assert!(out.contains("predicted CPI:"));
    }

    #[test]
    fn simulate_and_compare_run() {
        let out = run_ok(&["simulate", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("cycles:"));
        let out = run_ok(&["compare", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("Naive_Interval"));
        assert!(out.contains("MT_MSHR_BAND"));
    }

    #[test]
    fn stacks_sweeps_warp_counts() {
        let out = run_ok(&["stacks", "sdk_vectoradd", "--blocks", "8"]);
        assert!(out.contains("QUEUE"));
        assert_eq!(out.lines().filter(|l| l.starts_with(char::is_numeric)).count(), 4);
    }

    #[test]
    fn profile_reports_population_and_representative() {
        let out = run_ok(&["profile", "cfd_compute_flux", "--blocks", "4"]);
        assert!(out.contains("warp population"));
        assert!(out.contains("representative warp"));
        assert!(out.contains("divergence degree"));
    }

    #[test]
    fn profile_appends_recorder_tree_with_every_stage_span() {
        let out = run_ok(&["profile", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("== recorder =="), "{out}");
        assert!(out.contains("spans (wall clock):"));
        for stage in [
            "core.pipeline.analyze",
            "mem.cachesim.simulate",
            "core.pipeline.intervals",
            "core.kmeans.cluster",
            "core.pipeline.predict",
        ] {
            assert!(out.contains(stage), "{stage} missing: {out}");
        }
        assert!(out.contains("counters:"));
    }

    #[test]
    fn obs_out_writes_a_trace_that_validates() {
        let path = tmp_path("predict.jsonl");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "4", "--obs-out", &path_s]);
        assert!(out.contains("observability trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"type\":\"span\""));
        let verdict = run_ok(&["obs-validate", &path_s]);
        assert!(verdict.contains("valid"), "{verdict}");
        assert!(verdict.contains("all names within stage.subsystem.name"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn profile_chrome_out_is_trace_event_json() {
        let path = tmp_path("profile.trace.json");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&["profile", "sdk_vectoradd", "--blocks", "4", "--chrome-out", &path_s]);
        assert!(out.contains("Chrome trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn intervals_lists_the_representative_profile() {
        let out = run_ok(&["intervals", "srad_kernel1", "--blocks", "4", "--limit", "5"]);
        assert!(out.contains("representative warp"));
        assert!(out.contains("load@pc") || out.contains("compute"));
        assert!(out.contains("more (use --limit)"));
    }

    #[test]
    fn gto_policy_flag_is_accepted() {
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "4", "--policy", "gto"]);
        assert!(out.contains("gto policy"));
    }

    #[test]
    fn profile_folded_out_round_trips_through_obs_validate() {
        let path = tmp_path("profile.folded");
        let path_s = path.to_string_lossy().to_string();
        let out =
            run_ok(&["profile", "sdk_vectoradd", "--blocks", "4", "--folded-out", &path_s]);
        assert!(out.contains("folded stacks written to"), "{out}");
        assert!(out.contains("== self-time attribution =="), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("core.pipeline.analyze"), "{text}");
        let verdict = run_ok(&["obs-validate", "--folded", &path_s]);
        assert!(verdict.contains("valid folded stacks"), "{verdict}");
        std::fs::remove_file(&path).unwrap();
    }
}
