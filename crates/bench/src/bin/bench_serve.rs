//! Self-driving load harness for `gpumech serve`: spawns the real binary
//! as a child process, hammers it over real sockets, and writes a
//! latency/shed/error-taxonomy report (`results/BENCH_serve.json`).
//!
//! Three phases, all against production code paths:
//!
//! 1. **Load** — `--clients` concurrent clients (≥8 by default) send a
//!    deterministic request mix (valid predicts with debug holds for
//!    queue pressure, unknown kernels, invalid configs, 1 ms deadlines)
//!    and the harness reports p50/p90/p99 latency, shed rate, and the
//!    typed error taxonomy.
//! 2. **Chaos clients** — mid-body disconnects; the server must keep
//!    answering.
//! 3. **Crash/restart** — one server is drained with SIGTERM under load
//!    (must exit 0 with a summary and an `--obs-out` trace); another is
//!    SIGKILLed mid-load over the same `--cache-dir`, and a restart must
//!    pass `/readyz`, quarantine nothing, and predict byte-identically
//!    to the first server's answer.
//!
//! Usage: `bench_serve [--clients N] [--requests N] [--quick]
//!         [--server-bin PATH] [--cache-dir DIR] [--obs-out PATH]
//!         [--json PATH]`

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gpumech_bench::{arg_value, gpumech_bin};
use gpumech_serve::{send_sigkill, send_sigterm};
use serde::Serialize;

/// Kernels the valid-predict mix cycles through: small, fast, and
/// behaviorally distinct.
const KERNELS: [&str; 4] =
    ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping", "cfd_step_factor"];

#[derive(Serialize)]
struct LatencyStats {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
}

#[derive(Serialize)]
struct ChaosReport {
    mid_body_disconnects: usize,
    survived_mid_body: bool,
    sigkill_mid_load: bool,
    restart_ready_ms: f64,
    restart_prediction_identical: bool,
    quarantined_cache_entries: usize,
}

#[derive(Serialize)]
struct DrainReport {
    exit_code: i32,
    clean_exit: bool,
    in_flight_completed: u64,
    obs_trace: String,
}

/// `git_commit` and `config_fingerprint` tie the numbers to the exact
/// build and Table I machine they measured — archived reports are only
/// comparable when both provenance fields match.
#[derive(Serialize)]
struct Report {
    git_commit: String,
    config_fingerprint: u64,
    clients: usize,
    requests_per_client: usize,
    total_requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    ok: u64,
    shed: u64,
    shed_rate: f64,
    latency_ok: LatencyStats,
    latency_all: LatencyStats,
    taxonomy: BTreeMap<String, u64>,
    statuses: BTreeMap<String, u64>,
    chaos: ChaosReport,
    drain: DrainReport,
}

/// One observed request: status, typed error code ("ok" for 200), wall.
#[derive(Clone)]
struct Obs {
    status: u16,
    code: String,
    ms: f64,
}

struct ServerProc {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `gpumech serve` and scrapes the bound port from the first
/// stdout line (`gpumech-serve listening on http://ADDR`).
fn spawn_server(bin: &Path, extra: &[&str]) -> ServerProc {
    let mut child = Command::new(bin)
        .arg("serve")
        .args(["--port", "0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("spawn {}: {e}", bin.display())));
    let mut stdout = BufReader::new(
        child.stdout.take().unwrap_or_else(|| gpumech_bench::fail("no child stdout")),
    );
    let mut line = String::new();
    if stdout.read_line(&mut line).unwrap_or(0) == 0 {
        let _ = child.kill();
        gpumech_bench::fail("server exited before announcing its port");
    }
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| gpumech_bench::fail(format_args!("bad announce line: {line:?}")));
    ServerProc { child, addr, stdout }
}

/// Sends raw bytes, reads to EOF, returns (status, body).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    s.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("bad response: {text:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line: {head:?}"))?;
    Ok((status, body.to_string()))
}

fn predict_raw(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    send_raw(addr, format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").as_bytes())
}

/// Extracts the typed error code from a response body, or "ok".
fn error_code(status: u16, body: &str) -> String {
    if status == 200 {
        return "ok".to_string();
    }
    body.split("\"error\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("untyped")
        .to_string()
}

/// The deterministic request mix for client `i`, request `j`.
fn request_body(i: usize, j: usize, hold_ms: u64) -> String {
    let k = KERNELS[(i + j) % KERNELS.len()];
    match (i + 3 * j) % 8 {
        5 => "{\"kernel\":\"no_such_kernel\"}".to_string(),
        6 => format!("{{\"kernel\":\"{k}\",\"mshrs\":0}}"),
        7 => format!("{{\"kernel\":\"{k}\",\"blocks\":2,\"deadline_ms\":1,\"hold_ms\":50}}"),
        _ => format!("{{\"kernel\":\"{k}\",\"blocks\":2,\"hold_ms\":{hold_ms}}}"),
    }
}

fn stats(mut ms: Vec<f64>) -> LatencyStats {
    if ms.is_empty() {
        return LatencyStats { p50_ms: 0.0, p90_ms: 0.0, p99_ms: 0.0, max_ms: 0.0, mean_ms: 0.0 };
    }
    ms.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = ((ms.len() - 1) as f64 * p).round() as usize;
        ms[idx.min(ms.len() - 1)]
    };
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    LatencyStats {
        p50_ms: q(0.50),
        p90_ms: q(0.90),
        p99_ms: q(0.99),
        max_ms: ms[ms.len() - 1],
        mean_ms: mean,
    }
}

/// Phase 1: concurrent clients over real sockets.
fn load_phase(addr: SocketAddr, clients: usize, requests: usize, hold_ms: u64) -> Vec<Obs> {
    let mut handles = Vec::with_capacity(clients);
    for i in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::with_capacity(requests);
            for j in 0..requests {
                let body = request_body(i, j, hold_ms);
                let t0 = Instant::now();
                match send_raw(addr, &predict_raw(&body)) {
                    Ok((status, resp_body)) => out.push(Obs {
                        status,
                        code: error_code(status, &resp_body),
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                    }),
                    Err(e) => out.push(Obs {
                        status: 0,
                        code: format!("transport: {e}"),
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                    }),
                }
            }
            out
        }));
    }
    handles
        .into_iter()
        .flat_map(|h| h.join().unwrap_or_else(|_| gpumech_bench::fail("client panicked")))
        .collect()
}

/// Phase 2: clients that promise a body and vanish mid-write.
fn mid_body_chaos(addr: SocketAddr, n: usize) -> bool {
    for _ in 0..n {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"ker");
            drop(s);
        }
    }
    // The server must still answer after digesting the carcasses.
    std::thread::sleep(Duration::from_millis(300));
    matches!(get(addr, "/healthz"), Ok((200, _)))
}

fn count_quarantined(dir: &Path) -> usize {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "quarantine"))
        .count()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let clients: usize =
        arg_value("--clients").and_then(|v| v.parse().ok()).unwrap_or(8).max(1);
    let requests: usize = arg_value("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 3 } else { 12 })
        .max(1);
    let hold_ms: u64 = if quick { 10 } else { 25 };
    let bin = gpumech_bin("--server-bin");
    let scratch = std::env::temp_dir().join(format!("gpumech-bench-serve-{}", std::process::id()));
    let cache_dir = arg_value("--cache-dir")
        .map_or_else(|| scratch.join("cache"), PathBuf::from);
    let obs_out = arg_value("--obs-out")
        .map_or_else(|| scratch.join("serve-obs.jsonl"), PathBuf::from);
    let _ = std::fs::create_dir_all(&scratch);

    // ---- Server 1: load + mid-body chaos + SIGTERM drain -------------
    let cache_flag = cache_dir.to_string_lossy().to_string();
    let obs_flag = obs_out.to_string_lossy().to_string();
    let mut srv = spawn_server(
        &bin,
        &[
            "--workers", "2", "--queue-cap", "2", "--debug-hooks",
            "--cache-dir", &cache_flag, "--obs-out", &obs_flag,
        ],
    );
    eprintln!("server 1 on {} (pid {})", srv.addr, srv.child.id());

    // A reference prediction for the byte-identity check after restart.
    let reference = send_raw(srv.addr, &predict_raw("{\"kernel\":\"sdk_vectoradd\",\"blocks\":2}"))
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("reference predict: {e}")));
    if reference.0 != 200 {
        gpumech_bench::fail(format_args!("reference predict failed: {}", reference.1));
    }

    let t0 = Instant::now();
    let observations = load_phase(srv.addr, clients, requests, hold_ms);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let survived_mid_body = mid_body_chaos(srv.addr, if quick { 4 } else { 8 });
    if !survived_mid_body {
        gpumech_bench::fail("server stopped answering after mid-body disconnects");
    }

    // SIGTERM with work in flight: the straggler must complete, the
    // process must exit 0 and write its observability trace.
    let addr = srv.addr;
    let straggler = std::thread::spawn(move || {
        send_raw(addr, &predict_raw("{\"kernel\":\"sdk_vectoradd\",\"blocks\":2,\"hold_ms\":400}"))
    });
    std::thread::sleep(Duration::from_millis(150));
    if !send_sigterm(srv.child.id()) {
        gpumech_bench::fail("could not SIGTERM server 1");
    }
    let straggler = straggler.join().unwrap_or_else(|_| gpumech_bench::fail("straggler panicked"));
    let in_flight_completed = u64::from(matches!(&straggler, Ok((200, _))));
    let status = srv
        .child
        .wait()
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("wait server 1: {e}")));
    let mut rest = String::new();
    let _ = srv.stdout.read_to_string(&mut rest);
    let exit_code = status.code().unwrap_or(-1);
    if exit_code != 0 {
        gpumech_bench::fail(format_args!("server 1 exited {exit_code}: {rest}"));
    }
    if !obs_out.exists() {
        gpumech_bench::fail("server 1 wrote no --obs-out trace");
    }
    let mut stderr_text = String::new();
    if let Some(mut e) = srv.child.stderr.take() {
        let _ = e.read_to_string(&mut stderr_text);
    }
    if stderr_text.contains("panicked") {
        gpumech_bench::fail(format_args!("server 1 panicked:\n{stderr_text}"));
    }

    // ---- Server 2: SIGKILL mid-load over the same cache ---------------
    let mut srv2 = spawn_server(&bin, &["--workers", "2", "--debug-hooks", "--cache-dir", &cache_flag]);
    eprintln!("server 2 on {} (pid {})", srv2.addr, srv2.child.id());
    let addr2 = srv2.addr;
    let mut murdered_clients = Vec::new();
    for i in 0..4usize {
        murdered_clients.push(std::thread::spawn(move || {
            let k = KERNELS[i % KERNELS.len()];
            // Transport errors are the expected outcome here.
            let _ = send_raw(
                addr2,
                &predict_raw(&format!("{{\"kernel\":\"{k}\",\"blocks\":4,\"hold_ms\":500}}")),
            );
        }));
    }
    std::thread::sleep(Duration::from_millis(200));
    if !send_sigkill(srv2.child.id()) {
        gpumech_bench::fail("could not SIGKILL server 2");
    }
    let _ = srv2.child.wait();
    for h in murdered_clients {
        let _ = h.join();
    }

    // ---- Server 3: restart over the killed server's cache -------------
    let t_restart = Instant::now();
    let mut srv3 = spawn_server(
        &bin,
        &["--workers", "2", "--cache-dir", &cache_flag, "--warm", "sdk_vectoradd"],
    );
    eprintln!("server 3 on {} (pid {})", srv3.addr, srv3.child.id());
    let restart_ready_ms = loop {
        match get(srv3.addr, "/readyz") {
            Ok((200, _)) => break t_restart.elapsed().as_secs_f64() * 1e3,
            _ if t_restart.elapsed() > Duration::from_secs(60) => {
                gpumech_bench::fail("restarted server never became ready")
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let after = send_raw(srv3.addr, &predict_raw("{\"kernel\":\"sdk_vectoradd\",\"blocks\":2}"))
        .unwrap_or_else(|e| gpumech_bench::fail(format_args!("post-restart predict: {e}")));
    let restart_prediction_identical = after == reference;
    if !restart_prediction_identical {
        gpumech_bench::fail(format_args!(
            "post-restart prediction diverged from pre-crash reference:\n{}\nvs\n{}",
            after.1, reference.1
        ));
    }
    let quarantined = count_quarantined(&cache_dir);
    if quarantined != 0 {
        gpumech_bench::fail(format_args!("SIGKILL corrupted {quarantined} cache entr(ies)"));
    }
    let _ = send_sigterm(srv3.child.id());
    let s3 = srv3.child.wait().map(|s| s.code().unwrap_or(-1)).unwrap_or(-1);
    if s3 != 0 {
        gpumech_bench::fail(format_args!("server 3 exited {s3}"));
    }

    // ---- Report -------------------------------------------------------
    let total = observations.len();
    let ok = observations.iter().filter(|o| o.status == 200).count() as u64;
    let shed = observations.iter().filter(|o| o.status == 429).count() as u64;
    let mut taxonomy: BTreeMap<String, u64> = BTreeMap::new();
    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    for o in &observations {
        *taxonomy.entry(o.code.clone()).or_default() += 1;
        *statuses.entry(o.status.to_string()).or_default() += 1;
    }
    let report = Report {
        git_commit: gpumech_perf::git_commit(),
        config_fingerprint: gpumech_exec::analysis_config_fingerprint(
            &gpumech_isa::SimConfig::table1(),
        ),
        clients,
        requests_per_client: requests,
        total_requests: total,
        wall_ms,
        throughput_rps: total as f64 / (wall_ms / 1e3).max(1e-9),
        ok,
        shed,
        shed_rate: shed as f64 / (total as f64).max(1.0),
        latency_ok: stats(
            observations.iter().filter(|o| o.status == 200).map(|o| o.ms).collect(),
        ),
        latency_all: stats(observations.iter().map(|o| o.ms).collect()),
        taxonomy,
        statuses,
        chaos: ChaosReport {
            mid_body_disconnects: if quick { 4 } else { 8 },
            survived_mid_body,
            sigkill_mid_load: true,
            restart_ready_ms,
            restart_prediction_identical,
            quarantined_cache_entries: quarantined,
        },
        drain: DrainReport {
            exit_code,
            clean_exit: true,
            in_flight_completed,
            obs_trace: obs_flag.clone(),
        },
    };

    if observations.iter().any(|o| o.status == 0) {
        let bad: Vec<&str> = observations
            .iter()
            .filter(|o| o.status == 0)
            .map(|o| o.code.as_str())
            .collect();
        gpumech_bench::fail(format_args!("transport failures under load: {bad:?}"));
    }

    println!(
        "# bench_serve: {clients} clients x {requests} requests ({total} total) in {wall_ms:.0} ms"
    );
    println!(
        "ok {ok}  shed {shed} ({:.1}%)  p50 {:.1} ms  p99 {:.1} ms",
        100.0 * report.shed_rate, report.latency_ok.p50_ms, report.latency_ok.p99_ms
    );
    for (code, n) in &report.taxonomy {
        println!("  {code:<24}{n}");
    }
    println!(
        "chaos: mid-body ok; SIGKILL->restart ready in {restart_ready_ms:.0} ms, \
         prediction identical, 0 quarantined"
    );
    println!("drain: exit 0, in-flight completed, obs trace at {obs_flag}");

    if let Some(path) = arg_value("--json") {
        let json = serde_json::to_string_pretty(&report)
            .unwrap_or_else(|e| gpumech_bench::fail(format_args!("serialize report: {e}")));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| gpumech_bench::fail(format_args!("write {path}: {e}")));
        println!("report written to {path}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
