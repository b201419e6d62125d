//! Smoke tests for the real `gpumech serve` binary: spawn it, scrape the
//! port from stdout, drive the endpoints over raw sockets, then SIGTERM
//! and assert a clean (exit 0) drain with a run summary — and a SIGKILL
//! under held requests that a restart shrugs off.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use gpumech_serve::{send_sigkill, send_sigterm};

fn send(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").expect("framing");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

fn predict(body: &str) -> String {
    format!("POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len())
}

/// Spawns `gpumech serve --port 0 ARGS` and scrapes the bound address
/// from its first stdout line.
fn spawn(args: &[&str]) -> (Child, SocketAddr, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(["serve", "--port", "0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gpumech serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("bad announce line: {line:?}"));
    (child, addr, stdout)
}

/// SIGTERMs `child` and waits (at most 30 s) for it to exit.
fn drain(child: &mut Child) -> ExitStatus {
    assert!(send_sigterm(child.id()), "signal delivery failed");
    let t0 = Instant::now();
    loop {
        if let Some(s) = child.try_wait().unwrap() {
            return s;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "drain hung");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn serve_binary_answers_and_drains_cleanly_on_sigterm() {
    let obs = std::env::temp_dir()
        .join(format!("gpumech-serve-smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&obs);
    let (mut child, addr, mut stdout) =
        spawn(&["--workers", "2", "--obs-out", obs.to_str().unwrap()]);

    // Health and readiness.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");

    // A real prediction over the wire.
    let (status, body) = send(addr, predict("{\"kernel\":\"sdk_vectoradd\",\"blocks\":2}").as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cpi\":"), "{body}");

    // Metrics exposition reflects the traffic.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve.http.requests_total"), "{metrics}");
    assert!(metrics.contains("serve.req.ok_total 1"), "{metrics}");

    // SIGTERM: clean drain, exit 0, summary + obs trace written.
    assert_eq!(drain(&mut child).code(), Some(0), "drain must exit 0");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drain: clean"), "summary missing from stdout: {rest:?}");
    let trace = std::fs::read_to_string(&obs).expect("--obs-out trace was written");
    let meta = trace.lines().next().unwrap_or_default();
    assert!(meta.ends_with("\"invalid_names\":[]}"), "the recorder flagged names: {meta}");
    for line in trace.lines() {
        serde_json::parse_value(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    assert!(trace.contains("serve.req.ok"), "serve trace missing serve.* metrics");

    let mut stderr_text = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr_text).unwrap();
    assert!(!stderr_text.contains("panicked"), "server panicked:\n{stderr_text}");
    let _ = std::fs::remove_file(&obs);
}

#[test]
fn restart_after_sigkill_answers_identically() {
    let req = predict("{\"kernel\":\"sdk_vectoradd\",\"blocks\":2}");

    // The pre-crash answer, then a SIGKILL while requests are held.
    let (mut child, addr, _stdout) = spawn(&["--workers", "2", "--debug-hooks"]);
    let (status, reference) = send(addr, req.as_bytes());
    assert_eq!(status, 200, "{reference}");
    let held: Vec<TcpStream> = ["sdk_vectoradd", "bfs_kernel1", "kmeans_invert_mapping"]
        .iter()
        .map(|k| {
            let mut s = TcpStream::connect(addr).unwrap();
            let body = format!("{{\"kernel\":\"{k}\",\"blocks\":4,\"hold_ms\":500}}");
            s.write_all(predict(&body).as_bytes()).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    assert!(send_sigkill(child.id()), "signal delivery failed");
    child.wait().unwrap();
    drop(held);

    // A restart warms, answers byte for byte as before the crash, and
    // still drains cleanly.
    let (mut child, addr, _stdout) = spawn(&["--workers", "2", "--warm", "sdk_vectoradd"]);
    let t0 = Instant::now();
    while get(addr, "/readyz").0 != 200 {
        assert!(t0.elapsed() < Duration::from_secs(60), "restart never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(send(addr, req.as_bytes()), (200, reference));
    assert_eq!(drain(&mut child).code(), Some(0), "drain must exit 0");
}
