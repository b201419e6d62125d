//! End-to-end service tests over real sockets: admission + load-shed
//! semantics, per-request deadlines, graceful and forced drain,
//! slow-loris/oversize protection, and typed error mapping.
//!
//! Tests are serialized (one server at a time) because the observability
//! recorder is process-global and the container is small; each test
//! still runs in well under a second of wall time.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_serve::{predict_response_body, ServeConfig, ServeSummary, Server, ServerHandle};
use gpumech_trace::workloads;

/// Serializes every test in this file: one server, one recorder at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<ServeSummary>,
}

impl Running {
    fn start(cfg: ServeConfig) -> Running {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("run"));
        Running { addr, handle, join }
    }

    fn stop(self) -> ServeSummary {
        self.handle.shutdown();
        self.join.join().expect("server thread")
    }
}

/// A parsed response: status, headers (lowercased names), body.
#[derive(Debug)]
struct Resp {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// Writes `raw` and reads the full response (connection: close framing).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> Resp {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw).expect("write");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read");
    parse_response(&buf)
}

fn parse_response(buf: &[u8]) -> Resp {
    let text = String::from_utf8_lossy(buf);
    let (head, body) = text.split_once("\r\n\r\n").expect("response framing");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((n, v)) = line.split_once(':') {
            headers.insert(n.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    Resp { status, headers, body: body.to_string() }
}

fn get(addr: SocketAddr, path: &str) -> Resp {
    send_raw(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

fn predict(addr: SocketAddr, body: &str) -> Resp {
    send_raw(
        addr,
        format!(
            "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Extracts `name value` from the `/metrics` text exposition.
fn metric_line(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

#[test]
fn health_endpoints_and_routing() {
    let _g = guard();
    let srv = Running::start(ServeConfig::default());
    let h = get(srv.addr, "/healthz");
    assert_eq!(h.status, 200, "{}", h.body);
    assert!(h.body.contains("\"status\":\"ok\""), "{}", h.body);
    let r = get(srv.addr, "/readyz");
    assert_eq!(r.status, 200, "{}", r.body);
    let m = get(srv.addr, "/metrics");
    assert_eq!(m.status, 200);
    assert!(m.body.contains("serve.http.requests_total"), "{}", m.body);
    assert_eq!(get(srv.addr, "/nope").status, 404);
    let bad_method = send_raw(srv.addr, b"POST /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    assert_eq!(bad_method.status, 405);
    let summary = srv.stop();
    assert!(summary.clean_drain);
    assert!(summary.requests >= 5, "{summary:?}");
}

#[test]
fn sequential_round_trips_wait_only_for_their_own_work() {
    let _g = guard();
    let srv = Running::start(ServeConfig::default());
    assert_eq!(get(srv.addr, "/healthz").status, 200);
    // Each request connects only after the previous answer arrived, so an
    // acceptor or worker that waits on a timer pays it once per request.
    let t0 = Instant::now();
    for _ in 0..200 {
        assert_eq!(get(srv.addr, "/healthz").status, 200);
    }
    let elapsed = t0.elapsed();
    srv.stop();
    assert!(elapsed < Duration::from_millis(200), "200 health round trips took {elapsed:?}");
}

#[test]
fn shutdown_wakes_an_idle_wildcard_server_and_repeats_harmlessly() {
    let _g = guard();
    let srv = Running::start(ServeConfig { addr: "0.0.0.0".to_string(), ..ServeConfig::default() });
    let loopback = SocketAddr::from(([127, 0, 0, 1], srv.addr.port()));
    // Answered, so the acceptor is (back) in `accept` with nothing queued.
    assert_eq!(get(loopback, "/healthz").status, 200);
    let handle = srv.handle.clone();
    let t0 = Instant::now();
    let summary = srv.stop();
    assert!(t0.elapsed() < Duration::from_secs(1), "shutdown took {:?}", t0.elapsed());
    assert!(summary.clean_drain, "{summary:?}");
    assert_eq!(summary.requests, 1, "the wake-up connection counted as a request: {summary:?}");
    // After `run` returned: nothing listens, nothing happens.
    let t0 = Instant::now();
    handle.shutdown();
    handle.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "late shutdown took {:?}", t0.elapsed());
}

#[test]
fn predict_round_trips_byte_identical_to_sequential() {
    let _g = guard();
    let srv = Running::start(ServeConfig::default());
    let resp = predict(srv.addr, r#"{"kernel":"sdk_vectoradd","blocks":2}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.headers.get("content-type").map(String::as_str), Some("application/json"));

    let trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2).trace().unwrap();
    let model = Gpumech::new(SimConfig::table1());
    let p = model.run(&PredictionRequest::from_trace(&trace)).unwrap();
    let expected = predict_response_body("sdk_vectoradd", &p).unwrap();
    assert_eq!(resp.body, expected, "served response is not byte-identical to sequential");
    srv.stop();
}

#[test]
fn typed_client_errors() {
    let _g = guard();
    let srv = Running::start(ServeConfig::default());
    for (body, status, code, message) in [
        ("not json", 400, "bad_json", "request body is not JSON"),
        (r#"{"kernel":"no_such_kernel"}"#, 404, "kernel_not_found", "unknown kernel"),
        (
            r#"{"kernel":"sdk_vectoradd","mshrs":0}"#,
            422,
            "invalid_config",
            "configuration field num_mshrs must be non-zero",
        ),
        (
            r#"{"kernel":"sdk_vectoradd","policy":"lifo"}"#,
            422,
            "invalid_option",
            r#"policy must be rr|gto, got \"lifo\""#,
        ),
        (
            r#"{"kernel":"sdk_vectoradd","model":"quantum"}"#,
            422,
            "invalid_option",
            r#"model must be naive|markov|mt|mt_mshr|full, got \"quantum\""#,
        ),
        (
            r#"{"kernel":"sdk_vectoradd","selection":"random"}"#,
            422,
            "invalid_option",
            r#"selection must be max|min|clustering|weighted, got \"random\""#,
        ),
        (r#"{"kernel":"sdk_vectoradd","bogus":1}"#, 400, "unknown_field", "bogus"),
        (
            r#"{"kernel":"sdk_vectoradd","blocks":0}"#,
            422,
            "invalid_config",
            "blocks: num_blocks must be non-zero",
        ),
    ] {
        let resp = predict(srv.addr, body);
        assert_eq!(resp.status, status, "{body} -> {}", resp.body);
        assert!(resp.body.contains(&format!("\"error\":\"{code}\"")), "{body} -> {}", resp.body);
        assert!(resp.body.contains(message), "{body} -> {}", resp.body);
    }
    let summary = srv.stop();
    assert_eq!(summary.rejected, 8, "{summary:?}");
}

#[test]
fn load_shed_full_queue_gets_429_and_in_flight_completes_identically() {
    let _g = guard();
    let rec = Arc::new(Recorder::new());
    let _obs = gpumech_obs::install(Arc::clone(&rec));
    let srv = Running::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        debug_hooks: true,
        ..ServeConfig::default()
    });
    let addr = srv.addr;

    // A occupies the single worker; B fills the single queue slot.
    let body = r#"{"kernel":"sdk_vectoradd","blocks":2,"hold_ms":900}"#;
    let a = std::thread::spawn(move || predict(addr, body));
    std::thread::sleep(Duration::from_millis(250));
    let b = std::thread::spawn(move || predict(addr, body));
    std::thread::sleep(Duration::from_millis(250));

    // The next three connections must shed instantly with Retry-After.
    let mut shed_observed = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let resp = predict(addr, body);
        assert_eq!(resp.status, 429, "{}", resp.body);
        assert!(t0.elapsed() < Duration::from_millis(500), "shed was not fast");
        assert!(resp.body.contains("\"error\":\"shed\""), "{}", resp.body);
        let secs: u64 = resp.headers.get("retry-after").expect("retry-after").parse().unwrap();
        assert!((1..=30).contains(&secs), "insane Retry-After {secs}s");
        let ms: u64 =
            resp.headers.get("x-retry-after-ms").expect("x-retry-after-ms").parse().unwrap();
        assert!((50..=30_000).contains(&ms), "insane retry ms {ms}");
        shed_observed += 1;
    }

    // In-flight and queued requests complete byte-identically to a
    // sequential in-process run (hold_ms only delays, never perturbs).
    let trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2).trace().unwrap();
    let model = Gpumech::new(SimConfig::table1());
    let p = model.run(&PredictionRequest::from_trace(&trace)).unwrap();
    let expected = predict_response_body("sdk_vectoradd", &p).unwrap();
    for (who, t) in [("A", a), ("B", b)] {
        let resp = t.join().unwrap();
        assert_eq!(resp.status, 200, "{who}: {}", resp.body);
        assert_eq!(resp.body, expected, "{who} not byte-identical");
    }

    // The shed counter matches the observed 429 count — in the /metrics
    // exposition, in the recorder aggregate, and in the run summary.
    let metrics = get(addr, "/metrics");
    assert_eq!(
        metric_line(&metrics.body, "serve.http.shed_total"),
        Some(shed_observed as f64),
        "{}",
        metrics.body
    );
    assert_eq!(
        metric_line(&metrics.body, "serve.http.shed"),
        Some(shed_observed as f64),
        "recorder counter drifted from observed sheds:\n{}",
        metrics.body
    );
    let summary = srv.stop();
    assert_eq!(summary.shed, shed_observed, "{summary:?}");
    assert_eq!(summary.predicts_ok, 2, "{summary:?}");
    let snap = rec.snapshot();
    assert_eq!(snap.counters.get("serve.http.shed").map(|c| c.total), Some(shed_observed));
}

#[test]
fn both_rejection_counters_count_routing_and_parse_errors() {
    let _g = guard();
    let rec = Arc::new(Recorder::new());
    let _obs = gpumech_obs::install(Arc::clone(&rec));
    let srv = Running::start(ServeConfig::default());
    assert_eq!(get(srv.addr, "/nope").status, 404);
    assert_eq!(send_raw(srv.addr, b"GARBAGE\r\n\r\n").status, 400);
    let metrics = get(srv.addr, "/metrics");
    for name in ["serve.req.rejected_total", "serve.req.rejected"] {
        assert_eq!(metric_line(&metrics.body, name), Some(2.0), "{name}:\n{}", metrics.body);
    }
    let summary = srv.stop();
    assert_eq!(summary.rejected, 2, "{summary:?}");
}

#[test]
fn per_request_deadline_maps_to_504_and_cancels_partial_work() {
    let _g = guard();
    let srv = Running::start(ServeConfig { debug_hooks: true, ..ServeConfig::default() });
    let t0 = Instant::now();
    let resp = predict(
        srv.addr,
        r#"{"kernel":"sdk_vectoradd","blocks":2,"hold_ms":30000,"deadline_ms":150}"#,
    );
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("\"error\":\"deadline_exceeded\""), "{}", resp.body);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline did not cancel the hold: {:?}",
        t0.elapsed()
    );
    let metrics = get(srv.addr, "/metrics");
    assert_eq!(metric_line(&metrics.body, "serve.req.deadline_total"), Some(1.0));
    let summary = srv.stop();
    assert_eq!(summary.deadlines, 1, "{summary:?}");
    assert!(summary.clean_drain, "{summary:?}");
}

#[test]
fn a_request_that_ran_out_of_time_in_the_engine_leaves_nothing_behind() {
    let _g = guard();
    let srv = Running::start(ServeConfig::default());
    // No debug hold: the 1 ms budget starts after the trace lookup and
    // expires in the engine's cache simulation of a cold kernel.
    for _ in 0..2 {
        let resp = predict(srv.addr, r#"{"kernel":"parboil_sgemm","deadline_ms":1}"#);
        assert_eq!(resp.status, 504, "{}", resp.body);
        assert!(resp.body.contains("\"error\":\"deadline_exceeded\""), "{}", resp.body);
    }
    // The same kernel under the default budget predicts as if the failed
    // requests had never been made.
    let resp = predict(srv.addr, r#"{"kernel":"parboil_sgemm"}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let trace = workloads::by_name("parboil_sgemm").unwrap().trace().unwrap();
    let p = Gpumech::new(SimConfig::table1()).run(&PredictionRequest::from_trace(&trace)).unwrap();
    assert_eq!(resp.body, predict_response_body("parboil_sgemm", &p).unwrap());
    let summary = srv.stop();
    assert_eq!(summary.deadlines, 2, "{summary:?}");
}

#[test]
fn graceful_drain_finishes_admitted_work_and_refuses_new() {
    let _g = guard();
    let srv = Running::start(ServeConfig {
        workers: 1,
        debug_hooks: true,
        ..ServeConfig::default()
    });
    let addr = srv.addr;
    let body = r#"{"kernel":"sdk_vectoradd","blocks":2,"hold_ms":800}"#;
    let a = std::thread::spawn(move || predict(addr, body));
    std::thread::sleep(Duration::from_millis(250));
    srv.handle.shutdown();
    std::thread::sleep(Duration::from_millis(100));

    // During drain: health answers, readiness is down, work is refused.
    let h = get(addr, "/healthz");
    assert_eq!(h.status, 200, "{}", h.body);
    let r = get(addr, "/readyz");
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.body.contains("draining"), "{}", r.body);
    let refused = predict(addr, r#"{"kernel":"sdk_vectoradd","blocks":2}"#);
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(refused.body.contains("\"error\":\"draining\""), "{}", refused.body);

    // The admitted request still completes successfully.
    let resp = a.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let summary = srv.join.join().unwrap();
    assert!(summary.clean_drain, "{summary:?}");
    assert_eq!(summary.predicts_ok, 1, "{summary:?}");
}

#[test]
fn forced_drain_cancels_stragglers_with_a_typed_response() {
    let _g = guard();
    let srv = Running::start(ServeConfig {
        workers: 1,
        drain_ms: 200,
        debug_hooks: true,
        ..ServeConfig::default()
    });
    let addr = srv.addr;
    let a = std::thread::spawn(move || {
        predict(addr, r#"{"kernel":"sdk_vectoradd","blocks":2,"hold_ms":30000}"#)
    });
    std::thread::sleep(Duration::from_millis(250));
    srv.handle.shutdown();
    let resp = a.join().unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("drain deadline"), "{}", resp.body);
    let summary = srv.join.join().unwrap();
    assert!(!summary.clean_drain, "{summary:?}");
}

#[test]
fn slow_loris_times_out_with_408() {
    let _g = guard();
    let srv = Running::start(ServeConfig { read_timeout_ms: 150, ..ServeConfig::default() });
    let mut s = TcpStream::connect(srv.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A request that never finishes arriving.
    s.write_all(b"GET /healthz HT").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let resp = parse_response(&buf);
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(resp.body.contains("request_timeout"), "{}", resp.body);
    srv.stop();
}

#[test]
fn oversized_inputs_map_to_413() {
    let _g = guard();
    let srv = Running::start(ServeConfig {
        max_header_bytes: 256,
        max_body_bytes: 256,
        ..ServeConfig::default()
    });
    // Declared-oversize body: rejected from the Content-Length alone.
    let resp = send_raw(
        srv.addr,
        b"POST /predict HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n",
    );
    assert_eq!(resp.status, 413, "{}", resp.body);
    // Oversize headers: rejected mid-stream without waiting for the end.
    let mut raw = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', 4096));
    let resp = send_raw(srv.addr, &raw);
    assert_eq!(resp.status, 413, "{}", resp.body);
    srv.stop();
}

#[test]
fn mid_body_disconnects_leave_the_server_healthy() {
    let _g = guard();
    let srv = Running::start(ServeConfig { read_timeout_ms: 150, ..ServeConfig::default() });
    for _ in 0..5 {
        let mut s = TcpStream::connect(srv.addr).unwrap();
        // Promise 26 bytes, send 7, vanish.
        s.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 26\r\n\r\n{\"kern")
            .unwrap();
        drop(s);
    }
    // Give the workers a moment to chew through the carcasses, then the
    // server must still answer real requests.
    std::thread::sleep(Duration::from_millis(400));
    let resp = predict(srv.addr, r#"{"kernel":"sdk_vectoradd","blocks":2}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    srv.stop();
}

#[test]
fn warm_kernels_gate_readiness() {
    let _g = guard();
    let srv = Running::start(ServeConfig {
        warm: vec!["sdk_vectoradd".to_string()],
        ..ServeConfig::default()
    });
    // Warming may finish fast; poll until ready (bounded).
    let t0 = Instant::now();
    loop {
        let r = get(srv.addr, "/readyz");
        if r.status == 200 {
            break;
        }
        assert!(r.body.contains("warming"), "{}", r.body);
        assert!(t0.elapsed() < Duration::from_secs(30), "never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = predict(srv.addr, r#"{"kernel":"sdk_vectoradd"}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A memoized default grid does not stand in for an invalid one.
    let resp = predict(srv.addr, r#"{"kernel":"sdk_vectoradd","blocks":0}"#);
    assert_eq!(resp.status, 422, "{}", resp.body);
    srv.stop();
}
