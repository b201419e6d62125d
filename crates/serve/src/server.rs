//! The hardened server: bounded admission, load shedding, per-request
//! deadlines, slow-loris protection, and graceful drain.
//!
//! # Threading model
//!
//! One acceptor (the caller of [`Server::run`]) blocks in
//! [`TcpListener::accept`] and either *admits* a connection into a bounded
//! queue or *sheds* it with `429` + `Retry-After` when the queue is full.
//! A fixed pool of service workers sleeps on the queue's condvar, pops
//! admitted connections, parses the request under read timeouts and byte
//! limits, and executes predictions through the shared [`BatchEngine`]
//! (one warm [`ProfileCache`](gpumech_exec::ProfileCache) for the server's
//! lifetime). A failed request leaves nothing behind: the next request for
//! the same kernel runs as if it were the first. Nothing on the request path waits on a timer: a
//! request waits only for the work in front of it.
//!
//! # Drain
//!
//! [`ServerHandle::shutdown`] cancels the run token and then connects once
//! to wake the acceptor; with `handle_signals`, a watcher thread turns
//! SIGTERM / ctrl-c into the same call. The server then flips `/readyz` to
//! 503 and stops *admitting*: already-admitted requests run to completion,
//! new connections get an immediate typed `503 draining` (health endpoints
//! keep answering so orchestrators can watch the drain). If admitted work
//! is still running when the drain deadline expires, the shared in-flight
//! root token is cancelled and every remaining request aborts at its next
//! cooperative poll with a typed response — partial work is cancelled,
//! never leaked. A drained server drops its trace memo and profile cache
//! and hands the freed heap back to the kernel before [`Server::run`]
//! returns.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gpumech_core::{parse_selection, Model, ModelError};
use gpumech_exec::{BatchEngine, BatchJob, BatchOptions, ExecError};
use gpumech_isa::{SchedulingPolicy, SimConfig, UnknownWord};
use gpumech_obs::{signals, CancelToken};
use gpumech_trace::{workloads, KernelTrace, LaunchConfig, TraceError};

use crate::api::{parse_predict_body, predict_response_body, ApiError};
use crate::http::{parse_request, Limits, ParseError, Request, Response};

/// Server configuration. `Default` is tuned for tests and the local CLI;
/// the `gpumech serve` subcommand exposes every knob as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1`).
    pub addr: String,
    /// Bind port; `0` picks an ephemeral port (see [`Server::local_addr`]).
    pub port: u16,
    /// Service worker threads.
    pub workers: usize,
    /// Bounded admission queue capacity; a full queue sheds with 429.
    pub queue_cap: usize,
    /// Socket read timeout in milliseconds (slow-loris bound): a client
    /// that stalls mid-request this long gets `408` and is dropped.
    pub read_timeout_ms: u64,
    /// Default and maximum per-request deadline in milliseconds; a
    /// request's own `deadline_ms` may shorten but never extend it.
    pub request_timeout_ms: u64,
    /// Graceful-drain budget in milliseconds: how long shutdown waits for
    /// admitted requests before cancelling them.
    pub drain_ms: u64,
    /// Maximum request-line + header bytes before `413`.
    pub max_header_bytes: usize,
    /// Maximum body bytes before `413`.
    pub max_body_bytes: usize,
    /// Kernels to analyze before `/readyz` reports ready.
    pub warm: Vec<String>,
    /// Honor the debug `hold_ms` request field (deterministic load and
    /// drain tests only — never enable in production).
    pub debug_hooks: bool,
    /// Install SIGTERM/SIGINT handlers that trigger graceful drain.
    pub handle_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_cap: 32,
            read_timeout_ms: 2_000,
            request_timeout_ms: 30_000,
            drain_ms: 5_000,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            warm: Vec::new(),
            debug_hooks: false,
            handle_signals: false,
        }
    }
}

/// Why the server could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(std::io::Error),
    /// Configuring the listener failed.
    Listener(std::io::Error),
    /// A `warm` kernel is not in the catalogue.
    UnknownWarmKernel(String),
    /// The configuration is unusable (zero workers or queue).
    InvalidConfig(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind failed: {e}"),
            ServeError::Listener(e) => write!(f, "listener setup failed: {e}"),
            ServeError::UnknownWarmKernel(k) => write!(f, "unknown warm kernel {k:?}"),
            ServeError::InvalidConfig(m) => write!(f, "invalid serve configuration: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What one server run did, reported after drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections admitted and handled.
    pub requests: u64,
    /// Successful predictions.
    pub predicts_ok: u64,
    /// Connections shed with 429.
    pub shed: u64,
    /// Requests that hit their deadline (504).
    pub deadlines: u64,
    /// Typed client-side rejections (4xx).
    pub rejected: u64,
    /// Server-side failures (5xx).
    pub failed: u64,
    /// `true` when every admitted request finished inside the drain
    /// budget; `false` when the drain deadline forced cancellation.
    pub clean_drain: bool,
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} request(s): {} ok, {} rejected, {} deadline, {} failed; {} shed",
            self.requests, self.predicts_ok, self.rejected, self.deadlines, self.failed, self.shed
        )?;
        write!(f, "drain: {}", if self.clean_drain { "clean" } else { "forced (deadline hit)" })
    }
}

/// A handle that can request graceful shutdown from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    token: CancelToken,
    /// Where the wake-up connection goes: the bound address, on loopback
    /// when the server is bound to a wildcard address.
    wake: SocketAddr,
}

impl ServerHandle {
    /// Requests a graceful drain: stop admitting, finish in-flight work,
    /// then return from [`Server::run`]. Calling it again, or after `run`
    /// has returned, is harmless.
    pub fn shutdown(&self) {
        self.token.cancel();
        // The acceptor sleeps in `accept`: one throwaway connection wakes
        // it to find the token cancelled. Refused (and ignored) once the
        // server has returned and closed its listener.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// Shared mutable server state (everything workers and acceptor touch).
struct State {
    cfg: ServeConfig,
    engine: BatchEngine,
    traces: Mutex<HashMap<(String, usize), Arc<KernelTrace>>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cond: Condvar,
    /// Admitted connections not yet fully handled (queued + executing).
    active: AtomicUsize,
    /// Requests currently being parsed/executed by a worker.
    in_flight: AtomicUsize,
    /// `true` once shutdown was requested: `/readyz` 503, predict 503.
    draining: std::sync::atomic::AtomicBool,
    /// `true` once warm-up finished (and until drain).
    ready: std::sync::atomic::AtomicBool,
    /// `true` once workers should exit after emptying the queue. Set
    /// under the queue lock, so a worker between its check and its wait
    /// cannot miss the wake-up.
    stopping: std::sync::atomic::AtomicBool,
    /// Root ancestor of every per-request token; cancelled on forced drain.
    inflight_root: CancelToken,
    /// EWMA of successful predict service time, microseconds (0 = none).
    ewma_service_us: AtomicU64,
    started: Instant,
    // Summary counters (kept as plain atomics so the summary and the
    // Retry-After estimate work even with no recorder installed).
    n_requests: AtomicU64,
    n_ok: AtomicU64,
    n_shed: AtomicU64,
    n_deadline: AtomicU64,
    n_rejected: AtomicU64,
    n_failed: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl State {
    fn flag(&self, f: &std::sync::atomic::AtomicBool) -> bool {
        f.load(Ordering::SeqCst)
    }

    /// Suggested client backoff when shedding: the observed service-time
    /// EWMA times the backlog a new request would sit behind, clamped to
    /// a sane range. Before any request completes, a flat default.
    fn retry_after_ms(&self) -> u64 {
        let ewma_us = self.ewma_service_us.load(Ordering::Relaxed);
        if ewma_us == 0 {
            return 250;
        }
        let backlog = (self.active.load(Ordering::Relaxed) as u64).saturating_add(1);
        let workers = self.cfg.workers.max(1) as u64;
        (ewma_us.saturating_mul(backlog) / workers / 1_000).clamp(50, 30_000)
    }

    fn observe_service_time(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX).max(1);
        // Racy read-modify-write is fine: this is a smoothing estimate,
        // not an invariant.
        let old = self.ewma_service_us.load(Ordering::Relaxed);
        let next = if old == 0 { sample } else { (old.saturating_mul(7) + sample) / 8 };
        self.ewma_service_us.store(next, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running server. Splitting bind from run lets callers
/// learn the (possibly ephemeral) port before the accept loop blocks.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: State,
    run_token: CancelToken,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and builds the shared engine + cache.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the bind fails, the configuration is unusable,
    /// or a warm kernel is unknown.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".to_string()));
        }
        if cfg.queue_cap == 0 {
            return Err(ServeError::InvalidConfig("queue-cap must be >= 1".to_string()));
        }
        for k in &cfg.warm {
            if workloads::by_name(k).is_none() {
                return Err(ServeError::UnknownWarmKernel(k.clone()));
            }
        }
        let listener =
            TcpListener::bind((cfg.addr.as_str(), cfg.port)).map_err(ServeError::Bind)?;
        let local_addr = listener.local_addr().map_err(ServeError::Listener)?;
        if cfg.handle_signals {
            signals::install();
        }
        // One engine worker per call: each HTTP worker runs one job at a
        // time, so request-level parallelism comes from the HTTP pool
        // while the engine contributes the cache, cancellation, and
        // typed-error machinery.
        let engine = BatchEngine::new(1);
        let state = State {
            engine,
            traces: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            active: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            draining: std::sync::atomic::AtomicBool::new(false),
            ready: std::sync::atomic::AtomicBool::new(cfg.warm.is_empty()),
            stopping: std::sync::atomic::AtomicBool::new(false),
            inflight_root: CancelToken::never(),
            ewma_service_us: AtomicU64::new(0),
            started: Instant::now(),
            n_requests: AtomicU64::new(0),
            n_ok: AtomicU64::new(0),
            n_shed: AtomicU64::new(0),
            n_deadline: AtomicU64::new(0),
            n_rejected: AtomicU64::new(0),
            n_failed: AtomicU64::new(0),
            cfg,
        };
        Ok(Server { listener, local_addr, state, run_token: CancelToken::never() })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request graceful shutdown from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            // A wildcard bind also listens on loopback.
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        ServerHandle { token: self.run_token.clone(), wake }
    }

    /// Runs the accept loop until shutdown, then drains and returns the
    /// run summary. Blocking; spawn it (or call from `main`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Listener`] when the listener cannot be switched to
    /// non-blocking for the drain; admitted work is cancelled first.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let state = &self.state;
        let drained = std::thread::scope(|s| {
            for _ in 0..state.cfg.workers {
                s.spawn(move || worker_loop(state));
            }
            if !state.cfg.warm.is_empty() {
                s.spawn(move || warm_up(state));
            }
            if state.cfg.handle_signals {
                let handle = self.handle();
                s.spawn(move || watch_signals(&handle));
            }
            let drained = accept_loop(state, &self.listener, &self.run_token);
            {
                let _queue = lock(&state.queue);
                state.stopping.store(true, Ordering::SeqCst);
            }
            state.queue_cond.notify_all();
            drained
        });
        let clean = drained.map_err(ServeError::Listener)?;
        if clean {
            gpumech_obs::counter!("serve.drain.clean");
        }
        let summary = ServeSummary {
            requests: state.n_requests.load(Ordering::Relaxed),
            predicts_ok: state.n_ok.load(Ordering::Relaxed),
            shed: state.n_shed.load(Ordering::Relaxed),
            deadlines: state.n_deadline.load(Ordering::Relaxed),
            rejected: state.n_rejected.load(Ordering::Relaxed),
            failed: state.n_failed.load(Ordering::Relaxed),
            clean_drain: clean,
        };
        // The allocator keeps freed heap warm for the next prediction
        // (`gpumech_perf`'s `retain_heap`). A drained server makes none:
        // drop the trace memo and profile cache, then give every arena's
        // free heap, the exited workers' included, back to the kernel.
        drop(self);
        release_heap();
        Ok(summary)
    }
}

/// Returns free heap in every malloc arena to the kernel. A no-op off
/// glibc.
fn release_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's documented, thread-safe call; it
        // takes a plain integer, touches only memory malloc already owns
        // and frees nothing a caller still holds.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// With `handle_signals`: turns SIGTERM / ctrl-c into
/// [`ServerHandle::shutdown`], so the acceptor never polls for signals.
/// Exits once the run token is cancelled by either path.
fn watch_signals(handle: &ServerHandle) {
    while !handle.token.is_cancelled() {
        if signals::fired() {
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pre-analyzes the configured warm kernels into the shared cache, then
/// flips readiness. Failures are non-fatal: the kernel will simply be
/// analyzed on first request.
fn warm_up(state: &State) {
    for name in &state.cfg.warm {
        let Ok(trace) = lookup_trace(state, name, None) else { continue };
        let job = BatchJob::new(name.clone(), trace, SimConfig::table1());
        let _ = state.engine.run_with(&[job], &BatchOptions::default());
    }
    state.ready.store(true, Ordering::SeqCst);
}

/// The accept/drain loop. Returns `true` for a clean drain (all admitted
/// work finished inside the budget), `false` when cancellation was forced,
/// and the error when the listener cannot be made non-blocking to drain.
fn accept_loop(
    state: &State,
    listener: &TcpListener,
    run_token: &CancelToken,
) -> std::io::Result<bool> {
    // Serving: sleep in `accept` until a connection arrives. Shutdown
    // cancels the token before it connects, so the connection that finds
    // the token cancelled (the wake-up, or a client racing it) is the
    // drain's first.
    let first = loop {
        if run_token.is_cancelled() {
            break None;
        }
        match listener.accept() {
            Ok((stream, _peer)) if run_token.is_cancelled() => break Some(stream),
            Ok((stream, _peer)) => admit(state, stream),
            Err(_) => accept_failed(),
        }
    };

    // Draining: poll, so the deadline is checked while nobody connects.
    let t0 = Instant::now();
    state.draining.store(true, Ordering::SeqCst);
    state.ready.store(false, Ordering::SeqCst);
    if let Some(stream) = first {
        drain_connection(state, stream);
    }
    if let Err(e) = listener.set_nonblocking(true) {
        state.inflight_root.cancel();
        return Err(e);
    }
    loop {
        if state.active.load(Ordering::SeqCst) == 0 {
            return Ok(true);
        }
        if t0.elapsed() >= Duration::from_millis(state.cfg.drain_ms) {
            gpumech_obs::counter!("serve.drain.forced");
            state.inflight_root.cancel();
            return Ok(false);
        }
        match listener.accept() {
            // Not admitted: answer health probes, refuse work.
            Ok((stream, _peer)) => drain_connection(state, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => accept_failed(),
        }
    }
}

/// An `accept` that failed for the listener's sake (`EMFILE`,
/// `ECONNABORTED`, …) is counted and backed off from, so a failure that
/// repeats at once cannot spin the acceptor.
fn accept_failed() {
    gpumech_obs::counter!("serve.http.accept_errors");
    std::thread::sleep(Duration::from_millis(10));
}

/// Applies socket timeouts; a failure here means the socket is already
/// dead, in which case the subsequent read/write fails fast anyway.
fn configure_stream(state: &State, stream: &TcpStream) {
    let t = Duration::from_millis(state.cfg.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(t));
    let _ = stream.set_write_timeout(Some(t));
}

/// Admission control: enqueue the connection, or shed it with `429` and a
/// `Retry-After` derived from the observed service-time EWMA.
fn admit(state: &State, stream: TcpStream) {
    configure_stream(state, &stream);
    let mut stream = Some(stream);
    let depth = {
        let mut q = lock(&state.queue);
        if q.len() >= state.cfg.queue_cap {
            None
        } else {
            if let Some(s) = stream.take() {
                q.push_back(s);
            }
            state.active.fetch_add(1, Ordering::SeqCst);
            Some(q.len())
        }
    };
    match depth {
        Some(depth) => {
            #[allow(clippy::cast_precision_loss)]
            {
                gpumech_obs::gauge!("serve.queue.depth", depth as f64);
            }
            state.queue_cond.notify_one();
        }
        None => {
            // Shedding responds *without* reading the request: the whole
            // point is to spend ~nothing on work we refuse.
            state.n_shed.fetch_add(1, Ordering::Relaxed);
            gpumech_obs::counter!("serve.http.shed");
            let retry = state.retry_after_ms();
            let resp = ApiError::new(429, "shed", "admission queue is full")
                .with_retry_after_ms(retry)
                .response();
            if let Some(mut s) = stream {
                respond_and_close(&mut s, &resp);
            }
        }
    }
}

/// Serves one connection accepted during drain: health endpoints answer,
/// anything else gets a typed `503 draining`.
fn drain_connection(state: &State, mut stream: TcpStream) {
    configure_stream(state, &stream);
    let limits =
        Limits { max_header_bytes: state.cfg.max_header_bytes, max_body_bytes: state.cfg.max_body_bytes };
    let patience = Duration::from_millis(state.cfg.read_timeout_ms.max(1));
    let resp = match read_request(&mut stream, &limits, patience) {
        Ok(Some(req)) => match (req.method.as_str(), req.path()) {
            ("GET", "/healthz") => health_response(state),
            ("GET", "/readyz") => readyz_response(state),
            ("GET", "/metrics") => metrics_response(state),
            _ => ApiError::new(503, "draining", "server is draining; not accepting new work")
                .with_retry_after_ms(state.cfg.drain_ms)
                .response(),
        },
        Ok(None) => return,
        Err(e) => parse_error_response(state, &e),
    };
    respond_and_close(&mut stream, &resp);
}

/// The worker loop: pop admitted connections until stopping and the
/// queue is empty.
fn worker_loop(state: &State) {
    loop {
        let conn = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if state.flag(&state.stopping) {
                    break None;
                }
                q = state.queue_cond.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else { return };
        let n = state.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        #[allow(clippy::cast_precision_loss)]
        {
            gpumech_obs::gauge!("serve.req.in_flight", n as f64);
        }
        handle_connection(state, conn);
        let n = state.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        #[allow(clippy::cast_precision_loss)]
        {
            gpumech_obs::gauge!("serve.req.in_flight", n as f64);
        }
        state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reads one request off the stream under the configured limits.
///
/// `Ok(None)` means the client vanished before sending anything — not
/// worth a response. A stall (read timeout) maps to
/// [`ParseError::Incomplete`], which [`ParseError::status`] renders as
/// `408`; a connection cut mid-request maps to a `400`.
fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
    patience: Duration,
) -> Result<Option<Request>, ParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let t0 = Instant::now();
    loop {
        match parse_request(&buf, limits) {
            Ok((req, _consumed)) => return Ok(Some(req)),
            Err(ParseError::Incomplete) => {}
            Err(fatal) => return Err(fatal),
        }
        // A client dribbling one byte per read resets the socket timeout
        // every time; the whole-request patience budget does not reset.
        if t0.elapsed() > patience {
            return Err(ParseError::Incomplete);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(ParseError::BadRequestLine("truncated request".to_string()));
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Slow loris: the read timeout is the per-read patience
                // budget. The parser said Incomplete, the client said
                // nothing — give up with 408.
                return Err(ParseError::Incomplete);
            }
            Err(_) => return Ok(None),
        }
    }
}

/// Writes `resp`, then performs a lingering close: shut down the write
/// side and drain what the client already sent before dropping the
/// socket. Without this, closing with unread request bytes in the
/// receive buffer turns the close into a TCP RST that can destroy the
/// response in flight — exactly on the paths that matter most (shedding
/// without reading the body, aborting oversized headers mid-stream).
fn respond_and_close(stream: &mut TcpStream, resp: &Response) {
    let _ = resp.write_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let t0 = Instant::now();
    // Bounded drain: at most ~256 KiB or 500 ms, whichever comes first.
    for _ in 0..64 {
        if t0.elapsed() > Duration::from_millis(500) {
            break;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Counts one rejected (4xx) request on both of its `/metrics` lines:
/// `serve.req.rejected_total` and the recorder's `serve.req.rejected`.
fn count_rejected(state: &State) {
    state.n_rejected.fetch_add(1, Ordering::Relaxed);
    gpumech_obs::counter!("serve.req.rejected");
}

fn parse_error_response(state: &State, e: &ParseError) -> Response {
    count_rejected(state);
    gpumech_obs::counter!("serve.http.parse_errors");
    if e.status() == 408 {
        gpumech_obs::counter!("serve.http.timeouts");
    }
    ApiError::new(e.status(), e.code(), e.to_string()).response()
}

/// Parses, routes, executes, responds. Response write errors are ignored:
/// the client hanging up mid-response is its problem, not the server's.
fn handle_connection(state: &State, mut stream: TcpStream) {
    state.n_requests.fetch_add(1, Ordering::Relaxed);
    gpumech_obs::counter!("serve.http.requests");
    let limits =
        Limits { max_header_bytes: state.cfg.max_header_bytes, max_body_bytes: state.cfg.max_body_bytes };
    let t0 = Instant::now();
    // Whole-request patience: generous multiple of the per-read timeout
    // so slow-but-live clients finish while dribblers are bounded.
    let patience = Duration::from_millis(state.cfg.read_timeout_ms.max(1).saturating_mul(4));
    let resp = match read_request(&mut stream, &limits, patience) {
        Ok(Some(req)) => route(state, &req, t0),
        Ok(None) => return,
        Err(e) => parse_error_response(state, &e),
    };
    respond_and_close(&mut stream, &resp);
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Dispatches one parsed request and records the per-endpoint latency.
fn route(state: &State, req: &Request, t0: Instant) -> Response {
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => {
            let resp = health_response(state);
            gpumech_obs::histogram!("serve.healthz.latency_ms", elapsed_ms(t0));
            resp
        }
        ("GET", "/readyz") => {
            let resp = readyz_response(state);
            gpumech_obs::histogram!("serve.readyz.latency_ms", elapsed_ms(t0));
            resp
        }
        ("GET", "/metrics") => {
            let resp = metrics_response(state);
            gpumech_obs::histogram!("serve.metrics.latency_ms", elapsed_ms(t0));
            resp
        }
        ("POST", "/predict") => {
            let resp = match handle_predict(state, req) {
                Ok(resp) => resp,
                Err(e) => {
                    if e.status < 500 {
                        count_rejected(state);
                    } else {
                        state.n_failed.fetch_add(1, Ordering::Relaxed);
                        gpumech_obs::counter!("serve.req.failed");
                    }
                    e.response()
                }
            };
            gpumech_obs::histogram!("serve.predict.latency_ms", elapsed_ms(t0));
            resp
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/predict") => {
            count_rejected(state);
            ApiError::new(405, "method_not_allowed", format!("{} not allowed here", req.method))
                .response()
        }
        (_, path) => {
            count_rejected(state);
            ApiError::new(404, "not_found", format!("no such endpoint {path:?}")).response()
        }
    }
}

fn health_response(state: &State) -> Response {
    let uptime = state.started.elapsed().as_millis();
    Response::json(200, format!("{{\"status\":\"ok\",\"uptime_ms\":{uptime}}}"))
}

fn readyz_response(state: &State) -> Response {
    if state.flag(&state.draining) || state.flag(&state.stopping) {
        Response::json(503, "{\"status\":\"draining\"}")
    } else if state.flag(&state.ready) {
        Response::json(200, "{\"status\":\"ready\"}")
    } else {
        Response::json(503, "{\"status\":\"warming\"}")
    }
}

/// The 422 for a request word outside its vocabulary.
fn invalid_option(field: &str, e: &UnknownWord) -> ApiError {
    ApiError::new(422, "invalid_option", format!("{field} {e}"))
}

/// The 422 for a kernel static verification rejected, with its findings
/// and, when the tracer gave one, the reason.
fn rejected_by_analysis(
    kernel: &str,
    reason: Option<&dyn fmt::Display>,
    findings: &[String],
) -> ApiError {
    let why = reason.map(|r| format!(": {r}")).unwrap_or_default();
    ApiError::new(
        422,
        "rejected_by_analysis",
        format!("kernel {kernel:?} rejected by static analysis{why}"),
    )
    .with_findings(findings.to_vec())
}

/// Fetches (or computes and memoizes) the trace for `(kernel, blocks)`,
/// memoized under the block count it resolves to. A grid
/// [`LaunchConfig::try_new`] refuses is a 422.
fn lookup_trace(
    state: &State,
    kernel: &str,
    blocks: Option<usize>,
) -> Result<Arc<KernelTrace>, ApiError> {
    let mut w = workloads::by_name(kernel)
        .ok_or_else(|| ApiError::new(404, "kernel_not_found", format!("unknown kernel {kernel:?}")))?;
    if let Some(b) = blocks {
        w.launch = LaunchConfig::try_new(w.launch.threads_per_block, b)
            .map_err(|e| ApiError::new(422, "invalid_config", format!("blocks: {e}")))?;
    }
    let key = (kernel.to_string(), w.launch.num_blocks);
    if let Some(t) = lock(&state.traces).get(&key) {
        return Ok(Arc::clone(t));
    }
    let trace = w.trace().map_err(|e| match e {
        TraceError::RejectedByAnalysis { kernel, reason, findings } => {
            rejected_by_analysis(&kernel, Some(&reason), &findings)
        }
        other => ApiError::new(422, "trace_failed", other.to_string()),
    })?;
    let trace = Arc::new(trace);
    lock(&state.traces).insert(key, Arc::clone(&trace));
    Ok(trace)
}

/// Maps a per-job execution failure onto its API error.
fn exec_error_to_api(state: &State, kernel: &str, err: &ExecError) -> ApiError {
    match err {
        ExecError::Deadline => {
            state.n_deadline.fetch_add(1, Ordering::Relaxed);
            gpumech_obs::counter!("serve.req.deadline");
            ApiError::new(504, "deadline_exceeded", format!("prediction for {kernel:?} exceeded its deadline"))
        }
        ExecError::Cancelled => ApiError::new(
            503,
            "draining",
            "request cancelled: server drain deadline expired",
        ),
        ExecError::RejectedByAnalysis { kernel, findings } => {
            rejected_by_analysis(kernel, None, findings)
        }
        ExecError::Model(ModelError::Trace(TraceError::RejectedByAnalysis {
            kernel,
            reason,
            findings,
        })) => rejected_by_analysis(kernel, Some(reason), findings),
        ExecError::Model(ModelError::InvalidConfig(e)) => {
            ApiError::new(422, "invalid_config", e.to_string())
        }
        ExecError::Model(ModelError::InvalidRequest(m)) => {
            ApiError::new(422, "invalid_request", m.clone())
        }
        ExecError::Model(e) => ApiError::new(500, "model_failed", e.to_string()),
        ExecError::WorkerPanic { message, .. } => {
            ApiError::new(500, "internal", format!("worker panicked: {message}"))
        }
    }
}

/// The `POST /predict` handler.
fn handle_predict(state: &State, req: &Request) -> Result<Response, ApiError> {
    if state.flag(&state.draining) || state.flag(&state.stopping) {
        return Err(ApiError::new(503, "draining", "server is draining; not accepting new work")
            .with_retry_after_ms(state.cfg.drain_ms));
    }
    if !state.flag(&state.ready) {
        return Err(ApiError::new(503, "warming", "server is still warming its caches")
            .with_retry_after_ms(250));
    }
    let body = parse_predict_body(&req.body)?;
    let cfg = SimConfig::table1_with(body.warps, body.mshrs, body.bw, body.sfu)
        .map_err(|e| ApiError::new(422, "invalid_config", e.to_string()))?;
    let policy: SchedulingPolicy = body
        .policy
        .as_deref()
        .unwrap_or("rr")
        .parse()
        .map_err(|e| invalid_option("policy", &e))?;
    let model: Model =
        body.model.as_deref().unwrap_or("full").parse().map_err(|e| invalid_option("model", &e))?;
    let (selection, weighting) =
        parse_selection(body.selection.as_deref().unwrap_or("clustering"))
            .map_err(|e| invalid_option("selection", &e))?;

    let trace = lookup_trace(state, &body.kernel, body.blocks)?;

    // Per-request deadline: the request may shorten the server's budget
    // but never extend it; the token chains to the drain root so a forced
    // drain cancels in-flight work at its next poll.
    let deadline_ms =
        body.deadline_ms.unwrap_or(state.cfg.request_timeout_ms).clamp(1, state.cfg.request_timeout_ms);
    let token = state.inflight_root.child_with_timeout_ms(deadline_ms);

    // Debug hold: deterministic service time for load/drain tests. Polls
    // the token so deadlines and drain cancellation still bite mid-hold.
    if state.cfg.debug_hooks {
        if let Some(hold) = body.hold_ms {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(hold) {
                if let Err(why) = token.check() {
                    return Err(exec_error_to_api(state, &body.kernel, &why.into()));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    let mut job = BatchJob::new(body.kernel.clone(), trace, cfg);
    job.policy = policy;
    job.model = model;
    job.selection = selection;
    job.weighting = weighting;
    let opts = BatchOptions { cancel: Some(token), ..BatchOptions::default() };
    let t_exec = Instant::now();
    let mut results = state.engine.run_with(&[job], &opts);
    let outcome = results.pop().map(|r| r.map_err(|e| e.error));

    match outcome {
        Some(Ok(p)) => {
            state.observe_service_time(t_exec.elapsed());
            state.n_ok.fetch_add(1, Ordering::Relaxed);
            gpumech_obs::counter!("serve.req.ok");
            let body_json = predict_response_body(&body.kernel, &p)?;
            Ok(Response::json(200, body_json))
        }
        Some(Err(err)) => Err(exec_error_to_api(state, &body.kernel, &err)),
        None => Err(ApiError::new(500, "internal", "engine returned no result".to_string())),
    }
}

/// Renders the `/metrics` text exposition: one `name value` line per
/// aggregate from the installed recorder (counters, gauges, histogram
/// count/sum/p50/p99), plus the server's own liveness numbers — all
/// under the workspace's `stage.subsystem.name` scheme.
fn metrics_response(state: &State) -> Response {
    let mut out = String::with_capacity(2048);
    out.push_str("# gpumech-serve metrics\n");
    out.push_str(&format!(
        "serve.http.requests_total {}\nserve.http.shed_total {}\nserve.req.ok_total {}\n",
        state.n_requests.load(Ordering::Relaxed),
        state.n_shed.load(Ordering::Relaxed),
        state.n_ok.load(Ordering::Relaxed),
    ));
    out.push_str(&format!(
        "serve.req.deadline_total {}\nserve.req.rejected_total {}\nserve.req.failed_total {}\n",
        state.n_deadline.load(Ordering::Relaxed),
        state.n_rejected.load(Ordering::Relaxed),
        state.n_failed.load(Ordering::Relaxed),
    ));
    out.push_str(&format!(
        "serve.queue.depth {}\nserve.req.in_flight {}\nserve.queue.capacity {}\n",
        lock(&state.queue).len(),
        state.in_flight.load(Ordering::Relaxed),
        state.cfg.queue_cap,
    ));
    out.push_str(&format!(
        "serve.http.ready {}\nserve.http.draining {}\nserve.req.ewma_service_us {}\n",
        u8::from(state.flag(&state.ready)),
        u8::from(state.flag(&state.draining)),
        state.ewma_service_us.load(Ordering::Relaxed),
    ));
    if let Some(rec) = gpumech_obs::installed() {
        let snap = rec.snapshot();
        for (name, agg) in &snap.counters {
            out.push_str(&format!("{name} {}\n", agg.total));
        }
        for (name, agg) in &snap.gauges {
            out.push_str(&format!("{name} {}\n", agg.last));
        }
        for (name, agg) in &snap.hists {
            out.push_str(&format!("{name}_count {}\n{name}_sum {}\n", agg.count, agg.sum));
            out.push_str(&format!(
                "{name}_p50 {}\n{name}_p90 {}\n{name}_p99 {}\n",
                agg.quantile(0.50).unwrap_or(0.0),
                agg.quantile(0.90).unwrap_or(0.0),
                agg.quantile(0.99).unwrap_or(0.0),
            ));
        }
    }
    Response::text(200, out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_unusable_configs() {
        let err =
            Server::bind(ServeConfig { workers: 0, ..ServeConfig::default() }).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        let err = Server::bind(ServeConfig { queue_cap: 0, ..ServeConfig::default() })
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        let err = Server::bind(ServeConfig {
            warm: vec!["no_such_kernel".to_string()],
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServeError::UnknownWarmKernel(_)), "{err}");
    }

    #[test]
    fn metrics_quantiles_come_from_histogram_agg() {
        let mut agg = gpumech_obs::HistogramAgg::default();
        for v in [2.0, 2.0, 60.0, 60.0] {
            agg.observe(v);
        }
        let p50 = agg.quantile(0.50).unwrap();
        let p99 = agg.quantile(0.99).unwrap();
        assert!((2.0..=2.5).contains(&p50), "p50={p50}");
        assert!((48.0..=60.0).contains(&p99), "p99={p99}");
        assert!(gpumech_obs::HistogramAgg::default().quantile(0.99).is_none());
    }
}
