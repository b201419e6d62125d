//! `serve_closed`: the `POST /predict` scenario. An in-process
//! `gpumech_serve::Server` (2 workers, queue of 8) on loopback and two
//! closed-loop clients, each sending its next request when the previous one
//! completed, one connection per request. 95% of a pass's requests are warm
//! (a hot kernel the server has traced and analyzed), 5% are cold (a
//! `(kernel, blocks)` pair it has never seen).
//!
//! Every pass starts a fresh server and warms the hot kernels before the
//! clients start, so cold requests stay cold in every pass and the server's
//! unbounded trace memo holds one pass's worth of traces, not a run's.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumech_core::{Analysis, Gpumech, Model, PredictionRequest, SchedulingPolicy};
use gpumech_exec::{BatchEngine, BatchJob, ProfileCache};
use gpumech_isa::SimConfig;
use gpumech_serve::{
    parse_predict_body, parse_request, predict_response_body, Limits, ServeConfig, Server,
};
use gpumech_trace::{workloads, KernelTrace};

use super::{
    canon_of, fnv1a, ns, ratio, timed, Metrics, Mode, OpSample, PassResult, SpanTotals, Workload,
};
use crate::plan::{serve_requests, ServeRequest, DIVERGENT, REGULAR, SERVE_HOT, WAVE_BLOCKS};
use crate::spans::{merge, Recorder, Span};
use crate::stats::{mean, percentile};

/// Closed-loop clients, and server workers. The host must have a CPU for
/// each client or the load generator competes with itself.
pub const CLIENTS: usize = 2;
const QUEUE_CAP: usize = 8;

struct Hot {
    name: &'static str,
    trace: Arc<KernelTrace>,
    analysis: Analysis,
}

pub struct Serve {
    requests: Vec<ServeRequest>,
    /// Each request as sent on the wire.
    wire: Vec<Vec<u8>>,
    /// What a correct response body ends with: the canonical prediction of
    /// the same input by the plain sequential call.
    expected: Vec<String>,
    hot: Vec<Hot>,
    /// (cold, wall in ns) of every request of the traced passes.
    traced_walls: Vec<(bool, u64)>,
    /// Responses of the traced passes by status class: 2xx, 4xx, 5xx, 429.
    statuses: [u64; 4],
}

fn policy_of(name: &str) -> SchedulingPolicy {
    if name == "gto" {
        SchedulingPolicy::GreedyThenOldest
    } else {
        SchedulingPolicy::RoundRobin
    }
}

fn model_of(name: &str) -> Model {
    match name {
        "mt" => Model::Mt,
        "mt_mshr" => Model::MtMshr,
        _ => Model::MtMshrBand,
    }
}

fn config_of(r: &ServeRequest) -> SimConfig {
    SimConfig::table1()
        .with_mshrs(r.mshrs)
        .with_dram_bandwidth(r.bw)
}

fn wire_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request over its own connection: status code and body.
fn round_trip(addr: SocketAddr, wire: &[u8], rec: &Recorder) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = rec
        .span("serve.connect", || TcpStream::connect(addr))
        .map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    rec.span("serve.send", || stream.write_all(wire))
        .map_err(io)?;
    let mut buf = Vec::with_capacity(16 * 1024);
    rec.span("serve.recv", || stream.read_to_end(&mut buf))
        .map_err(io)?;
    let status = buf
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response has no status line")?;
    let at = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    Ok((status, buf.split_off(at + 4)))
}

impl Serve {
    /// Draws the request mix from `seed`, computes the reference prediction
    /// of every distinct input with the sequential API, and runs one whole
    /// pass against a server as a warm-up.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cpus < CLIENTS {
            return Err(format!(
                "serve_closed runs {CLIENTS} load-generator threads but the host has {cpus} CPU(s)"
            ));
        }
        let model = Gpumech::new(SimConfig::table1());
        let mut hot = Vec::new();
        for name in SERVE_HOT {
            let w = workloads::by_name(name)
                .ok_or_else(|| format!("kernel {name:?} is not in the library"))?
                .with_blocks(WAVE_BLOCKS);
            let trace = Arc::new(w.trace().map_err(|e| format!("trace {name}: {e}"))?);
            let analysis = model
                .analyze(&trace)
                .map_err(|e| format!("analyze {name}: {e}"))?;
            hot.push(Hot {
                name,
                trace,
                analysis,
            });
        }
        let library: Vec<&'static str> = REGULAR.iter().chain(DIVERGENT.iter()).copied().collect();
        let requests = serve_requests(seed, &library);
        let mut by_body: HashMap<String, String> = HashMap::new();
        let mut wire = Vec::with_capacity(requests.len());
        let mut expected = Vec::with_capacity(requests.len());
        for r in &requests {
            let body = r.body();
            wire.push(wire_bytes(&body));
            if let Some(e) = by_body.get(&body) {
                expected.push(e.clone());
                continue;
            }
            let model = Gpumech::new(config_of(r));
            let p = match hot.iter().find(|h| !r.cold && h.name == r.kernel) {
                Some(h) => model.run(
                    &PredictionRequest::from_analysis(&h.analysis)
                        .policy(policy_of(r.policy))
                        .model(model_of(r.model)),
                ),
                None => {
                    let w = workloads::by_name(r.kernel)
                        .ok_or_else(|| format!("kernel {:?} is not in the library", r.kernel))?
                        .with_blocks(r.blocks);
                    model.run(
                        &PredictionRequest::from_workload(&w)
                            .policy(policy_of(r.policy))
                            .model(model_of(r.model)),
                    )
                }
            }
            .map_err(|e| format!("reference for {body}: {e}"))?;
            let e = format!("\"prediction\":{}}}", canon_of(&p));
            by_body.insert(body, e.clone());
            expected.push(e);
        }
        let mut serve = Self {
            requests,
            wire,
            expected,
            hot,
            traced_walls: Vec::new(),
            statuses: [0; 4],
        };
        let order: Vec<usize> = (0..serve.ops()).collect();
        let warm = serve.pass(&order, Mode::Untraced)?;
        if let Some(bad) = warm.samples.iter().find(|s| !s.ok) {
            return Err(format!(
                "warm-up request {} got no or a wrong prediction",
                serve.requests[bad.op].body()
            ));
        }
        Ok(serve)
    }

    /// Makes the server trace and analyze every hot kernel.
    fn warm_server(&self, addr: SocketAddr) -> Result<(), String> {
        for h in &self.hot {
            let body = format!("{{\"kernel\":\"{}\",\"blocks\":{WAVE_BLOCKS}}}", h.name);
            let (status, _) = round_trip(addr, &wire_bytes(&body), &Recorder::off())?;
            if status != 200 {
                return Err(format!("warming {} answered {status}", h.name));
            }
        }
        Ok(())
    }

    /// The requests of one client: it takes the next unsent request of
    /// `order` until none is left.
    fn client(
        &self,
        addr: SocketAddr,
        order: &[usize],
        next: &AtomicUsize,
        mode: Mode,
    ) -> (Vec<OpSample>, Vec<Span>, Vec<u16>) {
        let rec = mode.recorder();
        let mut samples = Vec::new();
        let mut statuses = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = order.get(k) else { break };
            rec.set_op(mode.op_base() + k as u64);
            let (resp, wall_ns) = timed(&rec, || round_trip(addr, &self.wire[i], &rec));
            let (status, ok) = match resp {
                Ok((status, body)) => (
                    status,
                    status == 200 && body.ends_with(self.expected[i].as_bytes()),
                ),
                Err(_) => (0, false),
            };
            statuses.push(status);
            samples.push(OpSample { op: i, wall_ns, ok });
        }
        (samples, rec.take(), statuses)
    }
}

impl Workload for Serve {
    fn ops(&self) -> usize {
        self.requests.len()
    }

    fn pass(&mut self, order: &[usize], mode: Mode) -> Result<PassResult, String> {
        let server = Server::bind(ServeConfig {
            workers: CLIENTS,
            queue_cap: QUEUE_CAP,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let handle = server.handle();
        let server = std::thread::spawn(move || server.run());
        let measured = self.warm_server(addr).map(|()| {
            let next = AtomicUsize::new(0);
            let t0 = Instant::now();
            let parts: Vec<_> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|_| s.spawn(|| self.client(addr, order, &next, mode)))
                    .collect();
                clients.into_iter().filter_map(|c| c.join().ok()).collect()
            });
            (parts, ns(t0.elapsed()))
        });
        // Stop and join the server whether or not the pass worked.
        handle.shutdown();
        let summary = server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        summary.map_err(|e| e.to_string())?;
        let (parts, wall_ns) = measured?;
        if parts.len() != CLIENTS {
            return Err("a client thread panicked".to_owned());
        }
        let mut result = PassResult {
            samples: Vec::new(),
            wall_ns,
            spans: Vec::new(),
        };
        for (samples, spans, statuses) in parts {
            if let Mode::Traced { .. } = mode {
                self.traced_walls.extend(
                    samples
                        .iter()
                        .map(|s| (self.requests[s.op].cold, s.wall_ns)),
                );
                for status in statuses {
                    let class = match status {
                        429 => 3,
                        200..=299 => 0,
                        400..=499 => 1,
                        _ => 2,
                    };
                    self.statuses[class] += 1;
                }
            }
            result.samples.extend(samples);
            merge(&mut result.spans, spans);
        }
        Ok(result)
    }

    fn sim_digest(&self) -> u64 {
        // In request-index order, which the seed fixes.
        fnv1a(self.expected.iter().map(String::as_bytes))
    }

    /// Every tenth request, outside the server: parsing the bytes, the same
    /// job run directly on a private engine, and rendering the response.
    fn probes(&mut self, epoch: Instant) -> Result<Vec<Span>, String> {
        let rec = Recorder::on(epoch);
        let engine = BatchEngine::with_cache(1, ProfileCache::in_memory());
        for h in &self.hot {
            let job = BatchJob::new(h.name, Arc::clone(&h.trace), SimConfig::table1());
            engine
                .run(&[job])
                .pop()
                .ok_or("no result")?
                .map_err(|e| e.to_string())?;
        }
        let limits = Limits::default();
        for (i, r) in self.requests.iter().enumerate().step_by(10) {
            rec.set_op(i as u64);
            rec.span("probe.serve.parse", || {
                parse_request(&self.wire[i], &limits)
                    .map_err(|e| e.to_string())
                    .and_then(|(req, _)| parse_predict_body(&req.body).map_err(|e| e.message))
            })?;
            let job_for = |trace: Arc<KernelTrace>| {
                let mut job = BatchJob::new(r.kernel, trace, config_of(r));
                job.policy = policy_of(r.policy);
                job.model = model_of(r.model);
                job
            };
            let out = match self.hot.iter().find(|h| !r.cold && h.name == r.kernel) {
                Some(h) => rec.span("probe.serve.pipeline_warm", || {
                    engine.run(&[job_for(Arc::clone(&h.trace))])
                }),
                None => {
                    let w = workloads::by_name(r.kernel)
                        .ok_or("kernel vanished from the library")?
                        .with_blocks(r.blocks);
                    rec.span("probe.serve.pipeline_cold", || {
                        w.trace().map(|t| engine.run(&[job_for(Arc::new(t))]))
                    })
                    .map_err(|e| e.to_string())?
                }
            };
            let p = out
                .into_iter()
                .next()
                .ok_or("no result")?
                .map_err(|e| e.to_string())?;
            let body = rec
                .span("probe.serve.render", || predict_response_body(r.kernel, &p))
                .map_err(|e| e.message)?;
            if !body.ends_with(&self.expected[i]) {
                return Err(format!(
                    "pipeline probe of {} differs from its reference",
                    r.body()
                ));
            }
        }
        Ok(rec.take())
    }

    fn layer_metrics(&self, spans: &[Span], traced_passes: usize, out: &mut Metrics) {
        let t = SpanTotals::new(spans);
        let walls_ms = |cold: bool| -> Vec<f64> {
            self.traced_walls
                .iter()
                .filter(|w| w.0 == cold)
                .map(|w| w.1 as f64 / 1e6)
                .collect()
        };
        let (warm, cold) = (walls_ms(false), walls_ms(true));
        let parse_ns = t.mean_ns("probe.serve.parse");
        let render_ns = t.mean_ns("probe.serve.render");
        let warm_ns = t.mean_ns("probe.serve.pipeline_warm");
        let cold_ns = t.mean_ns("probe.serve.pipeline_cold");
        out.insert("serve.warm_p50_ms".into(), percentile(&warm, 50.0));
        out.insert("serve.warm_p90_ms".into(), percentile(&warm, 90.0));
        out.insert("serve.cold_p50_ms".into(), percentile(&cold, 50.0));
        out.insert("serve.parse_us_per_req".into(), parse_ns / 1e3);
        out.insert("serve.render_us_per_resp".into(), render_ns / 1e3);
        out.insert("serve.pipeline_ms_per_req".into(), warm_ns / 1e6);
        out.insert(
            "serve.overhead_ms_per_req".into(),
            percentile(&warm, 50.0) - (parse_ns + warm_ns + render_ns) / 1e6,
        );
        let answered: u64 = self.statuses.iter().sum();
        let per_pass = |n: u64| ratio(n as f64, traced_passes as f64);
        out.insert(
            "serve.shed_share".into(),
            ratio(self.statuses[3] as f64, answered as f64),
        );
        out.insert("serve.status_2xx".into(), per_pass(self.statuses[0]));
        out.insert(
            "serve.status_4xx".into(),
            per_pass(self.statuses[1] + self.statuses[3]),
        );
        out.insert("serve.status_5xx".into(), per_pass(self.statuses[2]));
        // From outside, a request is all `serve`; the pipeline probes say
        // how much of it the engine call inside the server accounts for.
        let inner_ms = warm.len() as f64 * warm_ns / 1e6 + cold.len() as f64 * cold_ns / 1e6;
        let total_ms = (mean(&warm) * warm.len() as f64) + (mean(&cold) * cold.len() as f64);
        let exec_share = 100.0 * ratio(inner_ms, total_ms).min(1.0);
        let serve_share = out.get("serve.share_pct").copied().unwrap_or(0.0);
        out.insert("exec.share_pct".into(), exec_share);
        out.insert(
            "serve.share_pct".into(),
            (serve_share - exec_share).max(0.0),
        );
    }
}
