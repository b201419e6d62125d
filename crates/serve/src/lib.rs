//! `gpumech-serve`: the hardened HTTP/1.1 front door for the GPUMech
//! prediction pipeline.
//!
//! The ROADMAP's target is serving interval-analysis predictions at
//! production scale; the internals (batch engine, profile cache, cancel
//! tokens) already exist in `gpumech-exec` and
//! `gpumech-obs`. This crate is the missing service layer, built on
//! `std::net` only (the build environment has no crates.io access):
//!
//! * **Admission control** — a bounded queue in front of a fixed worker
//!   pool; a full queue sheds with `429` + `Retry-After` derived from the
//!   observed service-time EWMA ([`server`]).
//! * **Deadlines** — every request runs under a [`CancelToken`] chained
//!   to a drain root; expiry is a typed `504`, and partial pipeline work
//!   is cancelled at its next cooperative poll, never leaked.
//! * **Input hardening** — the request parser ([`http`]) enforces header
//!   and body byte budgets *during* parsing and the read loop carries
//!   both a per-read socket timeout and a whole-request patience budget,
//!   so slow-loris and oversized inputs map to `408`/`413`.
//! * **Typed errors** — every failure is an [`ApiError`] with a stable
//!   code; static-analysis rejections carry their findings (`422`), and
//!   drain refusals are `503` ([`api`]).
//! * **Graceful drain** — SIGTERM/ctrl-c (or a [`ServerHandle`]) stops
//!   admission, keeps health endpoints live, finishes admitted work
//!   under a drain deadline, then cancels stragglers.
//! * **Observability** — `serve.*` counters/gauges/histograms through
//!   the workspace recorder plus a `/metrics` text exposition endpoint.
//!
//! [`CancelToken`]: gpumech_obs::CancelToken

pub mod api;
pub mod http;
pub mod server;

pub use api::{parse_predict_body, predict_response_body, ApiError, PredictBody};
pub use http::{parse_request, Limits, ParseError, Request, Response};
pub use gpumech_obs::signals::{send_sigkill, send_sigterm};
pub use server::{ServeConfig, ServeError, ServeSummary, Server, ServerHandle};
