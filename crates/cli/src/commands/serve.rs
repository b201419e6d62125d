//! `gpumech serve`: the HTTP prediction service.

use gpumech_trace::workloads;

use super::CliError;
use crate::args::Args;

/// `gpumech serve`: run the hardened HTTP prediction service until a
/// drain is requested (SIGTERM/ctrl-c), then return the run summary.
///
/// The "listening on" line is printed (and flushed) *before* the accept
/// loop blocks, so callers that spawn the process — the smoke test, the
/// load harness, an orchestrator — can scrape the bound port from the
/// first line of stdout.
pub(super) fn serve(args: &Args) -> Result<String, CliError> {
    let warm: Vec<String> = match args.flag("warm") {
        None => Vec::new(),
        Some("all") => workloads::all().iter().map(|w| w.name.to_string()).collect(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    };
    let cfg = gpumech_serve::ServeConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1").to_string(),
        port: args.flag_or("port", 0u16)?,
        workers: args.flag_or("workers", 4usize)?,
        queue_cap: args.flag_or("queue-cap", 32usize)?,
        read_timeout_ms: args.flag_or("read-timeout-ms", 2_000u64)?,
        request_timeout_ms: args.flag_or("request-timeout-ms", 30_000u64)?,
        drain_ms: args.flag_or("drain-ms", 5_000u64)?,
        max_header_bytes: args.flag_or("max-header-bytes", 8 * 1024usize)?,
        max_body_bytes: args.flag_or("max-body-bytes", 64 * 1024usize)?,
        warm,
        debug_hooks: args.switch("debug-hooks"),
        handle_signals: true,
    };
    let server = gpumech_serve::Server::bind(cfg).map_err(|e| CliError::Model(e.to_string()))?;
    println!("gpumech-serve listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = server.run().map_err(|e| CliError::Model(e.to_string()))?;
    Ok(format!("{summary}\n"))
}
