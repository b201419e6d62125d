//! The local multi-process shard supervisor.
//!
//! `supervise` spawns one `gpumech batch --shard i/N` child per shard,
//! watches each child's journal as a heartbeat, and keeps the sweep alive
//! unattended:
//!
//! * a child that **crashes** (non-zero exit, SIGKILL, panic) or exits
//!   without its result file is restarted with `--resume` after a
//!   deterministic jittered backoff ([`RetryPolicy`]) — the journal
//!   replays finished jobs, so no work is repeated;
//! * a child whose journal **stalls** beyond the heartbeat window is
//!   SIGKILLed and treated as a crash;
//! * each shard has a **restart budget**; exhausting it aborts the sweep
//!   with a typed error rather than flapping forever;
//! * an optional **whole-sweep deadline** bounds the wall clock;
//! * SIGTERM/SIGINT (or a [`CancelToken`]) triggers a **clean drain**:
//!   children get SIGTERM, a grace window, then SIGKILL — journals stay
//!   valid for a later `--resume`.
//!
//! Chaos hooks ([`ChaosKill`]) let the fault harness and CI murder a
//! specific shard mid-run to prove recovery end to end.

use std::fmt::Write as _;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gpumech_exec::resilience::RetryPolicy;
use gpumech_obs::{signals, CancelToken};

use crate::ShardError;

/// A chaos injection: SIGKILL shard `shard` once its journal reaches
/// `after_journal_lines` lines. Fires at most once per supervise run —
/// the restarted child resumes and must complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// The shard to kill.
    pub shard: u32,
    /// Journal line count that triggers the kill (0 = as soon as the
    /// child is observed running).
    pub after_journal_lines: u64,
}

impl std::str::FromStr for ChaosKill {
    type Err = ShardError;

    /// Parses `i@lines` (e.g. `1@5`: kill shard 1 after 5 journal lines).
    fn from_str(s: &str) -> Result<Self, ShardError> {
        let bad = || ShardError::BadSpec(format!("{s:?} (expected shard@lines, e.g. 1@5)"));
        let (shard, lines) = s.split_once('@').ok_or_else(bad)?;
        Ok(Self {
            shard: shard.parse().map_err(|_| bad())?,
            after_journal_lines: lines.parse().map_err(|_| bad())?,
        })
    }
}

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The shard worker binary (normally the `gpumech` binary itself).
    pub program: PathBuf,
    /// Arguments shared by every shard child (`batch`, sweep flags, ...).
    /// The supervisor appends `--shard i/N --journal <j> --json <r>
    /// --resume` per child.
    pub shared_args: Vec<String>,
    /// Directory for per-shard journals, result files, and child logs.
    pub dir: PathBuf,
    /// Number of shards to run.
    pub shards: u32,
    /// Restarts allowed per shard beyond its first spawn.
    pub restart_budget: u32,
    /// A child whose journal shows no growth for this long is considered
    /// hung and SIGKILLed.
    pub heartbeat_ms: u64,
    /// Supervisor poll interval.
    pub poll_ms: u64,
    /// Whole-sweep wall-clock bound; `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// Grace window between SIGTERM and SIGKILL during a drain.
    pub drain_ms: u64,
    /// Backoff schedule for restarts (keyed by shard index and attempt).
    pub backoff: RetryPolicy,
    /// Chaos injections (tests, CI, the fault harness).
    pub chaos_kills: Vec<ChaosKill>,
    /// Install SIGTERM/SIGINT handlers for clean drain. Leave off when
    /// embedding in a process that manages its own signals (tests).
    pub handle_signals: bool,
    /// Cooperative cancellation (an in-process drain trigger).
    pub cancel: Option<CancelToken>,
    /// Extra environment variables for every child.
    pub env: Vec<(String, String)>,
}

impl SupervisorConfig {
    /// A config with test/CLI-friendly defaults for `shards` children of
    /// `program` working under `dir`.
    #[must_use]
    pub fn new(program: PathBuf, dir: PathBuf, shards: u32) -> Self {
        Self {
            program,
            shared_args: Vec::new(),
            dir,
            shards: shards.max(1),
            restart_budget: 3,
            heartbeat_ms: 30_000,
            poll_ms: 25,
            deadline_ms: None,
            drain_ms: 2_000,
            backoff: RetryPolicy { base_delay_ns: 20_000_000, max_delay_ns: 500_000_000, seed: 0 },
            chaos_kills: Vec::new(),
            handle_signals: false,
            cancel: None,
            env: Vec::new(),
        }
    }

    /// The journal path for shard `i`.
    #[must_use]
    pub fn journal_path(&self, i: u32) -> PathBuf {
        self.dir.join(format!("shard-{i}.journal"))
    }

    /// The result-file path for shard `i`.
    #[must_use]
    pub fn result_path(&self, i: u32) -> PathBuf {
        self.dir.join(format!("shard-{i}.json"))
    }

    /// The captured stdout/stderr path for shard `i`.
    #[must_use]
    pub fn log_path(&self, i: u32) -> PathBuf {
        self.dir.join(format!("shard-{i}.log"))
    }
}

/// Per-shard outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard index.
    pub shard: u32,
    /// Total times the child was spawned.
    pub spawns: u32,
    /// Restarts (`spawns - 1` once running).
    pub restarts: u32,
    /// Whether the shard completed with a result file.
    pub done: bool,
}

/// What the supervisor did.
#[derive(Debug, Clone)]
pub struct SupervisorSummary {
    /// Per-shard outcomes, indexed by shard.
    pub shards: Vec<ShardStatus>,
    /// `true` when the run ended in a clean signal/cancel drain instead
    /// of completion.
    pub drained: bool,
    /// Wall-clock duration of the supervise run, in milliseconds.
    pub wall_ms: u64,
    /// Result-file paths for completed shards, in shard order — the
    /// merge input.
    pub result_paths: Vec<PathBuf>,
}

impl SupervisorSummary {
    /// One human line per shard plus the verdict, for logs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            let state = if s.done { "done" } else { "incomplete" };
            let _ = writeln!(
                out,
                "# shard {}: {state} after {} spawn(s) ({} restart(s))",
                s.shard, s.spawns, s.restarts
            );
        }
        let verdict = if self.drained { "drained" } else { "completed" };
        let _ = writeln!(out, "# supervisor: {verdict} in {} ms", self.wall_ms);
        out
    }
}

struct ShardState {
    shard: u32,
    child: Option<Child>,
    spawns: u32,
    done: bool,
    restart_due: Option<Instant>,
    last_progress: Instant,
    last_lines: u64,
}

/// Counts newline-terminated lines in the journal (a torn tail without a
/// trailing newline is in-progress work, not a heartbeat).
fn journal_lines(path: &Path) -> u64 {
    std::fs::read(path)
        .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count() as u64)
        .unwrap_or(0)
}

/// Runs the sweep under supervision. Blocks until every shard completes,
/// a drain is requested, or a budget/deadline aborts the sweep.
///
/// # Errors
///
/// [`ShardError::Spawn`] if a child cannot be started,
/// [`ShardError::RestartBudgetExhausted`] when one shard keeps dying,
/// [`ShardError::DeadlineExceeded`] when the whole-sweep bound fires, and
/// [`ShardError::Io`] for workspace failures. On every error path all
/// children are killed and reaped before returning.
pub fn supervise(cfg: &SupervisorConfig) -> Result<SupervisorSummary, ShardError> {
    let _span = gpumech_obs::span!("shard.supervisor.run", shards = cfg.shards);
    if cfg.handle_signals {
        signals::install();
    }
    std::fs::create_dir_all(&cfg.dir).map_err(|e| ShardError::Io {
        path: cfg.dir.display().to_string(),
        msg: e.to_string(),
    })?;

    let start = Instant::now();
    let deadline = cfg.deadline_ms.map(|ms| start + Duration::from_millis(ms));
    let mut chaos_fired = vec![false; cfg.chaos_kills.len()];
    let mut shards: Vec<ShardState> = (0..cfg.shards)
        .map(|shard| ShardState {
            shard,
            child: None,
            spawns: 0,
            done: false,
            restart_due: None,
            last_progress: start,
            last_lines: 0,
        })
        .collect();

    let result = run_loop(cfg, &mut shards, deadline, &mut chaos_fired);
    // Whatever happened, leave no children behind.
    kill_all(&mut shards);
    let drained = matches!(result, Ok(true));
    result?;

    let statuses: Vec<ShardStatus> = shards
        .iter()
        .map(|s| ShardStatus {
            shard: s.shard,
            spawns: s.spawns,
            restarts: s.spawns.saturating_sub(1),
            done: s.done,
        })
        .collect();
    let result_paths = statuses
        .iter()
        .filter(|s| s.done)
        .map(|s| cfg.result_path(s.shard))
        .collect();
    if drained {
        gpumech_obs::counter!("shard.supervisor.drained");
    }
    #[allow(clippy::cast_possible_truncation)]
    let wall_ms = start.elapsed().as_millis() as u64;
    Ok(SupervisorSummary { shards: statuses, drained, wall_ms, result_paths })
}

/// The supervision loop. `Ok(true)` = drained, `Ok(false)` = completed.
fn run_loop(
    cfg: &SupervisorConfig,
    shards: &mut [ShardState],
    deadline: Option<Instant>,
    chaos_fired: &mut [bool],
) -> Result<bool, ShardError> {
    loop {
        let now = Instant::now();
        if shards.iter().all(|s| s.done) {
            return Ok(false);
        }
        if let Some(d) = deadline {
            if now >= d {
                kill_all(shards);
                return Err(ShardError::DeadlineExceeded {
                    ms: cfg.deadline_ms.unwrap_or(0),
                });
            }
        }
        if signals::fired() || cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            drain(cfg, shards);
            return Ok(true);
        }

        // Decide fatal errors inside the per-shard pass, act on them
        // after it (kill_all needs the whole slice).
        let mut fatal: Option<ShardError> = None;
        for s in shards.iter_mut() {
            if s.done {
                continue;
            }
            match &mut s.child {
                None => {
                    if s.restart_due.is_none_or(|due| now >= due) {
                        if s.spawns > cfg.restart_budget {
                            fatal = Some(ShardError::RestartBudgetExhausted {
                                shard: s.shard,
                                spawns: s.spawns,
                            });
                            break;
                        }
                        if let Err(e) = spawn_shard(cfg, s) {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                Some(child) => match child.try_wait() {
                    Err(e) => {
                        fatal = Some(ShardError::Spawn { shard: s.shard, msg: e.to_string() });
                        break;
                    }
                    Ok(Some(status)) => {
                        s.child = None;
                        if status.success() && cfg.result_path(s.shard).exists() {
                            s.done = true;
                        } else {
                            // Crashed (or exited without a result file):
                            // schedule a --resume restart after backoff.
                            let attempt = s.spawns.saturating_sub(1);
                            let delay =
                                cfg.backoff.delay_ns(u64::from(s.shard), attempt) / 1_000_000;
                            s.restart_due = Some(now + Duration::from_millis(delay.max(1)));
                            gpumech_obs::counter!("shard.supervisor.crashes");
                        }
                    }
                    Ok(None) => {
                        let lines = journal_lines(&cfg.journal_path(s.shard));
                        if lines > s.last_lines {
                            s.last_lines = lines;
                            s.last_progress = now;
                        }
                        for (i, kill) in cfg.chaos_kills.iter().enumerate() {
                            if !chaos_fired[i]
                                && kill.shard == s.shard
                                && lines >= kill.after_journal_lines
                            {
                                chaos_fired[i] = true;
                                gpumech_obs::counter!("shard.supervisor.chaos_kills");
                                let _ = child.kill();
                            }
                        }
                        if now.duration_since(s.last_progress)
                            >= Duration::from_millis(cfg.heartbeat_ms.max(1))
                        {
                            // Hung: no journal growth inside the
                            // heartbeat window. Kill; the exit is picked
                            // up as a crash on the next poll.
                            gpumech_obs::counter!("shard.supervisor.stalled");
                            let _ = child.kill();
                            s.last_progress = now;
                        }
                    }
                },
            }
        }
        if let Some(e) = fatal {
            kill_all(shards);
            return Err(e);
        }

        // Re-check for completion before sleeping so a finished sweep
        // returns without one extra poll of latency.
        if shards.iter().all(|s| s.done) {
            return Ok(false);
        }
        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
    }
}

/// Spawns (or respawns, with `--resume` journal replay) one shard child.
fn spawn_shard(cfg: &SupervisorConfig, s: &mut ShardState) -> Result<(), ShardError> {
    let spec = format!("{}/{}", s.shard, cfg.shards);
    let journal = cfg.journal_path(s.shard);
    let result = cfg.result_path(s.shard);
    let log_io = |e: std::io::Error| ShardError::Io {
        path: cfg.log_path(s.shard).display().to_string(),
        msg: e.to_string(),
    };
    let log = File::create(cfg.log_path(s.shard)).map_err(log_io)?;
    let log_err = log.try_clone().map_err(log_io)?;
    let mut cmd = Command::new(&cfg.program);
    cmd.args(&cfg.shared_args)
        .arg("--shard")
        .arg(&spec)
        .arg("--journal")
        .arg(&journal)
        .arg("--json")
        .arg(&result)
        .arg("--resume")
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(log_err));
    for (k, v) in &cfg.env {
        cmd.env(k, v);
    }
    let child = cmd.spawn().map_err(|e| ShardError::Spawn {
        shard: s.shard,
        msg: format!("{}: {e}", cfg.program.display()),
    })?;
    s.spawns += 1;
    s.restart_due = None;
    s.last_progress = Instant::now();
    s.child = Some(child);
    gpumech_obs::counter!("shard.supervisor.spawned");
    if s.spawns > 1 {
        gpumech_obs::counter!("shard.supervisor.restarts");
    }
    Ok(())
}

/// SIGKILLs and reaps every live child (error paths).
fn kill_all(shards: &mut [ShardState]) {
    for s in shards {
        if let Some(child) = &mut s.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        s.child = None;
    }
}

/// Clean drain: SIGTERM every child, wait out the grace window, then
/// SIGKILL stragglers. Journals stay valid for a later `--resume`.
fn drain(cfg: &SupervisorConfig, shards: &mut [ShardState]) {
    for s in shards.iter_mut() {
        if let Some(child) = &s.child {
            let _ = signals::send_sigterm(child.id());
        }
    }
    let grace_end = Instant::now() + Duration::from_millis(cfg.drain_ms);
    loop {
        let mut live = false;
        for s in shards.iter_mut() {
            if let Some(child) = &mut s.child {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if status.success() && cfg.result_path(s.shard).exists() {
                            s.done = true;
                        }
                        s.child = None;
                    }
                    Ok(None) => live = true,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        s.child = None;
                    }
                }
            }
        }
        if !live || Instant::now() >= grace_end {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    kill_all(shards);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let k: ChaosKill = "1@5".parse().unwrap();
        assert_eq!(k, ChaosKill { shard: 1, after_journal_lines: 5 });
        let zero: ChaosKill = "0@0".parse().unwrap();
        assert_eq!(zero.after_journal_lines, 0);
        for bad in ["", "1", "@5", "1@", "a@b", "1@5@6"] {
            assert!(bad.parse::<ChaosKill>().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn config_paths_are_per_shard() {
        let cfg = SupervisorConfig::new(PathBuf::from("gpumech"), PathBuf::from("/tmp/sweep"), 3);
        assert_eq!(cfg.journal_path(2), PathBuf::from("/tmp/sweep/shard-2.journal"));
        assert_eq!(cfg.result_path(0), PathBuf::from("/tmp/sweep/shard-0.json"));
        assert_eq!(cfg.log_path(1), PathBuf::from("/tmp/sweep/shard-1.log"));
    }

    #[test]
    fn journal_lines_counts_terminated_lines_only() {
        let dir = std::env::temp_dir().join(format!("gpumech-shard-jl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        assert_eq!(journal_lines(&path), 0, "missing journal is empty");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"torn").unwrap();
        assert_eq!(journal_lines(&path), 2, "torn tail is not a heartbeat line");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
