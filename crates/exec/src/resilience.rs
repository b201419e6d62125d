//! The resilience layer: everything that makes a batch sweep safe to run
//! unattended.
//!
//! **Time budgets** — [`BatchOptions::deadline_ms`] bounds the whole run
//! and [`BatchOptions::timeout_ms`] bounds each job. Both become
//! [`CancelToken`]s (the per-job token a *child* of the run token, so a
//! run-level interrupt wins) that every pipeline stage polls; an expired
//! budget surfaces as [`ExecError::Deadline`](crate::ExecError::Deadline)
//! for exactly the jobs that ran out of time.
//!
//! A job is a pure function of its trace and configuration, so a failed
//! job fails again on retry and says nothing about the kernel's other
//! jobs; the batch engine neither retries nor skips.
//!
//! The completion **journal** ([`Journal`]) rounds this out: every
//! finished job appends one JSON line (fingerprint, label, checksum,
//! canonical prediction) with a single atomic `O_APPEND` write, and a
//! rerun with `resume` replays those predictions instead of recomputing
//! them. A torn final line from a killed process fails to parse and is
//! simply treated as not-completed; a whole line whose prediction no
//! longer matches its checksum fails that job's replay.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use gpumech_obs::CancelToken;
use serde::{Deserialize, Serialize};

use crate::cache::payload_checksum;

/// Options for a resilient batch run
/// ([`BatchEngine::run_with`](crate::batch::BatchEngine::run_with)).
#[derive(Debug, Default)]
pub struct BatchOptions {
    /// Per-job time budget in milliseconds; a job still running when it
    /// expires aborts with [`ExecError::Deadline`](crate::ExecError::Deadline).
    pub timeout_ms: Option<u64>,
    /// Whole-run deadline in milliseconds; jobs that have not finished
    /// when it fires abort with `Deadline`.
    pub deadline_ms: Option<u64>,
    /// Path of the completion journal; every finished job appends one
    /// line here.
    pub journal: Option<PathBuf>,
    /// Replay previously journalled jobs instead of recomputing them
    /// (requires `journal`).
    pub resume: bool,
    /// Explicit root cancel token — supplied by tests to drive deadlines
    /// off a [`FakeClock`](gpumech_obs::FakeClock), or by embedders that
    /// want external cancellation. `deadline_ms`, when also set, becomes
    /// a child of this token.
    pub cancel: Option<CancelToken>,
}

impl BatchOptions {
    /// The root token for one run: the explicit token if supplied,
    /// narrowed by `deadline_ms` when set.
    #[must_use]
    pub fn run_token(&self) -> CancelToken {
        let root = self.cancel.clone().unwrap_or_default();
        match self.deadline_ms {
            Some(ms) => root.child_with_timeout_ms(ms),
            None => root,
        }
    }

    /// The token one job runs under: a child of `run` narrowed by
    /// the per-job timeout, or `run` itself when no timeout is set.
    #[must_use]
    pub fn job_token(&self, run: &CancelToken) -> CancelToken {
        match self.timeout_ms {
            Some(ms) => run.child_with_timeout_ms(ms),
            None => run.clone(),
        }
    }
}

/// One journal line: a completed job's identity and its canonical
/// prediction JSON under a checksum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The job fingerprint (trace + full config + options), hex-encoded.
    pub fingerprint: String,
    /// The job's label, for human inspection of the journal.
    pub label: String,
    /// [`payload_checksum`] of `prediction`, 16 hex digits. A line
    /// without one (written by an older build) fails to parse.
    pub crc: String,
    /// Canonical prediction JSON
    /// ([`canonical_prediction_json`](crate::batch::canonical_prediction_json)).
    pub prediction: String,
}

impl JournalEntry {
    /// The entry for job `fingerprint`, its checksum computed.
    #[must_use]
    pub fn new(fingerprint: u64, label: &str, prediction: &str) -> Self {
        Self {
            fingerprint: format!("{fingerprint:016x}"),
            label: label.to_owned(),
            crc: format!("{:016x}", payload_checksum(prediction.as_bytes())),
            prediction: prediction.to_owned(),
        }
    }

    /// `true` when `crc` is the checksum of `prediction`.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        u64::from_str_radix(&self.crc, 16)
            .is_ok_and(|crc| crc == payload_checksum(self.prediction.as_bytes()))
    }
}

/// The completion journal: an append-only JSONL file of finished jobs.
///
/// Appends are single `write` calls on an `O_APPEND` handle, so a line is
/// either fully present or (after a kill mid-write) a torn tail that
/// fails to parse — [`Journal::load`] skips unparsable lines, treating
/// those jobs as not completed. That is exactly the crash-safety contract
/// resume needs: no job is ever *wrongly* marked done. A parsable line
/// whose prediction was altered fails [`JournalEntry::is_intact`], and
/// the batch engine fails that job's replay instead of trusting it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Held across one append's tail check and write, so pool workers
    /// finishing together cannot both see (or both miss) a torn tail.
    appending: Mutex<()>,
}

impl Journal {
    /// A journal at `path` (the file is created on first append).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), appending: Mutex::new(()) }
    }

    /// Loads completed entries, keyed by fingerprint. Missing file means
    /// an empty journal; torn or corrupt lines are skipped.
    #[must_use]
    pub fn load(&self) -> HashMap<u64, JournalEntry> {
        let Ok(text) = fs::read_to_string(&self.path) else { return HashMap::new() };
        let mut out = HashMap::new();
        for line in text.lines() {
            let Ok(entry) = serde_json::from_str::<JournalEntry>(line) else { continue };
            let Ok(fp) = u64::from_str_radix(&entry.fingerprint, 16) else { continue };
            out.insert(fp, entry);
        }
        out
    }

    /// Appends one completed job. The whole line (JSON + newline) goes
    /// down in a single write on an append-mode handle; failures are
    /// reported, not fatal (the job still completed — only resumability
    /// is lost).
    ///
    /// If the file does not currently end in a newline — the debris of a
    /// process killed mid-append — a newline is prepended first, so the
    /// new entry starts on its own line instead of gluing onto the torn
    /// tail (which would corrupt *this* entry too).
    ///
    /// # Errors
    ///
    /// An I/O or serialization failure message.
    pub fn append(&self, fingerprint: u64, label: &str, prediction_json: &str) -> Result<(), String> {
        use std::io::{Read as _, Seek as _, SeekFrom};

        let entry = JournalEntry::new(fingerprint, label, prediction_json);
        let mut line =
            serde_json::to_string(&entry).map_err(|e| format!("journal serialize: {e}"))?;
        line.push('\n');
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
            }
        }
        let _appending = self.appending.lock().unwrap_or_else(PoisonError::into_inner);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("journal open: {e}"))?;
        let len = file.metadata().map_err(|e| format!("journal stat: {e}"))?.len();
        if len > 0 {
            file.seek(SeekFrom::Start(len - 1)).map_err(|e| format!("journal seek: {e}"))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last).map_err(|e| format!("journal read: {e}"))?;
            if last[0] != b'\n' {
                line.insert(0, '\n');
            }
        }
        file.write_all(line.as_bytes()).map_err(|e| format!("journal write: {e}"))?;
        gpumech_obs::counter!("exec.resilience.journal_writes");
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn journal_round_trips_and_skips_torn_lines() {
        let path = std::env::temp_dir()
            .join(format!("gpumech-journal-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let j = Journal::new(&path);
        assert!(j.load().is_empty(), "missing file is an empty journal");
        j.append(0xabcd, "job-a", r#"{"cpi":1.0}"#).unwrap();
        j.append(0x1234, "job-b", r#"{"cpi":2.0}"#).unwrap();
        // Simulate a kill mid-append: a torn, unparsable tail line.
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(br#"{"fingerprint":"00ff","label":"torn"#).unwrap();
        }
        let loaded = j.load();
        assert_eq!(loaded.len(), 2, "torn line must be skipped");
        assert!(loaded.values().all(JournalEntry::is_intact));
        assert_eq!(loaded[&0xabcd].label, "job-a");
        assert_eq!(loaded[&0x1234].prediction, r#"{"cpi":2.0}"#);
        // Appending after the torn tail must self-heal: the new entry
        // starts on a fresh line rather than gluing onto the debris.
        j.append(0xbeef, "job-c", r#"{"cpi":3.0}"#).unwrap();
        let healed = j.load();
        assert_eq!(healed.len(), 3, "append after a torn tail must not lose entries");
        assert_eq!(healed[&0xbeef].label, "job-c");
        // A line without a checksum, as older builds wrote, is not a
        // completed job.
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"fingerprint\":\"00ff\",\"label\":\"old\",\"prediction\":\"{}\"}\n")
                .unwrap();
        }
        assert_eq!(j.load().len(), 3, "a line without crc must be skipped");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_appends_from_racing_threads_are_whole_lines() {
        const THREADS: usize = 8;
        const APPENDS: usize = 50;
        let path = std::env::temp_dir()
            .join(format!("gpumech-journal-race-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let j = Journal::new(&path);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (j, start) = (&j, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..APPENDS {
                        j.append((t * APPENDS + i) as u64, "job", r#"{"cpi":1.0}"#).unwrap();
                    }
                });
            }
        });
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), THREADS * APPENDS, "one line per append");
        for line in text.lines() {
            assert!(!line.is_empty(), "blank journal line");
            serde_json::from_str::<JournalEntry>(line).unwrap();
        }
        assert_eq!(j.load().len(), THREADS * APPENDS);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn run_and_job_tokens_compose_deadlines() {
        use gpumech_obs::FakeClock;
        use std::sync::Arc;

        let none = BatchOptions::default();
        assert!(none.run_token().check().is_ok());

        // An explicit (fake-clock) token narrowed by a run deadline.
        let clock = Arc::new(FakeClock::new(1_000));
        let root = CancelToken::with_clock(Arc::clone(&clock) as Arc<dyn gpumech_obs::Clock>, u64::MAX);
        let opts = BatchOptions {
            deadline_ms: Some(1),
            cancel: Some(root.clone()),
            timeout_ms: Some(2),
            ..BatchOptions::default()
        };
        let run = opts.run_token();
        assert!(run.deadline_ns().is_some(), "deadline_ms must narrow the explicit token");
        let job = opts.job_token(&run);
        // Cancelling the root must reach the job token through two levels.
        root.cancel();
        assert!(job.check().is_err());
    }
}
