//! The `batch --json` report file.
//!
//! The format is JSON with a *fixed physical layout*: the run-dependent
//! fields (worker count, cache size, counters), the provenance
//! (`git_commit`, `config_fingerprint`) and `jobs_checksum` each occupy
//! their own line, and every job row is one compact JSON object on its
//! own line inside the `jobs` array. `jobs_checksum` is a content hash
//! over those compact row texts. From `jobs_checksum` on, the file is
//! sweep content: a rerun of the same sweep writes it byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use gpumech_core::{CpiStack, Prediction};
use gpumech_exec::cache::payload_checksum;
use gpumech_exec::BatchError;
use serde::Serialize;

/// Formats a fingerprint the way the report stores it.
fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// The commit a report's `git_commit` names: `git rev-parse --short=12
/// HEAD` run in the directory of this executable, so every run of a build
/// stamps the same commit whatever directory it runs from; `"unknown"`
/// when the executable is not inside a git checkout or git is
/// unavailable.
pub(crate) fn git_commit() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(exe.parent()?)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One job's outcome in a sweep report.
#[derive(Debug, Serialize)]
pub(crate) struct JobRow {
    /// Job label (`kernel[ @ axis=value]`).
    pub(crate) label: String,
    /// The job fingerprint ([`gpumech_exec::job_fingerprint`]), hex-encoded.
    pub(crate) fingerprint: String,
    /// Predicted CPI, absent when the job failed.
    pub(crate) cpi: Option<f64>,
    /// Predicted IPC, absent when the job failed.
    pub(crate) ipc: Option<f64>,
    /// The per-category CPI stack, absent when the job failed.
    pub(crate) stack: Option<CpiStack>,
    /// Cycle-level oracle CPI (`--oracle` runs), absent otherwise.
    pub(crate) oracle_cpi: Option<f64>,
    /// The job's typed error, absent when it succeeded.
    pub(crate) error: Option<String>,
    /// Non-fatal warnings.
    pub(crate) warnings: Vec<String>,
}

impl JobRow {
    /// The row of a job that predicted `p`.
    pub(crate) fn ok(
        label: &str,
        fingerprint: u64,
        p: &Prediction,
        oracle_cpi: Option<f64>,
    ) -> Self {
        Self {
            label: label.to_string(),
            fingerprint: fingerprint_hex(fingerprint),
            cpi: Some(p.cpi_total()),
            ipc: Some(p.ipc()),
            stack: Some(p.cpi),
            oracle_cpi,
            error: None,
            warnings: p.warnings.clone(),
        }
    }

    /// The row of a job that failed, or whose kernel was rejected before
    /// it could run: the full error payload (job label, configuration
    /// fingerprint, underlying error) and no numbers.
    pub(crate) fn failed(fingerprint: u64, e: &BatchError) -> Self {
        Self {
            label: e.label.clone(),
            fingerprint: fingerprint_hex(fingerprint),
            cpi: None,
            ipc: None,
            stack: None,
            oracle_cpi: None,
            error: Some(e.to_string()),
            warnings: Vec::new(),
        }
    }
}

/// One aggregated counter carried in a sweep report (outside the
/// byte-compared region: counts depend on the worker count).
#[derive(Debug, Serialize)]
pub(crate) struct CounterEntry {
    /// Full metric name (`exec.cache.hits`, ...).
    pub(crate) name: String,
    /// Aggregated total.
    pub(crate) total: u64,
}

/// A sweep report: provenance plus one row per job.
#[derive(Debug)]
pub(crate) struct SweepReport {
    /// Worker threads the producing batch ran with.
    pub(crate) workers: u64,
    /// Distinct cached analyses after the run.
    pub(crate) cache_entries: u64,
    /// Aggregated `exec.*` counters from the producing run.
    pub(crate) counters: Vec<CounterEntry>,
    /// Git commit of the producing build ([`git_commit`]).
    pub(crate) git_commit: String,
    /// Fingerprint of the base machine configuration
    /// ([`analysis_config_fingerprint`](gpumech_exec::analysis_config_fingerprint)).
    pub(crate) config_fingerprint: u64,
    /// One row per job, in enumeration order.
    pub(crate) jobs: Vec<JobRow>,
}

/// Checksum over compact row texts: what `jobs_checksum` stores.
fn rows_checksum(rows: &[String]) -> String {
    fingerprint_hex(payload_checksum(rows.join("\n").as_bytes()))
}

impl SweepReport {
    /// Renders the canonical file text, `jobs_checksum` computed from the
    /// rows.
    ///
    /// # Errors
    ///
    /// Serialization failure (unreachable for reports built by this
    /// workspace).
    pub(crate) fn render(&self) -> Result<String, String> {
        let counters = serde_json::to_string(&self.counters).map_err(|e| e.to_string())?;
        let git_commit = serde_json::to_string(&self.git_commit).map_err(|e| e.to_string())?;
        let rows = self
            .jobs
            .iter()
            .map(|row| serde_json::to_string(row).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"cache_entries\": {},\n", self.cache_entries));
        out.push_str(&format!("  \"counters\": {counters},\n"));
        out.push_str(&format!("  \"git_commit\": {git_commit},\n"));
        out.push_str(&format!(
            "  \"config_fingerprint\": \"{}\",\n",
            fingerprint_hex(self.config_fingerprint)
        ));
        out.push_str(&format!("  \"jobs_checksum\": \"{}\",\n", rows_checksum(&rows)));
        out.push_str("  \"jobs\": [\n");
        for (i, row) in rows.iter().enumerate() {
            out.push_str("    ");
            out.push_str(row);
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        Ok(out)
    }

    /// Renders and writes atomically: into `<path>.tmp` beside it (the
    /// directory is created if missing), then renamed into place, so a
    /// reader sees the old file or the new one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Serialization failure, or the failing step's path and I/O error,
    /// rendered.
    pub(crate) fn write(&self, path: &Path) -> Result<(), String> {
        let text = self.render()?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn sample() -> SweepReport {
        SweepReport {
            workers: 2,
            cache_entries: 1,
            counters: vec![CounterEntry { name: "exec.cache.hits".to_string(), total: 3 }],
            git_commit: "abc".to_string(),
            config_fingerprint: 7,
            jobs: [0x10u64, 0x20, 0x30]
                .iter()
                .map(|&fp| JobRow {
                    label: format!("job-{fp:x}"),
                    fingerprint: fingerprint_hex(fp),
                    cpi: Some(2.5),
                    ipc: Some(0.4),
                    stack: Some(CpiStack::default()),
                    oracle_cpi: None,
                    error: None,
                    warnings: vec!["numerics, {tricky\"} chars".to_string()],
                })
                .collect(),
        }
    }

    #[test]
    fn render_puts_each_row_on_its_own_line_under_its_checksum() {
        let report = sample();
        let text = report.render().unwrap();
        let rows: Vec<String> =
            report.jobs.iter().map(|r| serde_json::to_string(r).unwrap()).collect();
        let tail = &text[text.find("  \"jobs_checksum\"").unwrap()..];
        let expected = format!(
            "  \"jobs_checksum\": \"{}\",\n  \"jobs\": [\n    {},\n    {},\n    {}\n  ]\n}}\n",
            rows_checksum(&rows),
            rows[0],
            rows[1],
            rows[2]
        );
        assert_eq!(tail, expected);
        assert!(text.contains("\n  \"git_commit\": \"abc\",\n"), "{text}");
        assert!(text.contains("\n  \"config_fingerprint\": \"0000000000000007\",\n"), "{text}");
        // The file is one JSON document whatever the rows hold.
        serde_json::parse_value(&text).unwrap();
    }

    #[test]
    fn empty_jobs_render_and_write() {
        let mut report = sample();
        report.jobs.clear();
        let path = std::env::temp_dir()
            .join(format!("gpumech-cli-report-{}", std::process::id()))
            .join("empty.json");
        report.write(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("  \"jobs\": [\n  ]\n}\n"), "{text}");
        assert!(!path.with_extension("json.tmp").exists(), "the temporary file is renamed away");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
