//! The shard result file: the canonical on-disk sweep report format.
//!
//! The format is JSON with a *fixed physical layout*: the manifest,
//! counters, and `jobs_checksum` each occupy their own line, and every job
//! row is one compact JSON object on its own line inside the `jobs` array.
//! Every writer (a `batch` shard, the unsharded run, the merge) renders
//! through [`SweepReport::render`], so a clean merge is byte-identical
//! (from `jobs_checksum` on) to the same sweep run unsharded.
//!
//! A reader parses the file and re-renders each row; `jobs_checksum` is a
//! content hash over those compact row texts. A flipped digit changes the
//! parsed value and so the re-rendered row, a torn file fails to parse,
//! and a forged checksum does not match: the whole file is treated as
//! corrupt (typed finding + quarantine), never silently merged.

use std::fs;
use std::path::{Path, PathBuf};

use gpumech_core::{CpiStack, Prediction};
use gpumech_exec::cache::payload_checksum;
use gpumech_exec::BatchError;
use serde::{Deserialize, Serialize};

use crate::manifest::{fingerprint_hex, parse_fingerprint, SweepManifest};

/// One job's outcome in a sweep report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRow {
    /// Job label (`kernel[ @ axis=value]`).
    pub label: String,
    /// The job fingerprint (journal/shard key), hex-encoded.
    pub fingerprint: String,
    /// Predicted CPI, absent when the job failed.
    pub cpi: Option<f64>,
    /// Predicted IPC, absent when the job failed.
    pub ipc: Option<f64>,
    /// The per-category CPI stack, absent when the job failed.
    pub stack: Option<CpiStack>,
    /// Cycle-level oracle CPI (`--oracle` runs), absent otherwise.
    pub oracle_cpi: Option<f64>,
    /// The job's typed error, absent when it succeeded.
    pub error: Option<String>,
    /// Non-fatal warnings. Environment-dependent `cache: `-prefixed
    /// warnings are stripped before writing, so rows are byte-stable
    /// across shards, resumes, and machines.
    pub warnings: Vec<String>,
}

impl JobRow {
    /// The row of a job that predicted `p`. Row bytes must not depend on
    /// which shard or machine produced them, so the environment-dependent
    /// `cache: ` warnings are dropped here.
    #[must_use]
    pub fn ok(label: &str, fingerprint: u64, p: &Prediction, oracle_cpi: Option<f64>) -> Self {
        Self {
            label: label.to_string(),
            fingerprint: fingerprint_hex(fingerprint),
            cpi: Some(p.cpi_total()),
            ipc: Some(p.ipc()),
            stack: Some(p.cpi),
            oracle_cpi,
            error: None,
            warnings: p.warnings.iter().filter(|w| !w.starts_with("cache: ")).cloned().collect(),
        }
    }

    /// The row of a job that failed, or whose kernel was rejected before
    /// it could run: the full error payload (job label, configuration
    /// fingerprint, underlying error) and no numbers.
    #[must_use]
    pub fn failed(fingerprint: u64, e: &BatchError) -> Self {
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
/// byte-compared region: counters legitimately differ between a sharded
/// and an unsharded run of the same sweep).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Full metric name (`exec.cache.hits`, `shard.partition.owned`, ...).
    pub name: String,
    /// Aggregated total.
    pub total: u64,
}

/// A sweep report: the manifest plus one row per owned job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Provenance and coverage stamp.
    pub manifest: SweepManifest,
    /// Worker threads the producing batch ran with.
    pub workers: u64,
    /// Distinct cached analyses after the run.
    pub cache_entries: u64,
    /// Aggregated `exec.*` / `shard.*` counters from the producing run.
    pub counters: Vec<CounterEntry>,
    /// Content hash over the compact job-row texts, hex-encoded.
    pub jobs_checksum: String,
    /// One row per job this file covers, in enumeration order.
    pub jobs: Vec<JobRow>,
}

/// Checksum over compact row texts: what `jobs_checksum` stores.
#[must_use]
pub fn rows_checksum(rows: &[String]) -> String {
    fingerprint_hex(payload_checksum(rows.join("\n").as_bytes()))
}

/// The compact JSON text of each row: the unit of the checksum, of
/// duplicate comparison, and of the file layout.
pub(crate) fn row_texts(rows: &[JobRow]) -> Result<Vec<String>, String> {
    rows.iter().map(|row| serde_json::to_string(row).map_err(|e| e.to_string())).collect()
}

impl SweepReport {
    /// Renders the canonical file text (recomputing `jobs_checksum` from
    /// the rows, so the stored field can never disagree with the content).
    ///
    /// # Errors
    ///
    /// Serialization failure (unreachable for reports built by this
    /// workspace).
    pub fn render(&self) -> Result<String, String> {
        let manifest = serde_json::to_string(&self.manifest).map_err(|e| e.to_string())?;
        let counters = serde_json::to_string(&self.counters).map_err(|e| e.to_string())?;
        let rows = row_texts(&self.jobs)?;
        let mut out = String::new();
        out.push_str("{\n");
        // Run-dependent fields (worker count, cache size, counters) come
        // first; everything from the manifest on is sweep content, so the
        // byte-compared tail of the file — from the first `"jobs"` key,
        // which lives inside the compact manifest — is identical across
        // resumes, shards, and the unsharded reference run.
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"cache_entries\": {},\n", self.cache_entries));
        out.push_str(&format!("  \"counters\": {counters},\n"));
        out.push_str(&format!("  \"manifest\": {manifest},\n"));
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

    /// Renders and writes atomically (tmp + rename), so a killed writer
    /// leaves either the old file or the new one — never a torn mix.
    ///
    /// # Errors
    ///
    /// Serialization or I/O failure, rendered.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_atomic(path, &self.render()?)
    }

    /// The markdown sweep report: per-kernel CPI stacks, the
    /// error-vs-oracle table, failures, and cache/resilience counters.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let ok = self.jobs.iter().filter(|r| r.error.is_none()).count();
        let failed = self.jobs.len() - ok;
        let mut out = String::from("# GPUMech sweep report\n\n");
        out.push_str(&format!(
            "- sweep fingerprint: `{}`\n- config fingerprint: `{}`\n- git commit: `{}`\n\
             - jobs: {} ({ok} ok, {failed} failed)\n\n",
            self.manifest.sweep_fingerprint,
            self.manifest.config_fingerprint,
            self.manifest.git_commit,
            self.jobs.len(),
        ));

        out.push_str("## Per-kernel CPI stacks\n\n");
        out.push_str("| job | BASE | DEP | L1 | L2 | DRAM | MSHR | QUEUE | CPI | IPC |\n");
        out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.jobs {
            let Some(stack) = &r.stack else { continue };
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                r.label,
                stack.base,
                stack.dep,
                stack.l1,
                stack.l2,
                stack.dram,
                stack.mshr,
                stack.queue,
                r.cpi.unwrap_or(f64::NAN),
                r.ipc.unwrap_or(f64::NAN),
            ));
        }

        out.push_str("\n## Model vs oracle\n\n");
        let with_oracle: Vec<&JobRow> =
            self.jobs.iter().filter(|r| r.oracle_cpi.is_some() && r.cpi.is_some()).collect();
        if with_oracle.is_empty() {
            out.push_str("_no oracle data recorded (run with `--oracle`)_\n");
        } else {
            out.push_str("| job | model CPI | oracle CPI | error |\n|---|---|---|---|\n");
            let mut sum_err = 0.0f64;
            for r in &with_oracle {
                let (cpi, oracle) = (r.cpi.unwrap_or(f64::NAN), r.oracle_cpi.unwrap_or(f64::NAN));
                let err = if oracle.abs() > f64::EPSILON {
                    (cpi - oracle).abs() / oracle
                } else {
                    f64::NAN
                };
                if err.is_finite() {
                    sum_err += err;
                }
                out.push_str(&format!(
                    "| {} | {cpi:.3} | {oracle:.3} | {:.1}% |\n",
                    r.label,
                    100.0 * err
                ));
            }
            out.push_str(&format!(
                "\nmean absolute CPI error: {:.1}% over {} job(s)\n",
                100.0 * sum_err / with_oracle.len() as f64,
                with_oracle.len()
            ));
        }

        if failed > 0 {
            out.push_str("\n## Failures\n\n");
            for r in self.jobs.iter().filter(|r| r.error.is_some()) {
                out.push_str(&format!(
                    "- `{}`: {}\n",
                    r.label,
                    r.error.as_deref().unwrap_or("")
                ));
            }
        }

        out.push_str("\n## Cache & resilience counters\n\n");
        if self.counters.is_empty() {
            out.push_str("_none recorded_\n");
        } else {
            out.push_str("| counter | total |\n|---|---|\n");
            for c in &self.counters {
                out.push_str(&format!("| `{}` | {} |\n", c.name, c.total));
            }
        }
        out
    }
}

/// Loads and fully verifies one shard file: JSON parse, manifest
/// consistency, per-row fingerprint decode, and the `jobs_checksum`
/// content check over the re-rendered rows.
///
/// # Errors
///
/// A one-line description of the first defect — the caller turns it into
/// a typed corrupt-file finding.
pub fn load_shard_file(path: &Path) -> Result<SweepReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let report: SweepReport =
        serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))?;
    report.manifest.validate().map_err(|m| format!("manifest: {m}"))?;
    for (i, row) in report.jobs.iter().enumerate() {
        parse_fingerprint(&row.fingerprint)
            .ok_or_else(|| format!("row {i} fingerprint malformed: {:?}", row.fingerprint))?;
    }
    let actual = rows_checksum(&row_texts(&report.jobs)?);
    if actual != report.jobs_checksum {
        return Err(format!(
            "jobs_checksum mismatch: stored {} computed {actual} (bit rot or torn write)",
            report.jobs_checksum
        ));
    }
    Ok(report)
}

/// Writes `text` to `path` atomically: into `<path>.tmp` beside it (the
/// directory is created if missing), then renamed into place, so a reader
/// sees the old file or the new one, never a torn mix. A writer killed
/// between the two steps leaves only the `.tmp`.
///
/// # Errors
///
/// The failing step's path and I/O error, rendered.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = with_suffix(path, ".tmp");
    fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Moves a file that failed validation to the first free name among
/// `<path>.quarantine`, `<path>.quarantine.1`, `<path>.quarantine.2`, …
/// (never deleted or overwritten — the bytes are evidence — and never
/// read again). Returns the new path, or `None` when the rename failed.
#[must_use]
pub(crate) fn quarantine(path: &Path) -> Option<PathBuf> {
    let target = (0..)
        .map(|n| match n {
            0 => with_suffix(path, ".quarantine"),
            n => with_suffix(path, &format!(".quarantine.{n}")),
        })
        .find(|candidate| !candidate.exists())?;
    fs::rename(path, &target).ok().map(|()| target)
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::manifest::SweepManifest;
    use crate::partition::ShardSpec;

    fn sample() -> SweepReport {
        let fps = [0x10u64, 0x20, 0x30];
        SweepReport {
            manifest: SweepManifest::new(ShardSpec::single(), "abc", 7, &fps),
            workers: 2,
            cache_entries: 1,
            counters: vec![CounterEntry { name: "exec.cache.hits".to_string(), total: 3 }],
            jobs_checksum: String::new(), // recomputed on render
            jobs: fps
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

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gpumech-shard-report-{}-{tag}", std::process::id()))
    }

    #[test]
    fn render_load_round_trips() {
        let report = sample();
        let path = tmp("roundtrip.json");
        report.write(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let loaded = load_shard_file(&path).unwrap();
        assert_eq!(loaded.jobs, report.jobs);
        assert_eq!(loaded.manifest, report.manifest);
        // Re-rendering the loaded report reproduces the file byte for byte
        // (including rows with braces and quotes inside string values), so
        // the stored checksum matches the recomputed one.
        assert_eq!(loaded.render().unwrap(), text);
        assert_eq!(loaded.jobs_checksum, rows_checksum(&row_texts(&loaded.jobs).unwrap()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_jobs_render_and_load() {
        let mut report = sample();
        report.jobs.clear();
        report.manifest = SweepManifest::new(ShardSpec::single(), "abc", 7, &[]);
        let path = tmp("empty.json");
        report.write(&path).unwrap();
        let loaded = load_shard_file(&path).unwrap();
        assert!(loaded.jobs.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_detected_not_tolerated() {
        let report = sample();
        let path = tmp("corrupt.json");
        let text = report.render().unwrap();

        // A flipped byte inside a row value: checksum mismatch.
        let flipped = text.replacen("2.5", "2.6", 1);
        std::fs::write(&path, &flipped).unwrap();
        let err = load_shard_file(&path).unwrap_err();
        assert!(err.contains("jobs_checksum mismatch"), "{err}");

        // A torn tail: the file ends mid-row.
        let torn = &text[..text.len() - 30];
        std::fs::write(&path, torn).unwrap();
        let err = load_shard_file(&path).unwrap_err();
        assert!(err.contains("parse"), "{err}");

        // A truncated manifest job list: declared total disagrees.
        let mut bad = report.clone();
        bad.manifest.total_jobs = 7;
        std::fs::write(&path, bad.render().unwrap()).unwrap();
        let err = load_shard_file(&path).unwrap_err();
        assert!(err.contains("manifest"), "{err}");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_second_quarantine_keeps_the_first_ones_bytes() {
        let dir = tmp("quarantine-twice");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        fs::write(&path, "first").unwrap();
        let first = quarantine(&path).unwrap();
        fs::write(&path, "second").unwrap();
        let second = quarantine(&path).unwrap();
        assert_eq!(first, dir.join("entry.json.quarantine"));
        assert_eq!(second, dir.join("entry.json.quarantine.1"));
        assert_eq!(fs::read_to_string(&first).unwrap(), "first");
        assert_eq!(fs::read_to_string(&second).unwrap(), "second");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
