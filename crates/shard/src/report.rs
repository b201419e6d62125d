//! The shard result file: the canonical on-disk sweep report format.
//!
//! The format is JSON, but with a *fixed physical layout* so that merges
//! can operate on raw bytes: the manifest, counters, and `jobs_checksum`
//! each occupy their own line, and every job row is one compact JSON
//! object on its own line inside the `jobs` array. The merge verifier
//! never re-serializes rows — it splices the raw row text from the shard
//! files into the merged file — so a clean merge is byte-identical (from
//! `jobs_checksum` on) to the same sweep run unsharded, and duplicate
//! detection is plain byte equality.
//!
//! `jobs_checksum` is a content hash over the compact row texts; a
//! bit-flipped or truncated row fails the checksum and the whole file is
//! treated as corrupt (typed finding + quarantine), never silently
//! merged.

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
pub fn rows_checksum(raw_rows: &[String]) -> String {
    fingerprint_hex(payload_checksum(raw_rows.join("\n").as_bytes()))
}

/// Renders the canonical file text from pre-serialized parts. Both the
/// batch writer and the merge writer go through here, which is what makes
/// their outputs byte-comparable.
#[must_use]
pub fn render_parts(
    manifest_json: &str,
    workers: u64,
    cache_entries: u64,
    counters_json: &str,
    raw_rows: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    // Run-dependent fields (worker count, cache size, counters) come
    // first; everything from the manifest on is sweep content, so the
    // byte-compared tail of the file — from the first `"jobs"` key, which
    // lives inside the compact manifest — is identical across resumes,
    // shards, and the unsharded reference run.
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!("  \"cache_entries\": {cache_entries},\n"));
    out.push_str(&format!("  \"counters\": {counters_json},\n"));
    out.push_str(&format!("  \"manifest\": {manifest_json},\n"));
    out.push_str(&format!("  \"jobs_checksum\": \"{}\",\n", rows_checksum(raw_rows)));
    out.push_str("  \"jobs\": [\n");
    for (i, row) in raw_rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(row);
        out.push_str(if i + 1 < raw_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
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
        let mut rows = Vec::with_capacity(self.jobs.len());
        for row in &self.jobs {
            rows.push(serde_json::to_string(row).map_err(|e| e.to_string())?);
        }
        Ok(render_parts(&manifest, self.workers, self.cache_entries, &counters, &rows))
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
}

/// A parsed shard file: the structured report plus the raw row texts as
/// they appear on disk (the merge's unit of byte comparison).
#[derive(Debug, Clone)]
pub struct ShardFile {
    /// The parsed report.
    pub report: SweepReport,
    /// Compact row text per job, exactly as stored (whitespace-trimmed).
    pub raw_rows: Vec<String>,
    /// Decoded fingerprint per row, parallel to `raw_rows`.
    pub row_fps: Vec<u64>,
}

/// Loads and fully verifies one shard file: JSON parse, manifest
/// consistency, raw-row extraction, per-row fingerprint decode, row/field
/// agreement, and the `jobs_checksum` content check.
///
/// # Errors
///
/// A one-line description of the first defect — the caller turns it into
/// a typed corrupt-file finding.
pub fn load_shard_file(path: &Path) -> Result<ShardFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let report: SweepReport =
        serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))?;
    report.manifest.validate().map_err(|m| format!("manifest: {m}"))?;
    let raw_rows = extract_raw_rows(&text)?;
    if raw_rows.len() != report.jobs.len() {
        return Err(format!(
            "jobs array extracted {} raw row(s) but parsed {}",
            raw_rows.len(),
            report.jobs.len()
        ));
    }
    let actual = rows_checksum(&raw_rows);
    if actual != report.jobs_checksum {
        return Err(format!(
            "jobs_checksum mismatch: stored {} computed {actual} (bit rot or torn write)",
            report.jobs_checksum
        ));
    }
    let mut row_fps = Vec::with_capacity(report.jobs.len());
    for (i, row) in report.jobs.iter().enumerate() {
        let fp = parse_fingerprint(&row.fingerprint)
            .ok_or_else(|| format!("row {i} fingerprint malformed: {:?}", row.fingerprint))?;
        row_fps.push(fp);
    }
    Ok(ShardFile { report, raw_rows, row_fps })
}

/// Extracts the compact row texts from the `jobs` array of a canonical
/// file, string- and escape-aware, without re-serializing anything.
fn extract_raw_rows(text: &str) -> Result<Vec<String>, String> {
    let key = "\"jobs\": [";
    let start = text.find(key).ok_or_else(|| "no \"jobs\" array".to_string())?;
    let body = &text[start + key.len()..];
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut current = String::new();
    for c in body.chars() {
        if in_string {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                current.push(c);
            }
            '{' | '[' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth = depth.checked_sub(1).ok_or_else(|| "unbalanced jobs array".to_string())?;
                current.push(c);
            }
            ']' => {
                if depth == 0 {
                    // End of the jobs array.
                    let last = current.trim();
                    if !last.is_empty() {
                        rows.push(last.to_string());
                    }
                    return Ok(rows);
                }
                depth -= 1;
                current.push(c);
            }
            ',' if depth == 0 => {
                let row = current.trim();
                if row.is_empty() {
                    return Err("empty element in jobs array".to_string());
                }
                rows.push(row.to_string());
                current.clear();
            }
            other => current.push(other),
        }
    }
    Err("jobs array never closes (torn tail)".to_string())
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
    fn render_load_round_trips_with_raw_rows() {
        let report = sample();
        let path = tmp("roundtrip.json");
        report.write(&path).unwrap();
        let loaded = load_shard_file(&path).unwrap();
        assert_eq!(loaded.report.jobs, report.jobs);
        assert_eq!(loaded.report.manifest, report.manifest);
        assert_eq!(loaded.raw_rows.len(), 3);
        assert_eq!(loaded.row_fps, vec![0x10, 0x20, 0x30]);
        // Raw rows are exactly the compact serialization (including rows
        // with braces and quotes inside string values).
        for (raw, row) in loaded.raw_rows.iter().zip(&report.jobs) {
            assert_eq!(raw, &serde_json::to_string(row).unwrap());
        }
        // The stored checksum matches the recomputed one by construction.
        assert_eq!(loaded.report.jobs_checksum, rows_checksum(&loaded.raw_rows));
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
        assert!(loaded.raw_rows.is_empty());
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
