//! The verified merge: union shard result files into one sweep report,
//! or produce typed findings explaining exactly why that would be unsafe.
//!
//! The merge never guesses. Every file is fully verified on load (JSON
//! shape, manifest consistency, `jobs_checksum`); corrupt or torn files
//! are quarantined (`<path>.quarantine`) with a typed finding. Files from
//! different sweeps (mismatched sweep/config fingerprints, commits, or
//! shard counts) are rejected. Every row must be owned by the shard that
//! wrote it (overlapping assignments are findings), belong to the
//! manifest (unknown jobs are findings), and duplicates are resolved by
//! byte-equality (diverging duplicates are findings). Finally the union
//! must cover the manifest *exactly* — a missing shard or a missing row
//! is a finding, never a silent partial merge.
//!
//! Any finding means no merged output is produced; the CLI maps that to
//! exit code 5.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

use gpumech_exec::resilience::Journal;

use crate::manifest::SweepManifest;
use crate::partition::shard_of;
use crate::report::{load_shard_file, quarantine, render_parts, write_atomic, CounterEntry, ShardFile};

/// What kind of merge violation a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The file failed verification on load (unreadable, malformed JSON,
    /// inconsistent manifest, torn tail, or checksum mismatch). The file
    /// is quarantined.
    CorruptShardFile,
    /// The file's manifest disagrees with the other shards' — it belongs
    /// to a different sweep (or a different shard count of this sweep).
    CrossSweepMix,
    /// A shard index required by the manifest has no (valid) file.
    MissingShard,
    /// The same job appears in more than one file with different bytes.
    DuplicateJobConflict,
    /// A row appears in a file whose shard does not own its fingerprint
    /// (overlapping or misassigned shard work).
    MisassignedJob,
    /// A row's fingerprint is not in the sweep manifest.
    UnknownJob,
    /// A manifest job is covered by no row even though its owning shard's
    /// file is present.
    CoverageGap,
    /// A shard journal cannot be read, or holds an entry that is not a job
    /// of this sweep.
    JournalCorrupt,
    /// The merged output does not match the `--expect` reference run.
    ExpectationMismatch,
}

impl FindingKind {
    /// Stable kebab-case code for reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::CorruptShardFile => "corrupt-shard-file",
            FindingKind::CrossSweepMix => "cross-sweep-mix",
            FindingKind::MissingShard => "missing-shard",
            FindingKind::DuplicateJobConflict => "duplicate-job-conflict",
            FindingKind::MisassignedJob => "misassigned-job",
            FindingKind::UnknownJob => "unknown-job",
            FindingKind::CoverageGap => "coverage-gap",
            FindingKind::JournalCorrupt => "journal-corrupt",
            FindingKind::ExpectationMismatch => "expectation-mismatch",
        }
    }
}

/// One typed merge violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeFinding {
    /// What kind of violation.
    pub kind: FindingKind,
    /// The file the violation was found in (or about).
    pub path: String,
    /// One-line description with enough identity to act on.
    pub detail: String,
}

impl fmt::Display for MergeFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.code(), self.path, self.detail)
    }
}

/// Merge configuration.
#[derive(Debug, Clone, Default)]
pub struct MergeOptions {
    /// Rename files that fail load-verification to `<path>.quarantine`
    /// (the cache-layer convention) instead of leaving them in place.
    pub quarantine: bool,
    /// Shard journals to cross-check: every entry a resume would replay
    /// must belong to the manifest.
    pub journals: Vec<PathBuf>,
}

/// A verified merged sweep, ready to render.
#[derive(Debug, Clone)]
pub struct MergedSweep {
    /// The merged manifest (shard 0 of 1: the merge *is* the whole sweep).
    pub manifest: SweepManifest,
    /// Sum of shard worker counts (informational).
    pub workers: u64,
    /// Sum of shard cache entries (informational).
    pub cache_entries: u64,
    /// Counters summed across shards by name.
    pub counters: Vec<CounterEntry>,
    /// Raw row text per job, in manifest enumeration order, spliced
    /// byte-for-byte from the shard files.
    pub raw_rows: Vec<String>,
    /// Parsed rows, parallel to `raw_rows`.
    pub rows: Vec<crate::report::JobRow>,
}

/// The outcome of a merge attempt.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged sweep — present only when there are no findings.
    pub merged: Option<MergedSweep>,
    /// Every violation, in discovery order.
    pub findings: Vec<MergeFinding>,
    /// Benign observations (identical duplicates resolved, etc.).
    pub notes: Vec<String>,
    /// Files quarantined during the merge.
    pub quarantined: Vec<String>,
    /// Files that loaded and verified cleanly.
    pub files_ok: usize,
}

/// Merges the shard result files at `paths`.
///
/// Infallible at the API level: every problem is a typed finding in the
/// returned [`MergeOutcome`], and `merged` is `Some` iff there are none.
#[must_use]
pub fn merge_files(paths: &[PathBuf], opts: &MergeOptions) -> MergeOutcome {
    let _span = gpumech_obs::span!("shard.merge.run", files = paths.len());
    let mut findings: Vec<MergeFinding> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut quarantined: Vec<String> = Vec::new();

    // Load + verify every file; corrupt files become findings (and are
    // quarantined), the rest proceed.
    let mut files: Vec<(String, ShardFile)> = Vec::new();
    for path in paths {
        let shown = path.display().to_string();
        match load_shard_file(path) {
            Ok(f) => files.push((shown, f)),
            Err(detail) => {
                gpumech_obs::counter!("shard.merge.corrupt_files");
                findings.push(MergeFinding {
                    kind: FindingKind::CorruptShardFile,
                    path: shown.clone(),
                    detail,
                });
                if opts.quarantine {
                    if let Some(target) = quarantine(path) {
                        quarantined.push(target.display().to_string());
                    }
                }
            }
        }
    }
    let files_ok = files.len();
    gpumech_obs::counter!("shard.merge.files", files_ok as u64);

    let Some((_, first)) = files.first() else {
        findings.push(MergeFinding {
            kind: FindingKind::MissingShard,
            path: String::new(),
            detail: "no valid shard files to merge".to_string(),
        });
        return finish(None, findings, notes, quarantined, files_ok);
    };
    let reference = first.report.manifest.clone();

    // Cross-sweep rejection: every manifest must agree with the first
    // (modulo shard index).
    for (shown, f) in &files {
        if !f.report.manifest.same_sweep(&reference) {
            findings.push(MergeFinding {
                kind: FindingKind::CrossSweepMix,
                path: shown.clone(),
                detail: format!(
                    "manifest disagrees with {}: sweep {} vs {}, {} vs {} shard(s), \
                     commit {:?} vs {:?}",
                    paths.first().map_or_else(String::new, |p| p.display().to_string()),
                    f.report.manifest.sweep_fingerprint,
                    reference.sweep_fingerprint,
                    f.report.manifest.shard_count,
                    reference.shard_count,
                    f.report.manifest.git_commit,
                    reference.git_commit,
                ),
            });
        }
    }
    if findings.iter().any(|f| f.kind == FindingKind::CrossSweepMix) {
        return finish(None, findings, notes, quarantined, files_ok);
    }

    let manifest_fps: Vec<u64> = match reference.job_fps() {
        Ok(fps) => fps,
        Err(detail) => {
            findings.push(MergeFinding {
                kind: FindingKind::CorruptShardFile,
                path: files[0].0.clone(),
                detail,
            });
            return finish(None, findings, notes, quarantined, files_ok);
        }
    };
    let manifest_set: BTreeSet<u64> = manifest_fps.iter().copied().collect();
    let count = reference.shard_count;

    // Union rows: fingerprint -> (raw bytes, source path). Duplicates are
    // resolved by byte equality; divergence is a conflict finding.
    let mut union: HashMap<u64, (String, String)> = HashMap::new();
    let mut present_shards: BTreeSet<u32> = BTreeSet::new();
    for (shown, f) in &files {
        present_shards.insert(f.report.manifest.shard_index);
        for (i, fp) in f.row_fps.iter().enumerate() {
            let raw = &f.raw_rows[i];
            let label = &f.report.jobs[i].label;
            if !manifest_set.contains(fp) {
                findings.push(MergeFinding {
                    kind: FindingKind::UnknownJob,
                    path: shown.clone(),
                    detail: format!("row {i} ({label:?}, {fp:016x}) is not in the sweep manifest"),
                });
                continue;
            }
            let owner = shard_of(*fp, count);
            if owner != f.report.manifest.shard_index {
                findings.push(MergeFinding {
                    kind: FindingKind::MisassignedJob,
                    path: shown.clone(),
                    detail: format!(
                        "row {i} ({label:?}, {fp:016x}) belongs to shard {owner}, not shard {} \
                         (overlapping shard assignment)",
                        f.report.manifest.shard_index
                    ),
                });
                continue;
            }
            match union.get(fp) {
                None => {
                    union.insert(*fp, (raw.clone(), shown.clone()));
                }
                Some((existing, from)) if existing == raw => {
                    notes.push(format!(
                        "job {label:?} ({fp:016x}) duplicated byte-identically in {from} and \
                         {shown}; kept one copy"
                    ));
                }
                Some((_, from)) => {
                    findings.push(MergeFinding {
                        kind: FindingKind::DuplicateJobConflict,
                        path: shown.clone(),
                        detail: format!(
                            "job {label:?} ({fp:016x}) also present in {from} with different \
                             bytes — refusing to pick one"
                        ),
                    });
                }
            }
        }
    }

    // Coverage: every shard index must have contributed a file, and every
    // manifest job must be covered. A wholly missing shard is reported
    // once (not once per job it owned).
    for shard in 0..count {
        if !present_shards.contains(&shard) {
            let owned = manifest_fps.iter().filter(|&&fp| shard_of(fp, count) == shard).count();
            findings.push(MergeFinding {
                kind: FindingKind::MissingShard,
                path: String::new(),
                detail: format!(
                    "no valid file for shard {shard}/{count} ({owned} job(s) uncovered)"
                ),
            });
        }
    }
    for fp in &manifest_set {
        let owner = shard_of(*fp, count);
        if !union.contains_key(fp) && present_shards.contains(&owner) {
            findings.push(MergeFinding {
                kind: FindingKind::CoverageGap,
                path: String::new(),
                detail: format!(
                    "manifest job {fp:016x} missing from shard {owner}'s file (incomplete run?)"
                ),
            });
        }
    }

    for journal in &opts.journals {
        check_journal(journal, &manifest_set, &mut findings);
    }

    gpumech_obs::counter!("shard.merge.findings", findings.len() as u64);
    if !findings.is_empty() {
        return finish(None, findings, notes, quarantined, files_ok);
    }

    // Clean: splice rows in manifest enumeration order. Repeated manifest
    // fingerprints (legal: enumeration defines multiplicity) emit their
    // row text once per occurrence, matching the unsharded writer.
    let mut raw_rows = Vec::with_capacity(manifest_fps.len());
    let mut rows = Vec::with_capacity(manifest_fps.len());
    let by_fp: HashMap<u64, &crate::report::JobRow> = files
        .iter()
        .flat_map(|(_, f)| f.row_fps.iter().copied().zip(f.report.jobs.iter()))
        .collect();
    for fp in &manifest_fps {
        if let (Some((raw, _)), Some(row)) = (union.get(fp), by_fp.get(fp)) {
            raw_rows.push(raw.clone());
            rows.push((*row).clone());
        }
    }
    gpumech_obs::counter!("shard.merge.rows", raw_rows.len() as u64);

    let mut counter_sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut workers = 0u64;
    let mut cache_entries = 0u64;
    for (_, f) in &files {
        workers += f.report.workers;
        cache_entries += f.report.cache_entries;
        for c in &f.report.counters {
            *counter_sums.entry(c.name.clone()).or_insert(0) += c.total;
        }
    }
    let merged = MergedSweep {
        manifest: SweepManifest {
            shard_index: 0,
            shard_count: 1,
            ..reference
        },
        workers,
        cache_entries,
        counters: counter_sums
            .into_iter()
            .map(|(name, total)| CounterEntry { name, total })
            .collect(),
        raw_rows,
        rows,
    };
    finish(Some(merged), findings, notes, quarantined, files_ok)
}

fn finish(
    merged: Option<MergedSweep>,
    findings: Vec<MergeFinding>,
    notes: Vec<String>,
    quarantined: Vec<String>,
    files_ok: usize,
) -> MergeOutcome {
    MergeOutcome { merged, findings, notes, quarantined, files_ok }
}

/// Verifies one shard journal against the manifest fingerprint set. The
/// journal is read as `--resume` reads it: a torn line (a writer killed
/// mid-append, which the next append starts a fresh line after) is a job
/// not done, not corruption.
fn check_journal(path: &Path, manifest: &BTreeSet<u64>, findings: &mut Vec<MergeFinding>) {
    let shown = path.display().to_string();
    if let Err(e) = std::fs::read_to_string(path) {
        findings.push(MergeFinding {
            kind: FindingKind::JournalCorrupt,
            path: shown,
            detail: format!("read: {e}"),
        });
        return;
    }
    let foreign: BTreeMap<u64, String> = Journal::new(path)
        .load()
        .into_iter()
        .filter(|(fp, _)| !manifest.contains(fp))
        .map(|(fp, e)| (fp, e.label))
        .collect();
    for (fp, label) in foreign {
        findings.push(MergeFinding {
            kind: FindingKind::JournalCorrupt,
            path: shown.clone(),
            detail: format!("entry ({label:?}, {fp:016x}) is not a job of this sweep"),
        });
    }
}

impl MergedSweep {
    /// Renders the merged file in the canonical shard-file layout.
    ///
    /// # Errors
    ///
    /// Serialization failure, rendered.
    pub fn render_json(&self) -> Result<String, String> {
        let manifest = serde_json::to_string(&self.manifest).map_err(|e| e.to_string())?;
        let counters = serde_json::to_string(&self.counters).map_err(|e| e.to_string())?;
        Ok(render_parts(&manifest, self.workers, self.cache_entries, &counters, &self.raw_rows))
    }

    /// Writes the merged file atomically.
    ///
    /// # Errors
    ///
    /// Serialization or I/O failure, rendered.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        write_atomic(path, &self.render_json()?)
    }

    /// The markdown sweep report: per-kernel CPI stacks, the
    /// error-vs-oracle table, failures, and cache/resilience counters.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let ok = self.rows.iter().filter(|r| r.error.is_none()).count();
        let failed = self.rows.len() - ok;
        let mut out = String::from("# GPUMech sweep report\n\n");
        out.push_str(&format!(
            "- sweep fingerprint: `{}`\n- config fingerprint: `{}`\n- git commit: `{}`\n\
             - jobs: {} ({ok} ok, {failed} failed)\n\n",
            self.manifest.sweep_fingerprint,
            self.manifest.config_fingerprint,
            self.manifest.git_commit,
            self.rows.len(),
        ));

        out.push_str("## Per-kernel CPI stacks\n\n");
        out.push_str("| job | BASE | DEP | L1 | L2 | DRAM | MSHR | QUEUE | CPI | IPC |\n");
        out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
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
        let with_oracle: Vec<&crate::report::JobRow> =
            self.rows.iter().filter(|r| r.oracle_cpi.is_some() && r.cpi.is_some()).collect();
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
            for r in self.rows.iter().filter(|r| r.error.is_some()) {
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

/// Compares a merged rendering against a reference (unsharded) run's file
/// text, from the `jobs_checksum` field on — the byte-identity contract.
/// Everything before that field (workers, counters, shard index) is
/// legitimately run-dependent. Returns `None` on a match, or a one-line
/// mismatch description.
#[must_use]
pub fn verify_expectation(merged_text: &str, expect_text: &str) -> Option<String> {
    let key = "\"jobs_checksum\"";
    let tail = |text: &str| text.find(key).map(|i| text[i..].to_string());
    match (tail(merged_text), tail(expect_text)) {
        (None, _) => Some("merged output has no jobs_checksum field".to_string()),
        (_, None) => Some("reference file has no jobs_checksum field".to_string()),
        (Some(a), Some(b)) if a == b => None,
        (Some(a), Some(b)) => {
            // Name the first differing line for the report.
            let line = a
                .lines()
                .zip(b.lines())
                .position(|(x, y)| x != y)
                .map_or_else(|| "lengths differ".to_string(), |i| format!("first at line {i}"));
            Some(format!(
                "merged jobs differ from the reference run ({line} after jobs_checksum)"
            ))
        }
    }
}
