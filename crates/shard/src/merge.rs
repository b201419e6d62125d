//! The verified merge: union shard result files into one sweep report,
//! or produce typed findings explaining exactly why that would be unsafe.
//!
//! The merge never guesses. Every file is fully verified on load (JSON
//! shape, manifest consistency, `jobs_checksum` over the re-rendered
//! rows); corrupt or torn files are quarantined (`<path>.quarantine`)
//! with a typed finding. Files from different sweeps (mismatched
//! sweep/config fingerprints, commits, or shard counts) are rejected.
//! Every row must be owned by the shard that wrote it (overlapping
//! assignments are findings), belong to the manifest (unknown jobs are
//! findings), and duplicates are resolved by byte-equality of their
//! rendered rows (diverging duplicates are findings). Finally the union
//! must cover the manifest *exactly* — a missing shard or a missing row
//! is a finding, never a silent partial merge.
//!
//! Any finding means no merged output is produced; the CLI maps that to
//! exit code 5.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::PathBuf;

use crate::manifest::{parse_fingerprint, SweepManifest};
use crate::partition::shard_of;
use crate::report::{load_shard_file, quarantine, row_texts, CounterEntry, JobRow, SweepReport};

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
            FindingKind::ExpectationMismatch => "expectation-mismatch",
        }
    }
}

/// One typed merge violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeFinding {
    /// What kind of violation.
    pub kind: FindingKind,
    /// The file the violation was found in (or about); empty for a
    /// finding about the sweep as a whole (a missing shard or job).
    pub path: String,
    /// One-line description with enough identity to act on.
    pub detail: String,
}

impl fmt::Display for MergeFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "[{}] {}", self.kind.code(), self.detail)
        } else {
            write!(f, "[{}] {}: {}", self.kind.code(), self.path, self.detail)
        }
    }
}

/// The outcome of a merge attempt.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged sweep — present only when there are no findings. Its
    /// manifest reads shard 0 of 1: the merge *is* the whole sweep.
    pub merged: Option<SweepReport>,
    /// Every violation, in discovery order.
    pub findings: Vec<MergeFinding>,
    /// Benign observations (identical duplicates resolved, etc.).
    pub notes: Vec<String>,
    /// Files quarantined during the merge.
    pub quarantined: Vec<String>,
    /// Files that loaded and verified cleanly.
    pub files_ok: usize,
}

/// Merges the shard result files at `paths`. A file that fails
/// load-verification is renamed to `<path>.quarantine` (never deleted or
/// overwritten).
///
/// Infallible at the API level: every problem is a typed finding in the
/// returned [`MergeOutcome`], and `merged` is `Some` iff there are none.
#[must_use]
pub fn merge_files(paths: &[PathBuf]) -> MergeOutcome {
    let _span = gpumech_obs::span!("shard.merge.run", files = paths.len());
    let mut findings: Vec<MergeFinding> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut quarantined: Vec<String> = Vec::new();

    // Load + verify every file; corrupt files become findings (and are
    // quarantined), the rest proceed.
    let mut files: Vec<(String, SweepReport)> = Vec::new();
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
                if let Some(target) = quarantine(path) {
                    quarantined.push(target.display().to_string());
                }
            }
        }
    }
    let files_ok = files.len();
    gpumech_obs::counter!("shard.merge.files", files_ok as u64);

    let Some((first_shown, first)) = files.first() else {
        findings.push(MergeFinding {
            kind: FindingKind::MissingShard,
            path: String::new(),
            detail: "no valid shard files to merge".to_string(),
        });
        return finish(None, findings, notes, quarantined, files_ok);
    };
    let reference = first.manifest.clone();

    // Cross-sweep rejection: every manifest must agree with the first
    // file that loaded (modulo shard index).
    for (shown, f) in &files {
        if !f.manifest.same_sweep(&reference) {
            findings.push(MergeFinding {
                kind: FindingKind::CrossSweepMix,
                path: shown.clone(),
                detail: format!(
                    "manifest disagrees with {}: sweep {} vs {}, {} vs {} shard(s), \
                     commit {:?} vs {:?}",
                    first_shown,
                    f.manifest.sweep_fingerprint,
                    reference.sweep_fingerprint,
                    f.manifest.shard_count,
                    reference.shard_count,
                    f.manifest.git_commit,
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

    // Union rows: fingerprint -> (rendered row, row, source path).
    // Duplicates are resolved by byte equality of the rendered rows;
    // divergence is a conflict finding.
    let mut union: HashMap<u64, (String, &JobRow, &str)> = HashMap::new();
    let mut present_shards: BTreeSet<u32> = BTreeSet::new();
    for (shown, f) in &files {
        present_shards.insert(f.manifest.shard_index);
        let Ok(texts) = row_texts(&f.jobs) else { continue }; // rendered on load
        for (i, (row, text)) in f.jobs.iter().zip(texts).enumerate() {
            let label = &row.label;
            let Some(fp) = parse_fingerprint(&row.fingerprint) else { continue }; // checked on load
            if !manifest_set.contains(&fp) {
                findings.push(MergeFinding {
                    kind: FindingKind::UnknownJob,
                    path: shown.clone(),
                    detail: format!("row {i} ({label:?}, {fp:016x}) is not in the sweep manifest"),
                });
                continue;
            }
            let owner = shard_of(fp, count);
            if owner != f.manifest.shard_index {
                findings.push(MergeFinding {
                    kind: FindingKind::MisassignedJob,
                    path: shown.clone(),
                    detail: format!(
                        "row {i} ({label:?}, {fp:016x}) belongs to shard {owner}, not shard {} \
                         (overlapping shard assignment)",
                        f.manifest.shard_index
                    ),
                });
                continue;
            }
            match union.get(&fp) {
                None => {
                    union.insert(fp, (text, row, shown));
                }
                Some((existing, _, from)) if *existing == text => {
                    notes.push(format!(
                        "job {label:?} ({fp:016x}) duplicated byte-identically in {from} and \
                         {shown}; kept one copy"
                    ));
                }
                Some((_, _, from)) => {
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

    gpumech_obs::counter!("shard.merge.findings", findings.len() as u64);
    if !findings.is_empty() {
        return finish(None, findings, notes, quarantined, files_ok);
    }

    // Clean: rows in manifest enumeration order. Repeated manifest
    // fingerprints (legal: enumeration defines multiplicity) emit their
    // row once per occurrence, matching the unsharded writer.
    let jobs: Vec<JobRow> = manifest_fps
        .iter()
        .filter_map(|fp| union.get(fp).map(|&(_, row, _)| row.clone()))
        .collect();
    gpumech_obs::counter!("shard.merge.rows", jobs.len() as u64);

    let mut counter_sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut workers = 0u64;
    let mut cache_entries = 0u64;
    for (_, f) in &files {
        workers += f.workers;
        cache_entries += f.cache_entries;
        for c in &f.counters {
            *counter_sums.entry(c.name.clone()).or_insert(0) += c.total;
        }
    }
    let merged = SweepReport {
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
        jobs_checksum: String::new(), // recomputed on render
        jobs,
    };
    finish(Some(merged), findings, notes, quarantined, files_ok)
}

fn finish(
    merged: Option<SweepReport>,
    findings: Vec<MergeFinding>,
    notes: Vec<String>,
    quarantined: Vec<String>,
    files_ok: usize,
) -> MergeOutcome {
    MergeOutcome { merged, findings, notes, quarantined, files_ok }
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
