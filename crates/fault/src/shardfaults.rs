//! Shard-merge corruption corpus: fabricates a healthy sharded sweep on
//! disk, then corrupts it in every way the verified merge must detect.
//!
//! The merge contract under test ([`gpumech_shard::merge_files`]) is the
//! mirror of the pipeline contract: **no shard-file corruption — however
//! nasty — may panic the merge or leak into a merged output**. Every
//! mutation in [`SHARD_FAULTS`] must surface as a typed
//! [`MergeFinding`](gpumech_shard::MergeFinding) with the declared
//! [`FindingKind`], and `merged` must stay `None`.
//!
//! The fabricator builds the sweep purely in-process (synthetic job
//! fingerprints partitioned with the real [`gpumech_shard::shard_of`],
//! rendered through the real [`SweepReport`] writer), so the corpus
//! exercises the exact on-disk format `gpumech batch --shard` produces
//! without spawning processes.
//!
//! All variation is seeded: a failing case reproduces byte-for-byte.

use std::path::{Path, PathBuf};

use gpumech_core::CpiStack;
use gpumech_shard::{
    fingerprint_hex, load_shard_file, shard_of, FindingKind, JobRow, ShardSpec, SweepManifest,
    SweepReport,
};
use gpumech_trace::splitmix64;

/// A fabricated sharded sweep on disk: the merge inputs plus the ground
/// truth needed to corrupt them surgically.
#[derive(Debug, Clone)]
pub struct SweepCase {
    /// Workspace directory holding every file of the case.
    pub dir: PathBuf,
    /// Shard result files, in shard order — the merge input. Mutators may
    /// add (duplicate copies) or remove (missing shard) entries.
    pub paths: Vec<PathBuf>,
    /// The sweep's job fingerprints in enumeration order.
    pub manifest_fps: Vec<u64>,
    /// Shard count the sweep was fabricated with.
    pub shards: u32,
}

/// Seed mixed into fabricated job fingerprints.
const JOB_SEED: u64 = 0x5EED_0001;

/// Deterministic synthetic row for job `i` of the sweep.
fn row(i: usize, fp: u64) -> JobRow {
    JobRow {
        label: format!("job-{i}"),
        fingerprint: fingerprint_hex(fp),
        cpi: Some(1.0 + 0.25 * i as f64),
        ipc: Some(1.0 / (1.0 + 0.25 * i as f64)),
        stack: Some(CpiStack { base: 1.0, ..CpiStack::default() }),
        oracle_cpi: None,
        error: None,
        warnings: Vec::new(),
    }
}

/// Fabricates a healthy `shards`-way sweep of `jobs` jobs under `dir`:
/// one verified result file per shard. A clean [`gpumech_shard::merge_files`]
/// over the returned case must succeed.
///
/// # Errors
///
/// Rendered I/O failure (the workspace could not be built).
pub fn fabricate_sweep(dir: &Path, shards: u32, jobs: usize) -> Result<SweepCase, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let fps: Vec<u64> = (0..jobs).map(|i| splitmix64(JOB_SEED.wrapping_add(i as u64))).collect();
    let mut paths = Vec::new();
    for shard in 0..shards {
        let spec = ShardSpec { index: shard, count: shards };
        let manifest = SweepManifest::new(spec, "deadbeef", 0xC0FF_EE00, &fps);
        let owned: Vec<(usize, u64)> = fps
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, fp)| shard_of(fp, shards) == shard)
            .collect();
        let report = SweepReport {
            manifest,
            workers: 2,
            cache_entries: owned.len() as u64,
            counters: Vec::new(),
            jobs_checksum: String::new(), // recomputed on render
            jobs: owned.iter().map(|&(i, fp)| row(i, fp)).collect(),
        };
        let path = dir.join(format!("shard-{shard}.json"));
        report.write(&path)?;
        paths.push(path);
    }
    Ok(SweepCase { dir: dir.to_path_buf(), paths, manifest_fps: fps, shards })
}

/// A mutator corrupts one fabricated sweep in place. `seed` varies the
/// corruption site deterministically.
pub type ShardMutator = fn(&mut SweepCase, u64) -> Result<(), String>;

/// One corpus entry: a named corruption and the finding it must produce.
pub struct ShardFault {
    /// Stable case name for failure messages.
    pub name: &'static str,
    /// The finding kind the merge must report for this corruption.
    pub expect: FindingKind,
    /// The corruption itself.
    pub mutate: ShardMutator,
}

/// The shard with the most rows (mutations that delete or move rows need
/// a donor that owns at least one).
fn fattest_shard(case: &SweepCase) -> Result<(usize, SweepReport), String> {
    let mut best: Option<(usize, SweepReport)> = None;
    for (i, path) in case.paths.iter().enumerate() {
        let report = load_shard_file(path)?;
        if best.as_ref().is_none_or(|(_, b)| report.jobs.len() > b.jobs.len()) {
            best = Some((i, report));
        }
    }
    best.ok_or_else(|| "sweep has no shard files".to_string())
}

fn torn_tail(case: &mut SweepCase, seed: u64) -> Result<(), String> {
    let path = &case.paths[(seed as usize) % case.paths.len()];
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    // Cutting two or more bytes always severs the closing `]}` or lands
    // mid-row; cutting just the final newline would still parse.
    let cut = 2 + (splitmix64(seed) as usize) % (bytes.len() / 2);
    std::fs::write(path, &bytes[..bytes.len() - cut]).map_err(|e| e.to_string())
}

fn bit_flip_in_rows(case: &mut SweepCase, seed: u64) -> Result<(), String> {
    let path = &case.paths[(seed as usize) % case.paths.len()];
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let start = text.find("\"jobs\": [").ok_or("no jobs array")?;
    let digits: Vec<usize> = text[start..]
        .char_indices()
        .filter(|&(_, c)| c.is_ascii_digit())
        .map(|(i, _)| start + i)
        .collect();
    let at = digits[(splitmix64(seed ^ 1) as usize) % digits.len()];
    let mut bytes = text.into_bytes();
    bytes[at] = b'0' + ((bytes[at] - b'0') + 1 + (seed % 8) as u8) % 10;
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}

fn forged_checksum(case: &mut SweepCase, seed: u64) -> Result<(), String> {
    let path = &case.paths[(seed as usize) % case.paths.len()];
    // Store a syntactically valid but wrong checksum: render() would fix
    // it, so splice the forged value into the rendered text.
    let report = load_shard_file(path)?;
    let forged: String =
        report.jobs_checksum.chars().map(|c| if c == '0' { '1' } else { '0' }).collect();
    let text = report.render()?.replacen(&report.jobs_checksum, &forged, 1);
    std::fs::write(path, text).map_err(|e| e.to_string())
}

fn overlapping_assignment(case: &mut SweepCase, _seed: u64) -> Result<(), String> {
    // Move a copy of a row into a file whose shard does not own it.
    let (donor_idx, donor) = fattest_shard(case)?;
    let victim_idx = (donor_idx + 1) % case.paths.len();
    let stray = donor.jobs.first().ok_or("donor shard owns no rows")?.clone();
    let mut victim = load_shard_file(&case.paths[victim_idx])?;
    victim.jobs.push(stray);
    victim.write(&case.paths[victim_idx])
}

fn duplicate_with_different_bytes(case: &mut SweepCase, _seed: u64) -> Result<(), String> {
    // A "retry" copy of one shard's file where one row's value drifted:
    // the merge must refuse to pick a winner.
    let (_, mut retry) = fattest_shard(case)?;
    let first = retry.jobs.first_mut().ok_or("shard owns no rows")?;
    first.cpi = first.cpi.map(|c| c + 1.0);
    let path = case.dir.join("shard-retry.json");
    retry.write(&path)?;
    case.paths.push(path);
    Ok(())
}

fn missing_shard(case: &mut SweepCase, seed: u64) -> Result<(), String> {
    let at = (seed as usize) % case.paths.len();
    let path = case.paths.remove(at);
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}

fn cross_sweep_mix(case: &mut SweepCase, seed: u64) -> Result<(), String> {
    let at = (seed as usize) % case.paths.len();
    let mut report = load_shard_file(&case.paths[at])?;
    report.manifest.git_commit = "f00dface".to_string();
    report.write(&case.paths[at])
}

fn unknown_job(case: &mut SweepCase, _seed: u64) -> Result<(), String> {
    let (idx, mut report) = fattest_shard(case)?;
    let mut fp = 0xDEAD_BEEF_DEAD_BEEFu64;
    while case.manifest_fps.contains(&fp) {
        fp ^= 1;
    }
    report.jobs.push(JobRow { label: "stray".to_string(), ..row(999, fp) });
    report.write(&case.paths[idx])
}

fn coverage_gap(case: &mut SweepCase, _seed: u64) -> Result<(), String> {
    let (idx, mut report) = fattest_shard(case)?;
    report.jobs.pop().ok_or("shard owns no rows")?;
    report.write(&case.paths[idx])
}

/// Every way a sharded sweep can rot on disk, and the typed finding the
/// merge must answer with.
pub const SHARD_FAULTS: &[ShardFault] = &[
    ShardFault {
        name: "torn_tail",
        expect: FindingKind::CorruptShardFile,
        mutate: torn_tail,
    },
    ShardFault {
        name: "bit_flip_in_rows",
        expect: FindingKind::CorruptShardFile,
        mutate: bit_flip_in_rows,
    },
    ShardFault {
        name: "forged_checksum",
        expect: FindingKind::CorruptShardFile,
        mutate: forged_checksum,
    },
    ShardFault {
        name: "overlapping_assignment",
        expect: FindingKind::MisassignedJob,
        mutate: overlapping_assignment,
    },
    ShardFault {
        name: "duplicate_with_different_bytes",
        expect: FindingKind::DuplicateJobConflict,
        mutate: duplicate_with_different_bytes,
    },
    ShardFault {
        name: "missing_shard",
        expect: FindingKind::MissingShard,
        mutate: missing_shard,
    },
    ShardFault {
        name: "cross_sweep_mix",
        expect: FindingKind::CrossSweepMix,
        mutate: cross_sweep_mix,
    },
    ShardFault {
        name: "unknown_job",
        expect: FindingKind::UnknownJob,
        mutate: unknown_job,
    },
    ShardFault {
        name: "coverage_gap",
        expect: FindingKind::CoverageGap,
        mutate: coverage_gap,
    },
];
