//! Content-addressed cache of [`Analysis`] results.
//!
//! The expensive half of a GPUMech run — functional cache simulation plus
//! per-warp interval profiles — depends only on the kernel trace and on
//! the *analysis-relevant* subset of [`SimConfig`] (cache geometry,
//! latencies, issue width, residency). The prediction-stage knobs the
//! paper sweeps in its design-space exploration (DRAM bandwidth, MSHR
//! count, SFU width, clock) do **not** feed the analysis, so a sweep over
//! them can reuse one cached analysis per trace.
//!
//! The cache key is a pair of stable 64-bit content fingerprints (a
//! lane-widened FNV-1a defined by this crate): the full trace content
//! (via the `Hash` impls of the trace records) and the canonical JSON of
//! a *normalized* configuration whose prediction-only fields are pinned
//! to defaults. The batch engine hashes a trace once per allocation and
//! serializes each distinct normalized configuration once per call.
//! Entries live in memory behind `Arc`s, each with its representative-warp
//! selections filled on first use; an optional disk directory persists the
//! analyses as JSON (vendored `serde_json`) across processes.
//! Hits, misses, and disk traffic are observable through the
//! `exec.cache.*` counters — the cache test asserts a warm second run
//! does zero analysis work purely from those counters.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{share_equal_intervals, Analysis, ModelError, Selection, SelectionMethod};
use gpumech_isa::SimConfig;
use gpumech_obs::{CancelToken, Interrupt};
use gpumech_trace::KernelTrace;

/// Stable, dependency-free content fingerprint: an FNV-1a variant that
/// absorbs 64-bit lanes per multiply instead of single bytes, with a
/// final avalanche.
///
/// Not `DefaultHasher`: that one is documented to vary across releases,
/// which would silently invalidate on-disk caches on a toolchain bump.
/// Not canonical byte-wise FNV-1a either: a trace fingerprint hashes
/// every dynamic instruction (tens of megabytes for a full-size grid),
/// and one multiply per byte made fingerprinting cost more than half of
/// the analysis it deduplicates. The function is defined by this crate
/// and must never change once released — on-disk cache filenames embed
/// its output.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn absorb(&mut self, lane: u64) {
        self.0 ^= lane;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        // The lane-wide multiply alone never moves high input bits toward
        // low output bits, so close with the splitmix64 finalizer.
        let h = self.0;
        let h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // Little-endian on every platform, so fingerprints (and the
            // disk-cache filenames derived from them) are portable.
            self.absorb(u64::from_le_bytes(c.try_into().unwrap_or([0; 8])));
        }
        for &b in chunks.remainder() {
            self.absorb(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.absorb(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.absorb(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.absorb(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.absorb(v as u64);
    }
}

/// Content fingerprint of a kernel trace (name, launch geometry, and
/// every dynamic instruction).
///
/// A full pass over the trace, so a
/// [`BatchEngine`](crate::batch::BatchEngine) computes it once per `Arc`'d
/// trace for as long as that allocation lives and reuses the value on
/// every later call; the value is this function's either way.
#[must_use]
pub fn trace_fingerprint(trace: &KernelTrace) -> u64 {
    let mut h = Fnv1a::new();
    trace.hash(&mut h);
    h.finish()
}

/// Fingerprint of the analysis-relevant subset of a configuration.
///
/// Two configurations that differ only in prediction-stage fields (clock,
/// DRAM bandwidth, MSHR count, scratchpad size, SFU width) produce the
/// same fingerprint, because [`gpumech_core::Gpumech::analyze`] produces
/// the same [`Analysis`] for them. Fields are hashed via the canonical
/// JSON of a normalized configuration, so the fingerprint tracks the
/// config schema instead of a hand-maintained field list.
#[must_use]
pub fn analysis_config_fingerprint(cfg: &SimConfig) -> u64 {
    normalized_config_fingerprint(&analysis_config(cfg))
}

/// The analysis-relevant subset of `cfg`: every prediction-stage field
/// pinned to its default. Configurations equal after this have equal
/// [`analysis_config_fingerprint`]s.
pub(crate) fn analysis_config(cfg: &SimConfig) -> SimConfig {
    SimConfig {
        num_cores: cfg.num_cores,
        simt_width: cfg.simt_width,
        max_warps_per_core: cfg.max_warps_per_core,
        issue_width: cfg.issue_width,
        latencies: cfg.latencies,
        l1: cfg.l1,
        l2: cfg.l2,
        dram_latency: cfg.dram_latency,
        ..SimConfig::default()
    }
}

/// [`analysis_config_fingerprint`] of an already normalized configuration.
pub(crate) fn normalized_config_fingerprint(normalized: &SimConfig) -> u64 {
    let mut h = Fnv1a::new();
    match serde_json::to_string(&normalized) {
        Ok(json) => json.hash(&mut h),
        // Unreachable for a plain config struct; fall back to hashing the
        // Debug rendering rather than failing the whole cache.
        Err(_) => format!("{normalized:?}").hash(&mut h),
    }
    h.finish()
}

/// A cache key: (trace content, analysis-relevant configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`trace_fingerprint`] of the kernel trace.
    pub trace: u64,
    /// [`analysis_config_fingerprint`] of the machine configuration.
    pub config: u64,
}

/// Computes the cache key for one (trace, configuration) pair.
#[must_use]
pub fn cache_key(trace: &KernelTrace, cfg: &SimConfig) -> CacheKey {
    CacheKey { trace: trace_fingerprint(trace), config: analysis_config_fingerprint(cfg) }
}

/// Magic + version tag opening every on-disk cache entry. Bumping the
/// version invalidates (quarantines) all previously written entries.
pub const DISK_FORMAT_TAG: &str = "GPUMECH-CACHE v2";

/// Checksum of an on-disk payload: the same lane-widened FNV-1a used for
/// fingerprints, applied to the raw payload bytes.
#[must_use]
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload);
    h.finish()
}

/// Why a disk entry was rejected and quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskDefect {
    /// Missing/foreign magic line or wrong format version.
    Header,
    /// Header `len` disagrees with the actual payload size (truncation or
    /// trailing garbage).
    Length,
    /// Checksum mismatch (bit rot, torn write).
    Checksum,
    /// Header and checksum fine but the JSON payload did not deserialize
    /// (schema drift).
    Payload,
}

impl fmt::Display for DiskDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskDefect::Header => write!(f, "bad or missing header"),
            DiskDefect::Length => write!(f, "payload length mismatch (truncated?)"),
            DiskDefect::Checksum => write!(f, "checksum mismatch"),
            DiskDefect::Payload => write!(f, "unparsable payload"),
        }
    }
}

/// Encodes one entry in the on-disk format:
/// `GPUMECH-CACHE v2 len=<bytes> crc=<16-hex>\n<json payload>`.
fn encode_disk_entry(json: &str) -> String {
    let payload = json.as_bytes();
    format!(
        "{DISK_FORMAT_TAG} len={} crc={:016x}\n{json}",
        payload.len(),
        payload_checksum(payload)
    )
}

/// Validates header, length, and checksum and returns the payload slice.
fn decode_disk_entry(text: &str) -> Result<&str, DiskDefect> {
    let (header, payload) = text.split_once('\n').ok_or(DiskDefect::Header)?;
    let rest = header.strip_prefix(DISK_FORMAT_TAG).ok_or(DiskDefect::Header)?;
    let mut len = None;
    let mut crc = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = field.strip_prefix("crc=") {
            crc = u64::from_str_radix(v, 16).ok();
        }
    }
    let (Some(len), Some(crc)) = (len, crc) else { return Err(DiskDefect::Header) };
    if payload.len() != len {
        return Err(DiskDefect::Length);
    }
    if payload_checksum(payload.as_bytes()) != crc {
        return Err(DiskDefect::Checksum);
    }
    Ok(payload)
}

/// Writes `text` to `path` atomically: into `<path>.tmp` beside it (the
/// directory is created if missing), then renamed into place, so a reader
/// sees the old file or the new one, never a torn mix. A writer killed
/// between the two steps leaves only the `.tmp`.
///
/// # Errors
///
/// The failing step's path and I/O error, rendered.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = with_suffix(path, ".tmp");
    fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Moves a file that failed validation to `<path>.quarantine` (never
/// deleted — the bytes are evidence — and never read again). Returns the
/// new path, or `None` when the rename failed.
#[must_use]
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let target = with_suffix(path, ".quarantine");
    fs::rename(path, &target).ok().map(|()| target)
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// One in-memory entry: an analysis and, per [`SelectionMethod`], the
/// representative-warp selection over it.
///
/// Selection reads only the interval profiles, and every job served by an
/// entry shares its analysis, so one selection per method serves them all.
/// The slots live and die with the entry: an evicted entry takes its
/// selections along, nothing of them is written to disk, and an entry
/// loaded from disk starts empty.
#[derive(Debug)]
pub(crate) struct CacheEntry {
    analysis: Arc<Analysis>,
    selections: [Mutex<Option<Arc<Selection>>>; 3],
}

impl CacheEntry {
    fn new(analysis: Arc<Analysis>) -> Self {
        Self { analysis, selections: Default::default() }
    }

    /// The entry's analysis.
    pub(crate) fn analysis(&self) -> &Arc<Analysis> {
        &self.analysis
    }

    /// The selection by `method`, made on first use under `cancel`.
    ///
    /// Single-flight: a slot's lock is held while its selection is made,
    /// so concurrent jobs wait for the one k-means instead of repeating
    /// it. An interrupted selection leaves the slot empty for the next job.
    pub(crate) fn selection(
        &self,
        method: SelectionMethod,
        cancel: &CancelToken,
    ) -> Result<Arc<Selection>, Interrupt> {
        let slot = match method {
            SelectionMethod::Max => 0,
            SelectionMethod::Min => 1,
            SelectionMethod::Clustering => 2,
        };
        let mut slot = self.selections[slot].lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(made) = &*slot {
            return Ok(Arc::clone(made));
        }
        let made = Arc::new(Selection::new(&self.analysis, method, cancel)?);
        *slot = Some(Arc::clone(&made));
        Ok(made)
    }
}

/// In-memory cache state: entries tagged with a logical access clock so
/// eviction can drop the least-recently-used one.
#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<CacheKey, (Arc<CacheEntry>, u64)>,
    tick: u64,
}

impl CacheState {
    fn touch(&mut self, key: CacheKey) -> Option<Arc<CacheEntry>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(a, used)| {
            *used = tick;
            Arc::clone(a)
        })
    }

    /// Inserts (or refreshes) `key` and evicts least-recently-used entries
    /// beyond `cap`. Returns the canonical `Arc` for `key` plus how many
    /// entries were evicted.
    fn insert_capped(
        &mut self,
        key: CacheKey,
        value: Arc<Analysis>,
        cap: Option<usize>,
    ) -> (Arc<CacheEntry>, u64) {
        self.tick += 1;
        let tick = self.tick;
        let arc = Arc::clone(
            &self.entries.entry(key).or_insert_with(|| (Arc::new(CacheEntry::new(value)), tick)).0,
        );
        let mut evicted = 0u64;
        if let Some(cap) = cap {
            let cap = cap.max(1);
            while self.entries.len() > cap {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                self.entries.remove(&victim);
                evicted += 1;
            }
        }
        (arc, evicted)
    }
}

/// Content-addressed, thread-safe cache of [`Analysis`] results.
///
/// In-memory always; [`ProfileCache::with_disk`] additionally persists
/// entries under a directory as `<trace>-<config>.json` files in a
/// versioned, checksummed envelope (see [`DISK_FORMAT_TAG`]), surviving
/// process restarts and — by design — process *crashes*:
///
/// * **Atomic writes** — entries are written to a `.tmp` sibling and
///   renamed into place, so a reader never observes a half-written file;
///   a crash mid-write leaves only a stale `.tmp`, which the next
///   [`ProfileCache::with_disk`] sweeps away.
/// * **Corruption quarantine** — an entry whose header, length, checksum,
///   or payload fails validation is renamed to `<file>.quarantine`
///   (preserved for inspection, never re-read), counted under
///   `exec.cache.quarantined`, reported as a warning, and recomputed.
/// * **Bounded memory** — [`ProfileCache::with_capacity`] caps the
///   in-memory map with least-recently-used eviction
///   (`exec.cache.evictions`); evicted entries remain on disk.
///
/// Disk failures are never fatal: they count as misses and are tallied
/// under `exec.cache.disk_errors`.
#[derive(Debug, Default)]
pub struct ProfileCache {
    state: Mutex<CacheState>,
    disk_dir: Option<PathBuf>,
    max_entries: Option<usize>,
}

impl ProfileCache {
    /// A purely in-memory cache.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache that also persists entries under `dir` (created on first
    /// write if missing). Stale `.tmp` files left by a crashed writer are
    /// removed immediately.
    #[must_use]
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        Self::sweep_stale_tmp(&dir);
        Self { state: Mutex::new(CacheState::default()), disk_dir: Some(dir), max_entries: None }
    }

    /// Caps the in-memory map at `max_entries` (minimum 1) with LRU
    /// eviction. Disk persistence, if configured, is unaffected: evicted
    /// entries reload from disk on their next use.
    #[must_use]
    pub fn with_capacity(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries.max(1));
        self
    }

    /// Removes leftover `.tmp` files from a previous writer that died
    /// mid-store. Rename is atomic, so anything still named `.tmp` is by
    /// definition an incomplete write.
    fn sweep_stale_tmp(dir: &Path) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") && fs::remove_file(&path).is_ok() {
                gpumech_obs::counter!("exec.cache.stale_tmp_removed");
            }
        }
    }

    /// Number of entries currently held in memory.
    ///
    /// # Panics
    ///
    /// Never: lock poisoning is recovered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).entries.len()
    }

    /// `true` if no entry is held in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn disk_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}-{:016x}.json", key.trace, key.config)))
    }

    /// [`quarantine`]s a corrupt entry and reports what was wrong with it.
    fn quarantine_entry(path: &Path, defect: DiskDefect, warnings: &mut Vec<String>) {
        let moved = quarantine(path).is_some();
        gpumech_obs::counter!("exec.cache.quarantined");
        warnings.push(format!(
            "cache entry {} failed validation ({defect}); {} and recomputing",
            path.display(),
            if moved { "quarantined" } else { "could not be quarantined" },
        ));
    }

    fn load_from_disk(&self, key: CacheKey, warnings: &mut Vec<String>) -> Option<Analysis> {
        let path = self.disk_path(key)?;
        // A missing file is the common cold-cache case, not a defect.
        let Ok(bytes) = fs::read(&path) else { return None };
        // An existing file that is not UTF-8 *is* a defect (bit rot in a
        // format that is pure ASCII header + JSON).
        let Ok(text) = String::from_utf8(bytes) else {
            Self::quarantine_entry(&path, DiskDefect::Payload, warnings);
            return None;
        };
        let payload = match decode_disk_entry(&text) {
            Ok(p) => p,
            Err(defect) => {
                Self::quarantine_entry(&path, defect, warnings);
                return None;
            }
        };
        match serde_json::from_str::<Analysis>(payload) {
            // JSON holds one list per warp; share them as a fresh analysis
            // does, for its memory and for selection's per-list reuse.
            Ok(mut a) => {
                share_equal_intervals(&mut a.profiles);
                Some(a)
            }
            Err(_) => {
                Self::quarantine_entry(&path, DiskDefect::Payload, warnings);
                None
            }
        }
    }

    fn store_to_disk(&self, key: CacheKey, analysis: &Analysis, warnings: &mut Vec<String>) {
        let Some(path) = self.disk_path(key) else { return };
        // A crash mid-write leaves a `.tmp` that the next `with_disk` sweeps.
        let stored = serde_json::to_string(analysis)
            .is_ok_and(|json| write_atomic(&path, &encode_disk_entry(&json)).is_ok());
        if stored {
            gpumech_obs::counter!("exec.cache.disk_writes");
        } else {
            gpumech_obs::counter!("exec.cache.disk_errors");
            warnings.push(format!("failed to persist cache entry {}", path.display()));
        }
    }

    /// Returns the cached [`Analysis`] for `key`, computing and inserting
    /// it via `compute` on a miss. Disk-layer incidents (quarantined
    /// corrupt entries, failed writes) are discarded; use
    /// [`ProfileCache::get_or_compute_logged`] to observe them.
    ///
    /// The lock is **not** held during `compute`, so concurrent workers
    /// analyzing different keys proceed in parallel. Two workers racing on
    /// the same key may both compute; the first insertion wins (both
    /// compute the same value, so callers can't observe the race).
    ///
    /// # Errors
    ///
    /// Propagates whatever `compute` returns on a miss.
    pub fn get_or_compute<F>(&self, key: CacheKey, compute: F) -> Result<Arc<Analysis>, ModelError>
    where
        F: FnOnce() -> Result<Analysis, ModelError>,
    {
        self.get_or_compute_logged(key, compute).map(|(a, _)| a)
    }

    /// [`ProfileCache::get_or_compute`] that additionally returns the
    /// disk-layer warnings raised while serving this key (quarantined
    /// corrupt entries, failed persists). Empty on the happy path.
    ///
    /// # Errors
    ///
    /// Propagates whatever `compute` returns on a miss.
    pub fn get_or_compute_logged<F>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> Result<(Arc<Analysis>, Vec<String>), ModelError>
    where
        F: FnOnce() -> Result<Analysis, ModelError>,
    {
        self.entry_logged(key, compute).map(|(entry, w)| (Arc::clone(entry.analysis()), w))
    }

    /// [`ProfileCache::get_or_compute_logged`] returning the whole entry,
    /// selection slots included: the batch engine's way in.
    pub(crate) fn entry_logged<F>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> Result<(Arc<CacheEntry>, Vec<String>), ModelError>
    where
        F: FnOnce() -> Result<Analysis, ModelError>,
    {
        let mut warnings = Vec::new();
        if let Some(hit) =
            self.state.lock().unwrap_or_else(PoisonError::into_inner).touch(key)
        {
            gpumech_obs::counter!("exec.cache.hits");
            return Ok((hit, warnings));
        }
        if let Some(from_disk) = self.load_from_disk(key, &mut warnings) {
            gpumech_obs::counter!("exec.cache.disk_hits");
            return Ok((self.insert(key, Arc::new(from_disk)), warnings));
        }
        gpumech_obs::counter!("exec.cache.misses");
        let computed = Arc::new(compute()?);
        self.store_to_disk(key, &computed, &mut warnings);
        Ok((self.insert(key, computed), warnings))
    }

    fn insert(&self, key: CacheKey, value: Arc<Analysis>) -> Arc<CacheEntry> {
        let (arc, evicted) = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert_capped(key, value, self.max_entries);
        if evicted > 0 {
            gpumech_obs::counter!("exec.cache.evictions", evicted);
        }
        arc
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_core::Gpumech;
    use gpumech_trace::workloads;

    fn small_trace(name: &str) -> KernelTrace {
        workloads::by_name(name).unwrap().with_blocks(2).trace().unwrap()
    }

    #[test]
    fn fingerprints_are_content_sensitive_and_stable() {
        let a = small_trace("sdk_vectoradd");
        let b = small_trace("bfs_kernel1");
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&a.clone()));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&b));
        let mut mutated = a.clone();
        mutated.warps[0].insts[0].active_mask ^= 1;
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&mutated));
    }

    /// Fingerprints name on-disk cache entries, journal lines and shard
    /// plans, so they must survive any change to how a trace is stored:
    /// these are the values the `Vec`-owning record layout produced
    /// (recorded at commit 4214416) for a coalesced, a gather and a
    /// control-divergent kernel at 8 blocks.
    #[test]
    fn fingerprints_of_pinned_kernels_never_change() {
        for (name, pinned) in [
            ("sdk_vectoradd", 0x4a58_0347_ac9e_61f9_u64),
            ("cfd_compute_flux", 0xd99d_71b2_00bb_bfa0),
            ("sdk_reduction", 0x098f_95b7_ff33_ca73),
        ] {
            let trace = workloads::by_name(name).unwrap().with_blocks(8).trace().unwrap();
            assert_eq!(trace_fingerprint(&trace), pinned, "{name}");
        }
    }

    #[test]
    fn prediction_only_fields_do_not_change_the_config_fingerprint() {
        let base = SimConfig::default();
        // These fields never feed `analyze` — same fingerprint.
        for swept in [
            SimConfig { dram_bandwidth_gbps: 999.0, ..base.clone() },
            SimConfig { num_mshrs: 7, ..base.clone() },
            SimConfig { sfu_per_core: 4, ..base.clone() },
            SimConfig { clock_ghz: 2.5, ..base.clone() },
            SimConfig { shared_mem_kib: 48, ..base.clone() },
        ] {
            assert_eq!(
                analysis_config_fingerprint(&base),
                analysis_config_fingerprint(&swept),
                "prediction-only field changed the analysis fingerprint"
            );
        }
        // These do feed `analyze` — fingerprint must move.
        for relevant in [
            SimConfig { max_warps_per_core: 16, ..base.clone() },
            SimConfig { dram_latency: 77, ..base.clone() },
            SimConfig { issue_width: 2, ..base.clone() },
        ] {
            assert_ne!(analysis_config_fingerprint(&base), analysis_config_fingerprint(&relevant));
        }
    }

    /// The safety property behind the fingerprint: configs that agree on
    /// analysis-relevant fields really do produce equal analyses.
    #[test]
    fn excluded_fields_cannot_change_the_analysis() {
        let trace = small_trace("kmeans_invert_mapping");
        let base = SimConfig::default();
        let swept = SimConfig {
            dram_bandwidth_gbps: 57.0,
            num_mshrs: 5,
            sfu_per_core: 8,
            clock_ghz: 0.7,
            ..base.clone()
        };
        assert_eq!(analysis_config_fingerprint(&base), analysis_config_fingerprint(&swept));
        let a = Gpumech::new(base).analyze(&trace).unwrap();
        let b = Gpumech::new(swept).analyze(&trace).unwrap();
        assert_eq!(a, b, "fingerprint-equal configs must be analysis-equal");
    }

    #[test]
    fn memory_cache_computes_once_per_key() {
        let trace = small_trace("sdk_vectoradd");
        let cfg = SimConfig::default();
        let cache = ProfileCache::in_memory();
        let key = cache_key(&trace, &cfg);
        let mut computes = 0usize;
        for _ in 0..3 {
            let got = cache
                .get_or_compute(key, || {
                    computes += 1;
                    Gpumech::new(cfg.clone()).analyze(&trace)
                })
                .unwrap();
            assert_eq!(got.profiles.len(), trace.warps.len());
        }
        assert_eq!(computes, 1, "same key must hit after the first compute");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_cache_round_trips_bit_identical_analyses() {
        let dir = std::env::temp_dir().join(format!("gpumech-exec-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let trace = small_trace("parboil_spmv");
        let cfg = SimConfig::default();
        let key = cache_key(&trace, &cfg);
        let fresh = {
            let cache = ProfileCache::with_disk(&dir);
            cache.get_or_compute(key, || Gpumech::new(cfg.clone()).analyze(&trace)).unwrap()
        };
        // A new cache instance (cold memory) must load the entry from disk
        // without calling compute, and the loaded value must be equal.
        let cold = ProfileCache::with_disk(&dir);
        let reloaded = cold
            .get_or_compute(key, || {
                panic!("disk hit expected; compute must not run")
            })
            .unwrap();
        assert_eq!(*fresh, *reloaded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compute_errors_propagate_and_are_not_cached() {
        let cache = ProfileCache::in_memory();
        let key = CacheKey { trace: 1, config: 2 };
        let err = cache.get_or_compute(key, || Err(ModelError::EmptyKernel)).unwrap_err();
        assert_eq!(err, ModelError::EmptyKernel);
        assert!(cache.is_empty());
    }

    #[test]
    fn disk_envelope_round_trips_and_rejects_each_defect() {
        let entry = encode_disk_entry(r#"{"x":1}"#);
        assert_eq!(decode_disk_entry(&entry).unwrap(), r#"{"x":1}"#);
        // Wrong version tag.
        let old = entry.replace("v2", "v1");
        assert_eq!(decode_disk_entry(&old), Err(DiskDefect::Header));
        // Truncated payload: header length no longer matches.
        let truncated = &entry[..entry.len() - 2];
        assert_eq!(decode_disk_entry(truncated), Err(DiskDefect::Length));
        // Same-length payload corruption: checksum catches it.
        let flipped = entry.replace(r#"{"x":1}"#, r#"{"x":2}"#);
        assert_eq!(decode_disk_entry(&flipped), Err(DiskDefect::Checksum));
        // No header line at all (a v1-era bare-JSON file).
        assert_eq!(decode_disk_entry(r#"{"x":1}"#), Err(DiskDefect::Header));
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("gpumech-cache-quarantine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let trace = small_trace("sdk_vectoradd");
        let cfg = SimConfig::default();
        let key = cache_key(&trace, &cfg);
        {
            let cache = ProfileCache::with_disk(&dir);
            cache.get_or_compute(key, || Gpumech::new(cfg.clone()).analyze(&trace)).unwrap();
        }
        // Corrupt the stored entry in place (flip a payload byte).
        let path = dir.join(format!("{:016x}-{:016x}.json", key.trace, key.config));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let cold = ProfileCache::with_disk(&dir);
        let mut computed = false;
        let (got, warnings) = cold
            .get_or_compute_logged(key, || {
                computed = true;
                Gpumech::new(cfg.clone()).analyze(&trace)
            })
            .unwrap();
        assert!(computed, "corrupt entry must be recomputed, not trusted");
        assert_eq!(got.profiles.len(), trace.warps.len());
        assert_eq!(warnings.len(), 1, "one warning for the quarantined entry: {warnings:?}");
        assert!(warnings[0].contains("quarantined"), "{warnings:?}");
        let mut quarantined = path.clone().into_os_string();
        quarantined.push(".quarantine");
        assert!(std::path::Path::new(&quarantined).exists(), "corrupt bytes must be preserved");
        assert!(!path.exists() || decode_disk_entry(&fs::read_to_string(&path).unwrap()).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!("gpumech-cache-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("0000000000000000-0000000000000000.json.tmp");
        fs::write(&stale, "half-written").unwrap();
        let _cache = ProfileCache::with_disk(&dir);
        assert!(!stale.exists(), "stale .tmp from a crashed writer must be removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_capacity_evicts_the_least_recently_used_entry() {
        let cache = ProfileCache::in_memory().with_capacity(2);
        let trace = small_trace("sdk_vectoradd");
        let cfg = SimConfig::default();
        let analysis = Gpumech::new(cfg.clone()).analyze(&trace).unwrap();
        let key = |i: u64| CacheKey { trace: i, config: 0 };
        for i in 0..2 {
            cache.get_or_compute(key(i), || Ok(analysis.clone())).unwrap();
        }
        // Touch key 0 so key 1 becomes the LRU victim.
        let mut recomputed = false;
        cache
            .get_or_compute(key(0), || {
                recomputed = true;
                Ok(analysis.clone())
            })
            .unwrap();
        assert!(!recomputed, "key 0 must still be cached");
        cache.get_or_compute(key(2), || Ok(analysis.clone())).unwrap();
        assert_eq!(cache.len(), 2, "capacity must hold");
        let mut hit0 = true;
        cache
            .get_or_compute(key(0), || {
                hit0 = false;
                Ok(analysis.clone())
            })
            .unwrap();
        assert!(hit0, "recently used key 0 must survive eviction");
        let mut hit1 = true;
        cache
            .get_or_compute(key(1), || {
                hit1 = false;
                Ok(analysis.clone())
            })
            .unwrap();
        assert!(!hit1, "least-recently-used key 1 must have been evicted");
    }
}
