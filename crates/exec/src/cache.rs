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
//! selections filled on first use, for as long as the cache lives.
//! Hits and misses are observable through the `exec.cache.*` counters —
//! the cache test asserts a warm second run does zero analysis work purely
//! from those counters.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{Analysis, ModelError, Selection, SelectionMethod};
use gpumech_isa::SimConfig;
use gpumech_obs::{CancelToken, Interrupt};
use gpumech_trace::KernelTrace;

/// Stable, dependency-free content fingerprint: an FNV-1a variant that
/// absorbs 64-bit lanes per multiply instead of single bytes, with a
/// final avalanche.
///
/// Not `DefaultHasher`: that one is documented to vary across releases,
/// which would silently change every `batch --json` row on a toolchain bump.
/// Not canonical byte-wise FNV-1a either: a trace fingerprint hashes
/// every dynamic instruction (tens of megabytes for a full-size grid),
/// and one multiply per byte made fingerprinting cost more than half of
/// the analysis it deduplicates. The function is defined by this crate
/// and must never change once released — `batch --json` rows embed its
/// output.
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
            // Little-endian on every platform, so fingerprints (and the job
            // fingerprints derived from them) are portable.
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

/// Checksum of a payload: the same lane-widened FNV-1a used for
/// fingerprints, applied to the raw payload bytes.
#[must_use]
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload);
    h.finish()
}

/// One in-memory entry: an analysis and, per [`SelectionMethod`], the
/// representative-warp selection over it.
///
/// Selection reads only the interval profiles, and every job served by an
/// entry shares its analysis, so one selection per method serves them all.
/// The slots live and die with the entry.
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

/// Content-addressed, thread-safe, in-memory cache of [`Analysis`]
/// results.
///
/// Memory only: the key hashes the whole trace, so a copy kept across
/// processes could skip only the cache-sim and interval stages, and
/// reading one back from disk cost more than recomputing them.
#[derive(Debug, Default)]
pub struct ProfileCache {
    entries: Mutex<HashMap<CacheKey, Arc<CacheEntry>>>,
}

impl ProfileCache {
    /// A purely in-memory cache.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Number of entries currently held in memory.
    ///
    /// # Panics
    ///
    /// Never: lock poisoning is recovered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` if no entry is held in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached [`Analysis`] for `key`, computing and inserting
    /// it via `compute` on a miss.
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
        self.entry(key, compute).map(|entry| Arc::clone(entry.analysis()))
    }

    /// [`ProfileCache::get_or_compute`] returning the whole entry,
    /// selection slots included: the batch engine's way in.
    pub(crate) fn entry<F>(&self, key: CacheKey, compute: F) -> Result<Arc<CacheEntry>, ModelError>
    where
        F: FnOnce() -> Result<Analysis, ModelError>,
    {
        if let Some(hit) =
            self.entries.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
        {
            gpumech_obs::counter!("exec.cache.hits");
            return Ok(hit);
        }
        gpumech_obs::counter!("exec.cache.misses");
        let computed = Arc::new(compute()?);
        Ok(self.insert(key, computed))
    }

    /// Inserts `value` under `key` unless a racing worker got there first;
    /// returns the entry the map holds.
    fn insert(&self, key: CacheKey, value: Arc<Analysis>) -> Arc<CacheEntry> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(entries.entry(key).or_insert_with(|| Arc::new(CacheEntry::new(value))))
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
        let mask = mutated.warps[0].inst(0).active_mask;
        mutated.warps[0].set_mask(0, mask ^ 1);
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&mutated));
    }

    /// Fingerprints key profile-cache entries and report rows, so they
    /// must survive any change to how a trace is stored: these are the
    /// values the `Vec`-owning record layout produced (recorded at commit
    /// 4214416) for a coalesced, a gather and a control-divergent kernel
    /// at 8 blocks.
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

    /// Every profile-cache key carries the
    /// analysis-config fingerprint, which hashes `SimConfig`'s JSON: a
    /// field added to or removed from `SimConfig` re-keys every entry. The
    /// pin makes such a change a deliberate edit.
    #[test]
    fn table1_analysis_config_fingerprint_never_changes() {
        assert_eq!(analysis_config_fingerprint(&SimConfig::table1()), 0xc054_5989_e0ea_e581);
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
    fn compute_errors_propagate_and_are_not_cached() {
        let cache = ProfileCache::in_memory();
        let key = CacheKey { trace: 1, config: 2 };
        let err = cache.get_or_compute(key, || Err(ModelError::EmptyKernel)).unwrap_err();
        assert_eq!(err, ModelError::EmptyKernel);
        assert!(cache.is_empty());
    }
}
