//! Warps that run one instruction stream share one interval list. These
//! tests pin what that sharing must not change — the bytes of a
//! profile-cache entry and every prediction — and check that an analysis
//! read back from the disk cache shares its lists like a fresh one, and
//! that an entry written with the former `stages` member still loads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gpumech_core::{
    feature_vectors, Analysis, Gpumech, IntervalProfile, PredictionRequest, SchedulingPolicy,
    SelectionMethod, Weighting,
};
use gpumech_exec::cache::{payload_checksum, DISK_FORMAT_TAG};
use gpumech_exec::{cache_key, canonical_prediction_json, ProfileCache};
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::{workloads, KernelTrace};

/// Serializes this file's tests: one of them reads the interval stage's
/// counters from the process-global recorder, which every analysis counts
/// into.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumech-shared-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The analysis of `name` at 8 blocks under Table I.
fn analysis_of(name: &str) -> (KernelTrace, Analysis) {
    let trace = workloads::by_name(name).unwrap().with_blocks(8).trace().unwrap();
    let a = Gpumech::new(SimConfig::table1()).analyze(&trace).unwrap();
    (trace, a)
}

/// How many allocations the interval lists of `profiles` take.
fn distinct_lists(profiles: &[IntervalProfile]) -> usize {
    let mut lists: Vec<_> = profiles.iter().map(|p| p.intervals.as_ptr()).collect();
    lists.sort_unstable();
    lists.dedup();
    lists.len()
}

/// Canonical predictions of `a` under both policies and every selection.
fn predictions(a: &Analysis) -> Vec<String> {
    let model = Gpumech::new(SimConfig::table1());
    let mut out = Vec::new();
    for policy in [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest] {
        let base = PredictionRequest::from_analysis(a).policy(policy);
        let requests = [
            base.clone(),
            base.clone().selection(SelectionMethod::Max),
            base.clone().selection(SelectionMethod::Min),
            base.weighting(Weighting::PopulationWeighted),
        ];
        for request in &requests {
            out.push(canonical_prediction_json(&model.run(request).unwrap()).unwrap());
        }
    }
    out
}

/// FNV-1a of the entry file `ProfileCache::with_disk` writes for a coalesced,
/// a divergent and a control-divergent kernel at 8 blocks: sharing interval
/// lists must not change what the cache writes. Each entry is the one older
/// builds wrote minus their trailing `stages` member (per-stage wall times),
/// which still load as hits (`an_entry_with_a_stages_member_is_a_disk_hit`).
#[test]
fn profile_cache_entries_keep_their_bytes() {
    let _serial = serial();
    let pinned: [(&str, u64); 3] = [
        ("sdk_vectoradd", 0xd146_d0ff_05f8_d6e5),
        ("kmeans_invert_mapping", 0x050d_66c8_21fe_9b4d),
        ("bfs_kernel1", 0xebef_c69a_86e0_8f27),
    ];
    let dir = test_dir("digests");
    let got = pinned.map(|(name, _)| {
        let (trace, analysis) = analysis_of(name);
        let key = cache_key(&trace, &SimConfig::table1());
        ProfileCache::with_disk(&dir).get_or_compute(key, || Ok(analysis)).unwrap();
        let path = dir.join(format!("{:016x}-{:016x}.json", key.trace, key.config));
        (name, fnv1a(&fs::read(&path).unwrap()))
    });
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(got, pinned, "cache entry bytes changed: {got:#018x?}");
}

/// Older builds appended a `stages` member (per-stage wall time and
/// counters) to every entry. Such an entry is still a disk hit: no
/// recompute, no quarantine, no warning, and the same analysis.
#[test]
fn an_entry_with_a_stages_member_is_a_disk_hit() {
    let _serial = serial();
    let dir = test_dir("stages");
    let (trace, analysis) = analysis_of("sdk_vectoradd");
    let key = cache_key(&trace, &SimConfig::table1());
    let json = serde_json::to_string(&analysis).unwrap();
    let old = format!(
        "{},\"stages\":[{{\"name\":\"core.pipeline.cachesim\",\"wall_ns\":138813,\
         \"counters\":[[\"mem_insts\",1152],[\"dram_reqs\",1152]]}},\
         {{\"name\":\"core.pipeline.intervals\",\"wall_ns\":17403,\
         \"counters\":[[\"profiles\",64],[\"intervals\",4352]]}}]}}",
        json.strip_suffix('}').unwrap()
    );
    let sealed = format!(
        "{DISK_FORMAT_TAG} len={} crc={:016x}\n{old}",
        old.len(),
        payload_checksum(old.as_bytes())
    );
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{:016x}-{:016x}.json", key.trace, key.config));
    fs::write(&path, sealed).unwrap();

    let (loaded, warnings) = ProfileCache::with_disk(&dir)
        .get_or_compute_logged(key, || panic!("disk hit expected"))
        .unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(*loaded, analysis);
    let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, [path.file_name().unwrap()], "nothing quarantined");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_analysis_from_disk_shares_its_lists_like_a_fresh_one() {
    let _serial = serial();
    let dir = test_dir("roundtrip");
    for name in ["sdk_vectoradd", "kmeans_invert_mapping"] {
        let rec = Arc::new(Recorder::new());
        let (trace, fresh) = {
            let _obs = gpumech_obs::install(Arc::clone(&rec));
            analysis_of(name)
        };
        let streams = rec.snapshot().counters["core.intervals.distinct_streams"].total as usize;
        assert!(streams < fresh.profiles.len(), "{name}: nothing to share");
        assert_eq!(distinct_lists(&fresh.profiles), streams, "{name}: fresh");

        let key = cache_key(&trace, &SimConfig::table1());
        ProfileCache::with_disk(&dir).get_or_compute(key, || Ok(fresh.clone())).unwrap();
        let loaded = ProfileCache::with_disk(&dir)
            .get_or_compute(key, || panic!("{name}: disk hit expected"))
            .unwrap();
        assert_eq!(distinct_lists(&loaded.profiles), streams, "{name}: loaded");
        assert_eq!(predictions(&loaded), predictions(&fresh), "{name}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Sharing is invisible to every consumer: an analysis in which no two
/// warps share a list yields bit-identical features and byte-identical
/// predictions, over the whole library.
#[test]
fn shared_lists_predict_exactly_what_one_list_per_warp_predicts() {
    let _serial = serial();
    for w in workloads::all() {
        let (_, shared) = analysis_of(&w.name);
        let mut apart = shared.clone();
        for p in &mut apart.profiles {
            p.intervals = p.intervals.iter().copied().collect();
        }
        assert_eq!(distinct_lists(&apart.profiles), apart.profiles.len());
        let bits = |a: &Analysis| -> Vec<(u64, u64)> {
            feature_vectors(&a.profiles).iter().map(|f| (f.perf.to_bits(), f.insts.to_bits())).collect()
        };
        assert_eq!(bits(&shared), bits(&apart), "{}: features", w.name);
        assert_eq!(predictions(&shared), predictions(&apart), "{}: predictions", w.name);
    }
}
