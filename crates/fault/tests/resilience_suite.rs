//! Resilience fault suite: debris from a profile-cache writer killed
//! mid-write, planted by the fault crate's [`simulate_midwrite_kill`],
//! is swept when the cache opens and never changes a prediction.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gpumech_exec::{cache_key, canonical_prediction_json, BatchEngine, BatchJob, ProfileCache};
use gpumech_fault::simulate_midwrite_kill;
use gpumech_isa::SimConfig;
use gpumech_obs::Recorder;
use gpumech_trace::workloads;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumech-faultres-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn job(name: &str) -> BatchJob {
    let trace = workloads::by_name(name).unwrap().with_blocks(1).trace().unwrap();
    BatchJob::new(name, Arc::new(trace), SimConfig::default())
}

/// Warms a disk cache entry for `job` in `dir` and returns its path and
/// pristine bytes.
fn warm_entry(dir: &PathBuf, job: &BatchJob) -> (PathBuf, Vec<u8>) {
    let key = cache_key(&job.trace, &job.cfg);
    let engine = BatchEngine::with_cache(1, ProfileCache::with_disk(dir));
    assert!(engine.run(std::slice::from_ref(job))[0].is_ok());
    let path = dir.join(format!("{:016x}-{:016x}.json", key.trace, key.config));
    let bytes = fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn midwrite_kill_debris_is_swept_and_does_not_perturb_results() {
    let dir = test_dir("midwrite");
    let j = job("bfs_kernel1");
    let (entry_path, pristine) = warm_entry(&dir, &j);
    let cold = BatchEngine::new(1).run(std::slice::from_ref(&j));
    let cold_canon = canonical_prediction_json(cold[0].as_ref().unwrap()).unwrap();

    let tmp = simulate_midwrite_kill(&entry_path, &pristine, 0xBAD_C0DE).unwrap();
    assert!(tmp.exists(), "the simulator must plant a stale tmp file");

    let rec = Arc::new(Recorder::new());
    let out = {
        let _obs = gpumech_obs::install(Arc::clone(&rec));
        BatchEngine::with_cache(1, ProfileCache::with_disk(&dir)).run(std::slice::from_ref(&j))
    };
    let p = out[0].as_ref().unwrap();
    assert_eq!(canonical_prediction_json(p).unwrap(), cold_canon);
    assert!(
        !p.warnings.iter().any(|w| w.starts_with("cache: ")),
        "the committed entry is intact, so no cache warning is due: {:?}",
        p.warnings
    );
    assert!(!tmp.exists(), "stale tmp debris must be swept when the cache opens");
    let swept = rec.snapshot().counters.get("exec.cache.stale_tmp_removed").map_or(0, |c| c.total);
    assert!(swept >= 1, "the sweep must be visible in the metrics");
    let _ = fs::remove_dir_all(&dir);
}
