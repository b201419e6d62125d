//! Property-style tests for the shard partitioner: for arbitrary shard
//! counts and job lists, the shards `0/N .. N-1/N` form an exact disjoint
//! cover of the job space, and ownership is stable under reordering of
//! the input list — and the same for the sweep enumeration itself: every
//! shard of one sweep computes the same manifest, and their owned sets
//! partition it.
//!
//! Cases are fanned out from a seeded splitmix64 stream, so the "arbitrary"
//! inputs are reproducible — a failure names the case seed.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_exec::{BatchEngine, ExecError};
use gpumech_isa::{KernelBuilder, Operand, SimConfig, ValueOp};
use gpumech_shard::{shard_of, sweep_fingerprint, sweep_points, ShardSpec, SweepPlan};
use gpumech_trace::{splitmix64, workloads, Workload};

/// A deterministic pseudo-random stream for case generation.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One generated case: a shard count and a job-fingerprint list (with
/// occasional duplicates, which a sweep enumeration can legally contain).
fn case(seed: u64) -> (u32, Vec<u64>) {
    let mut s = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    #[allow(clippy::cast_possible_truncation)]
    let count = s.in_range(1, 64) as u32;
    let len = s.in_range(0, 300) as usize;
    let mut fps: Vec<u64> = (0..len).map(|_| s.next()).collect();
    // Sprinkle duplicates: roughly one in eight jobs repeats an earlier one.
    for i in 0..len {
        if !fps.is_empty() && s.next().is_multiple_of(8) {
            let j = (s.next() as usize) % fps.len();
            fps[i] = fps[j];
        }
    }
    (count, fps)
}

/// A seeded Fisher-Yates shuffle (no RNG crates in the tree).
fn shuffled(fps: &[u64], seed: u64) -> Vec<u64> {
    let mut out = fps.to_vec();
    let mut s = Stream(seed);
    for i in (1..out.len()).rev() {
        let j = (s.next() as usize) % (i + 1);
        out.swap(i, j);
    }
    out
}

#[test]
fn shards_form_an_exact_disjoint_cover() {
    for seed in 0..200u64 {
        let (count, fps) = case(seed);
        let shards: Vec<ShardSpec> =
            (0..count).map(|index| ShardSpec { index, count }).collect();
        let mut covered = 0usize;
        for &fp in &fps {
            let owners: Vec<u32> =
                shards.iter().filter(|s| s.owns(fp)).map(|s| s.index).collect();
            assert_eq!(
                owners.len(),
                1,
                "case {seed}: fp {fp:016x} owned by {owners:?} in a {count}-shard sweep"
            );
            assert_eq!(owners[0], shard_of(fp, count), "case {seed}: owns() and shard_of agree");
            covered += 1;
        }
        assert_eq!(covered, fps.len(), "case {seed}: every job is covered");
    }
}

#[test]
fn ownership_is_stable_under_input_reordering() {
    for seed in 0..100u64 {
        let (count, fps) = case(seed);
        let reordered = shuffled(&fps, seed ^ 0xabcd);
        for &fp in &reordered {
            // The fingerprint alone decides ownership: the same fp in a
            // different enumeration position lands on the same shard.
            assert_eq!(
                shard_of(fp, count),
                shard_of(fp, count),
                "pure function"
            );
        }
        // Stronger: the per-shard *sets* are identical regardless of order.
        for index in 0..count {
            let spec = ShardSpec { index, count };
            let mut a: Vec<u64> = fps.iter().copied().filter(|&fp| spec.owns(fp)).collect();
            let mut b: Vec<u64> =
                reordered.iter().copied().filter(|&fp| spec.owns(fp)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "case {seed}: shard {index}/{count} set changed under reorder");
        }
    }
}

#[test]
fn single_shard_owns_everything() {
    for seed in 0..50u64 {
        let (_, fps) = case(seed);
        for &fp in &fps {
            assert!(ShardSpec::single().owns(fp));
            assert_eq!(shard_of(fp, 1), 0);
        }
    }
}

#[test]
fn partition_is_reasonably_balanced() {
    // Not a correctness requirement, but a badly skewed partition would
    // defeat the point of sharding; the avalanche should keep every shard
    // within a loose factor of its fair share on a large population.
    let fps: Vec<u64> = (0..20_000u64).map(splitmix64).collect();
    for count in [2u32, 3, 8] {
        let mut sizes = vec![0usize; count as usize];
        for &fp in &fps {
            sizes[shard_of(fp, count) as usize] += 1;
        }
        let fair = fps.len() / count as usize;
        for (i, &size) in sizes.iter().enumerate() {
            assert!(
                size > fair / 2 && size < fair * 2,
                "shard {i}/{count} got {size} of {} (fair {fair})",
                fps.len()
            );
        }
    }
}

#[test]
fn sweep_fingerprint_is_order_sensitive_but_count_free() {
    let (count, fps) = case(7);
    let base = sweep_fingerprint(99, &fps);
    // Sharding does not change sweep identity (no count in the hash):
    // recomputing from any shard's view of the full enumeration agrees.
    for index in 0..count.min(4) {
        let _ = ShardSpec { index, count };
        assert_eq!(sweep_fingerprint(99, &fps), base);
    }
    if fps.len() > 1 {
        let reordered = shuffled(&fps, 0x1234);
        if reordered != fps {
            assert_ne!(
                sweep_fingerprint(99, &reordered),
                base,
                "enumeration order is part of sweep identity"
            );
        }
    }
}

/// A clean kernel, one static verification rejects (a barrier under a
/// divergent branch), and another clean one.
fn sweep_kernels() -> Vec<Workload> {
    let clean = |name| workloads::by_name(name).unwrap().with_blocks(2);
    let mut b = KernelBuilder::new("bad_barrier");
    let c = b.alu(ValueOp::CmpLt, &[Operand::Lane, Operand::Imm(8)]);
    b.if_begin(Operand::Reg(c));
    b.sync();
    b.if_end();
    let mut rejected = clean("sdk_vectoradd");
    rejected.name = "bad_barrier".to_string();
    rejected.kernel = b.finish(vec![]);
    vec![clean("sdk_vectoradd"), rejected, clean("bfs_kernel1")]
}

#[test]
fn shards_of_one_sweep_enumerate_one_manifest_and_partition_it() {
    let base = SimConfig::table1();
    let kernels = sweep_kernels();
    for spec in [None, Some("bw=64,128,192"), Some("warps=8,16,32,48")] {
        let points = sweep_points(spec, &base).unwrap();
        for count in [1u32, 2, 3, 5, 8] {
            let case = format!("sweep {spec:?}, {count} shard(s)");
            let plans: Vec<SweepPlan> = (0..count)
                .map(|index| {
                    let shard = ShardSpec { index, count };
                    SweepPlan::enumerate(&kernels, &points, |_| {}, shard, "abc123", &base).unwrap()
                })
                .collect();
            let all = &plans[0];
            assert_eq!(all.entries.len(), kernels.len() * points.len(), "{case}");
            let rejected = all.entries.iter().filter(|e| e.is_err()).count();
            assert_eq!(rejected, points.len(), "{case}: one rejected row per sweep point");

            let mut owners = vec![0usize; all.entries.len()];
            for (plan, index) in plans.iter().zip(0..) {
                assert!(plan.manifest.same_sweep(&all.manifest), "{case}: shard {index}");
                assert_eq!(plan.manifest.shard_index, index, "{case}");
                assert_eq!(plan.fingerprints, all.fingerprints, "{case}: shard {index}");
                assert_eq!(plan.manifest.job_fps().unwrap(), plan.fingerprints, "{case}");
                assert!(plan.owned.windows(2).all(|w| w[0] < w[1]), "{case}: enumeration order");
                for &i in &plan.owned {
                    owners[i] += 1;
                }
                let runnable = plan.owned.iter().filter(|&&i| plan.entries[i].is_ok()).count();
                assert_eq!(plan.jobs.len(), runnable, "{case}: shard {index}");
            }
            assert!(owners.iter().all(|&n| n == 1), "{case}: owners per entry {owners:?}");
        }
    }
}

#[test]
fn outcomes_pair_every_owned_entry_with_its_result_in_order() {
    let base = SimConfig::table1();
    let points = sweep_points(Some("bw=96,192"), &base).unwrap();
    let mut covered = Vec::new();
    for index in 0..2 {
        let shard = ShardSpec { index, count: 2 };
        let plan =
            SweepPlan::enumerate(&sweep_kernels(), &points, |_| {}, shard, "abc123", &base).unwrap();
        let results = BatchEngine::new(1).run(&plan.jobs);
        let outcomes = plan.outcomes(&results);
        assert_eq!(outcomes.len(), plan.owned.len());
        for (&i, (fp, outcome)) in plan.owned.iter().zip(&outcomes) {
            assert_eq!(*fp, plan.fingerprints[i]);
            match (&plan.entries[i], outcome) {
                (Ok(job), Ok((j, p))) => {
                    assert_eq!(plan.jobs[*j].label, job.label);
                    assert_eq!(Ok(*p), results[*j].as_ref());
                }
                (Err(_), Err(e)) => {
                    assert!(matches!(e.error, ExecError::RejectedByAnalysis { .. }), "{e}");
                    assert!(e.label.starts_with("bad_barrier @ bw="), "{e}");
                }
                (entry, outcome) => panic!("entry {entry:?} paired with {outcome:?}"),
            }
            covered.push(*fp);
        }
    }
    assert_eq!(covered.len(), 6, "two shards cover the 3 x 2 sweep exactly once");
}
