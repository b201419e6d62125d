//! Warps that run one instruction stream share one interval list. This
//! test pins what that sharing must not change: every feature and every
//! prediction.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_core::{
    feature_vectors, Analysis, Gpumech, IntervalProfile, PredictionRequest, SchedulingPolicy,
    SelectionMethod, Weighting,
};
use gpumech_exec::canonical_prediction_json;
use gpumech_isa::SimConfig;
use gpumech_trace::workloads;

/// The analysis of `name` at 8 blocks under Table I.
fn analysis_of(name: &str) -> Analysis {
    let trace = workloads::by_name(name).unwrap().with_blocks(8).trace().unwrap();
    Gpumech::new(SimConfig::table1()).analyze(&trace).unwrap()
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

/// Sharing is invisible to every consumer: an analysis in which no two
/// warps share a list yields bit-identical features and byte-identical
/// predictions, over the whole library.
#[test]
fn shared_lists_predict_exactly_what_one_list_per_warp_predicts() {
    for w in workloads::all() {
        let shared = analysis_of(&w.name);
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
