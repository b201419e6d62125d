//! Micro-benchmarks of the pipeline components (Section VI-D's cost
//! breakdown): static analysis, trace generation, functional cache
//! simulation, the interval algorithm, warp clustering, and the analytical
//! models.
//!
//! Run with `cargo bench --bench components` (plain wall-clock timing; see
//! [`gpumech_bench::bench_wall`]).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_bench::bench_wall;
use gpumech_core::{
    build_profile, multithreading_cpi, select_representative, ProfileBuilder, SelectionMethod,
};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_mem::simulate_hierarchy;
use gpumech_trace::workloads;

fn main() {
    let w = workloads::by_name("cfd_compute_flux").expect("bundled").with_blocks(32);
    let cfg = SimConfig::table1();
    let trace = w.trace().expect("trace");
    let mem = simulate_hierarchy(&trace, &cfg);
    // One builder for the kernel's warps, as `Gpumech::analyze` profiles
    // them: one build per distinct instruction stream, copies for the rest.
    let all_warps = || {
        ProfileBuilder::new(&cfg, &mem)
            .build_all(&trace.warps, || Ok::<(), std::convert::Infallible>(()))
            .expect("the check never fails")
    };
    let profiles = all_warps();

    println!("components ({}, {} blocks)", w.name, 32);
    bench_wall("static_analysis", 100, || gpumech_analyze::analyze(&w.kernel));
    bench_wall("trace_generation", 50, || w.trace().expect("trace"));
    bench_wall("cache_simulation", 10, || simulate_hierarchy(&trace, &cfg));
    bench_wall("interval_algorithm_all_warps", 10, all_warps);
    bench_wall("interval_algorithm_one_warp", 100, || build_profile(&trace.warps[0], &cfg, &mem));
    bench_wall("kmeans_clustering", 10, || {
        select_representative(&profiles, SelectionMethod::Clustering)
    });
    let rep = select_representative(&profiles, SelectionMethod::Clustering);
    bench_wall("multiwarp_model", 100, || {
        multithreading_cpi(&profiles[rep], 32, SchedulingPolicy::RoundRobin)
    });
}
