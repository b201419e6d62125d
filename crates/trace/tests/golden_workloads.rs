//! Golden tests over the 40-workload library.
//!
//! Two kinds of pinning:
//!
//! * **Static facts** — for every workload, the analyzer's branch-divergence
//!   and memory-coalescing verdicts are pinned to the values current at the
//!   time the analyzer was introduced. A change here means the analyzer (or
//!   a kernel) changed behaviour and the diff should be reviewed, not that
//!   the new values are necessarily wrong.
//! * **Traces** — for every workload at 8 blocks, the FNV-1a digest of the
//!   trace's binary encoding is pinned to the value the per-lane engine
//!   with `Vec`-owning records produced (recorded at commit 4214416, before
//!   the warp-wide engine and the arena layout). The engine and the record
//!   layout are free to change; the bytes they produce are not.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_analyze::{analyze, CoalesceClass, Severity};
use gpumech_trace::{io, workloads};

/// `(name, branches, divergent_branches, [broadcast, coalesced, strided,
/// scattered])` for every bundled workload.
const GOLDEN: [(&str, u32, u32, [u32; 4]); 40] = [
    ("srad_kernel1", 1, 0, [0, 0, 0, 2]),
    ("srad_kernel2", 1, 0, [0, 5, 0, 0]),
    ("kmeans_invert_mapping", 3, 1, [0, 0, 0, 3]),
    ("kmeans_kmeans_point", 1, 0, [0, 0, 0, 1]),
    ("cfd_step_factor", 1, 0, [0, 3, 0, 0]),
    ("cfd_compute_flux", 1, 0, [0, 0, 0, 1]),
    ("bfs_kernel1", 1, 0, [0, 0, 0, 1]),
    ("bfs_kernel2", 1, 0, [0, 0, 0, 1]),
    ("hotspot_calculate_temp", 1, 0, [0, 6, 0, 0]),
    ("pathfinder_dynproc", 1, 0, [0, 1, 0, 0]),
    ("lud_diagonal", 4, 0, [0, 2, 0, 0]),
    ("lud_perimeter", 4, 0, [0, 2, 0, 0]),
    ("nw_needle1", 1, 0, [0, 0, 0, 1]),
    ("backprop_layerforward", 2, 1, [0, 2, 0, 0]),
    ("backprop_adjust_weights", 1, 0, [0, 4, 0, 0]),
    ("streamcluster_pgain", 1, 0, [0, 0, 0, 1]),
    ("heartwall_kernel", 4, 0, [0, 2, 0, 0]),
    ("gaussian_fan1", 4, 0, [0, 2, 0, 0]),
    ("gaussian_fan2", 1, 0, [0, 0, 0, 1]),
    ("leukocyte_dilate", 1, 0, [0, 8, 0, 0]),
    ("parboil_sgemm", 1, 0, [0, 1, 0, 0]),
    ("parboil_spmv", 1, 0, [0, 1, 0, 1]),
    ("parboil_stencil", 1, 0, [0, 7, 0, 0]),
    ("parboil_sad_calc8", 1, 0, [0, 1, 0, 2]),
    ("parboil_sad_calc16", 1, 0, [0, 1, 0, 3]),
    ("parboil_histo_main", 1, 0, [0, 1, 0, 1]),
    ("parboil_lbm", 1, 0, [0, 10, 0, 0]),
    ("parboil_mriq_computeQ", 1, 0, [0, 2, 0, 0]),
    ("parboil_mri_gridding", 1, 0, [0, 0, 0, 1]),
    ("parboil_tpacf", 4, 0, [0, 2, 0, 0]),
    ("parboil_cutcp", 1, 0, [0, 0, 0, 1]),
    ("parboil_bfs", 1, 0, [0, 0, 0, 1]),
    ("sdk_vectoradd", 1, 0, [0, 3, 0, 0]),
    ("sdk_matrixmul", 1, 0, [0, 1, 0, 0]),
    ("sdk_transpose", 1, 0, [0, 1, 0, 1]),
    ("sdk_reduction", 2, 1, [0, 2, 0, 0]),
    ("sdk_blackscholes", 1, 0, [0, 2, 0, 0]),
    ("sdk_montecarlo", 1, 0, [0, 0, 0, 1]),
    ("sdk_convsep", 1, 0, [0, 9, 0, 0]),
    ("sdk_sortingnetworks", 1, 0, [0, 0, 0, 1]),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn golden_table_covers_the_whole_library() {
    let names: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    let lib: Vec<String> = workloads::all().into_iter().map(|w| w.name).collect();
    assert_eq!(lib.len(), 40);
    assert_eq!(names, lib.iter().map(String::as_str).collect::<Vec<_>>());
}

#[test]
fn every_workload_is_lint_clean() {
    for w in workloads::all() {
        let a = analyze(&w.kernel);
        let findings = a.diagnostics_at_least(Severity::Warning);
        assert!(findings.is_empty(), "{}: {findings:?}", w.name);
    }
}

#[test]
fn divergence_and_coalescing_verdicts_match_golden() {
    for (name, branches, divergent, [b, c, s, x]) in GOLDEN {
        let w = workloads::by_name(name).expect("golden name exists");
        let m = analyze(&w.kernel).metrics;
        assert_eq!(m.branches, branches, "{name}: branch count");
        assert_eq!(m.divergent_branches, divergent, "{name}: divergent branches");
        assert_eq!(
            [m.broadcast_accesses, m.coalesced_accesses, m.strided_accesses, m.scattered_accesses],
            [b, c, s, x],
            "{name}: coalescing classes"
        );
    }
}

#[test]
fn coalescing_classes_agree_with_the_divergence_tags() {
    // The per-pc classes must be consistent with the metrics rollup, and a
    // statically `Scattered` access must carry the conservative 32-request
    // bound the tracer cross-checks against.
    for w in workloads::all() {
        let a = analyze(&w.kernel);
        for access in a.coalescing.iter().flatten() {
            match access.class {
                CoalesceClass::Broadcast => assert_eq!(access.max_requests, 1, "{}", w.name),
                CoalesceClass::Coalesced => assert!(access.max_requests <= 4, "{}", w.name),
                CoalesceClass::Strided(k) => {
                    assert!(k > 8, "{}: small strides are Coalesced", w.name);
                }
                CoalesceClass::Scattered => assert_eq!(access.max_requests, 32, "{}", w.name),
            }
        }
    }
}

/// `fnv1a(io::encode(trace))` of every bundled workload at 8 blocks.
const TRACE_DIGESTS: [(&str, u64); 40] = [
    ("srad_kernel1", 0x8e0e_e474_e3f3_9ba4),
    ("srad_kernel2", 0xf212_3626_c462_235d),
    ("kmeans_invert_mapping", 0x8e47_6d25_2d6b_ba8c),
    ("kmeans_kmeans_point", 0x8b9b_563d_33ef_3412),
    ("cfd_step_factor", 0x66da_a99f_9bdb_4ae6),
    ("cfd_compute_flux", 0x9662_fee7_0bc5_abd2),
    ("bfs_kernel1", 0xd3a5_c351_4a83_de68),
    ("bfs_kernel2", 0x705f_aee3_11bd_82f0),
    ("hotspot_calculate_temp", 0x1782_a1e9_0cc0_463e),
    ("pathfinder_dynproc", 0x58c5_fb87_8e46_d612),
    ("lud_diagonal", 0x8fcf_6ff2_0aad_b4a6),
    ("lud_perimeter", 0xe812_3cfe_a5a8_6e55),
    ("nw_needle1", 0xc5f5_fdfe_3518_d705),
    ("backprop_layerforward", 0x1ccd_1e6a_f499_a045),
    ("backprop_adjust_weights", 0xb307_db23_64b6_7b50),
    ("streamcluster_pgain", 0x6fba_2d86_a723_427b),
    ("heartwall_kernel", 0xb897_1c5b_b78d_a02b),
    ("gaussian_fan1", 0x3d40_f1e7_b450_95d8),
    ("gaussian_fan2", 0x13cd_ce50_4d41_bf70),
    ("leukocyte_dilate", 0x0d32_47b2_e423_cf2c),
    ("parboil_sgemm", 0x1cea_2944_33f0_b2b9),
    ("parboil_spmv", 0x8036_f77b_580e_805d),
    ("parboil_stencil", 0x5b03_745d_70ed_6bf4),
    ("parboil_sad_calc8", 0xf68b_08ed_5131_1f9e),
    ("parboil_sad_calc16", 0xded6_db5b_dfbe_cba9),
    ("parboil_histo_main", 0x295d_5e2d_ea90_8d83),
    ("parboil_lbm", 0x9f4c_0656_1a46_2d65),
    ("parboil_mriq_computeQ", 0xff09_1ce7_bd0e_dd48),
    ("parboil_mri_gridding", 0xea70_032e_bc58_33b5),
    ("parboil_tpacf", 0x351d_db26_6ad8_14cc),
    ("parboil_cutcp", 0x0a6e_0e28_2678_27b9),
    ("parboil_bfs", 0x54dc_76e2_2816_16ea),
    ("sdk_vectoradd", 0x0c95_61bf_779a_6f25),
    ("sdk_matrixmul", 0x92b6_acf2_3072_e52a),
    ("sdk_transpose", 0x3378_f5b8_d06d_4784),
    ("sdk_reduction", 0xe033_b9f4_194d_8f3e),
    ("sdk_blackscholes", 0x9d61_0577_cde1_9c12),
    ("sdk_montecarlo", 0xf2cf_513f_a724_4e08),
    ("sdk_convsep", 0x6847_4d36_d2a0_8147),
    ("sdk_sortingnetworks", 0x85f3_26c7_61cf_c269),
];

#[test]
fn traces_match_the_committed_digests() {
    let lib = workloads::all();
    assert_eq!(lib.len(), TRACE_DIGESTS.len());
    for (w, (name, digest)) in lib.into_iter().zip(TRACE_DIGESTS) {
        assert_eq!(w.name, name, "digest table order follows the library");
        let trace = w.with_blocks(8).trace().unwrap_or_else(|e| panic!("{name}: {e}"));
        let bytes = io::encode(&trace);
        assert_eq!(fnv1a(&bytes), digest, "{name}: encoded trace changed");
        // The same bytes decode back to the same trace.
        assert_eq!(io::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}")), trace, "{name}");
    }
}
