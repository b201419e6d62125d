//! Golden digests of the analysis stage over the 40-workload library.
//!
//! For every workload at 8 blocks under Table I, the FNV-1a digests of the
//! JSON of the cache simulation's [`MemStats`] and of the warps' interval
//! profiles are pinned to the values the stamp-based `Cache`, the
//! one-instruction-at-a-time replay and the `BTreeMap`-driven
//! `build_profile` produced (recorded at commit 003f8b5, before the
//! two-phase wave replay, the recency-ordered sets and the
//! `ProfileBuilder`). The cache simulator and the interval loop are free to
//! change; the statistics and the profiles they produce are not.
//!
//! 8 blocks occupy one wave on half the cores, so a second, smaller table
//! pins four kernels at 40 blocks with 8 resident warps per core: several
//! waves on every core, with ragged last waves.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_core::{build_profile, Analysis, Gpumech};
use gpumech_isa::SimConfig;
use gpumech_obs::CancelToken;
use gpumech_trace::workloads;

/// `(name, fnv1a(json(MemStats)), fnv1a(json(profiles)))` of every bundled
/// workload at 8 blocks.
const ANALYSIS_DIGESTS: [(&str, u64, u64); 40] = [
    ("srad_kernel1", 0xa67f_6e03_9ff5_22f9, 0xbb91_bd2d_de62_333d),
    ("srad_kernel2", 0xc6d5_d07f_defa_5cd1, 0xc8c7_a01f_6595_68fd),
    ("kmeans_invert_mapping", 0xa3b2_2c89_0def_9015, 0x7b22_0856_8a2b_41b1),
    ("kmeans_kmeans_point", 0x98ce_c64d_09bf_ef4a, 0xd23c_9c5b_9b24_643d),
    ("cfd_step_factor", 0xf0e0_a631_ea9e_5e25, 0xe8bd_fccc_56c0_b0fd),
    ("cfd_compute_flux", 0xf22b_5ea9_4dd9_55fd, 0x17e2_c050_b399_aabd),
    ("bfs_kernel1", 0xeea7_4544_1196_a259, 0x2312_7327_e94d_bb3d),
    ("bfs_kernel2", 0xcbc0_9a7f_7756_0a76, 0x0b24_70bc_05f3_627d),
    ("hotspot_calculate_temp", 0x3608_06f7_1761_4471, 0xaf0e_ac85_5bca_12fd),
    ("pathfinder_dynproc", 0xea1d_8f91_15eb_9a9c, 0x05b7_b1bb_85ed_543d),
    ("lud_diagonal", 0xdc0e_32eb_d502_3673, 0x3604_5d1a_755f_9e6d),
    ("lud_perimeter", 0xa7dd_b00c_047b_ec46, 0xd05b_5774_fa60_800d),
    ("nw_needle1", 0xa2f3_e0b8_5cb1_7210, 0x7697_7f61_07d1_f57d),
    ("backprop_layerforward", 0x822a_5936_8144_c8e3, 0x75f2_cae7_4b5e_c07d),
    ("backprop_adjust_weights", 0xe1a0_0eb5_41a7_43da, 0x4d57_534b_3bd0_74fd),
    ("streamcluster_pgain", 0x1104_02ba_49d7_a839, 0x173b_bb4a_e7b9_493d),
    ("heartwall_kernel", 0xdc0e_32eb_d502_3673, 0x3604_5d1a_755f_9e6d),
    ("gaussian_fan1", 0xb4fd_786b_a5f1_5ba2, 0x650f_633e_daa5_d33d),
    ("gaussian_fan2", 0x27e3_b548_becc_4cf4, 0x195b_2788_7205_7d1e),
    ("leukocyte_dilate", 0xfaea_9211_c26a_67bc, 0x2a03_561d_4ea6_0ffd),
    ("parboil_sgemm", 0x760e_964f_7f96_4d52, 0x9f65_e23a_0d17_da3d),
    ("parboil_spmv", 0xe753_3bc0_48aa_a240, 0x9e04_855d_6f35_32fd),
    ("parboil_stencil", 0x1932_8230_51d6_97a2, 0x721f_7744_95b6_0efd),
    ("parboil_sad_calc8", 0x7023_a1fc_5666_f03c, 0xe0d2_4f3e_e8fc_c07d),
    ("parboil_sad_calc16", 0x3306_a51c_7218_5d01, 0x7450_10bc_e15e_20fd),
    ("parboil_histo_main", 0xdaef_e9cf_5e02_6df4, 0x6e78_de7b_c675_2c7d),
    ("parboil_lbm", 0x2695_cc1c_52bd_f565, 0x3732_ecae_2488_8ffd),
    ("parboil_mriq_computeQ", 0xe1a6_96dd_103a_afae, 0x4fd4_1e01_b99b_9e7d),
    ("parboil_mri_gridding", 0x2b56_0d57_75bb_0c55, 0x2670_cae4_066a_863d),
    ("parboil_tpacf", 0x1a69_f65a_38e0_feda, 0x7f91_6132_32c1_6865),
    ("parboil_cutcp", 0x43a0_a893_d781_2d2d, 0x970c_eaf5_99ce_d2bd),
    ("parboil_bfs", 0x6a2f_f6a1_108e_47e6, 0x4ee4_d590_eeb8_bfd1),
    ("sdk_vectoradd", 0x4d2b_b421_7d87_4fd2, 0x85b2_8844_d1b0_e3fd),
    ("sdk_matrixmul", 0x1c68_7150_1fa5_8f2e, 0xae8d_8145_4de8_a6fd),
    ("sdk_transpose", 0x660f_6ea8_ed00_f6db, 0xb245_1af3_b9f1_7f3d),
    ("sdk_reduction", 0x822a_5936_8144_c8e3, 0x75f2_cae7_4b5e_c07d),
    ("sdk_blackscholes", 0x3356_d1b2_1fd0_206a, 0xcad7_5050_2c44_867d),
    ("sdk_montecarlo", 0xe620_ee23_86bc_17da, 0xaa37_28bd_c902_c4bd),
    ("sdk_convsep", 0x1f34_faca_a74e_927b, 0x2dd8_4d26_e692_b37d),
    ("sdk_sortingnetworks", 0x7816_f21e_efba_b613, 0x5e8d_48bd_6a9f_a66d),
];

/// The same two digests at 40 blocks and 8 resident warps per core.
const MULTI_WAVE_DIGESTS: [(&str, u64, u64); 4] = [
    ("parboil_spmv", 0x98c5_f718_e297_56ca, 0x4646_c855_b4c2_737d),
    ("sdk_transpose", 0xec5a_0b12_bc2e_af8f, 0x2a2a_5e6f_6872_403d),
    ("kmeans_invert_mapping", 0xa567_51d6_1873_7d4b, 0x3ee9_0f2f_9544_656c),
    ("sdk_reduction", 0x274f_b3ab_9917_6359, 0xadc3_6e5a_bfc3_787d),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn digests(a: &Analysis) -> (u64, u64) {
    let mem = serde_json::to_string(&a.mem).unwrap();
    let profiles = serde_json::to_string(&a.profiles).unwrap();
    (fnv1a(mem.as_bytes()), fnv1a(profiles.as_bytes()))
}

/// Analyzes `name` and checks both digests, plus that the cancellable path
/// and the one-shot `build_profile` wrapper agree with `analyze`.
fn check(name: &str, blocks: usize, cfg: &SimConfig, mem_digest: u64, profile_digest: u64) {
    let w = workloads::by_name(name).expect("golden name exists").with_blocks(blocks);
    let trace = w.trace().unwrap_or_else(|e| panic!("{name}: {e}"));
    let model = Gpumech::new(cfg.clone());
    let a = model.analyze(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (mem, profiles) = digests(&a);
    assert_eq!(mem, mem_digest, "{name}: MemStats changed ({mem:#018x})");
    assert_eq!(profiles, profile_digest, "{name}: interval profiles changed ({profiles:#018x})");

    let live = model.analyze_cancellable(&trace, &CancelToken::never()).unwrap();
    assert_eq!(live, a, "{name}: cancellable path");
    let one_shot: Vec<_> = trace.warps.iter().map(|wt| build_profile(wt, cfg, &a.mem)).collect();
    assert_eq!(one_shot, a.profiles, "{name}: one-shot build_profile");
}

#[test]
fn analyses_match_the_committed_digests() {
    let lib = workloads::all();
    assert_eq!(lib.len(), ANALYSIS_DIGESTS.len());
    let cfg = SimConfig::table1();
    for (w, (name, mem, profiles)) in lib.into_iter().zip(ANALYSIS_DIGESTS) {
        assert_eq!(w.name, name, "digest table order follows the library");
        check(name, 8, &cfg, mem, profiles);
    }
}

#[test]
fn multi_wave_analyses_match_the_committed_digests() {
    let cfg = SimConfig::table1().with_warps_per_core(8);
    for (name, mem, profiles) in MULTI_WAVE_DIGESTS {
        check(name, 40, &cfg, mem, profiles);
    }
}
