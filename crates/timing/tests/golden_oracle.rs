//! Golden results of the cycle-level oracle over the 40-workload library.
//!
//! Every row was recorded at commit 7ea368d — the per-cycle `readiness`
//! rescan, the `HashMap` MSHR file and the `BTreeMap` DRAM windows — before
//! the core was rebuilt around wake-ups. The scheduler, the MSHR file and
//! the DRAM channel are free to change; the cycle every instruction issues
//! on is not.
//!
//! Three tables, all at 16 blocks under both policies: the Table I machine;
//! a deliberately hostile machine (2 cores, 8 MSHRs, 64 GB/s, 4 SFU lanes)
//! on which multi-wave slot refill, MSHR reservation rounds, write-queue
//! backpressure, the SFU port and barriers all bind; and, for a dozen
//! kernels spanning the families, the digest of the full issue log on both
//! machines. Every row also checks, whatever its recorded values, that the
//! run retired exactly the traced instructions and that each core cycle
//! was an issue or an idle one. After an intended change of oracle behaviour, print the tables
//! with `cargo test -p gpumech-timing --release --test golden_oracle --
//! --ignored --nocapture` and read the diff.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_timing::{simulate, simulate_with_issue_log};
use gpumech_trace::{workloads, KernelTrace};

const BLOCKS: usize = 16;

const POLICIES: [SchedulingPolicy; 2] =
    [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest];

/// `(cycles, insts, dram_requests, fnv1a(per_core_insts))` of one run.
type Row = (u64, u64, u64, u64);

/// `(name, round-robin row, greedy-then-oldest row)` on the Table I machine.
const TABLE1: [(&str, Row, Row); 40] = [
    ("srad_kernel1", (15460, 17152, 12311, 0x04ee_84a8_02ed_5225), (15138, 17152, 12311, 0x04ee_84a8_02ed_5225)),
    ("srad_kernel2", (5585, 24960, 1601, 0xb845_73e0_c4ab_0325), (5486, 24960, 1601, 0xb845_73e0_c4ab_0325)),
    ("kmeans_invert_mapping", (48857, 31284, 52448, 0x771c_904c_6685_5a71), (49333, 31284, 52448, 0x771c_904c_6685_5a71)),
    ("kmeans_kmeans_point", (9477, 15616, 1536, 0xeb63_14c5_fb5d_bd25), (9477, 15616, 1536, 0xeb63_14c5_fb5d_bd25)),
    ("cfd_step_factor", (8720, 17792, 3072, 0x23f2_c440_84b3_49a5), (8689, 17792, 3072, 0x23f2_c440_84b3_49a5)),
    ("cfd_compute_flux", (7879, 15872, 2350, 0x41b2_8a25_c870_2c25), (7862, 15872, 2350, 0x41b2_8a25_c870_2c25)),
    ("bfs_kernel1", (7341, 9408, 4346, 0xeadd_b092_9ff1_5ba5), (7333, 9408, 4347, 0xeadd_b092_9ff1_5ba5)),
    ("bfs_kernel2", (24359, 7680, 26900, 0xb992_8e7b_01a7_0225), (24359, 7680, 26900, 0xb992_8e7b_01a7_0225)),
    ("hotspot_calculate_temp", (7817, 37504, 1985, 0xd46b_3d15_5832_9fa5), (7605, 37504, 1985, 0xd46b_3d15_5832_9fa5)),
    ("pathfinder_dynproc", (6317, 20992, 1024, 0x29cd_658d_3f0a_5625), (6133, 20992, 1024, 0x29cd_658d_3f0a_5625)),
    ("lud_diagonal", (4538, 11736, 848, 0x0940_f458_f919_fee2), (4522, 11736, 848, 0x0940_f458_f919_fee2)),
    ("lud_perimeter", (4538, 10352, 856, 0xbabe_a866_4097_6b35), (4529, 10352, 856, 0xbabe_a866_4097_6b35)),
    ("nw_needle1", (7261, 9408, 4285, 0xeadd_b092_9ff1_5ba5), (7251, 9408, 4284, 0xeadd_b092_9ff1_5ba5)),
    ("backprop_layerforward", (1326, 7680, 256, 0xb992_8e7b_01a7_0225), (1302, 7680, 256, 0xb992_8e7b_01a7_0225)),
    ("backprop_adjust_weights", (8840, 18816, 4096, 0x366b_129b_cb35_07a5), (8747, 18816, 4096, 0x366b_129b_cb35_07a5)),
    ("streamcluster_pgain", (40944, 17152, 49012, 0x04ee_84a8_02ed_5225), (40944, 17152, 49012, 0x04ee_84a8_02ed_5225)),
    ("heartwall_kernel", (4538, 11600, 864, 0x3cfa_363f_2030_8385), (4522, 11600, 864, 0x3cfa_363f_2030_8385)),
    ("gaussian_fan1", (4538, 10336, 880, 0x6225_b3db_f276_8525), (4527, 10336, 880, 0x6225_b3db_f276_8525)),
    ("gaussian_fan2", (6757, 8346, 4274, 0x1294_9516_036a_5e1a), (6747, 8346, 4271, 0x1294_9516_036a_5e1a)),
    ("leukocyte_dilate", (8026, 40704, 1793, 0x3c02_8d80_a755_5b25), (7994, 40704, 1793, 0x3c02_8d80_a755_5b25)),
    ("parboil_sgemm", (10111, 40192, 1280, 0x04ae_521e_c1ff_7b25), (9656, 40192, 1280, 0x04ae_521e_c1ff_7b25)),
    ("parboil_spmv", (38358, 17024, 42027, 0x133f_38dc_7509_49a5), (38470, 17024, 42029, 0x133f_38dc_7509_49a5)),
    ("parboil_stencil", (8335, 41344, 1985, 0xd834_79b7_d6da_34a5), (8010, 41344, 1985, 0xd834_79b7_d6da_34a5)),
    ("parboil_sad_calc8", (79408, 23424, 83200, 0xcee9_a469_4fa5_00a5), (80003, 23424, 83200, 0xcee9_a469_4fa5_00a5)),
    ("parboil_sad_calc16", (94221, 23936, 99328, 0xa23a_b1fa_b63e_bea5), (96111, 23936, 99328, 0xa23a_b1fa_b63e_bea5)),
    ("parboil_histo_main", (36713, 14464, 41011, 0x80b5_9edd_535e_b425), (36965, 14464, 41011, 0x80b5_9edd_535e_b425)),
    ("parboil_lbm", (16189, 30336, 7680, 0xd044_4e2c_8f70_c8a5), (16031, 30336, 7680, 0xd044_4e2c_8f70_c8a5)),
    ("parboil_mriq_computeQ", (3844, 18944, 256, 0xe3db_5fde_1481_1f25), (3796, 18944, 256, 0xe3db_5fde_1481_1f25)),
    ("parboil_mri_gridding", (34192, 14336, 40519, 0x8e8a_adb5_ccb4_2c25), (34192, 14336, 40519, 0x8e8a_adb5_ccb4_2c25)),
    ("parboil_tpacf", (4538, 11328, 896, 0x955c_5278_f0c4_e3b5), (4529, 11328, 896, 0x955c_5278_f0c4_e3b5)),
    ("parboil_cutcp", (6546, 13184, 1737, 0x650c_7b91_c5fe_a325), (6546, 13184, 1737, 0x650c_7b91_c5fe_a325)),
    ("parboil_bfs", (7192, 9210, 4322, 0xde30_10d0_0fd5_28eb), (7192, 9210, 4322, 0xde30_10d0_0fd5_28eb)),
    ("sdk_vectoradd", (6250, 11904, 2304, 0x1bc0_884f_07dc_7ea5), (6224, 11904, 2304, 0x1bc0_884f_07dc_7ea5)),
    ("sdk_matrixmul", (8353, 31616, 1152, 0x6743_19ab_3ff5_89a5), (8024, 31616, 1152, 0x6743_19ab_3ff5_89a5)),
    ("sdk_transpose", (32624, 11776, 33792, 0x839d_2947_b3be_7525), (32995, 11776, 33792, 0x839d_2947_b3be_7525)),
    ("sdk_reduction", (1326, 7680, 256, 0xb992_8e7b_01a7_0225), (1302, 7680, 256, 0xb992_8e7b_01a7_0225)),
    ("sdk_blackscholes", (3098, 14336, 256, 0x8e8a_adb5_ccb4_2c25), (3064, 14336, 256, 0x8e8a_adb5_ccb4_2c25)),
    ("sdk_montecarlo", (3811, 18176, 192, 0x6f99_4556_c33e_5225), (3794, 18176, 192, 0x6f99_4556_c33e_5225)),
    ("sdk_convsep", (8841, 46464, 1793, 0x92e8_9c32_149f_1b25), (8595, 46464, 1793, 0x92e8_9c32_149f_1b25)),
    ("sdk_sortingnetworks", (6839, 8346, 4217, 0x1294_9516_036a_5e1a), (6853, 8346, 4216, 0x1294_9516_036a_5e1a)),
];

/// The same on the hostile machine.
const HOSTILE: [(&str, Row, Row); 40] = [
    ("srad_kernel1", (51848, 17152, 12311, 0xbf8c_94f6_5258_f705), (51676, 17152, 12311, 0xbf8c_94f6_5258_f705)),
    ("srad_kernel2", (21606, 24960, 1601, 0x2090_8952_3768_7aa5), (22303, 24960, 1601, 0x2090_8952_3768_7aa5)),
    ("kmeans_invert_mapping", (137485, 31284, 52448, 0xc5d2_d859_3c17_8b71), (131298, 31284, 52448, 0xc5d2_d859_3c17_8b71)),
    ("kmeans_kmeans_point", (218286, 15616, 1536, 0xb095_2827_7356_9b25), (218208, 15616, 1536, 0xb095_2827_7356_9b25)),
    ("cfd_step_factor", (54324, 17792, 3072, 0x3096_f63a_59cd_bde5), (54234, 17792, 3072, 0x3096_f63a_59cd_bde5)),
    ("cfd_compute_flux", (104892, 15872, 2350, 0x525b_0a00_828c_e1c5), (104792, 15872, 2350, 0x525b_0a00_828c_e1c5)),
    ("bfs_kernel1", (304418, 9408, 4197, 0x4786_cde4_0ff6_b765), (304198, 9408, 4196, 0x4786_cde4_0ff6_b765)),
    ("bfs_kernel2", (749070, 7680, 26986, 0x1b86_f42e_60b7_77c5), (749030, 7680, 26986, 0x1b86_f42e_60b7_77c5)),
    ("hotspot_calculate_temp", (28236, 37504, 1985, 0xe9de_48fe_8dca_6085), (29662, 37504, 1985, 0xe9de_48fe_8dca_6085)),
    ("pathfinder_dynproc", (27523, 20992, 1024, 0xd94f_405b_505c_9c05), (27388, 20992, 1024, 0xd94f_405b_505c_9c05)),
    ("lud_diagonal", (23243, 11736, 848, 0x2ac7_1abe_32bd_2462), (23105, 11736, 848, 0x2ac7_1abe_32bd_2462)),
    ("lud_perimeter", (23633, 10352, 856, 0x306d_f097_da7b_4895), (23517, 10352, 856, 0x306d_f097_da7b_4895)),
    ("nw_needle1", (302654, 9408, 4129, 0x4786_cde4_0ff6_b765), (302494, 9408, 4129, 0x4786_cde4_0ff6_b765)),
    ("backprop_layerforward", (4743, 7680, 256, 0x1b86_f42e_60b7_77c5), (4945, 7680, 256, 0x1b86_f42e_60b7_77c5)),
    ("backprop_adjust_weights", (54341, 18816, 4096, 0xfa0d_f46f_2663_5aa5), (54245, 18816, 4096, 0xfa0d_f46f_2663_5aa5)),
    ("streamcluster_pgain", (1294452, 17152, 49012, 0xbf8c_94f6_5258_f705), (1294380, 17152, 49012, 0xbf8c_94f6_5258_f705)),
    ("heartwall_kernel", (23397, 11600, 864, 0x0fa2_c460_8e2a_b425), (23282, 11600, 864, 0x0fa2_c460_8e2a_b425)),
    ("gaussian_fan1", (23908, 10336, 880, 0xca69_d272_c3ea_4605), (23767, 10336, 880, 0xca69_d272_c3ea_4605)),
    ("gaussian_fan2", (277526, 8346, 4139, 0xdb3c_ea77_36c4_2c5f), (277448, 8346, 4141, 0xdb3c_ea77_36c4_2c5f)),
    ("leukocyte_dilate", (27160, 40704, 1793, 0xf87e_aafa_faf4_2fc5), (28974, 40704, 1793, 0xf87e_aafa_faf4_2fc5)),
    ("parboil_sgemm", (34524, 40192, 1280, 0x5511_699d_d8d6_d925), (34387, 40192, 1280, 0x5511_699d_d8d6_d925)),
    ("parboil_spmv", (1111082, 17024, 42045, 0x3c1c_69b9_c08a_7f85), (1110888, 17024, 42045, 0x3c1c_69b9_c08a_7f85)),
    ("parboil_stencil", (29177, 41344, 1985, 0x6382_720e_8f7e_cee5), (31019, 41344, 1985, 0x6382_720e_8f7e_cee5)),
    ("parboil_sad_calc8", (166827, 23424, 83200, 0x697f_5515_f52c_8e85), (168722, 23424, 83200, 0x697f_5515_f52c_8e85)),
    ("parboil_sad_calc16", (199083, 23936, 99328, 0x618b_7907_8c3e_9be5), (200910, 23936, 99328, 0x618b_7907_8c3e_9be5)),
    ("parboil_histo_main", (82417, 14464, 41011, 0xe64a_7a30_9d4d_7665), (84973, 14464, 41011, 0xe64a_7a30_9d4d_7665)),
    ("parboil_lbm", (101715, 30336, 7680, 0x57d1_88a9_bfe0_3b45), (101628, 30336, 7680, 0x57d1_88a9_bfe0_3b45)),
    ("parboil_mriq_computeQ", (17272, 18944, 256, 0x4b9a_3ae6_c7e7_4185), (18423, 18944, 256, 0x4b9a_3ae6_c7e7_4185)),
    ("parboil_mri_gridding", (1072762, 14336, 40549, 0x6813_45e9_1c34_dde5), (1072706, 14336, 40549, 0x6813_45e9_1c34_dde5)),
    ("parboil_tpacf", (24902, 11328, 896, 0x1d6e_d313_c100_7994), (24789, 11328, 896, 0x1d6e_d313_c100_7994)),
    ("parboil_cutcp", (74482, 13184, 1737, 0xf871_1ea8_3926_a385), (74670, 13184, 1737, 0xf871_1ea8_3926_a385)),
    ("parboil_bfs", (296744, 9210, 4160, 0x2bae_ae5e_e70c_49f2), (296600, 9210, 4156, 0x2bae_ae5e_e70c_49f2)),
    ("sdk_vectoradd", (40793, 11904, 2304, 0x37c4_aed9_7b15_b4c5), (40702, 11904, 2304, 0x37c4_aed9_7b15_b4c5)),
    ("sdk_matrixmul", (31090, 31616, 1152, 0x187d_f878_7df1_2a05), (30906, 31616, 1152, 0x187d_f878_7df1_2a05)),
    ("sdk_transpose", (67979, 11776, 33792, 0x36f0_ff17_71a2_2cc5), (70234, 11776, 33792, 0x36f0_ff17_71a2_2cc5)),
    ("sdk_reduction", (4743, 7680, 256, 0x1b86_f42e_60b7_77c5), (4945, 7680, 256, 0x1b86_f42e_60b7_77c5)),
    ("sdk_blackscholes", (17578, 14336, 256, 0x6813_45e9_1c34_dde5), (18812, 14336, 256, 0x6813_45e9_1c34_dde5)),
    ("sdk_montecarlo", (15955, 18176, 192, 0x012e_20bb_85dd_c545), (17231, 18176, 192, 0x012e_20bb_85dd_c545)),
    ("sdk_convsep", (29111, 46464, 1793, 0x69cb_cde5_bdd7_bfa5), (30597, 46464, 1793, 0x69cb_cde5_bdd7_bfa5)),
    ("sdk_sortingnetworks", (274678, 8346, 4029, 0xdb3c_ea77_36c4_2c5f), (274476, 8346, 4024, 0xdb3c_ea77_36c4_2c5f)),
];

/// `(name, [rr, gto] on Table I, [rr, gto] on the hostile machine)`: the
/// FNV-1a of the issue log (per warp: its length, then every issue cycle).
const ISSUE_LOGS: [(&str, [u64; 2], [u64; 2]); 12] = [
    ("sdk_vectoradd", [0x8891_df6f_03fd_3284, 0xe326_b0cf_da78_2e12], [0x156c_1770_4a71_aa5b, 0xff1d_da4c_17a1_14e1]),
    ("hotspot_calculate_temp", [0xb4f2_b75f_ba95_155d, 0x45dd_a039_3e4d_51ab], [0x33ff_d521_6331_7663, 0x59b2_b667_b38e_bc03]),
    ("parboil_sgemm", [0xf4b5_b6a2_239b_9cdd, 0x0bb0_771b_072d_3dc1], [0x2bd5_bd98_a22f_287c, 0x4711_da46_3c27_beb1]),
    ("cfd_step_factor", [0x8cc5_dcfc_974f_71b9, 0x6e01_3dbf_26cc_3ca3], [0x3772_174f_1cad_4641, 0x35d8_4223_f2bf_c063]),
    ("srad_kernel1", [0xf106_c562_c665_deb7, 0xa640_4693_eb55_46fe], [0xb21e_e1a1_1399_fc2b, 0x3f6d_fe15_a6fa_a82d]),
    ("kmeans_invert_mapping", [0xe2ca_b916_a6f4_807b, 0x6e0a_10fc_a383_89af], [0x021b_bbbf_b14a_7ead, 0xc818_d3b6_0187_3844]),
    ("parboil_sad_calc8", [0xf7e6_8b22_b7b2_0a77, 0x397e_1d66_9362_134c], [0xbb00_cf47_296f_f7ef, 0x3173_315e_adfc_b256]),
    ("sdk_transpose", [0x0642_1635_3c80_6b18, 0xf831_158a_5555_5ced], [0x250a_056a_79d9_a508, 0x2ebc_cf03_9f05_a89d]),
    ("parboil_bfs", [0xfb12_172f_2ea8_62f2, 0x94e6_6e29_cb1d_613e], [0xdc7b_5064_2a32_0b14, 0x1f18_70f4_38f1_4c07]),
    ("sdk_montecarlo", [0xbcaa_855b_0895_d1ba, 0x700d_c594_089e_f4fb], [0x68f9_2766_fe64_f29f, 0xf779_29e1_e936_4208]),
    ("backprop_layerforward", [0xa8d0_cbf7_de2b_5871, 0x4df6_24a8_7700_3a17], [0x7c53_c07e_f290_f371, 0x6306_9b83_81a0_8599]),
    ("parboil_histo_main", [0xd95a_7fda_ebdc_5954, 0x772e_b88f_904b_3328], [0x8c67_59f0_c7f5_efa4, 0x7014_7cba_d192_7be1]),
];

fn hostile() -> SimConfig {
    let mut cfg = SimConfig::table1().with_dram_bandwidth(64.0).with_sfu_per_core(4);
    cfg.num_cores = 2;
    cfg.num_mshrs = 8;
    cfg
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn trace_of(name: &str) -> KernelTrace {
    let w = workloads::by_name(name).expect("golden name exists").with_blocks(BLOCKS);
    w.trace().unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One run's row, after checking that the run retired exactly the traced
/// instructions and that every core cycle is an issue or an idle cycle.
fn row(trace: &KernelTrace, cfg: &SimConfig, policy: SchedulingPolicy) -> Row {
    let r = simulate(trace, cfg, policy).unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    let at = format!("{} under {policy} on {} cores", trace.name, r.num_cores);
    assert_eq!(r.insts, trace.total_insts() as u64, "{at}: retired != traced");
    assert_eq!(r.per_core_insts.iter().sum::<u64>(), r.insts, "{at}: per-core sum");
    assert_eq!(r.insts + r.idle.total(), r.cycles * r.num_cores as u64, "{at}: {:?}", r.idle);
    (r.cycles, r.insts, r.dram_requests, fnv1a(r.per_core_insts.iter().copied()))
}

fn log_digest(trace: &KernelTrace, cfg: &SimConfig, policy: SchedulingPolicy) -> u64 {
    let (_, log) =
        simulate_with_issue_log(trace, cfg, policy).unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    fnv1a(log.iter().flat_map(|w| std::iter::once(w.len() as u64).chain(w.iter().copied())))
}

fn check_table(cfg: &SimConfig, table: &[(&str, Row, Row); 40]) {
    let lib = workloads::all();
    assert_eq!(lib.len(), table.len());
    for (w, &(name, rr, gto)) in lib.into_iter().zip(table) {
        assert_eq!(w.name, name, "golden table order follows the library");
        let trace = trace_of(name);
        for (policy, want) in POLICIES.into_iter().zip([rr, gto]) {
            assert_eq!(row(&trace, cfg, policy), want, "{name} under {policy}");
        }
    }
}

#[test]
fn table1_results_match_the_committed_rows() {
    check_table(&SimConfig::table1(), &TABLE1);
}

#[test]
fn hostile_results_match_the_committed_rows() {
    check_table(&hostile(), &HOSTILE);
}

#[test]
fn issue_logs_match_the_committed_digests() {
    for (name, table1, hostile_digests) in ISSUE_LOGS {
        let trace = trace_of(name);
        for (cfg, want) in [(SimConfig::table1(), table1), (hostile(), hostile_digests)] {
            for (policy, want) in POLICIES.into_iter().zip(want) {
                let got = log_digest(&trace, &cfg, policy);
                assert_eq!(got, want, "{name} under {policy}, {} cores ({got:#018x})", cfg.num_cores);
            }
        }
    }
}

/// Prints the three tables in source form.
#[test]
#[ignore = "regenerates the golden tables; run by hand"]
fn print_golden_tables() {
    let hex = |v: u64| {
        let s = format!("{v:016x}");
        format!("0x{}_{}_{}_{}", &s[0..4], &s[4..8], &s[8..12], &s[12..16])
    };
    let fmt = |(c, i, d, f): Row| format!("({c}, {i}, {d}, {})", hex(f));
    for (label, cfg) in [("TABLE1", SimConfig::table1()), ("HOSTILE", hostile())] {
        println!("const {label}: [(&str, Row, Row); 40] = [");
        for w in workloads::all() {
            let trace = trace_of(&w.name);
            let [rr, gto] = POLICIES.map(|p| fmt(row(&trace, &cfg, p)));
            println!("    (\"{}\", {rr}, {gto}),", w.name);
        }
        println!("];");
    }
    println!("const ISSUE_LOGS: [(&str, [u64; 2], [u64; 2]); 12] = [");
    for (name, _, _) in ISSUE_LOGS {
        let trace = trace_of(name);
        let [a, b] = [SimConfig::table1(), hostile()]
            .map(|cfg| POLICIES.map(|p| hex(log_digest(&trace, &cfg, p))));
        println!("    (\"{name}\", [{}, {}], [{}, {}]),", a[0], a[1], b[0], b[1]);
    }
    println!("];");
}
