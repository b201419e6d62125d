//! What each workload runs: the fixed kernel lists, and everything that is
//! drawn from `--seed` (op order per pass, the `serve_closed` request mix).

/// The 21 library kernels with at most 2 memory requests per memory
/// instruction (coalesced, broadcast or stencil accesses).
pub const REGULAR: [&str; 21] = [
    "srad_kernel2",
    "cfd_step_factor",
    "hotspot_calculate_temp",
    "pathfinder_dynproc",
    "lud_diagonal",
    "lud_perimeter",
    "backprop_layerforward",
    "backprop_adjust_weights",
    "heartwall_kernel",
    "gaussian_fan1",
    "leukocyte_dilate",
    "parboil_sgemm",
    "parboil_stencil",
    "parboil_lbm",
    "parboil_mriq_computeQ",
    "parboil_tpacf",
    "sdk_vectoradd",
    "sdk_matrixmul",
    "sdk_reduction",
    "sdk_blackscholes",
    "sdk_convsep",
];

/// The 19 library kernels with at least 8 requests per memory instruction:
/// read gathers (bfs, spmv, streamcluster) beside write scatters (sad_calc,
/// transpose, histo, invert_mapping). No kernel lies between 2 and 8.
pub const DIVERGENT: [&str; 19] = [
    "srad_kernel1",
    "kmeans_invert_mapping",
    "kmeans_kmeans_point",
    "cfd_compute_flux",
    "bfs_kernel1",
    "bfs_kernel2",
    "nw_needle1",
    "streamcluster_pgain",
    "gaussian_fan2",
    "parboil_spmv",
    "parboil_sad_calc8",
    "parboil_sad_calc16",
    "parboil_histo_main",
    "parboil_mri_gridding",
    "parboil_cutcp",
    "parboil_bfs",
    "sdk_transpose",
    "sdk_montecarlo",
    "sdk_sortingnetworks",
];

/// Left out of `validate_oracle`: the six kernels with the most simulated
/// cycles, all DRAM-saturated 32-way gathers on which the model is within
/// 2.4% of the oracle. They take 44% of the oracle's time over the library
/// and stay represented by gaussian_fan2, parboil_bfs and
/// sdk_sortingnetworks.
pub const ORACLE_LEFT_OUT: [&str; 6] = [
    "streamcluster_pgain",
    "parboil_mri_gridding",
    "parboil_spmv",
    "bfs_kernel1",
    "bfs_kernel2",
    "nw_needle1",
];

/// Kernels of the accuracy probe that the workloads other than
/// `validate_oracle` run after measuring, so that every run states a model
/// error beside its speed: two coalesced and two divergent kernels that the
/// oracle simulates in under 0.2 s each.
pub const ACCURACY_PROBE: [&str; 4] = [
    "sdk_vectoradd",
    "cfd_step_factor",
    "sdk_montecarlo",
    "parboil_cutcp",
];

/// The eight kernels `serve_closed` keeps warm, across the divergence range.
pub const SERVE_HOT: [&str; 8] = [
    "sdk_vectoradd",
    "cfd_step_factor",
    "hotspot_calculate_temp",
    "parboil_sgemm",
    "srad_kernel1",
    "cfd_compute_flux",
    "kmeans_invert_mapping",
    "bfs_kernel1",
];

/// Grid size of the cold workloads: the library default, 3x occupancy.
pub const COLD_BLOCKS: usize = 192;
/// Grid size of pre-traced kernels: one full occupancy wave of the Table I
/// machine. At 32 blocks the model's mean error is 33%, outside its regime.
pub const WAVE_BLOCKS: usize = 64;

/// DRAM bandwidths (GB/s) of the design-space sweep.
pub const SWEEP_BW: [f64; 4] = [96.0, 128.0, 192.0, 256.0];
/// MSHR counts of the design-space sweep.
pub const SWEEP_MSHRS: [usize; 3] = [16, 32, 64];

/// Requests per `serve_closed` pass, and how many of them are cold.
pub const SERVE_REQUESTS: usize = 500;
pub const SERVE_COLD: usize = 25;
/// Grid sizes a cold request may ask for.
pub const SERVE_COLD_BLOCKS: std::ops::RangeInclusive<usize> = 8..=24;
pub const SERVE_POLICIES: [&str; 2] = ["rr", "gto"];
pub const SERVE_MODELS: [&str; 3] = ["full", "mt_mshr", "mt"];

/// splitmix64: the benchmark's only source of randomness.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic stream of draws from one seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A draw from `0..n` (`n > 0`). The modulo bias is below 2^-50 here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The order in which pass `pass` runs its `ops` ops.
pub fn op_order(seed: u64, pass: usize, ops: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops).collect();
    Rng::new(seed, 1 + pass as u64).shuffle(&mut order);
    order
}

/// One `POST /predict` of the `serve_closed` mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub kernel: &'static str,
    pub blocks: usize,
    pub policy: &'static str,
    pub model: &'static str,
    pub bw: f64,
    pub mshrs: usize,
    /// `true` when no earlier request named this `(kernel, blocks)`, so the
    /// server has to trace it.
    pub cold: bool,
}

impl ServeRequest {
    /// The request's JSON body.
    pub fn body(&self) -> String {
        format!(
            "{{\"kernel\":\"{}\",\"blocks\":{},\"policy\":\"{}\",\"model\":\"{}\",\"bw\":{:?},\"mshrs\":{}}}",
            self.kernel, self.blocks, self.policy, self.model, self.bw, self.mshrs
        )
    }
}

/// The request mix of one `serve_closed` pass: 95% warm requests (a hot
/// kernel at [`WAVE_BLOCKS`] with a drawn policy, model, bandwidth and MSHR
/// count) and 5% cold ones (a `(kernel, blocks)` pair drawn without
/// replacement from the whole library). `library` is the list of kernel
/// names cold requests draw from.
pub fn serve_requests(seed: u64, library: &[&'static str]) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed, 0);
    let hot_sizes: Vec<(&str, usize)> = SERVE_HOT.iter().map(|k| (*k, WAVE_BLOCKS)).collect();
    let mut cold_keys: Vec<(&'static str, usize)> = library
        .iter()
        .flat_map(|k| SERVE_COLD_BLOCKS.map(move |b| (*k, b)))
        .filter(|key| !hot_sizes.contains(key))
        .collect();
    rng.shuffle(&mut cold_keys);
    let mut out: Vec<ServeRequest> = cold_keys
        .into_iter()
        .take(SERVE_COLD)
        .map(|(kernel, blocks)| ServeRequest {
            kernel,
            blocks,
            policy: "rr",
            model: "full",
            bw: SWEEP_BW[2],
            mshrs: SWEEP_MSHRS[1],
            cold: true,
        })
        .collect();
    while out.len() < SERVE_REQUESTS {
        out.push(ServeRequest {
            kernel: SERVE_HOT[rng.below(SERVE_HOT.len())],
            blocks: WAVE_BLOCKS,
            policy: SERVE_POLICIES[rng.below(SERVE_POLICIES.len())],
            model: SERVE_MODELS[rng.below(SERVE_MODELS.len())],
            bw: SWEEP_BW[rng.below(SWEEP_BW.len())],
            mshrs: SWEEP_MSHRS[rng.below(SWEEP_MSHRS.len())],
            cold: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn library() -> Vec<&'static str> {
        REGULAR.iter().chain(DIVERGENT.iter()).copied().collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_op_list() {
        assert_eq!(op_order(7, 3, 133), op_order(7, 3, 133));
        let a: Vec<String> = serve_requests(7, &library())
            .iter()
            .map(ServeRequest::body)
            .collect();
        let b: Vec<String> = serve_requests(7, &library())
            .iter()
            .map(ServeRequest::body)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn another_seed_or_pass_gives_the_same_ops_in_another_order() {
        let a = op_order(7, 0, 40);
        for other in [op_order(8, 0, 40), op_order(7, 1, 40)] {
            assert_ne!(a, other);
            let (mut x, mut y) = (a.clone(), other);
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
            assert_eq!(x, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cold_serve_keys_never_repeat_and_never_name_a_warm_trace() {
        for seed in 0..20 {
            let reqs = serve_requests(seed, &library());
            assert_eq!(reqs.len(), SERVE_REQUESTS);
            let cold: Vec<_> = reqs
                .iter()
                .filter(|r| r.cold)
                .map(|r| (r.kernel, r.blocks))
                .collect();
            assert_eq!(cold.len(), SERVE_COLD);
            assert_eq!(cold.iter().collect::<BTreeSet<_>>().len(), SERVE_COLD);
            assert!(cold.iter().all(|(_, b)| SERVE_COLD_BLOCKS.contains(b)));
            assert!(reqs
                .iter()
                .filter(|r| !r.cold)
                .all(|r| SERVE_HOT.contains(&r.kernel) && r.blocks == WAVE_BLOCKS));
        }
    }

    #[test]
    fn serve_mix_differs_between_seeds() {
        assert_ne!(serve_requests(1, &library()), serve_requests(2, &library()));
    }

    #[test]
    fn the_two_cold_lists_partition_the_library() {
        let lib: BTreeSet<String> = gpumech_trace::workloads::all()
            .into_iter()
            .map(|w| w.name)
            .collect();
        let ours: BTreeSet<String> = library().into_iter().map(str::to_owned).collect();
        assert_eq!(lib.len(), 40);
        assert_eq!(REGULAR.len() + DIVERGENT.len(), 40);
        assert_eq!(lib, ours);
        for name in ORACLE_LEFT_OUT {
            assert!(DIVERGENT.contains(&name));
        }
        for name in ACCURACY_PROBE.iter().chain(SERVE_HOT.iter()) {
            assert!(lib.contains(*name), "{name}");
        }
    }
}
