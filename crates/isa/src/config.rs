//! Machine configuration — Table I of the GPUMech paper.
//!
//! [`SimConfig::default`] reproduces the paper's baseline: 16 cores at
//! 1.0 GHz, 32-wide SIMT, 1024 threads (32 warps) per core, single-issue,
//! 32 KB / 8-way / 25-cycle L1 with 32 MSHRs, 768 KB / 8-way / 120-cycle L2
//! (NoC latency folded into the L2 latency, as in the paper), and
//! 192 GB/s / 300-cycle DRAM. The evaluation sweeps (Figures 13-15) vary
//! `max_warps_per_core`, `num_mshrs`, and `dram_bandwidth_gbps`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::opcode::{InstKind, MemSpace};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache line size in bytes (128 in Table I).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access latency in core cycles (includes NoC for the L2).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets, i.e. `size / (line * assoc)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide evenly; call
    /// [`SimConfig::validate`] first to surface this as an error.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.assoc) && lines > 0,
            "cache geometry does not divide evenly: {self:?}"
        );
        lines / self.assoc
    }

    /// Total number of cache lines.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }
}

/// Fixed latencies of the compute instruction classes, "modeled according to
/// the CUDA manual" per Table I (normal FP instructions are 25 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyTable {
    /// Integer ALU latency.
    pub int_alu: u64,
    /// Floating-point add latency (25 in Table I).
    pub fp_add: u64,
    /// Floating-point multiply latency.
    pub fp_mul: u64,
    /// Fused multiply-add latency.
    pub fp_fma: u64,
    /// Floating-point divide latency.
    pub fp_div: u64,
    /// Special-function-unit latency (sin, rsqrt, …).
    pub sfu: u64,
    /// Software-managed (shared) memory latency.
    pub shared_mem: u64,
    /// Branch resolution latency.
    pub branch: u64,
}

impl Default for LatencyTable {
    fn default() -> Self {
        Self {
            int_alu: 18,
            fp_add: 25,
            fp_mul: 25,
            fp_fma: 25,
            fp_div: 120,
            sfu: 40,
            shared_mem: 30,
            branch: 1,
        }
    }
}

impl LatencyTable {
    /// Latency of a compute-class instruction.
    ///
    /// Global memory instructions have data-dependent latencies produced by
    /// the cache model; for those this returns the issue-slot floor of 1.
    #[must_use]
    pub fn latency_of(&self, kind: InstKind) -> u64 {
        match kind {
            InstKind::IntAlu => self.int_alu,
            InstKind::FpAdd => self.fp_add,
            InstKind::FpMul => self.fp_mul,
            InstKind::FpFma => self.fp_fma,
            InstKind::FpDiv => self.fp_div,
            InstKind::Sfu => self.sfu,
            InstKind::Load(MemSpace::Shared) | InstKind::Store(MemSpace::Shared) => {
                self.shared_mem
            }
            InstKind::Branch => self.branch,
            InstKind::Sync | InstKind::Exit => 1,
            InstKind::Load(MemSpace::Global) | InstKind::Store(MemSpace::Global) => 1,
        }
    }
}

/// Error returned by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be non-zero was zero.
    ZeroField(&'static str),
    /// A cache's size is not divisible by `line_bytes * assoc`.
    CacheGeometry(&'static str),
    /// L1 and L2 line sizes differ (the hierarchy assumes one line size).
    LineSizeMismatch,
    /// `simt_width` does not equal the warp size.
    SimtWidth,
    /// A field is outside the range the models stay numerically stable in.
    OutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable bound that was violated.
        bound: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(name) => write!(f, "configuration field {name} must be non-zero"),
            ConfigError::CacheGeometry(which) => {
                write!(f, "{which} size is not divisible by line size times associativity")
            }
            ConfigError::LineSizeMismatch => f.write_str("L1 and L2 line sizes differ"),
            ConfigError::SimtWidth => f.write_str("SIMT width must equal the warp size"),
            ConfigError::OutOfRange { field, bound } => {
                write!(f, "configuration field {field} is out of range: must be {bound}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full machine description (Table I of the paper).
///
/// This is a passive configuration record: fields are public so harnesses can
/// tweak individual parameters, and [`SimConfig::validate`] checks global
/// consistency before a simulation starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of streaming multiprocessors (16).
    pub num_cores: usize,
    /// Core clock in GHz (1.0).
    pub clock_ghz: f64,
    /// SIMD lanes per core (32).
    pub simt_width: usize,
    /// Maximum resident warps per core (32, i.e. 1024 threads).
    pub max_warps_per_core: usize,
    /// Warp-instructions issued per cycle per core (1).
    pub issue_width: usize,
    /// Compute latencies.
    pub latencies: LatencyTable,
    /// L1 data cache (32 KB, 128 B lines, 8-way, 25 cycles).
    pub l1: CacheConfig,
    /// MSHR entries per core (32). Only global loads allocate MSHRs.
    pub num_mshrs: usize,
    /// Shared L2 cache (768 KB, 128 B lines, 8-way, 120 cycles incl. NoC).
    pub l2: CacheConfig,
    /// Aggregate DRAM bandwidth in GB/s (192).
    pub dram_bandwidth_gbps: f64,
    /// DRAM access latency in cycles, excluding queueing (300).
    pub dram_latency: u64,
    /// Software-managed scratchpad per core in KiB (16).
    pub shared_mem_kib: usize,
    /// Special-function-unit lanes per core. Table I's "balanced design"
    /// assumption corresponds to 32 (a warp's SFU op occupies the unit for
    /// one cycle, no contention); real GPUs have 4-8, making SFU-heavy
    /// warps serialize — the resource-contention generalization the paper
    /// leaves as future work (Section IV-B1).
    #[serde(default = "default_sfu_per_core")]
    pub sfu_per_core: usize,
}

fn default_sfu_per_core() -> usize {
    32
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_cores: 16,
            clock_ghz: 1.0,
            simt_width: 32,
            max_warps_per_core: 32,
            issue_width: 1,
            latencies: LatencyTable::default(),
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 128,
                assoc: 8,
                latency: 25,
            },
            num_mshrs: 32,
            l2: CacheConfig {
                size_bytes: 768 * 1024,
                line_bytes: 128,
                assoc: 8,
                latency: 120,
            },
            dram_bandwidth_gbps: 192.0,
            dram_latency: 300,
            shared_mem_kib: 16,
            sfu_per_core: 32,
        }
    }
}

impl SimConfig {
    /// Largest accepted core count.
    pub const MAX_CORES: usize = 4096;
    /// Largest accepted resident-warp count per core.
    pub const MAX_WARPS_PER_CORE: usize = 4096;
    /// Largest accepted MSHR file size.
    pub const MAX_MSHRS: usize = 1 << 20;
    /// Largest accepted issue width.
    pub const MAX_ISSUE_WIDTH: usize = 32;
    /// Largest accepted DRAM access latency in cycles.
    pub const MAX_DRAM_LATENCY: u64 = 10_000_000;
    /// Ceiling on [`SimConfig::dram_service_cycles`]: the timing oracle
    /// books DRAM capacity in 32-cycle windows and one line transfer must
    /// fit a window, so the bandwidth floor is
    /// `clock_ghz * line_bytes / 32` GB/s (4 GB/s at Table I values).
    pub const MAX_DRAM_SERVICE_CYCLES: f64 = 32.0;

    /// The paper's Table I baseline; identical to `SimConfig::default()`.
    #[must_use]
    pub fn table1() -> Self {
        Self::default()
    }

    /// Table I with the four overrides every front end accepts
    /// (`--warps/--mshrs/--bw/--sfu`, the `/predict` body fields of the
    /// same names) applied where given, validated.
    ///
    /// # Errors
    ///
    /// [`SimConfig::validate`]'s error for the assembled configuration.
    pub fn table1_with(
        warps: Option<usize>,
        mshrs: Option<usize>,
        bw: Option<f64>,
        sfu: Option<usize>,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::table1();
        cfg.max_warps_per_core = warps.unwrap_or(cfg.max_warps_per_core);
        cfg.num_mshrs = mshrs.unwrap_or(cfg.num_mshrs);
        cfg.dram_bandwidth_gbps = bw.unwrap_or(cfg.dram_bandwidth_gbps);
        cfg.sfu_per_core = sfu.unwrap_or(cfg.sfu_per_core);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Returns a copy with a different number of resident warps per core
    /// (the Figure 13 sweep: 8, 16, 32, 48).
    #[must_use]
    pub fn with_warps_per_core(mut self, warps: usize) -> Self {
        self.max_warps_per_core = warps;
        self
    }

    /// Returns a copy with a different number of MSHR entries
    /// (the Figure 14 sweep: 64, 96, 128, 256).
    #[must_use]
    pub fn with_mshrs(mut self, mshrs: usize) -> Self {
        self.num_mshrs = mshrs;
        self
    }

    /// Returns a copy with a different DRAM bandwidth in GB/s
    /// (the Figure 15 sweep: 64, 128, 192, 256).
    #[must_use]
    pub fn with_dram_bandwidth(mut self, gbps: f64) -> Self {
        self.dram_bandwidth_gbps = gbps;
        self
    }

    /// Returns a copy with a different number of SFU lanes per core
    /// (the SFU-contention ablation; 32 = Table I's no-contention default).
    #[must_use]
    pub fn with_sfu_per_core(mut self, lanes: usize) -> Self {
        self.sfu_per_core = lanes;
        self
    }

    /// Cycles a warp's SFU instruction occupies the special-function unit:
    /// `ceil(warp_size / sfu_per_core)` (1 at the default 32 lanes, 8 on a
    /// Fermi-like 4-lane unit).
    #[must_use]
    pub fn sfu_initiation_interval(&self) -> u64 {
        (crate::WARP_SIZE as u64).div_ceil(self.sfu_per_core.max(1) as u64)
    }

    /// Issue rate in warp-instructions per cycle (Table I: 1.0).
    #[must_use]
    pub fn issue_rate(&self) -> f64 {
        self.issue_width as f64
    }

    /// Latency of an access that hits in the L2 (120 cycles).
    #[must_use]
    pub fn l2_hit_latency(&self) -> u64 {
        self.l2.latency
    }

    /// Latency of an access that misses the L2: L2 lookup plus DRAM access
    /// (120 + 300 = 420 cycles in Table I — the value used in the paper's
    /// worked AMAT example of Section V-B).
    #[must_use]
    pub fn l2_miss_latency(&self) -> u64 {
        self.l2.latency + self.dram_latency
    }

    /// DRAM bus service time of one cache line, in core cycles:
    /// `freq_core * L / B` (Equation 22 of the paper). At Table I values
    /// this is `1 GHz * 128 B / 192 GB/s ≈ 0.667` cycles.
    #[must_use]
    pub fn dram_service_cycles(&self) -> f64 {
        let bytes_per_cycle = self.dram_bandwidth_gbps / self.clock_ghz;
        self.l2.line_bytes as f64 / bytes_per_cycle
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found:
    /// a zero-valued field, cache geometry that does not divide evenly (or a
    /// non-power-of-two line size), mismatched line sizes, a SIMT width
    /// different from the warp size, or a field outside the bounds
    /// (`MAX_*` associated constants) within which the models stay
    /// numerically stable.
    pub fn validate(&self) -> Result<(), ConfigError> {
        gpumech_obs::counter!("isa.config.validations", 1u64);
        let result = self.validate_impl();
        if result.is_err() {
            gpumech_obs::counter!("isa.config.rejections", 1u64);
        }
        result
    }

    fn validate_impl(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::ZeroField("num_cores"));
        }
        if self.max_warps_per_core == 0 {
            return Err(ConfigError::ZeroField("max_warps_per_core"));
        }
        if self.issue_width == 0 {
            return Err(ConfigError::ZeroField("issue_width"));
        }
        if self.num_mshrs == 0 {
            return Err(ConfigError::ZeroField("num_mshrs"));
        }
        if self.sfu_per_core == 0 {
            return Err(ConfigError::ZeroField("sfu_per_core"));
        }
        if self.dram_bandwidth_gbps <= 0.0 || !self.dram_bandwidth_gbps.is_finite() {
            return Err(ConfigError::ZeroField("dram_bandwidth_gbps"));
        }
        if self.clock_ghz <= 0.0 || !self.clock_ghz.is_finite() {
            return Err(ConfigError::ZeroField("clock_ghz"));
        }
        if self.num_cores > Self::MAX_CORES {
            return Err(ConfigError::OutOfRange { field: "num_cores", bound: "at most 4096" });
        }
        if self.max_warps_per_core > Self::MAX_WARPS_PER_CORE {
            return Err(ConfigError::OutOfRange {
                field: "max_warps_per_core",
                bound: "at most 4096",
            });
        }
        if self.issue_width > Self::MAX_ISSUE_WIDTH {
            return Err(ConfigError::OutOfRange { field: "issue_width", bound: "at most 32" });
        }
        if self.num_mshrs > Self::MAX_MSHRS {
            return Err(ConfigError::OutOfRange { field: "num_mshrs", bound: "at most 2^20" });
        }
        if self.sfu_per_core > crate::WARP_SIZE {
            return Err(ConfigError::OutOfRange {
                field: "sfu_per_core",
                bound: "at most the warp size (32)",
            });
        }
        if self.dram_latency > Self::MAX_DRAM_LATENCY {
            return Err(ConfigError::OutOfRange {
                field: "dram_latency",
                bound: "at most 10^7 cycles",
            });
        }
        for (cache, name) in [(&self.l1, "L1"), (&self.l2, "L2")] {
            if cache.size_bytes == 0 || cache.line_bytes == 0 || cache.assoc == 0 {
                return Err(ConfigError::ZeroField("cache size/line/assoc"));
            }
            let lines = cache.size_bytes / cache.line_bytes;
            if lines == 0
                || cache.size_bytes % cache.line_bytes != 0
                || lines % cache.assoc != 0
                || !cache.line_bytes.is_power_of_two()
            {
                return Err(ConfigError::CacheGeometry(name));
            }
            // The cache model marks an empty way with line number u64::MAX,
            // which only 1-byte lines could reach.
            if cache.line_bytes < 2 {
                return Err(ConfigError::OutOfRange {
                    field: "cache line_bytes",
                    bound: "at least 2",
                });
            }
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::LineSizeMismatch);
        }
        if self.simt_width != crate::WARP_SIZE {
            return Err(ConfigError::SimtWidth);
        }
        // One line transfer must fit a DRAM booking window, or the oracle's
        // windowed capacity search can never place a request.
        if self.dram_service_cycles() > Self::MAX_DRAM_SERVICE_CYCLES {
            return Err(ConfigError::OutOfRange {
                field: "dram_bandwidth_gbps",
                bound: "at least clock_ghz * line_bytes / 32 GB/s (one line per DRAM window)",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let cfg = SimConfig::table1();
        assert_eq!(cfg.num_cores, 16);
        assert_eq!(cfg.max_warps_per_core, 32);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.latency, 25);
        assert_eq!(cfg.num_mshrs, 32);
        assert_eq!(cfg.l2.size_bytes, 768 * 1024);
        assert_eq!(cfg.l2.latency, 120);
        assert_eq!(cfg.dram_latency, 300);
        assert_eq!(cfg.latencies.fp_add, 25, "normal FP instructions are 25 cycles");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn table1_with_applies_overrides_and_validates() {
        assert_eq!(SimConfig::table1_with(None, None, None, None), Ok(SimConfig::table1()));
        let cfg = SimConfig::table1_with(Some(48), Some(64), Some(96.0), Some(4)).unwrap();
        let chained = SimConfig::table1()
            .with_warps_per_core(48)
            .with_mshrs(64)
            .with_dram_bandwidth(96.0)
            .with_sfu_per_core(4);
        assert_eq!(cfg, chained);
        assert_eq!(
            SimConfig::table1_with(None, Some(0), None, None),
            Err(ConfigError::ZeroField("num_mshrs"))
        );
    }

    #[test]
    fn l2_miss_latency_matches_the_papers_amat_example() {
        // Section V-B: "hits L2 cache (120 cycles) ... misses L2 cache (420)".
        let cfg = SimConfig::default();
        assert_eq!(cfg.l2_hit_latency(), 120);
        assert_eq!(cfg.l2_miss_latency(), 420);
    }

    #[test]
    fn dram_service_time_is_two_thirds_of_a_cycle_at_192_gbps() {
        let s = SimConfig::default().dram_service_cycles();
        assert!((s - 128.0 / 192.0).abs() < 1e-12);
    }

    #[test]
    fn service_time_scales_inversely_with_bandwidth() {
        let lo = SimConfig::default().with_dram_bandwidth(64.0);
        assert!((lo.dram_service_cycles() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cache_geometry() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.l1.num_lines(), 256);
        assert_eq!(cfg.l1.num_sets(), 32);
        assert_eq!(cfg.l2.num_lines(), 6144);
        assert_eq!(cfg.l2.num_sets(), 768);
    }

    #[test]
    fn builders_override_single_fields() {
        let cfg = SimConfig::default()
            .with_warps_per_core(48)
            .with_mshrs(96)
            .with_dram_bandwidth(64.0);
        assert_eq!(cfg.max_warps_per_core, 48);
        assert_eq!(cfg.num_mshrs, 96);
        assert!((cfg.dram_bandwidth_gbps - 64.0).abs() < f64::EPSILON);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let cfg = SimConfig { num_cores: 0, ..SimConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroField("num_cores")));

        let mut cfg = SimConfig::default();
        cfg.l1.size_bytes = 1000; // not divisible by 128
        assert_eq!(cfg.validate(), Err(ConfigError::CacheGeometry("L1")));

        let mut cfg = SimConfig::default();
        cfg.l2.line_bytes = 64;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheGeometry("L2") | ConfigError::LineSizeMismatch)
        ));

        let cfg = SimConfig { simt_width: 16, ..SimConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::SimtWidth));
    }

    #[test]
    fn validate_rejects_out_of_range_configs() {
        let cfg = SimConfig::default().with_warps_per_core(100_000);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { field: "max_warps_per_core", .. })
        ));

        let cfg = SimConfig::default().with_mshrs(usize::MAX);
        assert!(matches!(cfg.validate(), Err(ConfigError::OutOfRange { field: "num_mshrs", .. })));

        let cfg = SimConfig::default().with_sfu_per_core(64);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { field: "sfu_per_core", .. })
        ));

        // 1 GB/s → service time 128 cycles: a line no longer fits a DRAM
        // booking window.
        let cfg = SimConfig::default().with_dram_bandwidth(1.0);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { field: "dram_bandwidth_gbps", .. })
        ));
        // The floor itself (4 GB/s at Table I geometry) is accepted.
        assert!(SimConfig::default().with_dram_bandwidth(4.0).validate().is_ok());

        let cfg = SimConfig { dram_bandwidth_gbps: f64::INFINITY, ..SimConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroField("dram_bandwidth_gbps")));

        let mut cfg = SimConfig::default();
        cfg.l1.line_bytes = 96;
        cfg.l2.line_bytes = 96;
        assert_eq!(cfg.validate(), Err(ConfigError::CacheGeometry("L1")), "non-power-of-two line");

        let mut cfg = SimConfig::default();
        cfg.l1.line_bytes = 1;
        cfg.l2.line_bytes = 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { field: "cache line_bytes", .. })
        ));
    }

    #[test]
    fn latency_table_covers_all_kinds() {
        let lat = LatencyTable::default();
        assert_eq!(lat.latency_of(InstKind::FpAdd), 25);
        assert_eq!(lat.latency_of(InstKind::Load(MemSpace::Shared)), 30);
        assert_eq!(lat.latency_of(InstKind::Load(MemSpace::Global)), 1);
        assert_eq!(lat.latency_of(InstKind::Sync), 1);
        assert!(lat.latency_of(InstKind::FpDiv) > lat.latency_of(InstKind::FpMul));
    }

    #[test]
    fn sfu_initiation_interval_scales_with_lanes() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.sfu_per_core, 32, "Table I: balanced design, no SFU contention");
        assert_eq!(cfg.sfu_initiation_interval(), 1);
        assert_eq!(cfg.clone().with_sfu_per_core(8).sfu_initiation_interval(), 4);
        assert_eq!(cfg.clone().with_sfu_per_core(4).sfu_initiation_interval(), 8);
        assert_eq!(cfg.clone().with_sfu_per_core(5).sfu_initiation_interval(), 7);
        let mut bad = cfg;
        bad.sfu_per_core = 0;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroField("sfu_per_core")));
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SimConfig::default().with_mshrs(64);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: SimConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }

    #[test]
    fn configs_with_retired_fields_still_load() {
        // A config written by a version with more fields than this one
        // still deserializes: unknown fields are ignored.
        let cfg = SimConfig::default();
        let json = serde_json::to_string(&cfg).expect("serialize");
        let body = json.strip_suffix('}').expect("a JSON object");
        let older = format!("{body},\"retired_knob\":32}}");
        let back: SimConfig = serde_json::from_str(&older).expect("deserialize");
        assert_eq!(back, cfg);
    }
}
