//! Named system design points (paper §4.1, Table 2, §5, §7).
//!
//! Naming follows the paper: `Vn-{SMT,CMP,CMT}{-h}` is a VLT vector
//! processor supporting `n` vector threads with a multiplexed (`SMT`),
//! replicated (`CMP`), or hybrid (`CMT` — replicated multithreaded) scalar
//! unit; `-h` marks heterogeneous scalar units (one 4-way + 2-way others).
//! `CMT` alone is the scalar baseline: the V4-CMT scalar units *without*
//! the vector unit.

use vlt_mem::{MemConfig, NetConfig};
use vlt_scalar::{CoreConfig, StallCause};

/// What-if component idealizations (causal profiling, DESIGN.md §15).
///
/// Each knob removes one source of lost cycles from the timing model
/// while leaving the functional semantics untouched; `vlt prof --whatif`
/// measures the speedup each one buys and cross-checks it against the
/// cycles the CPI stack attributes to the corresponding [`StallCause`].
/// All knobs default to off, and with every knob off the timing model is
/// byte-identical to a build without this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealizeConfig {
    /// L2 bank conflicts never delay an access (bank arbitration is
    /// free; hit/miss latency and DRAM channel contention remain).
    pub zero_conflict_l2: bool,
    /// The inter-cluster network has zero hop latency and never queues
    /// (multi-cluster machines only).
    pub zero_hop_net: bool,
    /// Barriers skip the coherence flush (the L1 invalidation that makes
    /// post-barrier reads miss); the synchronization itself remains, so
    /// residual `BarrierWait` is pure software imbalance.
    pub free_barriers: bool,
    /// Unbounded vector issue bandwidth (the VCL dual-issue limit is
    /// lifted; functional-unit structural hazards remain).
    pub infinite_issue: bool,
}

impl IdealizeConfig {
    /// True when any knob is on.
    pub fn any(&self) -> bool {
        self.zero_conflict_l2 || self.zero_hop_net || self.free_barriers || self.infinite_issue
    }

    /// The single-knob idealization that targets `cause`, or `None` for
    /// causes with no removable hardware component (`no-dlp`, `drain`,
    /// `chain-depth`, and `scalar-dep` are program properties).
    pub fn for_cause(cause: StallCause) -> Option<Self> {
        let mut i = IdealizeConfig::default();
        match cause {
            StallCause::BankConflict => i.zero_conflict_l2 = true,
            StallCause::NetworkContention => i.zero_hop_net = true,
            StallCause::BarrierWait => i.free_barriers = true,
            StallCause::IssueWidth => i.infinite_issue = true,
            _ => return None,
        }
        Some(i)
    }
}

/// Vector-control-logic sizing (kept separate from lane count so the VCL
/// ablations can vary it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VclConfig {
    /// Total vector issue bandwidth per cycle.
    pub issue_width: usize,
    /// Vector instruction window entries.
    pub window: usize,
    /// Element-wise chaining of dependent vector instructions.
    pub chaining: bool,
}

impl Default for VclConfig {
    fn default() -> Self {
        VclConfig { issue_width: 2, window: 32, chaining: true }
    }
}

/// A full design point.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Configuration name as used in the paper's figures.
    pub name: String,
    /// Vector lanes *per cluster*.
    pub lanes: usize,
    /// VLT vector-thread partitions machine-wide (1 = base single-thread
    /// operation). Spread over clusters at run time (DESIGN.md §11).
    pub vlt_threads: usize,
    /// Lane clusters, each a full vector unit (1 = the paper's machines;
    /// >1 is the ultra-wide extension study, DESIGN.md §11).
    pub clusters: usize,
    /// Scalar units, in order; SMT contexts are configured per core.
    pub cores: Vec<CoreConfig>,
    /// Run scalar threads directly on the lanes (paper §5, Figure 6).
    pub lane_threads: bool,
    /// Whether the vector unit exists (false for the CMT scalar baseline).
    pub has_vu: bool,
    /// VCL sizing.
    pub vcl: VclConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Inter-cluster network parameters (unused when `clusters == 1`).
    pub net: NetConfig,
    /// What-if idealization knobs (all off for faithful simulation).
    pub ideal: IdealizeConfig,
}

impl SystemConfig {
    fn mk(name: &str, lanes: usize, vlt_threads: usize, cores: Vec<CoreConfig>) -> Self {
        SystemConfig {
            name: name.to_string(),
            lanes,
            vlt_threads,
            cores,
            clusters: 1,
            lane_threads: false,
            has_vu: true,
            vcl: VclConfig::default(),
            mem: MemConfig::default(),
            net: NetConfig::default(),
            ideal: IdealizeConfig::default(),
        }
    }

    /// The base vector processor (Table 3) with a given lane count
    /// (Figure 1 sweeps 1, 2, 4, 8).
    pub fn base(lanes: usize) -> Self {
        Self::mk("base", lanes, 1, vec![CoreConfig::four_way()])
    }

    /// 2 VLT threads, 1 SMT scalar unit.
    pub fn v2_smt() -> Self {
        Self::mk("V2-SMT", 8, 2, vec![CoreConfig::four_way().with_smt(2)])
    }

    /// 2 VLT threads, 2 replicated 4-way scalar units.
    pub fn v2_cmp() -> Self {
        Self::mk("V2-CMP", 8, 2, vec![CoreConfig::four_way(); 2])
    }

    /// 2 VLT threads, heterogeneous scalar units (4-way + 2-way).
    pub fn v2_cmp_h() -> Self {
        Self::mk("V2-CMP-h", 8, 2, vec![CoreConfig::four_way(), CoreConfig::two_way()])
    }

    /// 4 VLT threads, one 4-context SMT scalar unit.
    pub fn v4_smt() -> Self {
        Self::mk("V4-SMT", 8, 4, vec![CoreConfig::four_way().with_smt(4)])
    }

    /// 4 VLT threads, two 2-way-threaded 4-way scalar units (the paper's
    /// sweet spot: full performance at 13% area).
    pub fn v4_cmt() -> Self {
        Self::mk("V4-CMT", 8, 4, vec![CoreConfig::four_way().with_smt(2); 2])
    }

    /// 4 VLT threads, four replicated 4-way scalar units.
    pub fn v4_cmp() -> Self {
        Self::mk("V4-CMP", 8, 4, vec![CoreConfig::four_way(); 4])
    }

    /// 4 VLT threads, heterogeneous (one 4-way + three 2-way).
    pub fn v4_cmp_h() -> Self {
        Self::mk(
            "V4-CMP-h",
            8,
            4,
            vec![
                CoreConfig::four_way(),
                CoreConfig::two_way(),
                CoreConfig::two_way(),
                CoreConfig::two_way(),
            ],
        )
    }

    /// The scalar CMP baseline of Figure 6: the V4-CMT scalar units with no
    /// vector unit — two 4-way cores, each 2-way threaded (4 threads).
    pub fn cmt() -> Self {
        let mut c = Self::mk("CMT", 0, 1, vec![CoreConfig::four_way().with_smt(2); 2]);
        c.has_vu = false;
        c
    }

    /// VLT scalar-thread mode (Figure 6): 8 scalar threads on the 8 lanes,
    /// each lane a 2-way in-order core. The V4-CMT scalar units serve lane
    /// I-cache misses but run no threads (paper §7.2 runs 8 = power-of-two
    /// threads, leaving the SUs idle).
    pub fn v4_cmt_lane_threads() -> Self {
        let mut c = Self::mk("V4-CMT-lanes", 8, 1, vec![CoreConfig::four_way().with_smt(2); 2]);
        c.lane_threads = true;
        c.has_vu = false; // lanes are re-engineered as scalar cores
        c
    }

    /// Total hardware thread contexts across the scalar units.
    pub fn contexts(&self) -> usize {
        self.cores.iter().map(|c| c.smt_contexts).sum()
    }

    /// Maximum software threads this configuration can run.
    pub fn max_threads(&self) -> usize {
        if self.lane_threads {
            self.lanes
        } else {
            self.contexts()
        }
    }

    /// Scale the lane count (the paper's §9: "manufacturers ... continue
    /// increasing the number of lanes"; 16-lane extension study).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes.is_power_of_two() && lanes >= self.vlt_threads);
        self.lanes = lanes;
        self.name = format!("{}-{}L", self.name, lanes);
        self
    }

    /// Replicate the vector unit across `clusters` lane clusters (the
    /// multi-cluster ultra-wide extension, DESIGN.md §11). `lanes` stays
    /// per-cluster, so total datapath width is `lanes * clusters`.
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        assert!(clusters.is_power_of_two(), "cluster count must be a power of two");
        assert!(self.has_vu, "multi-cluster machines require a vector unit");
        assert!(!self.lane_threads, "lane-thread mode is single-cluster only");
        self.clusters = clusters;
        if clusters > 1 {
            self.name = format!("{}-{}x{}", self.name, clusters, self.lanes);
        }
        self
    }

    /// The ultra-wide VLT design point: `clusters` × 8-lane clusters with 8
    /// machine-wide VLT threads over four 2-way-threaded 4-way scalar units
    /// (the V4-CMT recipe scaled up; 16/32/64 total lanes at 2/4/8
    /// clusters).
    pub fn v8_clustered(clusters: usize) -> Self {
        assert!(matches!(clusters, 2 | 4 | 8), "ultra-wide points use 2, 4, or 8 clusters");
        let mut c = Self::mk(
            &format!("V8-CMT-{}x8", clusters),
            8,
            8,
            vec![CoreConfig::four_way().with_smt(2); 4],
        );
        c.clusters = clusters;
        c
    }

    /// Resolve a design point by the name the command line uses, case- and
    /// `-`/`_`-insensitively: `base` (8 lanes), `v2-smt`, `v2-cmp`,
    /// `v2-cmp-h`, `v4-smt`, `v4-cmt`, `v4-cmp`, `v4-cmp-h`, `cmt`,
    /// `v4-cmt-lanes` (alias `lane-threads`), and the ultra-wide `v8-2x8`,
    /// `v8-4x8`, `v8-8x8`. `None` for any other name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "base" => Self::base(8),
            "v2-smt" => Self::v2_smt(),
            "v2-cmp" => Self::v2_cmp(),
            "v2-cmp-h" => Self::v2_cmp_h(),
            "v4-smt" => Self::v4_smt(),
            "v4-cmt" => Self::v4_cmt(),
            "v4-cmp" => Self::v4_cmp(),
            "v4-cmp-h" => Self::v4_cmp_h(),
            "cmt" => Self::cmt(),
            "v4-cmt-lanes" | "lane-threads" => Self::v4_cmt_lane_threads(),
            "v8-2x8" => Self::v8_clustered(2),
            "v8-4x8" => Self::v8_clustered(4),
            "v8-8x8" => Self::v8_clustered(8),
            _ => return None,
        })
    }

    /// Total vector lanes across all clusters.
    pub fn total_lanes(&self) -> usize {
        self.lanes * self.clusters
    }

    /// All design points evaluated in Figure 5, in presentation order.
    pub fn figure5_points() -> Vec<SystemConfig> {
        vec![
            Self::v2_smt(),
            Self::v2_cmp(),
            Self::v4_smt(),
            Self::v4_cmt(),
            Self::v4_cmp(),
            Self::v4_cmp_h(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table3() {
        let c = SystemConfig::base(8);
        assert_eq!(c.lanes, 8);
        assert_eq!(c.vlt_threads, 1);
        assert_eq!(c.cores.len(), 1);
        assert_eq!(c.cores[0].width, 4);
        assert_eq!(c.vcl.issue_width, 2);
        assert_eq!(c.vcl.window, 32);
        assert!(c.has_vu);
    }

    #[test]
    fn context_counts() {
        assert_eq!(SystemConfig::base(8).contexts(), 1);
        assert_eq!(SystemConfig::v2_smt().contexts(), 2);
        assert_eq!(SystemConfig::v2_cmp().contexts(), 2);
        assert_eq!(SystemConfig::v4_smt().contexts(), 4);
        assert_eq!(SystemConfig::v4_cmt().contexts(), 4);
        assert_eq!(SystemConfig::v4_cmp().contexts(), 4);
        assert_eq!(SystemConfig::v4_cmp_h().contexts(), 4);
        assert_eq!(SystemConfig::cmt().contexts(), 4);
    }

    #[test]
    fn lane_mode_supports_eight_threads() {
        let c = SystemConfig::v4_cmt_lane_threads();
        assert_eq!(c.max_threads(), 8);
        assert!(c.lane_threads);
        assert!(!c.has_vu);
    }

    #[test]
    fn cmt_has_no_vector_unit() {
        assert!(!SystemConfig::cmt().has_vu);
        assert_eq!(SystemConfig::cmt().max_threads(), 4);
    }

    #[test]
    fn clustered_points_shape() {
        for (clusters, total) in [(2, 16), (4, 32), (8, 64)] {
            let c = SystemConfig::v8_clustered(clusters);
            assert_eq!(c.clusters, clusters);
            assert_eq!(c.lanes, 8);
            assert_eq!(c.total_lanes(), total);
            assert_eq!(c.vlt_threads, 8);
            assert_eq!(c.contexts(), 8);
            assert!(c.has_vu);
            assert_eq!(c.name, format!("V8-CMT-{clusters}x8"));
        }
    }

    #[test]
    fn with_clusters_renames() {
        let c = SystemConfig::v4_cmt().with_clusters(2);
        assert_eq!(c.clusters, 2);
        assert_eq!(c.name, "V4-CMT-2x8");
        // clusters == 1 keeps the paper's name untouched.
        assert_eq!(SystemConfig::v4_cmt().with_clusters(1).name, "V4-CMT");
        assert_eq!(SystemConfig::base(8).clusters, 1);
    }

    /// Every command-line name resolves to exactly its constructor's
    /// configuration (compared field by field through `Debug`).
    #[test]
    fn from_name_resolves_every_design_point() {
        let points = [
            ("base", SystemConfig::base(8)),
            ("v2-smt", SystemConfig::v2_smt()),
            ("v2-cmp", SystemConfig::v2_cmp()),
            ("v2-cmp-h", SystemConfig::v2_cmp_h()),
            ("v4-smt", SystemConfig::v4_smt()),
            ("v4-cmt", SystemConfig::v4_cmt()),
            ("v4-cmp", SystemConfig::v4_cmp()),
            ("v4-cmp-h", SystemConfig::v4_cmp_h()),
            ("cmt", SystemConfig::cmt()),
            ("v4-cmt-lanes", SystemConfig::v4_cmt_lane_threads()),
            ("lane-threads", SystemConfig::v4_cmt_lane_threads()),
            ("v8-2x8", SystemConfig::v8_clustered(2)),
            ("v8-4x8", SystemConfig::v8_clustered(4)),
            ("v8-8x8", SystemConfig::v8_clustered(8)),
        ];
        for (name, want) in points {
            let want = format!("{want:?}");
            let spellings = [name.to_string(), name.to_uppercase(), name.replace('-', "_")];
            for spelling in spellings {
                let got = SystemConfig::from_name(&spelling).map(|c| format!("{c:?}"));
                assert_eq!(got.as_deref(), Some(want.as_str()), "{spelling}");
            }
        }
        assert_eq!(SystemConfig::from_name("V4_Cmt-Lanes").unwrap().name, "V4-CMT-lanes");
    }

    #[test]
    fn from_name_rejects_unknown_names() {
        for name in ["", "v4", "v4-cmt ", "v8-16x8", "base8", "v4-cmt-4L", "lanes"] {
            assert!(SystemConfig::from_name(name).is_none(), "{name:?}");
        }
    }

    #[test]
    fn figure5_has_six_points() {
        let pts = SystemConfig::figure5_points();
        assert_eq!(pts.len(), 6);
        let names: Vec<&str> = pts.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["V2-SMT", "V2-CMP", "V4-SMT", "V4-CMT", "V4-CMP", "V4-CMP-h"]);
    }
}
