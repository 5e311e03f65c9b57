//! Core configuration parameters (paper Table 3 and §4.1).

/// Out-of-order scalar unit parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch/issue/retire width.
    pub width: usize,
    /// Instruction window entries (shared by the ROB in this model).
    pub window: usize,
    /// Number of arithmetic functional units.
    pub arith_units: usize,
    /// Number of memory ports.
    pub mem_ports: usize,
    /// Hardware thread contexts (1, or 2 for the SMT variants).
    pub smt_contexts: usize,
    /// Front-end redirect penalty on a branch misprediction.
    pub mispredict_penalty: u64,
    /// Extra drain penalty for serializing instructions (`vltcfg`).
    pub serialize_penalty: u64,
}

impl CoreConfig {
    /// The base 4-way superscalar SU (Table 3).
    pub fn four_way() -> Self {
        CoreConfig {
            width: 4,
            window: 64,
            arith_units: 4,
            mem_ports: 2,
            smt_contexts: 1,
            mispredict_penalty: 10,
            serialize_penalty: 20,
        }
    }

    /// The smaller 2-way SU used by heterogeneous configurations (§4.1:
    /// "identical caches but half the resources of the 4-way unit").
    pub fn two_way() -> Self {
        CoreConfig { width: 2, window: 32, arith_units: 2, mem_ports: 1, ..Self::four_way() }
    }

    /// Enable SMT on this core (2-way for the CMT configs; the V4-SMT design
    /// point runs 4 contexts on one SU — paper §4.1, Table 2).
    pub fn with_smt(mut self, contexts: usize) -> Self {
        assert!(matches!(contexts, 1 | 2 | 4), "SMT supports 1, 2, or 4 contexts");
        self.smt_contexts = contexts;
        self
    }

    /// Window entries available to each hardware context.
    pub fn window_per_ctx(&self) -> usize {
        self.window / self.smt_contexts
    }
}

/// In-order lane-core parameters (paper §5: "each lane can operate
/// independently as a 2-way in-order processor").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCoreConfig {
    /// Issue width (2).
    pub width: usize,
    /// Outstanding loads allowed (decoupling queues, §5).
    pub load_queue: usize,
    /// Taken-branch redirect penalty (shallow pipeline).
    pub branch_penalty: u64,
}

impl Default for LaneCoreConfig {
    fn default() -> Self {
        LaneCoreConfig { width: 2, load_queue: 4, branch_penalty: 4 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        let c = CoreConfig::four_way();
        assert_eq!(c.width, 4);
        assert_eq!(c.window, 64);
        assert_eq!(c.arith_units, 4);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.smt_contexts, 1);
    }

    #[test]
    fn two_way_is_half() {
        let c = CoreConfig::two_way();
        assert_eq!(c.width, 2);
        assert_eq!(c.arith_units, 2);
        assert_eq!(c.mem_ports, 1);
    }

    #[test]
    fn smt_partitions_window() {
        let c = CoreConfig::four_way().with_smt(2);
        assert_eq!(c.window_per_ctx(), 32);
    }

    #[test]
    fn four_context_smt_allowed() {
        let c = CoreConfig::four_way().with_smt(4);
        assert_eq!(c.window_per_ctx(), 16);
    }

    #[test]
    #[should_panic]
    fn smt_rejects_bad_counts() {
        CoreConfig::four_way().with_smt(3);
    }
}
