//! The composed memory hierarchy used by the system simulator.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::l2::BankedL2;

/// Aggregate memory statistics for reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    /// Per-core L1-I (hits, misses).
    pub l1i: Vec<(u64, u64)>,
    /// Per-core L1-D (hits, misses).
    pub l1d: Vec<(u64, u64)>,
    /// Per-lane I-cache (hits, misses).
    pub lane_i: Vec<(u64, u64)>,
    /// L2 (accesses, misses, bank conflicts).
    pub l2: (u64, u64, u64),
    /// L2 bank-conflict count per bank (sums to `l2.2`).
    pub l2_bank_conflicts: Vec<u64>,
    /// Inter-cluster network statistics; `None` on single-cluster machines
    /// (which have no network). Filled in by the system driver — the
    /// [`ClusterNet`](crate::net::ClusterNet) is owned there, not here.
    pub net: Option<crate::net::NetStats>,
}

/// The full memory hierarchy: per-core L1s, per-lane I-caches, shared L2.
///
/// Scalar cores access the L2 through their L1s; the vector unit and the
/// lane cores (VLT scalar-thread mode) access the L2 directly (paper §2:
/// "the vector unit ... accesses the L2 directly to avoid thrashing in the
/// small L1 cache").
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    lane_i: Vec<Cache>,
    /// The shared banked L2.
    pub l2: BankedL2,
}

impl MemSystem {
    /// Build a hierarchy for `cores` scalar units and `lanes` vector lanes.
    pub fn new(cfg: MemConfig, cores: usize, lanes: usize) -> Self {
        MemSystem {
            l1i: (0..cores).map(|_| Cache::new(cfg.l1_size, cfg.l1_assoc, cfg.l1_line)).collect(),
            l1d: (0..cores).map(|_| Cache::new(cfg.l1_size, cfg.l1_assoc, cfg.l1_line)).collect(),
            lane_i: (0..lanes)
                .map(|_| Cache::new(cfg.lane_icache_size, 1, cfg.lane_icache_line))
                .collect(),
            l2: BankedL2::new(&cfg),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Instruction fetch from core `c` at cycle `now`; returns ready cycle.
    pub fn inst_fetch(&mut self, c: usize, addr: u64, now: u64) -> u64 {
        if self.l1i[c].access(addr) {
            now + 1
        } else {
            self.l2.access(addr, false, now + 1) + 1
        }
    }

    /// Data access from core `c` through its L1-D.
    pub fn data_access(&mut self, c: usize, addr: u64, write: bool, now: u64) -> u64 {
        if self.l1d[c].access(addr) {
            now + self.cfg.l1_hit
        } else {
            self.l2.access(addr, write, now + 1) + 1
        }
    }

    /// Direct L2 access (vector memory ports, lane cores' data path).
    pub fn l2_access(&mut self, addr: u64, write: bool, now: u64) -> u64 {
        self.l2.access(addr, write, now)
    }

    /// Lane instruction fetch (VLT scalar-thread mode). Misses are forwarded
    /// to the owning scalar unit's L1-I (paper §5), then the L2.
    pub fn lane_inst_fetch(&mut self, lane: usize, owner_core: usize, addr: u64, now: u64) -> u64 {
        if self.lane_i[lane].access(addr) {
            now + 1
        } else {
            self.inst_fetch(owner_core, addr, now + 1)
        }
    }

    /// Barrier coherence action: invalidate L1 data caches so post-barrier
    /// reads observe other threads' writes (compiler memory barriers in the
    /// paper; see DESIGN.md §8).
    pub fn barrier_flush(&mut self) {
        for c in &mut self.l1d {
            c.invalidate_all();
        }
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.iter().map(|c| (c.hits, c.misses)).collect(),
            l1d: self.l1d.iter().map(|c| (c.hits, c.misses)).collect(),
            lane_i: self.lane_i.iter().map(|c| (c.hits, c.misses)).collect(),
            l2: (self.l2.accesses, self.l2.misses, self.l2.bank_conflicts),
            l2_bank_conflicts: self.l2.bank_conflict_counts.clone(),
            net: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::default(), 2, 8)
    }

    #[test]
    fn ifetch_hits_are_fast() {
        let mut m = sys();
        let cold = m.inst_fetch(0, 0x1000, 0);
        assert!(cold > 100, "cold fetch goes to memory: {cold}");
        let warm = m.inst_fetch(0, 0x1000, 200);
        assert_eq!(warm, 201);
        // Same line: also warm.
        assert_eq!(m.inst_fetch(0, 0x1004, 300), 301);
    }

    #[test]
    fn dcache_hit_latency() {
        let mut m = sys();
        m.data_access(0, 0x5000, false, 0);
        let t = m.data_access(0, 0x5000, false, 100);
        assert_eq!(t, 100 + MemConfig::default().l1_hit);
    }

    #[test]
    fn cores_have_private_l1s() {
        let mut m = sys();
        m.data_access(0, 0x5000, false, 0);
        // Core 1 misses its own L1 but hits the shared L2.
        let t = m.data_access(1, 0x5000, false, 100);
        assert!(t >= 100 + 10, "core 1 should go to L2: {t}");
        assert!(t < 100 + 100, "but the L2 line is warm: {t}");
    }

    #[test]
    fn lane_ifetch_forwards_to_core_l1i() {
        let mut m = sys();
        // Warm core 0's L1-I.
        m.inst_fetch(0, 0x1000, 0);
        // Lane 3 cold in its own I-cache, warm in core 0's L1-I.
        let t = m.lane_inst_fetch(3, 0, 0x1000, 200);
        assert_eq!(t, 202);
        // Now warm in the lane cache too.
        assert_eq!(m.lane_inst_fetch(3, 0, 0x1000, 300), 301);
        // Lane 4 still cold.
        assert_eq!(m.lane_inst_fetch(4, 0, 0x1000, 400), 402);
    }

    #[test]
    fn barrier_flush_invalidates_l1d_only() {
        let mut m = sys();
        m.data_access(0, 0x5000, false, 0);
        m.inst_fetch(0, 0x1000, 0);
        m.barrier_flush();
        // D-access now misses L1 (hits L2).
        let t = m.data_access(0, 0x5000, false, 1000);
        assert!(t >= 1010);
        // I-fetch still warm.
        assert_eq!(m.inst_fetch(0, 0x1000, 2000), 2001);
    }

    #[test]
    fn stats_shape() {
        let mut m = sys();
        m.data_access(0, 0x100, true, 0);
        m.lane_inst_fetch(7, 1, 0x1000, 0);
        let s = m.stats();
        assert_eq!(s.l1d.len(), 2);
        assert_eq!(s.lane_i.len(), 8);
        assert_eq!(s.l1d[0].1, 1);
        assert!(s.l2.0 >= 1);
    }
}
