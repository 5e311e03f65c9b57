//! The inter-cluster network joining lane clusters to the shared L2.
//!
//! A multi-cluster machine replicates the vector datapath into physically
//! separate lane clusters (AraXL-style); the clusters reach the shared
//! banked L2 over per-cluster links. The model is deliberately in the same
//! family as [`BankedL2`]: each cluster owns one pipelined link that
//! accepts one element transfer per cycle, a transfer pays a fixed hop
//! latency each way, and a busy link makes later transfers wait — that
//! wait is *network contention*, attributed separately from L2 bank
//! conflicts via the `NetworkContention` stall cause.
//!
//! Like the rest of the memory system the network is passive: every state
//! transition happens inside a requester's [`ClusterNet::access`], so it
//! never ticks and never wakes a unit.
//!
//! [`BankedL2`]: crate::l2::BankedL2

use crate::system::MemSystem;

/// Inter-cluster network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way link traversal latency in cycles (paid request-side before
    /// the L2 access starts and again response-side after it completes).
    pub hop_latency: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // A handful of cycles: clusters are on-chip but physically apart
        // (cross-die routing, not a DRAM round trip).
        NetConfig { hop_latency: 4 }
    }
}

/// Aggregate network statistics for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total element transfers carried.
    pub transfers: u64,
    /// Transfers that waited for a busy link.
    pub contended: u64,
    /// Total cycles transfers spent waiting for a link (sums the per-
    /// transfer departure delays; disjoint from L2 bank-conflict waits).
    pub wait_cycles: u64,
    /// Contended-transfer count per cluster link (sums to `contended`).
    pub link_contention: Vec<u64>,
}

/// Per-cluster pipelined links between the lane clusters and the L2.
#[derive(Debug)]
pub struct ClusterNet {
    hop: u64,
    /// Next cycle each cluster's link can accept a transfer.
    link_free: Vec<u64>,
    /// Running statistics.
    pub stats: NetStats,
    /// What-if idealization: zero hop latency and infinite link bandwidth
    /// (transfers never queue). Removes exactly the network cost; the L2's
    /// own timing is unchanged.
    ideal: bool,
}

impl ClusterNet {
    /// Build links for `clusters` lane clusters.
    pub fn new(cfg: &NetConfig, clusters: usize) -> Self {
        assert!(clusters >= 1);
        ClusterNet {
            hop: cfg.hop_latency,
            link_free: vec![0; clusters],
            stats: NetStats { link_contention: vec![0; clusters], ..NetStats::default() },
            ideal: false,
        }
    }

    /// Enable or disable the zero-hop idealization (see the `ideal`
    /// field). Off by default; the timing model is byte-identical with it
    /// off.
    pub fn set_ideal(&mut self, on: bool) {
        self.ideal = on;
    }

    /// One-way hop latency in force.
    pub fn hop_latency(&self) -> u64 {
        self.hop
    }

    /// Claim cluster `c`'s link at cycle `at`; returns the departure cycle
    /// and whether the transfer had to wait for the link.
    fn traverse(&mut self, cluster: usize, at: u64) -> (u64, bool) {
        self.stats.transfers += 1;
        if self.ideal {
            return (at, false);
        }
        let depart = at.max(self.link_free[cluster]);
        let contended = depart > at;
        if contended {
            self.stats.contended += 1;
            self.stats.link_contention[cluster] += 1;
            self.stats.wait_cycles += depart - at;
        }
        self.link_free[cluster] = depart + 1;
        (depart, contended)
    }

    /// An element access from lane cluster `cluster` to the shared L2 at
    /// cycle `at`: link wait + request hop, then the L2's own timing, then
    /// the response hop home. Returns the cycle the data is back in the
    /// cluster and whether the *network* (not an L2 bank) made it wait.
    pub fn access(
        &mut self,
        mem: &mut MemSystem,
        cluster: usize,
        addr: u64,
        write: bool,
        at: u64,
    ) -> (u64, bool) {
        let (depart, contended) = self.traverse(cluster, at);
        let hop = if self.ideal { 0 } else { self.hop };
        let done = mem.l2_access(addr, write, depart + hop);
        (done + hop, contended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn net(clusters: usize) -> ClusterNet {
        ClusterNet::new(&NetConfig::default(), clusters)
    }

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default(), 1, 8)
    }

    #[test]
    fn access_pays_two_hops_around_the_l2() {
        let mut m = mem();
        let base = m.l2_access(0x1000, false, 0); // warm the line (cold miss)
        let mut n = net(2);
        let (done, contended) = n.access(&mut m, 0, 0x1000, false, 1000);
        // hit latency (10) + 2 hops (4 each) on a free link.
        assert_eq!(done, 1000 + 4 + 10 + 4);
        assert!(!contended);
        assert!(base > 0);
    }

    #[test]
    fn busy_link_serializes_and_counts_contention() {
        let mut m = mem();
        for e in 0..16u64 {
            m.l2_access(0x2000 + 8 * e, false, 0); // warm 16 banks
        }
        let mut n = net(1);
        // 16 simultaneous unit-stride transfers: distinct L2 banks, so the
        // only serialization is the single cluster link.
        let mut last = 0;
        for e in 0..16u64 {
            let (done, _) = n.access(&mut m, 0, 0x2000 + 8 * e, false, 5000);
            last = last.max(done);
        }
        assert_eq!(n.stats.transfers, 16);
        assert_eq!(n.stats.contended, 15);
        assert_eq!(n.stats.link_contention, vec![15]);
        // Transfer k departs at 5000 + k: the pipeline adds 15 cycles.
        assert_eq!(n.stats.wait_cycles, (1..16).sum::<u64>());
        assert_eq!(last, 5000 + 15 + 4 + 10 + 4);
    }

    #[test]
    fn clusters_have_independent_links() {
        let mut m = mem();
        m.l2_access(0x3000, false, 0);
        m.l2_access(0x3008, false, 0);
        let mut n = net(2);
        let (_, c0) = n.access(&mut m, 0, 0x3000, false, 100);
        let (_, c1) = n.access(&mut m, 1, 0x3008, false, 100);
        assert!(!c0 && !c1, "different clusters must not contend");
        assert_eq!(n.stats.contended, 0);
    }
}
