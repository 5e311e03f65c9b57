//! A generic set-associative tag array with true-LRU replacement.

/// Set-associative cache *tags* (timing model only — no data storage).
///
/// ```
/// use vlt_mem::Cache;
/// let mut c = Cache::new(16 * 1024, 2, 64);
/// assert!(!c.access(0x1000)); // cold miss fills the line
/// assert!(c.access(0x1038));  // same 64-byte line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets[set][way]` = tag, or `u64::MAX` for invalid.
    tags: Vec<u64>,
    /// Last-use stamp per (set, way) for LRU.
    stamps: Vec<u64>,
    ways: usize,
    num_sets: usize,
    line_bits: u32,
    tick: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses (each triggers a fill).
    pub misses: u64,
}

const INVALID: u64 = u64::MAX;

impl Cache {
    /// Build tags for a cache of `size` bytes, `assoc` ways, `line` bytes
    /// per line. All three must be powers of two with `size >= assoc*line`.
    pub fn new(size: usize, assoc: usize, line: usize) -> Self {
        assert!(size.is_power_of_two() && assoc.is_power_of_two() && line.is_power_of_two());
        assert!(size >= assoc * line, "cache smaller than one set");
        let num_sets = size / (assoc * line);
        Cache {
            tags: vec![INVALID; num_sets * assoc],
            stamps: vec![0; num_sets * assoc],
            ways: assoc,
            num_sets,
            line_bits: line.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_bits) as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// Probe and update: returns `true` on hit. A miss installs the line,
    /// evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for w in base..base + self.ways {
            if self.tags[w] == tag {
                self.stamps[w] = self.tick;
                self.hits += 1;
                return true;
            }
            if self.stamps[w] < victim_stamp {
                victim_stamp = self.stamps[w];
                victim = w;
            }
        }
        self.misses += 1;
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        false
    }

    /// Probe without filling (used for inclusive-hierarchy checks in tests).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&tag)
    }

    /// Invalidate everything (barrier coherence flush; §6 of DESIGN.md).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Hit fraction so far (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1020)); // same 64B line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, line 64, 2 sets => set stride 128.
        let mut c = Cache::new(256, 2, 64);
        // Three lines mapping to set 0: 0x000, 0x100, 0x200.
        assert!(!c.access(0x000));
        assert!(!c.access(0x100));
        assert!(c.access(0x000)); // touch: 0x100 is now LRU
        assert!(!c.access(0x200)); // evicts 0x100
        assert!(c.access(0x000));
        assert!(!c.access(0x100)); // was evicted
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(128, 1, 64);
        assert!(!c.access(0x000));
        assert!(!c.access(0x100)); // conflicts with 0x000 (2 sets)
        assert!(!c.access(0x000));
    }

    #[test]
    fn invalidate_all_flushes() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0x40);
        assert!(c.probe(0x40));
        c.invalidate_all();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40));
    }

    #[test]
    fn capacity_fits_working_set() {
        // A working set equal to capacity must fully hit on the second pass
        // with LRU and power-of-two strides.
        let mut c = Cache::new(16 * 1024, 2, 64);
        for addr in (0..16 * 1024u64).step_by(64) {
            c.access(addr);
        }
        let misses_before = c.misses;
        for addr in (0..16 * 1024u64).step_by(64) {
            assert!(c.access(addr), "addr {addr:#x} should hit");
        }
        assert_eq!(c.misses, misses_before);
    }

    proptest! {
        #[test]
        fn access_after_access_hits(addr in any::<u64>()) {
            let mut c = Cache::new(4096, 4, 64);
            c.access(addr);
            prop_assert!(c.access(addr));
        }

        #[test]
        fn stats_are_consistent(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
            let mut c = Cache::new(2048, 2, 64);
            for a in &addrs {
                c.access(*a);
            }
            prop_assert_eq!(c.hits + c.misses, addrs.len() as u64);
        }
    }
}
