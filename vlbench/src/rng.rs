//! The benchmark's seeded randomness: point order and synthetic inputs.

/// SplitMix64: tiny, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)`, so adding a consumer of
    /// one stream never perturbs another.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// Sattolo's algorithm: a uniformly random permutation of `0..n` that
    /// is one single cycle, returned as a successor table (`next[i]`).
    pub fn single_cycle(&mut self, n: usize) -> Vec<usize> {
        let mut next: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64) as usize;
            next.swap(i, j);
        }
        next
    }
}

/// True when successor table `next` visits every element in one cycle.
pub fn is_single_cycle(next: &[usize]) -> bool {
    let mut seen = vec![false; next.len()];
    let mut at = 0;
    for _ in 0..next.len() {
        if seen[at] {
            return false;
        }
        seen[at] = true;
        at = next[at];
    }
    at == 0 && seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, "x").next_u64(), Rng::stream(7, "y").next_u64());
        assert_ne!(Rng::stream(7, "x").next_u64(), Rng::stream(8, "x").next_u64());
    }

    #[test]
    fn sattolo_gives_one_cycle() {
        for seed in 0..50 {
            let next = Rng::stream(seed, "ring").single_cycle(37);
            assert!(is_single_cycle(&next), "seed {seed}");
        }
        assert!(!is_single_cycle(&[1, 0, 2]));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..20).collect();
        Rng::stream(3, "order").shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
