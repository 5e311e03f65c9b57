//! A small signed-interval domain.
//!
//! The abstract interpreter (`absint`) threads an interval alongside its
//! constant domain to prove whole-range memory bounds. `None` on either
//! side means unbounded; when both bounds are present `lo <= hi` holds.
//! Arithmetic saturates to unbounded on `i64` overflow, which keeps the
//! domain sound for the wrapping machine semantics: a bound is only ever
//! claimed when the true machine value cannot have wrapped past it.

/// A signed interval `[lo, hi]` with optional (absent = infinite) bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    /// Inclusive lower bound (`None` = -inf).
    pub lo: Option<i64>,
    /// Inclusive upper bound (`None` = +inf).
    pub hi: Option<i64>,
}

impl Iv {
    /// The full interval (no information).
    pub const TOP: Iv = Iv { lo: None, hi: None };

    /// A single known value.
    pub fn exact(k: i64) -> Iv {
        Iv { lo: Some(k), hi: Some(k) }
    }

    /// A bounded interval; callers must pass `lo <= hi`.
    pub fn new(lo: i64, hi: i64) -> Iv {
        debug_assert!(lo <= hi);
        Iv { lo: Some(lo), hi: Some(hi) }
    }

    /// Convex hull (the join of the lattice).
    pub fn join(self, other: Iv) -> Iv {
        Iv { lo: min_opt_lo(self.lo, other.lo), hi: max_opt_hi(self.hi, other.hi) }
    }

    /// Widen against the previous iterate: any side that moved outward
    /// jumps straight to unbounded, and a side that held stays put. Each
    /// side can then move at most once more, which is what lets `absint`
    /// sweep its fixpoint to state *equality*: it widens a loop head's
    /// input this way once the input has arrived and grown once.
    pub fn widen(self, prev: Iv) -> Iv {
        Iv {
            lo: match (self.lo, prev.lo) {
                (Some(n), Some(p)) if n < p => None,
                (Some(n), Some(_)) => Some(n),
                _ => None,
            },
            hi: match (self.hi, prev.hi) {
                (Some(n), Some(p)) if n > p => None,
                (Some(n), Some(_)) => Some(n),
                _ => None,
            },
        }
    }

    /// Interval addition (unbounded on overflow).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Iv) -> Iv {
        Iv {
            lo: opt2(self.lo, other.lo, i64::checked_add),
            hi: opt2(self.hi, other.hi, i64::checked_add),
        }
    }

    /// Add a constant to both bounds.
    pub fn add_k(self, k: i64) -> Iv {
        self.add(Iv::exact(k))
    }

    /// Interval subtraction (unbounded on overflow).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Iv) -> Iv {
        Iv {
            lo: opt2(self.lo, other.hi, i64::checked_sub),
            hi: opt2(self.hi, other.lo, i64::checked_sub),
        }
    }

    /// Interval multiplication. Requires both operands fully bounded
    /// (otherwise top), and saturates to top on any corner overflow.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Iv) -> Iv {
        let (Some(al), Some(ah), Some(bl), Some(bh)) = (self.lo, self.hi, other.lo, other.hi)
        else {
            return Iv::TOP;
        };
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for a in [al, ah] {
            for b in [bl, bh] {
                match a.checked_mul(b) {
                    Some(p) => {
                        lo = lo.min(p);
                        hi = hi.max(p);
                    }
                    None => return Iv::TOP,
                }
            }
        }
        Iv::new(lo, hi)
    }

    /// Left shift by a known amount (multiply by `2^k`).
    pub fn shl_k(self, k: u32) -> Iv {
        match 1i64.checked_shl(k) {
            Some(m) => self.mul(Iv::exact(m)),
            None => Iv::TOP,
        }
    }

    /// `x & imm` for a known non-negative mask: the result is in
    /// `[0, imm]` regardless of `x`. Negative masks give top.
    pub fn and_k(imm: i64) -> Iv {
        if imm >= 0 {
            Iv::new(0, imm)
        } else {
            Iv::TOP
        }
    }
}

fn opt2(a: Option<i64>, b: Option<i64>, f: impl Fn(i64, i64) -> Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => f(a, b),
        _ => None,
    }
}

fn min_opt_lo(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => None,
    }
}

fn max_opt_hi(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_join() {
        let a = Iv::exact(3);
        let b = Iv::exact(10);
        assert_eq!(a, Iv::new(3, 3));
        assert_eq!(a.join(b), Iv::new(3, 10));
    }

    #[test]
    fn widening_terminates_growth() {
        let prev = Iv::new(0, 10);
        let grown = Iv::new(0, 20).widen(prev);
        assert_eq!(grown, Iv { lo: Some(0), hi: None });
        // A stable side survives widening untouched.
        let stable = Iv::new(0, 10).widen(prev);
        assert_eq!(stable, prev);
    }

    #[test]
    fn arithmetic_saturates() {
        let big = Iv::exact(i64::MAX);
        assert_eq!(big.add_k(1), Iv::TOP);
        assert_eq!(Iv::new(2, 4).add(Iv::new(-1, 1)), Iv::new(1, 5));
        assert_eq!(Iv::new(2, 4).sub(Iv::new(1, 1)), Iv::new(1, 3));
        assert_eq!(Iv::new(-3, 4).mul(Iv::exact(-2)), Iv::new(-8, 6));
        assert_eq!(Iv::new(1, 3).shl_k(3), Iv::new(8, 24));
        assert_eq!(Iv::and_k(63), Iv::new(0, 63));
        assert_eq!(Iv::and_k(-1), Iv::TOP);
    }

    #[test]
    fn overflow_saturates_per_side() {
        // Each bound saturates independently: an overflowing corner loses
        // only its own side, never fabricates a tighter one.
        let hi_edge = Iv::new(0, i64::MAX);
        let sum = hi_edge.add(Iv::new(0, 1));
        assert_eq!(sum, Iv { lo: Some(0), hi: None });
        let lo_edge = Iv::new(i64::MIN, 0);
        let diff = lo_edge.sub(Iv::new(0, 1));
        assert_eq!(diff, Iv { lo: None, hi: Some(0) });
        // Multiplication bails to top on ANY corner overflow, even when
        // the surviving corners would look bounded.
        assert_eq!(Iv::new(i64::MIN, 2).mul(Iv::exact(2)), Iv::TOP);
        assert_eq!(Iv::new(-2, 2).mul(Iv::new(i64::MIN / 2, 1)), Iv::TOP);
        // Full-width shift requests give top, not a wrapped constant.
        assert_eq!(Iv::new(1, 2).shl_k(63), Iv::TOP);
        assert_eq!(Iv::new(1, 2).shl_k(64), Iv::TOP);
        assert_eq!(Iv::exact(1).shl_k(62), Iv::exact(1 << 62));
    }

    #[test]
    fn half_bounded_arithmetic() {
        let ge0 = Iv { lo: Some(0), hi: None };
        assert_eq!(ge0.add_k(5), Iv { lo: Some(5), hi: None });
        assert_eq!(ge0.sub(Iv::exact(3)), Iv { lo: Some(-3), hi: None });
        // Any unbounded side makes a product unbounded on both sides (sign
        // of the other operand could flip the open side).
        assert_eq!(ge0.mul(Iv::exact(-1)), Iv::TOP);
    }

    #[test]
    fn widening_on_self_loops_terminates() {
        // A self-loop that grows its iterate every sweep: widen jumps the
        // moving side to unbounded in one step, and is then a fixpoint.
        let mut cur = Iv::new(0, 0);
        let mut steps = 0;
        loop {
            let next = cur.join(cur.add_k(8)); // loop body: x' = x + 8
            let w = next.widen(cur);
            steps += 1;
            if w == cur {
                break;
            }
            cur = w;
            assert!(steps < 4, "widening failed to stabilize");
        }
        assert_eq!(cur, Iv { lo: Some(0), hi: None });
    }
}
