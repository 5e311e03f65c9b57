//! Order statistics over per-pass samples.

/// A sample's median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `xs` (any order; must be non-empty and NaN-free).
    pub fn of(xs: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(xs);
        Summary { q1, median: median(xs), q3 }
    }

    /// Interquartile range as a share of the median's magnitude — the
    /// run-to-run spread a bound is judged against. Zero for a zero median
    /// with no spread, infinite for a zero median with some.
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistics of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here and by a script over the same values agree. A
/// single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative at the ends of tiny samples: Python extrapolates there.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Geometric mean of positive values (every point weighs the same however
/// long it runs).
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from Python's `statistics.quantiles(d, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert!((s.spread() - 2.5 / 2.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn geomean_weighs_points_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
    }
}
