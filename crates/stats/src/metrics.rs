//! Metrics registry: named counters and fixed-bucket histograms.
//!
//! Observers (the `vlt-obs` crate) publish into a [`MetricsRegistry`]
//! while a simulation runs; this module owns the *schema* so every
//! producer serializes the same way and CI can validate the output
//! without running a simulation. The JSON layout is versioned
//! ([`METRICS_SCHEMA_VERSION`]) — bump it on any incompatible change
//! and teach [`validate_metrics_json`] about the new shape.
//!
//! Buckets are fixed at histogram-creation time (no dynamic resizing):
//! recording is a binary search plus an increment, so it is cheap
//! enough to sit on the per-cycle observer path.

use std::collections::BTreeMap;

use crate::json::Json;

/// Version stamped into every serialized registry (`"version"` field).
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// The `"schema"` field value identifying a metrics document.
pub const METRICS_SCHEMA_NAME: &str = "vlt-metrics";

/// A fixed-bucket histogram of `u64` samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` (and greater than the
/// previous bound); one implicit overflow bucket counts samples above
/// the last bound. Exact `count`, `sum`, `min`, and `max` are kept
/// alongside the buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds, which must be
    /// strictly increasing. An overflow bucket is added automatically.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples (bulk crediting from idle-span skips).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive upper bounds (without the overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than `bounds()` (overflow last).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert(
            "bounds".into(),
            Json::Arr(self.bounds.iter().map(|b| Json::Num(*b as f64)).collect()),
        );
        m.insert(
            "counts".into(),
            Json::Arr(self.counts.iter().map(|c| Json::Num(*c as f64)).collect()),
        );
        m.insert("count".into(), Json::Num(self.count as f64));
        m.insert("sum".into(), Json::Num(self.sum as f64));
        m.insert("min".into(), Json::Num(self.min().unwrap_or(0) as f64));
        m.insert("max".into(), Json::Num(self.max().unwrap_or(0) as f64));
        Json::Obj(m)
    }
}

/// A registry of named counters and histograms.
///
/// Names are free-form but the convention is dotted paths with the
/// subsystem first, e.g. `vu.issue.vl.region1` or `l2.conflicts.bank3`
/// — the serialized object sorts lexicographically, so related metrics
/// group together in the output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, created with `bounds` on first use.
    /// An existing histogram keeps its original bounds. The name is looked
    /// up first and copied only when the histogram is created, so
    /// recording into an existing histogram allocates nothing.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> &mut Histogram {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_string(), Histogram::new(bounds));
        }
        self.histograms.get_mut(name).expect("created above when absent")
    }

    /// The histogram `name`, if it exists.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize as a versioned JSON document (see module docs).
    pub fn to_json(&self) -> Json {
        let mut doc = BTreeMap::new();
        doc.insert("schema".into(), Json::Str(METRICS_SCHEMA_NAME.into()));
        doc.insert("version".into(), Json::Num(METRICS_SCHEMA_VERSION as f64));
        doc.insert(
            "counters".into(),
            Json::Obj(
                self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect(),
            ),
        );
        doc.insert(
            "histograms".into(),
            Json::Obj(self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
        );
        Json::Obj(doc)
    }
}

/// Validate that `doc` is a well-formed version-1 metrics document:
/// schema/version stamp, finite numeric counters, and histograms of
/// finite numbers whose `counts` array is one longer than `bounds` and
/// sums to `count`. Returns a description of the first violation.
pub fn validate_metrics_json(doc: &Json) -> Result<(), String> {
    let finite = |v: &Json| v.as_f64().is_some_and(f64::is_finite);
    if doc.get("schema").and_then(Json::as_str) != Some(METRICS_SCHEMA_NAME) {
        return Err("missing or wrong \"schema\" field".into());
    }
    if doc.get("version").and_then(Json::as_f64) != Some(METRICS_SCHEMA_VERSION as f64) {
        return Err(format!("\"version\" is not {METRICS_SCHEMA_VERSION}"));
    }
    let counters = match doc.get("counters") {
        Some(Json::Obj(m)) => m,
        _ => return Err("\"counters\" is not an object".into()),
    };
    for (k, v) in counters {
        if !finite(v) {
            return Err(format!("counter {k:?} is not a finite number"));
        }
    }
    let hists = match doc.get("histograms") {
        Some(Json::Obj(m)) => m,
        _ => return Err("\"histograms\" is not an object".into()),
    };
    for (k, h) in hists {
        let no = |field: &str| format!("histogram {k:?}: no {field}");
        let bounds = h.get("bounds").and_then(Json::as_arr).ok_or_else(|| no("bounds"))?;
        let counts = h.get("counts").and_then(Json::as_arr).ok_or_else(|| no("counts"))?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!("histogram {k:?}: counts/bounds length mismatch"));
        }
        let num = |field: &str| h.get(field).and_then(Json::as_f64).ok_or_else(|| no(field));
        let total = num("count")?;
        let sum: f64 = counts.iter().filter_map(Json::as_f64).sum();
        if sum != total {
            return Err(format!("histogram {k:?}: bucket counts sum to {sum}, count says {total}"));
        }
        let moments = [total, num("sum")?, num("min")?, num("max")?];
        if !bounds.iter().chain(counts).all(finite) || !moments.iter().all(|n| n.is_finite()) {
            return Err(format!(
                "histogram {k:?}: a bound, count or moment is not a finite number"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new(&[4, 16, 64]);
        h.record(1); // bucket 0 (<= 4)
        h.record(4); // bucket 0
        h.record(5); // bucket 1
        h.record_n(100, 3); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 0, 3]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 4 + 5 + 300);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn registry_roundtrips_and_validates() {
        let mut r = MetricsRegistry::new();
        r.add("l2.conflicts.bank0", 7);
        r.add("l2.conflicts.bank0", 3);
        r.histogram("vu.issue.vl", &[8, 16, 32, 64]).record_n(32, 5);
        assert_eq!(r.counter("l2.conflicts.bank0"), 10);
        let doc = r.to_json();
        validate_metrics_json(&doc).unwrap();
        let back = Json::parse(&doc.pretty()).unwrap();
        validate_metrics_json(&back).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_metrics_json(&Json::parse("{}").unwrap()).is_err());
        let bad = r#"{"schema": "vlt-metrics", "version": 1.0,
            "counters": {}, "histograms": {"h": {"bounds": [1.0], "counts": [1.0],
            "count": 1.0, "sum": 1.0, "min": 1.0, "max": 1.0}}}"#;
        let err = validate_metrics_json(&Json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
        for (hist, want) in [
            (r#"{"counts": [1]}"#, r#"histogram "h": no bounds"#),
            (r#"{"bounds": []}"#, r#"histogram "h": no counts"#),
            (r#"{"bounds": [], "counts": [1]}"#, r#"histogram "h": no count"#),
            (r#"{"bounds": [], "counts": [1], "count": 1, "max": 1}"#, r#"histogram "h": no sum"#),
        ] {
            let mut doc = MetricsRegistry::new().to_json();
            if let Json::Obj(m) = &mut doc {
                let hists = Json::parse(&format!(r#"{{"h": {hist}}}"#)).unwrap();
                m.insert("histograms".into(), hists);
            }
            assert_eq!(validate_metrics_json(&doc), Err(want.to_string()), "{hist}");
        }
    }

    /// A number too large for an `f64` parses as infinity; no document
    /// holding one is a metrics document, so `vlt prof --diff` never
    /// compares it.
    #[test]
    fn validator_rejects_numbers_that_are_not_finite() {
        let doc = |counters: &str, hist: &str| {
            Json::parse(&format!(
                r#"{{"schema": "vlt-metrics", "version": 1, "counters": {{{counters}}},
                "histograms": {{"h": {hist}}}}}"#
            ))
            .unwrap()
        };
        let hist = |bound: &str, sum: &str| {
            format!(
                r#"{{"bounds": [{bound}], "counts": [0, 1], "count": 1, "sum": {sum},
                "min": 1, "max": 1}}"#
            )
        };
        validate_metrics_json(&doc(r#""x": 1"#, &hist("4", "1"))).unwrap();
        let not_finite = r#"histogram "h": a bound, count or moment is not a finite number"#;
        for (counters, hist, want) in [
            (r#""x": 1e999"#, hist("4", "1"), r#"counter "x" is not a finite number"#),
            (r#""x": -1e999"#, hist("4", "1"), r#"counter "x" is not a finite number"#),
            (r#""x": 1"#, hist("1e999", "1"), not_finite),
            (r#""x": 1"#, hist("4", "-1e999"), not_finite),
        ] {
            assert_eq!(validate_metrics_json(&doc(counters, &hist)), Err(want.into()), "{hist}");
        }
    }

    #[test]
    fn histogram_keeps_first_bounds() {
        let mut r = MetricsRegistry::new();
        r.histogram("h", &[10]).record(3);
        r.histogram("h", &[99, 100]).record(3);
        assert_eq!(r.get_histogram("h").unwrap().bounds(), &[10]);
        assert_eq!(r.get_histogram("h").unwrap().count(), 2);
    }
}
