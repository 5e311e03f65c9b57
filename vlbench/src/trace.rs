//! Host-time spans around every call the benchmark makes into the
//! simulator, kept in memory and written out when the run ends.
//!
//! Timing goes through [`Clock`] whether or not a run is traced, so the
//! timed and traced passes execute the same code; tracing only adds the
//! span records (and the probes the traced pass runs on top).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vlt_stats::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `core.run`; `point` and `pass` for the
    /// enclosing spans.
    pub name: &'static str,
    /// Seconds from the trace's start.
    pub start: f64,
    /// Seconds.
    pub dur: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Key of the point the span belongs to (empty for the pass span).
    pub point: String,
    /// A call the traced pass adds on top of the workload's own calls.
    pub probe: bool,
}

/// The span log of one traced pass.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: String,
}

/// Times the benchmark's calls, recording spans when tracing.
#[derive(Debug, Default)]
pub struct Clock {
    tracer: Option<Tracer>,
}

impl Clock {
    /// A clock that records spans.
    pub fn traced() -> Clock {
        Clock {
            tracer: Some(Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                point: String::new(),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Run `f` as one of the workload's own calls; returns its result and
    /// host seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, false, f)
    }

    /// Run `f` as a probe: a call only the traced pass makes.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, true, f)
    }

    fn span<T>(&mut self, name: &'static str, probe: bool, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let v = f();
        let dur = start.elapsed();
        if let Some(t) = &mut self.tracer {
            t.push(name, start, dur, probe);
        }
        (v, dur.as_secs_f64())
    }

    /// Open an enclosing span (a pass, or a point when `point` is set).
    pub fn enter(&mut self, name: &'static str, point: &str) {
        if let Some(t) = &mut self.tracer {
            t.point = point.to_string();
            let now = Instant::now();
            t.push(name, now, Duration::ZERO, false);
            t.open.push(t.spans.len() - 1);
        }
    }

    /// Close the innermost enclosing span.
    pub fn exit(&mut self) {
        if let Some(t) = &mut self.tracer {
            let i = t.open.pop().expect("exit matches an enter");
            let s = &mut t.spans[i];
            s.dur = t.epoch.elapsed().as_secs_f64() - s.start;
            t.point = t.open.last().map_or(String::new(), |&p| t.spans[p].point.clone());
        }
    }

    /// The recorded spans (empty when untraced).
    pub fn spans(&self) -> &[Span] {
        self.tracer.as_ref().map_or(&[], |t| &t.spans)
    }
}

impl Tracer {
    fn push(&mut self, name: &'static str, start: Instant, dur: Duration, probe: bool) {
        self.spans.push(Span {
            name,
            start: start.duration_since(self.epoch).as_secs_f64(),
            dur: dur.as_secs_f64(),
            parent: self.open.last().copied(),
            point: self.point.clone(),
            probe,
        });
    }
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur;
        }
    }
    own
}

/// Per layer name: (self seconds over own calls, self seconds over probes,
/// call count).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        if s.probe {
            e.1 += own;
        } else {
            e.0 += own;
        }
        e.2 += 1;
    }
    out
}

/// Per point span: (key, span seconds, seconds its child spans cover).
pub fn point_coverage(spans: &[Span]) -> Vec<(String, f64, f64)> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur;
        }
    }
    spans
        .iter()
        .zip(covered)
        .filter(|(s, _)| s.name == "point")
        .map(|(s, c)| (s.point.clone(), s.dur, c))
        .collect()
}

/// The spans as a Chrome-trace document (`X` slices on one track, in start
/// order, timestamps in microseconds).
pub fn chrome_trace(spans: &[Span], workload: &str, pass: usize) -> Json {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| spans[a].start.total_cmp(&spans[b].start).then(a.cmp(&b)));
    let events = order
        .into_iter()
        .map(|i| {
            let s = &spans[i];
            let args = BTreeMap::from([
                ("id".to_string(), Json::Num(i as f64)),
                ("parent".to_string(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("point".to_string(), Json::Str(s.point.clone())),
                ("pass".to_string(), Json::Num(pass as f64)),
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("probe".to_string(), Json::Bool(s.probe)),
            ]);
            Json::Obj(BTreeMap::from([
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("cat".to_string(), Json::Str("host".to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::Num(s.start * 1e6)),
                ("dur".to_string(), Json::Num(s.dur * 1e6)),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(1.0)),
                ("args".to_string(), Json::Obj(args)),
            ]))
        })
        .collect();
    Json::Obj(BTreeMap::from([
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_clock_records_nothing() {
        let mut c = Clock::default();
        c.enter("pass", "");
        let (v, s) = c.time("x", || 7);
        c.exit();
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(c.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_sums_them() {
        let mut c = Clock::traced();
        c.enter("pass", "");
        c.enter("point", "p0");
        c.time("a", || std::thread::sleep(Duration::from_millis(2)));
        c.probe("b", || std::thread::sleep(Duration::from_millis(2)));
        c.exit();
        c.exit();
        let spans = c.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].point, "p0");
        assert!(spans[3].probe);
        let own = self_times(spans);
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].dur).abs() < 1e-9, "self times partition the root");
        let cov = point_coverage(spans);
        assert_eq!(cov.len(), 1);
        assert!(cov[0].2 <= cov[0].1 && cov[0].2 > 0.9 * cov[0].1);
        let layers = layer_totals(spans);
        assert!(layers["b"].1 > 0.0 && layers["b"].0 == 0.0);
        let doc = chrome_trace(spans, "w", 0);
        vlt_obs::perfetto::validate_chrome_trace(&doc).expect("valid Chrome trace");
    }
}
