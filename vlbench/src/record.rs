//! Run records (one JSON object per line in a runs file) and the rules
//! that compare two sets of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use vlt_stats::json::Json;

use crate::points::Bench;
use crate::run::{Settings, WorkloadRun, E2E};
use crate::stats::Summary;

const SCHEMA: &str = "vlbench-run";

/// One line of JSON (the pretty printer never breaks inside a string, so
/// dropping indentation and newlines keeps the document intact).
pub fn compact(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// A metric's run value with the median and quartiles of its per-pass
/// samples.
fn metric_json(unit: &str, higher: bool, value: f64, samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    Json::Obj(BTreeMap::from([
        ("unit".to_string(), Json::Str(unit.into())),
        ("better".to_string(), Json::Str(if higher { "higher" } else { "lower" }.into())),
        ("value".to_string(), num(value)),
        ("median".to_string(), num(s.median)),
        ("q1".to_string(), num(s.q1)),
        ("q3".to_string(), num(s.q3)),
        ("samples".to_string(), Json::Arr(samples.iter().map(|v| num(*v)).collect())),
    ]))
}

/// The record of one run over `runs`.
pub fn run_record(
    s: &Settings,
    started: f64,
    finished: f64,
    runs: &[(Bench, WorkloadRun)],
) -> Json {
    let workloads = runs
        .iter()
        .map(|(b, r)| {
            let mut metrics: BTreeMap<String, Json> = E2E
                .iter()
                .filter_map(|(name, unit, higher)| {
                    let (value, samples) = (r.values.get(name)?, r.samples.get(name)?);
                    Some((name.to_string(), metric_json(unit, *higher, *value, samples)))
                })
                .collect();
            let fail = r.failed as f64 / r.attempted.max(1) as f64;
            metrics.insert("fail_frac".into(), metric_json("frac", false, fail, &[fail]));
            let mut w = BTreeMap::from([
                ("passes".to_string(), num(r.passes as f64)),
                ("host_slowdown".to_string(), num(r.host_slowdown)),
                ("attempted".to_string(), num(r.attempted as f64)),
                ("failed".to_string(), num(r.failed as f64)),
                (
                    "errors".to_string(),
                    Json::Arr(r.errors.iter().map(|e| Json::Str(e.clone())).collect()),
                ),
                ("metrics".to_string(), Json::Obj(metrics)),
            ]);
            if !r.layers.is_empty() {
                let layers = r.layers.iter().map(|(k, v)| (k.to_string(), num(*v))).collect();
                w.insert("layers".into(), Json::Obj(layers));
            }
            (b.name().to_string(), Json::Obj(w))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(BTreeMap::from([
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("started".to_string(), num(started)),
        ("finished".to_string(), num(finished)),
        ("seed".to_string(), num(s.seed as f64)),
        ("seconds".to_string(), num(s.seconds)),
        ("nproc".to_string(), num(nproc as f64)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]))
}

/// Append `record` as one line to the runs file at `path`.
pub fn append(path: &Path, record: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    f.write_all(format!("{}\n", compact(record)).as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Every run record in a runs file.
pub fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{}:{}: not a {SCHEMA} record", path.display(), i + 1));
        }
        runs.push(doc);
    }
    if runs.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    Ok(runs)
}

/// A metric's regression rule, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher is better.
    pub higher: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end rules from a `BENCHMARK.json` document, plus
/// `fail_frac`, which may not worsen at all.
pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let list =
        benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("no \"end_to_end\" list")?;
    let mut out = Vec::new();
    for m in list {
        let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k:?}"));
        out.push(Rule {
            name: field("name")?.as_str().ok_or("metric name is not a string")?.to_string(),
            unit: field("unit")?.as_str().ok_or("unit is not a string")?.to_string(),
            higher: field("better")?.as_str() == Some("higher"),
            bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
        });
    }
    out.push(Rule { name: "fail_frac".into(), unit: "frac".into(), higher: false, bound: 0.0 });
    Ok(out)
}

/// How a change compares with its baseline on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the gain rule.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// Within the bound.
    Unchanged,
    /// Spread wider than the bound: neither claim can be made.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge change samples `b` against baseline samples `a`.
///
/// Returns the verdict and the relative change of the medians, positive
/// when worse. A gain needs interleaved `pairs` (baseline, change), the
/// change winning at least nine tenths of them (ties count for neither),
/// and medians further apart than the baseline's interquartile range.
/// When either side's spread exceeds the bound the result is unresolved,
/// unless every change sample beats every baseline sample.
pub fn verdict(rule: &Rule, a: &[f64], b: &[f64], pairs: &[(f64, f64)]) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let beats = |x: f64, y: f64| if rule.higher { x > y } else { x < y };
    let worse_by = if rule.higher { sa.median - sb.median } else { sb.median - sa.median };
    let change = if worse_by == 0.0 { 0.0 } else { worse_by / sa.median.abs() };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let v = if sa.spread() > rule.bound || sb.spread() > rule.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > rule.bound {
        Verdict::Worse
    } else {
        let wins = pairs.iter().filter(|(x, y)| beats(*y, *x)).count();
        let gain = change < 0.0
            && (sb.median - sa.median).abs() > sa.q3 - sa.q1
            && !pairs.is_empty()
            && wins * 10 >= pairs.len() * 9;
        if gain {
            Verdict::Better
        } else {
            Verdict::Unchanged
        }
    };
    (v, change)
}

/// The `(a, b)` pairing of two run sets when they were interleaved: sorted
/// by start time, every consecutive couple holds one run of each side.
pub fn interleaved_pairs(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    if a.len() != b.len() || a.len() < 2 {
        return Vec::new();
    }
    let mut all: Vec<(f64, bool, f64)> = a.iter().map(|&(t, v)| (t, false, v)).collect();
    all.extend(b.iter().map(|&(t, v)| (t, true, v)));
    all.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut pairs = Vec::new();
    for c in all.chunks(2) {
        match (c[0].1, c[1].1) {
            (false, true) => pairs.push((c[0].2, c[1].2)),
            (true, false) => pairs.push((c[1].2, c[0].2)),
            _ => return Vec::new(),
        }
    }
    pairs
}

/// Samples of one (workload, metric) across a run set: each run's value,
/// with its start time, when there are several runs (`true`), else the
/// single run's per-pass samples (`false`).
fn side(runs: &[Json], workload: &str, metric: &str) -> (Vec<(f64, f64)>, bool) {
    let found: Vec<(f64, &Json)> = runs
        .iter()
        .filter_map(|r| {
            let m = r.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
            Some((r.get("started")?.as_f64()?, m))
        })
        .collect();
    match found.as_slice() {
        [(t, m)] => {
            let samples = m.get("samples").and_then(Json::as_arr).unwrap_or_default();
            (samples.iter().filter_map(Json::as_f64).map(|v| (*t, v)).collect(), false)
        }
        many => {
            (many.iter().filter_map(|(t, m)| Some((*t, m.get("value")?.as_f64()?))).collect(), true)
        }
    }
}

/// `vlbench compare`: one row per (workload, metric) present on both
/// sides. Returns the table and whether any row is worse.
pub fn compare(a: &[Json], b: &[Json], rules: &[Rule]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>30} {:>30} {:>9} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "change",
        "bound",
        "wins"
    );
    let mut any_worse = false;
    for bench in Bench::ALL {
        for rule in rules {
            let ((sa, runs_a), (sb, runs_b)) =
                (side(a, bench.name(), &rule.name), side(b, bench.name(), &rule.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let pairs = if runs_a && runs_b { interleaved_pairs(&sa, &sb) } else { Vec::new() };
            let (va, vb): (Vec<f64>, Vec<f64>) =
                (sa.iter().map(|s| s.1).collect(), sb.iter().map(|s| s.1).collect());
            let (v, change) = verdict(rule, &va, &vb, &pairs);
            any_worse |= v == Verdict::Worse;
            let show = |x: &[f64]| {
                let s = Summary::of(x);
                format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, x.len())
            };
            let wins = if pairs.is_empty() {
                "-".to_string()
            } else {
                let w =
                    pairs.iter().filter(|(x, y)| if rule.higher { y > x } else { y < x }).count();
                format!("{w}/{}", pairs.len())
            };
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>30} {:>30} {:>+8.2}% {:>5.0}% {:>6}  {}",
                bench.name(),
                rule.name,
                show(&va),
                show(&vb),
                100.0 * change,
                100.0 * rule.bound,
                wins,
                v.name()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule { name: "m".into(), unit: "s".into(), higher, bound }
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = [1.00, 1.01, 0.99, 1.02, 0.98];
        let (v, change) = verdict(&rule(false, 0.1), &a, &a, &[]);
        assert_eq!(v, Verdict::Unchanged);
        assert_eq!(change, 0.0);
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse() {
        let a = [1.00, 1.01, 0.99];
        let b = [1.20, 1.21, 1.19];
        assert_eq!(verdict(&rule(false, 0.1), &a, &b, &[]).0, Verdict::Worse);
        // The same numbers as a throughput got better, but without
        // interleaved pairs no gain can be claimed.
        assert_eq!(verdict(&rule(true, 0.1), &a, &b, &[]).0, Verdict::Unchanged);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
        assert_eq!(verdict(&rule(false, 0.1), &a, &b, &pairs).0, Verdict::Better);
        let mut lost = pairs.clone();
        lost[0].1 = 2.0;
        lost[1].1 = 2.0;
        assert_eq!(verdict(&rule(false, 0.1), &a, &b, &lost).0, Verdict::Unchanged);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [1.0, 1.5, 2.0, 2.5];
        assert_eq!(verdict(&rule(false, 0.1), &a, &a, &[]).0, Verdict::Unresolved);
        let b = [0.5, 0.6, 0.7, 0.8];
        assert_eq!(verdict(&rule(false, 0.1), &a, &b, &[]).0, Verdict::Better);
    }

    #[test]
    fn any_new_failure_is_worse_under_a_zero_bound() {
        let r = rule(false, 0.0);
        assert_eq!(verdict(&r, &[0.0], &[0.0], &[]).0, Verdict::Unchanged);
        assert_eq!(verdict(&r, &[0.0], &[0.01], &[]).0, Verdict::Worse);
    }

    #[test]
    fn pairs_only_from_interleaved_runs() {
        let a = [(0.0, 1.0), (2.0, 1.1), (5.0, 1.2)];
        let b = [(1.0, 2.0), (3.0, 2.1), (4.0, 2.2)];
        assert_eq!(interleaved_pairs(&a, &b), vec![(1.0, 2.0), (1.1, 2.1), (1.2, 2.2)]);
        let late = [(10.0, 2.0), (11.0, 2.1), (12.0, 2.2)];
        assert!(interleaved_pairs(&a, &late).is_empty());
    }

    #[test]
    fn rules_come_from_the_committed_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rules = rules(&doc).unwrap();
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        let mut want: Vec<&str> = E2E.iter().map(|m| m.0).collect();
        want.push("fail_frac");
        assert_eq!(names, want, "BENCHMARK.json lists the metrics vlbench reports");
        for (r, (_, unit, higher)) in rules.iter().zip(E2E) {
            assert_eq!((r.unit.as_str(), r.higher), (unit, higher), "{}", r.name);
        }
        let layers: Vec<&str> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(layers, crate::run::LAYERS.map(|l| l.0).to_vec());
    }
}
