//! Running a workload: warm-up, timed passes, the traced pass, and the
//! metrics each produces.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vlt_stats::json::Json;

use crate::exec::{oracle_fields, run_point, Fields, PointRun};
use crate::host::{status_mb, Probe};
use crate::points::{Bench, Point};
use crate::stats::{geomean, median};
use crate::trace::{self, Clock};

/// The seed `expected.json` is recorded at. Synthetic points are pinned
/// only there; other seeds check them against the cycle-by-cycle oracle.
pub const DEFAULT_SEED: u64 = 1;
/// Fewest timed passes a run makes, so it has quartiles.
const MIN_PASSES: usize = 3;
/// How many failure messages a run keeps.
const KEEP_ERRORS: usize = 8;

/// End-to-end metrics: name, unit, and whether higher is better.
pub const E2E: [(&str, &str, bool); 5] = [
    ("setup_s", "s", false),
    ("wall_s", "s", false),
    ("sim_mips", "Minst/s", true),
    ("point_mips", "Minst/s", true),
    ("peak_rss_mb", "MB", false),
];

/// Per-layer metrics of the traced pass: name and unit.
pub const LAYERS: [(&str, &str); 48] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.attributed_frac", "frac"),
    ("workloads.build_s", "s"),
    ("workloads.golden_s", "s"),
    ("isa.assemble_s", "s"),
    ("isa.text_words", "count"),
    ("core.new_share", "frac"),
    ("core.run_share", "frac"),
    ("core.cycles", "count"),
    ("core.committed", "count"),
    ("core.stepped_frac", "frac"),
    ("core.stepped_mcps", "Mcycles/s"),
    ("core.mcps", "Mcycles/s"),
    ("core.components", "count"),
    ("core.vu.busy", "count"),
    ("core.vu.partly_idle", "count"),
    ("core.vu.stalled", "count"),
    ("core.vu.all_idle", "count"),
    ("scalar.committed", "count"),
    ("scalar.issued", "count"),
    ("scalar.busy_cycles", "count"),
    ("scalar.lane_committed", "count"),
    ("mem.l1d.accesses", "count"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.misses", "count"),
    ("mem.l2.bank_conflicts", "count"),
    ("mem.net.transfers", "count"),
    ("mem.net.wait_cycles", "count"),
    ("exec.replay_s", "s"),
    ("exec.replay_share", "frac"),
    ("exec.insts", "count"),
    ("exec.minst_s", "Minst/s"),
    ("exec.interp_minst_s", "Minst/s"),
    ("exec.share", "frac"),
    ("obs.run_share", "frac"),
    ("obs.export_share", "frac"),
    ("obs.validate_share", "frac"),
    ("obs.free_share", "frac"),
    ("obs.run_overhead_frac", "frac"),
    ("obs.trace_events", "count"),
    ("verify.lint_share", "frac"),
    ("verify.races_share", "frac"),
    ("verify.dlp_share", "frac"),
    ("verify.dlp_exact_frac", "frac"),
    ("verify.diags", "count"),
    ("verify.points", "count"),
    ("trace.spans", "count"),
];

/// How a run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed for point order and synthetic inputs.
    pub seed: u64,
    /// Seconds the timed passes fill.
    pub seconds: f64,
    /// Add the traced pass.
    pub trace: bool,
}

/// Pinned results per `"<workload>/<point key>"`.
pub type Expected = BTreeMap<String, Fields>;

/// What one workload's run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// Timed passes made.
    pub passes: usize,
    /// Point-runs attempted (warm-up, timed and traced passes, and oracle
    /// checks).
    pub attempted: u64,
    /// Point-runs that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Per end-to-end metric, the run's value: each point's median timed
    /// pass at nominal host speed, combined as one pass's are (see
    /// [`run_workload`]).
    pub values: BTreeMap<&'static str, f64>,
    /// How many times slower than nominal the host ran around the timed
    /// point-runs, by the host probe: the median over them.
    pub host_slowdown: f64,
    /// Per end-to-end metric, one sample per timed pass as measured (one
    /// per run for `peak_rss_mb`).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics of the traced pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced pass's span log as a Chrome trace, and its layer summary.
    pub trace_docs: Option<(Json, Json)>,
}

impl WorkloadRun {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(msg);
        }
    }
}

/// One pass's measurements, per point in pass order.
struct Pass {
    points: Vec<(String, PointRun)>,
    /// Per point, the host's slowdown around it (empty when unprobed).
    slowdowns: Vec<f64>,
}

impl Pass {
    /// The end-to-end metrics [`Pass::e2e`] gives, in its order.
    const METRICS: [&'static str; 4] = ["setup_s", "wall_s", "sim_mips", "point_mips"];

    fn e2e(&self) -> [f64; 4] {
        let sum = |f: fn(&PointRun) -> f64| self.points.iter().map(|(_, r)| f(r)).sum::<f64>();
        let setup = sum(|r| r.setup_s);
        let wall = setup + sum(|r| r.measured_s);
        let mips = sum(|r| r.insts as f64) / sum(|r| r.sim_s) / 1e6;
        let per_point: Vec<f64> =
            self.points.iter().map(|(_, r)| r.insts as f64 / r.sim_s / 1e6).collect();
        [setup, wall, mips, geomean(&per_point)]
    }
}

/// Run every point once, probing `host` between points; failures are
/// tallied, successes returned.
fn pass(
    bench: Bench,
    points: &[Point],
    expected: Option<&Expected>,
    clock: &mut Clock,
    mut host: Option<&mut Probe>,
    out: &mut WorkloadRun,
) -> Pass {
    let mut got = Vec::with_capacity(points.len());
    let mut slowdowns = Vec::new();
    let mut before = host.as_mut().map(|h| h.slowdown());
    clock.enter("pass", "");
    for p in points {
        out.attempted += 1;
        clock.enter("point", &p.key);
        let r = run_point(bench, p, clock);
        clock.exit();
        let after = host.as_mut().map(|h| h.slowdown());
        if let (Ok(_), Some(b), Some(a)) = (&r, before, after) {
            slowdowns.push((b + a) / 2.0);
        }
        before = after;
        let id = format!("{}/{}", bench.name(), p.key);
        match r {
            Err(e) => out.fail(format!("{id}: {e}")),
            Ok(r) => {
                if let Some(exp) = expected {
                    match exp.get(&id) {
                        None => out.fail(format!("{id}: no entry in expected.json")),
                        Some(want) if *want != r.fields => {
                            out.fail(format!("{id}: {}", first_difference(want, &r.fields)))
                        }
                        Some(_) => {}
                    }
                }
                got.push((p.key.clone(), r));
            }
        }
    }
    clock.exit();
    Pass { points: got, slowdowns }
}

/// Each point's median over its runs of set-up, measured and simulation
/// seconds, each taken on its own.
fn typical_pass(runs: BTreeMap<String, Vec<PointRun>>) -> Pass {
    let points = runs
        .into_iter()
        .map(|(key, runs)| {
            let mid = |f: fn(&PointRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
            let (setup_s, measured_s, sim_s) =
                (mid(|r| r.setup_s), mid(|r| r.measured_s), mid(|r| r.sim_s));
            let first = runs.into_iter().next().expect("every point ran");
            (key, PointRun { setup_s, measured_s, sim_s, ..first })
        })
        .collect();
    Pass { points, slowdowns: Vec::new() }
}

fn first_difference(want: &Fields, got: &Fields) -> String {
    for k in want.keys().chain(got.keys()) {
        let (w, g) = (want.get(k), got.get(k));
        if w != g {
            let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
            return format!("{k} is {}, expected.json has {}", show(g), show(w));
        }
    }
    "identical".into()
}

/// Run one workload: oracle checks, warm-up, timed passes sampling `host`,
/// and the traced pass when asked.
pub fn run_workload(
    bench: Bench,
    s: &Settings,
    expected: &Expected,
    host: &mut Probe,
) -> WorkloadRun {
    let mut out = WorkloadRun::default();
    let points = bench.shuffled_points(s.seed);
    let mut expected = expected.clone();
    if s.seed != DEFAULT_SEED {
        // Synthetic inputs follow the seed: pin them to the oracle instead.
        for p in points.iter().filter(|p| p.is_synth()) {
            out.attempted += 1;
            let id = format!("{}/{}", bench.name(), p.key);
            match oracle_fields(p) {
                Ok(f) => {
                    expected.insert(id, f);
                }
                Err(e) => out.fail(format!("{id}: {e}")),
            }
        }
    }
    let expected = Some(&expected);

    pass(bench, &points, expected, &mut Clock::default(), None, &mut out);

    // Timed passes fill `seconds`: after the first MIN_PASSES, another pass
    // starts only when one as long as the last still fits. The host's speed
    // drifts too much for a fixed pass count to bound the run's length.
    //
    // The run's values are at nominal host speed: each point-run's host
    // times are divided by the host probe's slowdown around it, and each
    // point's median over the passes is combined as one pass's times are.
    let start = Instant::now();
    let mut at_nominal: BTreeMap<String, Vec<PointRun>> = BTreeMap::new();
    let mut slowdowns = Vec::new();
    let mut last = 0.0;
    for i in 0.. {
        if i >= MIN_PASSES && start.elapsed().as_secs_f64() + last > s.seconds {
            break;
        }
        let t = Instant::now();
        let p = pass(bench, &points, expected, &mut Clock::default(), Some(&mut *host), &mut out);
        last = t.elapsed().as_secs_f64();
        if p.points.is_empty() {
            continue;
        }
        out.passes += 1;
        for (name, v) in Pass::METRICS.into_iter().zip(p.e2e()) {
            out.samples.entry(name).or_default().push(v);
        }
        for ((key, r), slow) in p.points.into_iter().zip(p.slowdowns) {
            // Only times and counts: the checked fields are done with.
            let (setup_s, measured_s, sim_s) =
                (r.setup_s / slow, r.measured_s / slow, r.sim_s / slow);
            let r = PointRun { setup_s, measured_s, sim_s, insts: r.insts, ..PointRun::default() };
            at_nominal.entry(key).or_default().push(r);
            slowdowns.push(slow);
        }
    }
    if !at_nominal.is_empty() {
        out.values = Pass::METRICS.into_iter().zip(typical_pass(at_nominal).e2e()).collect();
        out.host_slowdown = median(&slowdowns);
    }
    // The probe's memory stays resident all run; it is not the simulator's.
    if let Some(rss) = status_mb("VmHWM").map(|peak| peak - host.resident_mb) {
        out.samples.insert("peak_rss_mb", vec![rss]);
        out.values.insert("peak_rss_mb", rss);
    }

    if s.trace {
        let mut clock = Clock::traced();
        let traced = pass(bench, &points, expected, &mut clock, None, &mut out);
        let untraced = out.samples.get("wall_s").map(|w| median(w));
        let (Some(untraced), false) = (untraced, traced.points.is_empty()) else {
            return out; // every point failed: nothing to attribute
        };
        let (layers, summary) = layer_metrics(bench.name(), &traced, clock.spans(), untraced);
        out.layers = layers;
        let chrome = trace::chrome_trace(clock.spans(), bench.name(), out.passes + 1);
        out.trace_docs = Some((chrome, summary));
    }
    out
}

/// One unchecked pass of `bench` at the default seed: the results to pin
/// in `expected.json`, or the failures that prevent it.
pub fn record_expected(bench: Bench) -> Result<Expected, Vec<String>> {
    let mut out = WorkloadRun::default();
    let p = pass(bench, &bench.points(DEFAULT_SEED), None, &mut Clock::default(), None, &mut out);
    if out.failed > 0 {
        return Err(out.errors);
    }
    Ok(p.points.into_iter().map(|(k, r)| (format!("{}/{k}", bench.name()), r.fields)).collect())
}

/// Aggregate the traced pass into the per-layer metrics and a layer
/// summary document (self time per layer, coverage per point).
fn layer_metrics(
    bench_name: &str,
    traced: &Pass,
    spans: &[trace::Span],
    untraced_wall: f64,
) -> (BTreeMap<&'static str, f64>, Json) {
    let totals = trace::layer_totals(spans);
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let all = |name: &str| totals.get(name).map_or(0.0, |t| t.0 + t.1);
    let [_, wall, ..] = traced.e2e();
    let field = |k: &str| {
        traced.points.iter().map(|(_, r)| r.fields.get(k).copied().unwrap_or(0) as f64).sum::<f64>()
    };
    let extra = |k: &str| {
        traced.points.iter().map(|(_, r)| r.extra.get(k).copied().unwrap_or(0.0)).sum::<f64>()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let coverage = trace::point_coverage(spans);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("trace.wall_s", wall);
    m.insert("trace.overhead_frac", wall / untraced_wall - 1.0);
    m.insert(
        "trace.attributed_frac",
        coverage.iter().map(|(_, dur, cov)| ratio(*cov, *dur)).fold(1.0, f64::min),
    );
    m.insert("trace.spans", spans.len() as f64);
    m.insert("workloads.build_s", all("workloads.build"));
    m.insert("workloads.golden_s", all("workloads.golden"));
    m.insert("isa.assemble_s", all("isa.assemble"));
    m.insert("isa.text_words", extra("text_words"));
    for (metric, span) in [
        ("core.new_share", "core.new"),
        ("core.run_share", "core.run"),
        ("exec.replay_share", "exec.replay"),
        ("obs.run_share", "obs.run"),
        ("obs.export_share", "obs.export"),
        ("obs.validate_share", "obs.validate"),
        ("obs.free_share", "obs.free"),
        ("verify.lint_share", "verify.lint"),
        ("verify.races_share", "verify.races"),
        ("verify.dlp_share", "verify.dlp"),
    ] {
        m.insert(metric, ratio(own(span), wall));
    }

    // The timing model: own `System::run` calls, or the unobserved probe
    // runs on the profiled workload.
    let core_run = all("core.run");
    let (cycles, stepped) = (field("cycles"), extra("stepped"));
    m.insert("core.cycles", cycles);
    m.insert("core.committed", field("committed"));
    m.insert("core.stepped_frac", ratio(stepped, cycles));
    m.insert("core.stepped_mcps", ratio(stepped, core_run) / 1e6);
    let per_point: Vec<f64> = traced
        .points
        .iter()
        .filter_map(|(key, r)| {
            let run_s: f64 = spans
                .iter()
                .filter(|s| s.name == "core.run" && s.point == *key)
                .map(|s| s.dur)
                .sum();
            let cycles = *r.fields.get("cycles")? as f64;
            (run_s > 0.0).then(|| cycles / run_s / 1e6)
        })
        .collect();
    m.insert("core.mcps", if per_point.is_empty() { 0.0 } else { geomean(&per_point) });
    let weighted: f64 = traced
        .points
        .iter()
        .map(|(_, r)| {
            r.extra.get("components").copied().unwrap_or(0.0)
                * r.extra.get("stepped").copied().unwrap_or(0.0)
        })
        .sum();
    m.insert("core.components", ratio(weighted, stepped));
    for (metric, f) in [
        ("core.vu.busy", "util.busy"),
        ("core.vu.partly_idle", "util.partly_idle"),
        ("core.vu.stalled", "util.stalled"),
        ("core.vu.all_idle", "util.all_idle"),
        ("scalar.committed", "scalar.committed"),
        ("scalar.issued", "scalar.issued"),
        ("scalar.busy_cycles", "scalar.busy_cycles"),
        ("scalar.lane_committed", "scalar.lane_committed"),
        ("mem.l2.accesses", "mem.l2.accesses"),
        ("mem.l2.misses", "mem.l2.misses"),
        ("mem.l2.bank_conflicts", "mem.l2.bank_conflicts"),
        ("mem.net.transfers", "mem.net.transfers"),
        ("mem.net.wait_cycles", "mem.net.wait_cycles"),
        ("obs.trace_events", "obs.trace_events"),
    ] {
        m.insert(metric, field(f));
    }
    m.insert("mem.l1d.accesses", field("mem.l1d.hits") + field("mem.l1d.misses"));

    let replay = all("exec.replay");
    let insts = extra("replay_insts");
    m.insert("exec.replay_s", replay);
    m.insert("exec.insts", insts);
    m.insert("exec.minst_s", ratio(insts, replay) / 1e6);
    m.insert("exec.interp_minst_s", ratio(insts, all("exec.interp")) / 1e6);
    m.insert("exec.share", ratio(replay, core_run));
    // Only the profiled workload probes an unobserved run.
    let probe_run = totals.get("core.run").map_or(0.0, |t| t.1);
    m.insert(
        "obs.run_overhead_frac",
        if probe_run > 0.0 { own("obs.run") / probe_run - 1.0 } else { 0.0 },
    );

    let verified = traced.points.iter().filter(|(_, r)| r.fields.contains_key("dlp.exact")).count();
    m.insert("verify.points", verified as f64);
    m.insert("verify.dlp_exact_frac", ratio(field("dlp.exact"), verified as f64));
    m.insert("verify.diags", field("verify.diags") + field("races.diags"));

    let layers = totals
        .iter()
        .map(|(name, (own_s, probe_s, calls))| {
            let e = BTreeMap::from([
                ("self_s".to_string(), Json::Num(*own_s)),
                ("probe_self_s".to_string(), Json::Num(*probe_s)),
                ("calls".to_string(), Json::Num(*calls as f64)),
            ]);
            (name.to_string(), Json::Obj(e))
        })
        .collect();
    let points = coverage
        .iter()
        .map(|(key, dur, cov)| {
            let mut e = BTreeMap::from([
                ("point".to_string(), Json::Str(key.clone())),
                ("wall_s".to_string(), Json::Num(*dur)),
                ("attributed_s".to_string(), Json::Num(*cov)),
                ("attributed_frac".to_string(), Json::Num(ratio(*cov, *dur))),
            ]);
            let run = traced.points.iter().find(|(k, _)| k == key).map(|(_, r)| r);
            if let Some((cycles, stepped)) =
                run.and_then(|r| Some((*r.fields.get("cycles")?, *r.extra.get("stepped")?)))
            {
                e.insert("stepped_frac".to_string(), Json::Num(ratio(stepped, cycles as f64)));
            }
            Json::Obj(e)
        })
        .collect();
    let metrics = m.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect();
    let summary = Json::Obj(BTreeMap::from([
        ("workload".to_string(), Json::Str(bench_name.to_string())),
        ("layers".to_string(), Json::Obj(layers)),
        ("points".to_string(), Json::Arr(points)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]));
    (m, summary)
}

/// Validate the traced pass's Chrome trace and write both documents into
/// `dir`.
pub fn write_trace(dir: &Path, bench: Bench, docs: &(Json, Json)) -> Result<(), String> {
    vlt_obs::perfetto::validate_chrome_trace(&docs.0)
        .map_err(|e| format!("{} trace is not a valid Chrome trace: {e}", bench.name()))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (stem, doc) in [("trace", &docs.0), ("layers", &docs.1)] {
        let path = dir.join(format!("{stem}-{}.json", bench.name()));
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(setup_s: f64, measured_s: f64, sim_s: f64) -> PointRun {
        PointRun { setup_s, measured_s, sim_s, insts: 1_000_000, ..PointRun::default() }
    }

    #[test]
    fn each_point_and_each_time_takes_its_own_median() {
        let runs = BTreeMap::from([
            ("a".to_string(), vec![run(0.1, 2.0, 1.0), run(0.3, 1.0, 0.5), run(0.2, 4.0, 2.0)]),
            ("b".to_string(), vec![run(0.2, 1.0, 0.5), run(0.4, 3.0, 1.5)]),
        ]);
        let [setup, wall, mips, point_mips] = typical_pass(runs).e2e();
        assert!((setup - 0.5).abs() < 1e-12, "a's median set-up 0.2 plus b's 0.3");
        assert!((wall - 4.5).abs() < 1e-12, "median set-ups plus median measured times");
        assert!((mips - 1.0).abs() < 1e-12, "2 M insts over 2 s of median simulation");
        assert!((point_mips - 1.0).abs() < 1e-12);
    }
}
