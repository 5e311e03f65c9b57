//! `vlt regress`: the performance-regression harness.
//!
//! Records the full workload suite (Table 4 + the irregular kernels,
//! across thread counts and the clustered ultra-wide point) into a
//! versioned baseline JSON, then gates future changes by re-running the
//! same points and comparing every recorded metric — cycles, committed
//! instructions, the utilization split and each stall cause — exactly.
//! The simulator is deterministic, so any drift is a real timing-model
//! change and fails the check (re-record deliberately when a change is
//! intended, and say why in the commit). Host time is not recorded here;
//! `vlbench` measures it.
//!
//! ```text
//! vlt regress --record                 # write results/vlregress_baseline.json
//! vlt regress --check                  # compare a fresh run against it
//! vlt regress --check --baseline B     # compare against a specific file
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vlt_bench::harness::{results_dir, run_built};
use vlt_core::SystemConfig;
use vlt_stats::json::Json;
use vlt_stats::Table;
use vlt_workloads::{irregular_suite, suite, Scale, Workload};

use crate::cli::{Args, Command, Error, Flag, Result, Takes};

const SCHEMA: &str = "vlt-regress";
const VERSION: f64 = 1.0;

pub const COMMAND: Command = Command {
    name: "regress",
    usage: "\
usage: vlt regress --record [--baseline PATH]
       vlt regress --check  [--baseline PATH]

  --record        run the full suite and write the baseline JSON
  --check         run the full suite and compare against the baseline;
                  exits nonzero when any metric differs
  --baseline P    baseline file (default: results/vlregress_baseline.json)
  -h, --help      this text",
    flags: &[
        Flag(&["--record"], Takes::Nothing),
        Flag(&["--check"], Takes::Nothing),
        Flag(&["--baseline"], Takes::Value),
    ],
    main: regress,
};

/// Per point, its metrics by name.
type Points = BTreeMap<String, BTreeMap<String, f64>>;

/// One suite point: a workload shape the baseline pins.
struct Point {
    key: String,
    workload: &'static dyn Workload,
    cfg: SystemConfig,
    threads: usize,
}

/// The fixed point set: every workload (Table 4 + irregular) at 1/2/4
/// threads on `v4-cmt`, plus the 8-thread spread over two 8-lane clusters
/// for every vectorizable kernel (the ultra-wide VLT shape).
fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for w in suite().into_iter().chain(irregular_suite()) {
        for threads in [1usize, 2, 4] {
            if threads > w.max_threads() {
                continue;
            }
            out.push(Point {
                key: format!("{}.x{threads}.v4-cmt", w.name()),
                workload: w,
                cfg: SystemConfig::v4_cmt(),
                threads,
            });
        }
        if w.vectorizable() {
            out.push(Point {
                key: format!("{}.x8.v8-2x8", w.name()),
                workload: w,
                cfg: SystemConfig::v8_clustered(2),
                threads: 8,
            });
        }
    }
    out
}

/// Run one point (its program spread over the config's clusters) and
/// flatten its result into the recorded metric set.
fn measure(p: &Point) -> Result<BTreeMap<String, f64>> {
    let built = p.workload.build_spread(p.threads, p.cfg.clusters, Scale::Test);
    let result = run_built(p.cfg.clone(), &built, p.threads, p.workload.name())
        .map_err(|e| Error::Failed(format!("{}: {e}", p.key)))?;

    let mut m = BTreeMap::new();
    m.insert("cycles".into(), result.cycles as f64);
    m.insert("committed".into(), result.committed as f64);
    m.insert("util.busy".into(), result.utilization.busy as f64);
    m.insert("util.partly-idle".into(), result.utilization.partly_idle as f64);
    m.insert("util.stalled".into(), result.utilization.stalled as f64);
    m.insert("util.all-idle".into(), result.utilization.all_idle as f64);
    for (cause, n) in result.stalls().iter() {
        if n > 0 {
            m.insert(format!("stalls.{}", cause.name()), n as f64);
        }
    }
    Ok(m)
}

fn run_all() -> Result<Points> {
    let pts = points();
    let mut all = BTreeMap::new();
    for (i, p) in pts.iter().enumerate() {
        eprintln!("vlt regress: [{}/{}] {} ...", i + 1, pts.len(), p.key);
        all.insert(p.key.clone(), measure(p)?);
    }
    Ok(all)
}

fn to_json(all: &Points) -> Json {
    let points = all
        .iter()
        .map(|(k, metrics)| {
            (
                k.clone(),
                Json::Obj(metrics.iter().map(|(n, v)| (n.clone(), Json::Num(*v))).collect()),
            )
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("schema".into(), Json::Str(SCHEMA.into()));
    doc.insert("version".into(), Json::Num(VERSION));
    doc.insert("points".into(), Json::Obj(points));
    Json::Obj(doc)
}

fn parse_baseline(path: &Path) -> Result<Points> {
    let failed = |msg: String| Error::Failed(format!("{}: {msg}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| {
        Error::Failed(format!("cannot read {}: {e} (record one first)", path.display()))
    })?;
    let doc = Json::parse(&text).map_err(|e| failed(format!("malformed JSON: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(failed(format!("not a {SCHEMA} document")));
    }
    if doc.get("version").and_then(Json::as_f64) != Some(VERSION) {
        return Err(failed("baseline schema version mismatch".into()));
    }
    let Some(Json::Obj(points)) = doc.get("points") else {
        return Err(failed("\"points\" is not an object".into()));
    };
    let mut out = BTreeMap::new();
    for (key, metrics) in points {
        let Json::Obj(metrics) = metrics else {
            return Err(failed(format!("point {key:?} is not an object")));
        };
        let metrics: BTreeMap<String, f64> =
            metrics.iter().filter_map(|(n, v)| v.as_f64().map(|v| (n.clone(), v))).collect();
        out.insert(key.clone(), metrics);
    }
    Ok(out)
}

fn record(path: &Path) -> Result<()> {
    let all = run_all()?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Failed(format!("cannot create {}: {e}", dir.display())))?;
    }
    std::fs::write(path, to_json(&all).pretty())
        .map_err(|e| Error::Failed(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("vlt regress: recorded {} points into {}", all.len(), path.display());
    Ok(())
}

fn check(path: &Path) -> Result<()> {
    let base = parse_baseline(path)?;
    let cur = run_all()?;
    let mut failures =
        Table::new("Regressions (outside tolerance)", &["point", "metric", "baseline", "current"]);
    for (key, base_metrics) in &base {
        let Some(cur_metrics) = cur.get(key) else {
            failures.row(&[key.clone(), "<point>".into(), "present".into(), "missing".into()]);
            continue;
        };
        for (metric, b) in base_metrics {
            let c = cur_metrics.get(metric).copied().unwrap_or(0.0);
            if c != *b {
                failures.row(&[key.clone(), metric.clone(), format!("{b}"), format!("{c}")]);
            }
        }
        for (metric, c) in cur_metrics {
            if !base_metrics.contains_key(metric) {
                failures.row(&[key.clone(), metric.clone(), "absent".into(), format!("{c}")]);
            }
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            failures.row(&[key.clone(), "<point>".into(), "missing".into(), "present".into()]);
        }
    }
    if !failures.is_empty() {
        println!("{failures}");
        return Err(Error::Failed(format!(
            "performance baseline violated — if the change is intended, \
             re-record with `vlt regress --record` and commit {}",
            path.display()
        )));
    }
    println!("vlregress: {} points match the baseline exactly", cur.len());
    Ok(())
}

fn regress(args: &Args) -> Result<ExitCode> {
    let baseline = args
        .value("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("vlregress_baseline.json"));
    match (args.has("--record"), args.has("--check")) {
        (true, false) => record(&baseline)?,
        (false, true) => check(&baseline)?,
        _ => return Err(Error::Usage("pick one of --record / --check".into())),
    }
    Ok(ExitCode::SUCCESS)
}
