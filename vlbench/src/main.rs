//! `vlbench`: time the VLT simulator from outside, workload by workload.
//!
//! ```text
//! vlbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! vlbench trace [same options]            # run --trace 1
//! vlbench compare A.jsonl B.jsonl
//! vlbench record-expected
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use vlbench::host::Probe;
use vlbench::points::Bench;
use vlbench::record::{append, compact, compare, load_runs, rules, run_record};
use vlbench::run::{
    record_expected, run_workload, write_trace, Expected, Settings, WorkloadRun, DEFAULT_SEED, E2E,
    LAYERS,
};
use vlbench::stats::Summary;
use vlbench::{expected, package_dir};
use vlt_stats::json::Json;

const USAGE: &str = "\
usage: vlbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       vlbench trace [same options as run]
       vlbench compare A.jsonl B.jsonl
       vlbench record-expected

  --workload W   vlt_dense | serial_skip | profiled | analyze (default: all four)
  --seed N       point order and synthetic inputs (default: 1)
  --seconds S    measuring time per workload; timed passes fill it (default: 20)
  --trace 0|1    add a traced pass and report per-layer metrics (default: 0)
  --out FILE     runs file the run's record is appended to; trace files are
                 written beside it (default: vlbench/out/runs.jsonl)

The last line of `run` output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (per-layer metrics with --trace 1).";

struct RunArgs {
    workloads: Vec<Bench>,
    settings: Settings,
    out: PathBuf,
}

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut workloads = Vec::new();
    let mut settings = Settings { seed: DEFAULT_SEED, seconds: 20.0, trace };
    let mut out = package_dir().join("out/runs.jsonl");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads.push(Bench::by_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => settings.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                settings.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = Bench::ALL.to_vec();
    }
    Ok(RunArgs { workloads, settings, out })
}

fn unix_now() -> f64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64())
}

fn print_workload(b: Bench, r: &WorkloadRun, trace: bool) {
    for (name, unit, _) in E2E {
        if let (Some(value), Some(v)) = (r.values.get(name), r.samples.get(name)) {
            let s = Summary::of(v);
            println!(
                "{} {name} {value} {unit} (per pass over {} passes: median {}, q1 {}, q3 {})",
                b.name(),
                v.len(),
                s.median,
                s.q1,
                s.q3
            );
        }
    }
    println!(
        "{} host_slowdown {} x (host times above are divided by it, rates multiplied)",
        b.name(),
        r.host_slowdown
    );
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{} fail_frac {frac} frac ({} of {} point-runs failed)",
        b.name(),
        r.failed,
        r.attempted
    );
    if trace {
        for (name, unit) in LAYERS {
            println!(
                "{} {name} {} {unit}",
                b.name(),
                r.layers.get(name).copied().unwrap_or(f64::NAN)
            );
        }
    }
    for e in &r.errors {
        eprintln!("vlbench: {}: FAILED {e}", b.name());
    }
}

/// The final result line: every end-to-end metric, or every per-layer
/// metric when traced; names carry a `<workload>.` prefix when the run
/// covered several workloads. The counts are written by hand because the
/// JSON writer prints every number as a float.
fn result_line(runs: &[(Bench, WorkloadRun)], trace: bool) -> String {
    let mut metrics = BTreeMap::new();
    let prefix = |b: Bench, m: &str| {
        if runs.len() > 1 {
            format!("{}.{m}", b.name())
        } else {
            m.to_string()
        }
    };
    let entry = |v: f64, unit: &str| {
        Json::Obj(BTreeMap::from([
            ("value".to_string(), Json::Num(v)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ]))
    };
    for (b, r) in runs {
        if trace {
            for (name, unit) in LAYERS {
                let v = r.layers.get(name).copied().unwrap_or(f64::NAN);
                metrics.insert(prefix(*b, name), entry(v, unit));
            }
        } else {
            for (name, unit, _) in E2E {
                let v = r.values.get(name).copied().unwrap_or(f64::NAN);
                metrics.insert(prefix(*b, name), entry(v, unit));
            }
        }
    }
    let attempted: u64 = runs.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r)| r.failed).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        compact(&Json::Obj(metrics))
    )
}

fn cmd_run(a: &RunArgs) -> Result<bool, String> {
    let mut host = Probe::new();
    let expected: Expected = expected::load(&package_dir().join("expected.json"))?;
    let started = unix_now();
    let mut runs = Vec::new();
    for &b in &a.workloads {
        eprintln!(
            "vlbench: {} — seed {}, {} s of timed passes{} ...",
            b.name(),
            a.settings.seed,
            a.settings.seconds,
            if a.settings.trace { " + a traced pass" } else { "" }
        );
        let r = run_workload(b, &a.settings, &expected, &mut host);
        print_workload(b, &r, a.settings.trace);
        runs.push((b, r));
    }
    let record = run_record(&a.settings, started, unix_now(), &runs);
    append(&a.out, &record)?;
    let dir = a.out.parent().map_or(PathBuf::from("."), PathBuf::from);
    for (b, r) in &runs {
        if let Some(docs) = &r.trace_docs {
            write_trace(&dir, *b, docs)?;
        }
    }
    println!("{}", result_line(&runs, a.settings.trace));
    Ok(runs.iter().all(|(_, r)| r.failed == 0))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two runs files".into());
    };
    let bench_file = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&bench_file)
        .map_err(|e| format!("cannot read {}: {e}", bench_file.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", bench_file.display()))?;
    let rules = rules(&doc)?;
    let (table, worse) = compare(&load_runs(a.as_ref())?, &load_runs(b.as_ref())?, &rules);
    print!("{table}");
    Ok(!worse)
}

fn cmd_record() -> Result<bool, String> {
    let mut all = Expected::new();
    for b in Bench::ALL {
        eprintln!("vlbench: recording {} ...", b.name());
        all.extend(record_expected(b).map_err(|errs| errs.join("\n"))?);
    }
    let path = package_dir().join("expected.json");
    std::fs::write(&path, expected::to_json(&all).pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("vlbench: pinned {} point-runs in {}", all.len(), path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => {
            parse_run(&args[1..], cmd == "trace").and_then(|a| cmd_run(&a))
        }
        Some("compare") => cmd_compare(&args[1..]),
        Some("record-expected") if args.len() == 1 => cmd_record(),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vlbench: {e}");
            ExitCode::from(2)
        }
    }
}
