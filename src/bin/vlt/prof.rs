//! `vlt prof`: run any workload (or a raw `.s` program) under the full
//! observability stack and emit a Perfetto/Chrome trace, a metrics JSON
//! document (including CPI stacks), and a terminal summary of the top
//! stall causes per region.
//!
//! ```text
//! vlt prof saxpy.s                      # profile an assembly file
//! vlt prof mxm --config v4-cmp          # profile a suite workload
//! vlt prof spmv --whatif all            # causal what-if speedup bounds
//! vlt prof --diff base/metrics.json new/metrics.json
//! ```
//!
//! Both output documents are validated before they are written (the same
//! validators the test suite uses), so a malformed trace fails the run
//! instead of failing later inside `chrome://tracing`.
//!
//! `--whatif` is the causal layer: for a stall cause with a removable
//! hardware component it re-runs the workload with that component
//! idealized (zero-conflict L2 banks, zero-hop cluster network, free
//! barrier flushes, unbounded issue width) and reports the *measured*
//! speedup next to the cycles the profiler *attributed* to the cause.
//! The measured gain can never exceed the attribution (checked on every
//! run) — attribution is an upper bound, what-if is the causal truth.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use vlt_bench::harness::MAX_CYCLES;
use vlt_core::{IdealizeConfig, SimResult, StallCause, System, SystemConfig, Work};
use vlt_obs::perfetto::validate_chrome_trace;
use vlt_obs::{CpiObserver, MetricsObserver, Multi, PerfettoObserver};
use vlt_stats::json::Json;
use vlt_stats::metrics::validate_metrics_json;
use vlt_stats::{MetricsRegistry, Table};
use vlt_workloads::{workload, Scale};

use crate::cli::{self, Args, Command, Error, Flag, Result, Takes};

pub const COMMAND: Command = Command {
    name: "prof",
    usage: "\
usage: vlt prof <workload|file.s> [options]
       vlt prof --diff A/metrics.json B/metrics.json

  <workload|file.s>   a suite workload name (mxm, sage, mpenc, trfd,
                      multprec, bt, radix, ocean, barnes, or the irregular
                      spmv, histo, hashjoin, sweep) or a path to a VLT
                      assembly file

options:
  --config NAME   design point: base, v2-smt, v2-cmp, v2-cmp-h, v4-smt,
                  v4-cmt, v4-cmp, v4-cmp-h, cmt, v4-cmt-lanes, or the
                  ultra-wide v8-2x8 / v8-4x8 / v8-8x8 (default: v4-cmt)
  --clusters N    replicate the config's vector unit over N lane clusters
                  (vector configs only; the trace gains per-cluster
                  partition tracks)
  --threads N     software threads (default: 4, the examples' shape)
  --scale S       workload problem size: test | small | full
                  (default: small; ignored for .s files)
  --whatif CAUSE  after profiling, re-run with the hardware component
                  behind CAUSE idealized and report the measured speedup
                  against the attributed cycles: bank-conflict,
                  network-contention, barrier-wait, issue-width, or all
  --diff A B      compare two metrics.json documents (no simulation);
                  prints the counters that moved, largest swing first
  --out DIR       output directory for trace.json + metrics.json
                  (default: vlprof-out)
  --max-cycles N  cycle budget of the profile run and of every what-if
                  re-run (default: 2000000000)
  -h, --help      this text",
    flags: &[
        Flag(&["--config"], Takes::Value),
        Flag(&["--clusters"], Takes::Value),
        Flag(&["--threads"], Takes::Value),
        Flag(&["--scale"], Takes::Value),
        Flag(&["--whatif"], Takes::Value),
        Flag(&["--diff"], Takes::Two),
        Flag(&["--out"], Takes::Value),
        Flag(&["--max-cycles"], Takes::Value),
    ],
    main: prof,
};

/// The idealizable stall causes `--whatif` accepts, in report order.
const WHATIF_CAUSES: [StallCause; 4] = [
    StallCause::BankConflict,
    StallCause::NetworkContention,
    StallCause::BarrierWait,
    StallCause::IssueWidth,
];

fn whatif_causes(arg: &str) -> Result<Vec<StallCause>> {
    if arg == "all" {
        return Ok(WHATIF_CAUSES.to_vec());
    }
    WHATIF_CAUSES.iter().copied().find(|c| c.name() == arg).map(|c| vec![c]).ok_or_else(|| {
        let names: Vec<&str> = WHATIF_CAUSES.iter().map(|c| c.name()).collect();
        Error::Usage(format!(
            "--whatif {arg:?}: not an idealizable cause (one of {}, or all)",
            names.join(", ")
        ))
    })
}

/// The resolved profile target: a program plus an optional post-run
/// verifier (suite workloads verify; raw `.s` files run as-is), and the
/// cycle budget of every simulation of it.
struct Target {
    label: String,
    program: vlt_isa::Program,
    built: Option<vlt_workloads::Built>,
    max_cycles: u64,
}

fn resolve_target(
    name: &str,
    cfg: &SystemConfig,
    threads: usize,
    scale: Scale,
    max_cycles: u64,
) -> Result<Target> {
    if name.ends_with(".s") {
        let program = cli::load(name)?;
        return Ok(Target { label: name.to_string(), program, built: None, max_cycles });
    }
    let w = workload(name).ok_or_else(|| {
        Error::Usage(format!("{name:?} is neither a workload name nor a .s file"))
    })?;
    // Spread the program's vltcfg over the machine's clusters so an
    // ultra-wide profile actually exercises every cluster.
    cli::check_spread(threads, cfg.clusters)?;
    let built = w.build_spread(threads, cfg.clusters, scale);
    let (label, program) = (w.name().to_string(), built.program.clone());
    Ok(Target { label, program, built: Some(built), max_cycles })
}

/// One simulation of the target on `cfg`, verified, with conservation
/// checked, and the driver's work. `run_observed` only when observers are
/// attached.
fn simulate(
    cfg: &SystemConfig,
    target: &Target,
    threads: usize,
    obs: Option<&mut Multi<'_>>,
) -> Result<(SimResult, Work)> {
    let failed = Error::Failed;
    let mut sys = System::new(cfg.clone(), &target.program, threads);
    let result = match obs {
        Some(multi) => sys.run_observed(target.max_cycles, multi),
        None => sys.run(target.max_cycles),
    }
    .map_err(|e| failed(format!("simulation failed: {e}")))?;
    if let Some(built) = &target.built {
        (built.verifier)(sys.funcsim()).map_err(|m| failed(format!("verification failed: {m}")))?;
    }
    result
        .check_stall_conservation()
        .map_err(|e| failed(format!("stall accounting broken: {e}")))?;
    Ok((result, sys.work()))
}

fn prof(args: &Args) -> Result<ExitCode> {
    if let [a, b, ..] = args.values("--diff").collect::<Vec<_>>()[..] {
        run_diff(Path::new(a), Path::new(b))?;
        return Ok(ExitCode::SUCCESS);
    }
    let name = args.single("workload or .s file")?;
    let threads = args.threads.unwrap_or(4);
    let cfg = args.config.clone().unwrap_or_else(SystemConfig::v4_cmt);
    let cfg = cli::machine(cfg, args.clusters.unwrap_or(1), threads)?;
    let causes = args.value("--whatif").map(whatif_causes).transpose()?;
    let max_cycles = args.parsed("--max-cycles")?.unwrap_or(MAX_CYCLES);
    let scale = args.scale.unwrap_or(Scale::Small);
    let target = resolve_target(name, &cfg, threads, scale, max_cycles)?;
    let out = Path::new(args.value("--out").unwrap_or("vlprof-out"));

    eprintln!("vlt prof: {} on {} x{threads} ...", target.label, cfg.name);
    let mut metrics = MetricsObserver::new();
    let mut trace = PerfettoObserver::new();
    let mut cpi = CpiObserver::new();
    let (result, work) = {
        let mut multi = Multi::new().with(&mut metrics).with(&mut trace).with(&mut cpi);
        simulate(&cfg, &target, threads, Some(&mut multi))?
    };
    let failed = Error::Failed;
    cpi.check_conservation().map_err(|e| failed(format!("CPI stack not conserving: {e}")))?;

    // Validate both documents before writing anything.
    let mut metrics_doc = metrics.into_registry();
    cpi.export_into(&mut metrics_doc);
    let metrics_json = metrics_doc.to_json();
    validate_metrics_json(&metrics_json)
        .map_err(|e| failed(format!("metrics JSON invalid: {e}")))?;
    let trace_json = trace.into_json();
    validate_chrome_trace(&trace_json).map_err(|e| failed(format!("trace JSON invalid: {e}")))?;

    std::fs::create_dir_all(out)
        .map_err(|e| failed(format!("cannot create {}: {e}", out.display())))?;
    for (name, doc) in [("trace.json", &trace_json), ("metrics.json", &metrics_json)] {
        let path = out.join(name);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| failed(format!("cannot write {}: {e}", path.display())))?;
        eprintln!("wrote {}", path.display());
    }

    print_summary(&target.label, &cfg, &result, &metrics_doc);
    println!(
        "driver: {} of {} cycles stepped; ticks: {} scalar-unit, {} lane-core, {} vector-unit",
        work.stepped, result.cycles, work.core_ticks, work.lane_ticks, work.vu_ticks
    );
    print_cpi(&cpi);
    if let Some(causes) = causes {
        run_whatif(&cfg, &target, threads, &result, &causes)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Re-run the workload once per idealized cause and print measured
/// speedups next to the profiler's attribution. Errors if a measured
/// gain ever exceeds the attributed cycles — that would mean the stall
/// accounting undercounts the cause it claims to explain.
fn run_whatif(
    cfg: &SystemConfig,
    target: &Target,
    threads: usize,
    base: &SimResult,
    causes: &[StallCause],
) -> Result<()> {
    let mut t = Table::new(
        "What-if speedup bounds (component idealized vs measured)",
        &["idealization", "attributed", "base", "ideal", "speedup", "realized"],
    );
    for &cause in causes {
        let ideal =
            IdealizeConfig::for_cause(cause).expect("WHATIF_CAUSES only lists idealizable causes");
        let mut icfg = cfg.clone();
        icfg.ideal = ideal;
        eprintln!("vlt prof: what-if {} ...", cause.name());
        let (r, _) = simulate(&icfg, target, threads, None)?;
        let attributed = base.stalls().get(cause);
        let gain = base.cycles.saturating_sub(r.cycles);
        // The causal cross-check: removing a component can never buy more
        // cycles than the profiler attributed to it (attribution counts
        // every cycle the cause was *blamed* for; overlap with other
        // causes only shrinks the realizable gain).
        if gain > attributed {
            return Err(Error::Failed(format!(
                "what-if {}: measured gain {gain} cycles exceeds the attributed {attributed} — \
                 stall attribution undercounts this cause",
                cause.name()
            )));
        }
        if r.cycles > base.cycles {
            eprintln!(
                "vlt prof: note: idealizing {} slowed the run by {} cycles \
                 (timing interaction, e.g. altered barrier arrival order)",
                cause.name(),
                r.cycles - base.cycles
            );
        }
        let realized = if attributed == 0 { 0.0 } else { 100.0 * gain as f64 / attributed as f64 };
        t.row(&[
            cause.name().to_string(),
            attributed.to_string(),
            base.cycles.to_string(),
            r.cycles.to_string(),
            format!("{:.3}x", base.cycles as f64 / r.cycles.max(1) as f64),
            format!("{realized:.0}%"),
        ]);
    }
    println!("{t}");
    println!(
        "attributed counts are stall-cycles across all units (vector datapath-cycles \n\
         and core cycles); realized = measured gain / attributed, the causal share."
    );
    Ok(())
}

/// Per-region stall-cause counters out of the registry, keyed by region.
fn stalls_by_region(reg: &MetricsRegistry) -> BTreeMap<u32, Vec<(String, u64)>> {
    let mut per_region: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    for (name, v) in reg.counters() {
        let Some(rest) = name.strip_prefix("stalls.region") else { continue };
        let Some((region, cause)) = rest.split_once('.') else { continue };
        let Ok(region) = region.parse::<u32>() else { continue };
        per_region.entry(region).or_default().push((cause.to_string(), v));
    }
    for causes in per_region.values_mut() {
        causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    per_region
}

fn print_summary(label: &str, cfg: &SystemConfig, result: &SimResult, reg: &MetricsRegistry) {
    println!("{label} on {} — {} cycles, {} committed", cfg.name, result.cycles, result.committed);
    if cfg.has_vu {
        println!(
            "vector datapaths {:.1}% busy; {} vector issues",
            100.0 * result.utilization.busy_fraction(),
            reg.counter("vu.issues"),
        );
    }
    if reg.counter("barrier.releases") > 0 {
        println!("{} barrier rendezvous", reg.counter("barrier.releases"));
    }
    println!();

    let per_region = stalls_by_region(reg);
    let mut t = Table::new(
        "Top stall causes per region",
        &["region", "cycles", "stall-cycles", "top causes"],
    );
    for (region, causes) in &per_region {
        let total: u64 = causes.iter().map(|(_, n)| n).sum();
        let top = causes
            .iter()
            .take(3)
            .map(|(cause, n)| format!("{cause} {:.0}%", 100.0 * *n as f64 / total as f64))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(&[
            region.to_string(),
            result.region_cycles.get(region).copied().unwrap_or(0).to_string(),
            total.to_string(),
            top,
        ]);
    }
    if t.is_empty() {
        println!("no stalled or idle cycles attributed (nothing ever waited)");
    } else {
        println!("{t}");
    }
}

/// Whole-run CPI stacks: each unit's cycle budget decomposed top-down,
/// largest components first. Exact — components sum to the budget.
fn print_cpi(cpi: &CpiObserver) {
    let mut t = Table::new("CPI stacks (whole run)", &["unit", "cycles", "composition"]);
    for s in cpi.total() {
        let mut parts = s.components();
        parts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let comp = parts
            .iter()
            .filter(|(_, n)| *n > 0)
            .take(4)
            .map(|(label, n)| format!("{label} {:.0}%", 100.0 * *n as f64 / s.cycles.max(1) as f64))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(&[s.unit.clone(), s.cycles.to_string(), comp]);
    }
    if !t.is_empty() {
        println!("{t}");
    }
}

/// Load and validate a metrics.json document.
fn load_metrics(path: &Path) -> Result<Json> {
    let failed = |msg: String| Error::Failed(format!("{}: {msg}", path.display()));
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Failed(format!("cannot read {}: {e}", path.display())))?;
    let doc = Json::parse(&text).map_err(|e| failed(format!("malformed JSON: {e}")))?;
    validate_metrics_json(&doc).map_err(|e| failed(format!("not a metrics document: {e}")))?;
    Ok(doc)
}

/// Flatten a metrics document into comparable scalar rows: every counter
/// by name, plus each histogram's `count` and `sum` moments.
fn scalar_rows(doc: &Json) -> BTreeMap<String, f64> {
    let mut rows = BTreeMap::new();
    if let Some(Json::Obj(counters)) = doc.get("counters") {
        for (k, v) in counters {
            if let Some(n) = v.as_f64() {
                rows.insert(k.clone(), n);
            }
        }
    }
    if let Some(Json::Obj(hists)) = doc.get("histograms") {
        for (k, h) in hists {
            for field in ["count", "sum"] {
                if let Some(n) = h.get(field).and_then(Json::as_f64) {
                    rows.insert(format!("{k}.{field}"), n);
                }
            }
        }
    }
    rows
}

/// `vlt prof --diff A B`: every metric that moved between two runs,
/// largest relative swing first. A metric present on only one side
/// diffs against zero (new counters appear, dead ones disappear).
fn run_diff(a: &Path, b: &Path) -> Result<()> {
    let (da, db) = (load_metrics(a)?, load_metrics(b)?);
    let (ra, rb) = (scalar_rows(&da), scalar_rows(&db));
    let (ca, cb) = (ra.get("sim.cycles").copied(), rb.get("sim.cycles").copied());
    if let (Some(ca), Some(cb)) = (ca, cb) {
        println!(
            "sim.cycles: {ca} -> {cb} ({})",
            if cb > 0.0 { format!("{:.3}x", ca / cb) } else { "n/a".to_string() }
        );
        println!();
    }
    let names = ra.keys().chain(rb.keys().filter(|name| !ra.contains_key(*name)));
    let mut moved: Vec<(String, f64, f64)> = names
        .filter_map(|name| {
            let va = ra.get(name).copied().unwrap_or(0.0);
            let vb = rb.get(name).copied().unwrap_or(0.0);
            (va != vb).then(|| (name.clone(), va, vb))
        })
        .collect();
    let rel = |va: f64, vb: f64| (vb - va).abs() / va.abs().max(vb.abs()).max(1.0);
    moved.sort_by(|x, y| rel(y.1, y.2).total_cmp(&rel(x.1, x.2)).then(x.0.cmp(&y.0)));
    if moved.is_empty() {
        println!("no differing metrics: the two documents agree on every scalar");
        return Ok(());
    }
    const CAP: usize = 40;
    let mut t = Table::new(
        "Differing metrics (largest relative swing first)",
        &["metric", "A", "B", "delta"],
    );
    for (name, va, vb) in moved.iter().take(CAP) {
        t.row(&[name.clone(), format!("{va}"), format!("{vb}"), format!("{:+}", vb - va)]);
    }
    println!("{t}");
    if moved.len() > CAP {
        println!("... and {} more differing metrics", moved.len() - CAP);
    }
    Ok(())
}
