//! One point-run: the workload's calls into the simulator, timed, then
//! checked.

use std::collections::BTreeMap;

use vlt_core::{CycleView, SimObserver, SimResult, System, SystemConfig};
use vlt_exec::{EngineMode, FuncSim};
use vlt_isa::Program;
use vlt_obs::{CpiObserver, MetricsObserver, Multi, PerfettoObserver};
use vlt_verify::dlp::{analyze, DlpOptions};

use crate::points::{Bench, Point, Source};
use crate::trace::Clock;

/// Simulated-cycle budget per run; every point finishes far below it.
const MAX_CYCLES: u64 = 2_000_000_000;
/// Functional-instruction budget per replay.
const MAX_INSTS: u64 = 2_000_000_000;

/// Exact simulated results of a point-run: what `expected.json` pins.
pub type Fields = BTreeMap<String, u64>;

/// The measured side of one point-run.
#[derive(Debug, Clone, Default)]
pub struct PointRun {
    /// Host seconds building the program (and the machine, when timed).
    pub setup_s: f64,
    /// Host seconds in the workload's calls after set-up.
    pub measured_s: f64,
    /// Host seconds in the simulation call (`System::run` or the
    /// functional replay) alone.
    pub sim_s: f64,
    /// Simulated instructions that call committed.
    pub insts: u64,
    /// Results checked against `expected.json`.
    pub fields: Fields,
    /// Counts only the traced pass gathers. Not pinned: the stepped-cycle
    /// count is the driver's business, not the simulated machine's.
    pub extra: BTreeMap<&'static str, f64>,
}

/// Counts simulated cycles the driver actually steps.
#[derive(Debug, Default)]
struct StepCounter(u64);

impl SimObserver for StepCounter {
    fn on_cycle(&mut self, _now: u64, _view: &CycleView<'_>) {
        self.0 += 1;
    }
}

type Golden<'p> = Box<dyn Fn(&FuncSim) -> Result<(), String> + 'p>;

/// Build the point's program, timing it as set-up.
fn build<'p>(p: &'p Point, clock: &mut Clock) -> Result<(Program, Golden<'p>, f64), String> {
    match &p.source {
        Source::Kernel { workload, clusters, scale } => {
            let (built, s) = clock
                .time("workloads.build", || workload.build_spread(p.threads, *clusters, *scale));
            Ok((built.program, built.verifier, s))
        }
        Source::Synth(synth) => {
            let (src, gen_s) = clock.time("workloads.build", || synth.source());
            let (prog, asm_s) = clock.time("isa.assemble", || vlt_isa::asm::assemble(&src));
            let prog = prog.map_err(|e| format!("assembly failed: {e}"))?;
            Ok((prog, Box::new(|sim: &FuncSim| synth.check(sim)), gen_s + asm_s))
        }
    }
}

/// Run `p` the way workload `bench` does. With a tracing clock this also
/// runs the probes the per-layer metrics need.
pub fn run_point(bench: Bench, p: &Point, clock: &mut Clock) -> Result<PointRun, String> {
    let (prog, golden, build_s) = build(p, clock)?;
    let mut run = PointRun { setup_s: build_s, ..PointRun::default() };
    match (bench, p.cfg.clone()) {
        (Bench::VltDense | Bench::SerialSkip, Some(cfg)) => {
            let (mut sys, new_s) =
                clock.time("core.new", || System::new(cfg.clone(), &prog, p.threads));
            let mut steps = StepCounter::default();
            let tracing = clock.tracing();
            let (res, run_s) = clock.time("core.run", || {
                if tracing {
                    sys.run_observed(MAX_CYCLES, &mut steps)
                } else {
                    sys.run(MAX_CYCLES)
                }
            });
            let res = res.map_err(|e| format!("simulation failed: {e}"))?;
            clock.time("workloads.golden", || golden(sys.funcsim())).0?;
            let (_, free_s) = clock.time("core.free", || drop(sys));
            run.setup_s += new_s;
            run.measured_s = run_s + free_s;
            finish_timed(&mut run, &res, run_s, &cfg, p.threads, steps.0)?;
        }
        (Bench::Profiled, Some(cfg)) => {
            let (mut sys, new_s) =
                clock.time("core.new", || System::new(cfg.clone(), &prog, p.threads));
            let (mut metrics, mut perfetto, mut cpi) =
                (MetricsObserver::new(), PerfettoObserver::new(), CpiObserver::new());
            let mut steps = StepCounter::default();
            let tracing = clock.tracing();
            let (res, run_s) = clock.time("obs.run", || {
                let mut multi = Multi::new().with(&mut metrics).with(&mut perfetto).with(&mut cpi);
                if tracing {
                    multi.push(&mut steps);
                }
                sys.run_observed(MAX_CYCLES, &mut multi)
            });
            let res = res.map_err(|e| format!("simulation failed: {e}"))?;
            clock.time("workloads.golden", || golden(sys.funcsim())).0?;
            clock
                .time("obs.check", || cpi.check_conservation())
                .0
                .map_err(|e| format!("CPI stack not conserving: {e}"))?;
            let ((metrics_doc, trace_doc), export_s) = clock.time("obs.export", || {
                let mut reg = metrics.into_registry();
                cpi.export_into(&mut reg);
                (reg.to_json(), perfetto.into_json())
            });
            let (valid, validate_s) = clock.time("obs.validate", || {
                vlt_stats::metrics::validate_metrics_json(&metrics_doc)
                    .map_err(|e| format!("metrics JSON invalid: {e}"))?;
                vlt_obs::perfetto::validate_chrome_trace(&trace_doc)
                    .map_err(|e| format!("trace JSON invalid: {e}"))
            });
            valid?;
            let events =
                trace_doc.get("traceEvents").and_then(|e| e.as_arr()).map_or(0, |e| e.len());
            // Freeing the documents is part of exporting them (the trace
            // tree runs to hundreds of MB on the longest points).
            let (_, docs_free_s) = clock.time("obs.free", || drop((metrics_doc, trace_doc)));
            let (_, free_s) = clock.time("core.free", || drop(sys));
            run.setup_s += new_s;
            run.measured_s = run_s + export_s + validate_s + docs_free_s + free_s;
            finish_timed(&mut run, &res, run_s, &cfg, p.threads, steps.0)?;
            run.fields.insert("obs.trace_events".into(), events as u64);
            if clock.tracing() {
                // The same point unobserved, for the observers' run-time cost.
                let (mut plain, _) = clock.probe("core.new", || System::new(cfg, &prog, p.threads));
                let (again, _) = clock.probe("core.run", || plain.run(MAX_CYCLES));
                clock.probe("core.free", || drop(plain));
                if again.as_ref() != Ok(&res) {
                    return Err("observed and unobserved runs differ".into());
                }
            }
        }
        (Bench::Analyze, None) => {
            let threads = p.threads;
            let (lint, lint_s) = clock.time("verify.lint", || vlt_verify::verify(&prog));
            let (races, races_s) =
                clock.time("verify.races", || vlt_verify::check_races(&prog, threads));
            let opts = DlpOptions { threads, ..DlpOptions::default() };
            let (dlp, dlp_s) = clock.time("verify.dlp", || analyze(&prog, &opts));
            let ((sim, summary), replay_s) =
                clock.time("exec.replay", || replay(&prog, threads, EngineMode::Block));
            let summary = summary?;
            clock.time("workloads.golden", || golden(&sim)).0?;
            let (_, free_s) = clock.time("exec.free", || drop(sim));
            run.measured_s = lint_s + races_s + dlp_s + replay_s + free_s;
            run.sim_s = replay_s;
            run.insts = summary.insts;
            let f = &mut run.fields;
            f.insert("verify.diags".into(), lint.diags.len() as u64);
            f.insert("races.diags".into(), races.diags.len() as u64);
            f.insert("dlp.exact".into(), u64::from(dlp.exact));
            f.insert("dlp.insts".into(), dlp.total.insts);
            f.insert("replay.insts".into(), summary.insts);
            f.insert("replay.vector_insts".into(), summary.vector_insts);
            f.insert("replay.elem_ops".into(), summary.elem_ops);
        }
        _ => unreachable!("timed workloads carry a machine, the analysis workload none"),
    }
    if clock.tracing() {
        probes(p, &prog, clock, &mut run, bench)?;
    }
    Ok(run)
}

fn replay(
    prog: &Program,
    threads: usize,
    engine: EngineMode,
) -> (FuncSim, Result<vlt_exec::RunSummary, String>) {
    let mut sim = FuncSim::new(prog, threads).with_engine(engine);
    let summary = sim.run_to_completion(MAX_INSTS).map_err(|e| format!("replay failed: {e}"));
    (sim, summary)
}

/// Checks and pinned fields shared by the timed workloads.
fn finish_timed(
    run: &mut PointRun,
    res: &SimResult,
    run_s: f64,
    cfg: &SystemConfig,
    threads: usize,
    stepped: u64,
) -> Result<(), String> {
    res.check_stall_conservation().map_err(|e| format!("stall accounting broken: {e}"))?;
    run.sim_s = run_s;
    run.insts = res.committed;
    run.fields = sim_fields(res);
    run.extra.insert("stepped", stepped as f64);
    // Units the driver ticks per stepped cycle, registered as `System::new`
    // registers them: scalar units, lane cores, vector units, network, memory.
    let components = cfg.cores.len()
        + if cfg.lane_threads { threads } else { 0 }
        + if cfg.has_vu { cfg.clusters } else { 0 }
        + usize::from(cfg.clusters > 1)
        + 1;
    run.extra.insert("components", components as f64);
    Ok(())
}

/// The calls the traced pass adds so every per-layer metric has a value on
/// every workload: the assembler on kernels whose source is public, and
/// standalone functional replays under both engines.
fn probes(
    p: &Point,
    prog: &Program,
    clock: &mut Clock,
    run: &mut PointRun,
    bench: Bench,
) -> Result<(), String> {
    run.extra.insert("text_words", prog.text.len() as f64);
    if let Source::Kernel { workload, clusters, scale } = &p.source {
        let (src, _) = clock.probe("workloads.source", || {
            vlt_workloads::irregular_source(workload.name(), p.threads, *clusters, *scale)
        });
        if let Some(src) = src {
            let (again, _) = clock.probe("isa.assemble", || vlt_isa::asm::assemble(&src));
            let again = again.map_err(|e| format!("assembly failed: {e}"))?;
            if again.text != prog.text || again.data != prog.data {
                return Err("irregular_source does not assemble to the built program".into());
            }
        }
    }
    let mut insts = None;
    if bench.timed() {
        let ((sim, summary), _) =
            clock.probe("exec.replay", || replay(prog, p.threads, EngineMode::Block));
        clock.probe("exec.free", || drop(sim));
        insts = Some(summary?.insts);
    }
    let ((sim, interp), _) =
        clock.probe("exec.interp", || replay(prog, p.threads, EngineMode::Interp));
    clock.probe("exec.free", || drop(sim));
    let interp = interp?.insts;
    let block = insts.unwrap_or(run.insts);
    if interp != block {
        return Err(format!("engines disagree: block {block} insts, interp {interp}"));
    }
    run.extra.insert("replay_insts", interp as f64);
    Ok(())
}

/// Flatten a timing result into its pinned fields.
fn sim_fields(r: &SimResult) -> Fields {
    let mut f = Fields::new();
    let mut put = |k: String, v: u64| {
        f.insert(k, v);
    };
    put("cycles".into(), r.cycles);
    put("committed".into(), r.committed);
    put("util.busy".into(), r.utilization.busy);
    put("util.partly_idle".into(), r.utilization.partly_idle);
    put("util.stalled".into(), r.utilization.stalled);
    put("util.all_idle".into(), r.utilization.all_idle);
    for (cause, n) in r.stalls().iter() {
        if n > 0 {
            put(format!("stalls.{}", cause.name()), n);
        }
    }
    for (region, n) in &r.region_cycles {
        put(format!("region.{region}"), *n);
    }
    let sum = |v: &[(u64, u64)]| v.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    for (name, caches) in [("l1i", &r.mem.l1i), ("l1d", &r.mem.l1d), ("lane_i", &r.mem.lane_i)] {
        let (hits, misses) = sum(caches);
        put(format!("mem.{name}.hits"), hits);
        put(format!("mem.{name}.misses"), misses);
    }
    put("mem.l2.accesses".into(), r.mem.l2.0);
    put("mem.l2.misses".into(), r.mem.l2.1);
    put("mem.l2.bank_conflicts".into(), r.mem.l2.2);
    if let Some(net) = &r.mem.net {
        put("mem.net.transfers".into(), net.transfers);
        put("mem.net.contended".into(), net.contended);
        put("mem.net.wait_cycles".into(), net.wait_cycles);
    }
    for (i, (busy, partly)) in r.lane_busy.iter().zip(&r.lane_partly).enumerate() {
        put(format!("lane{i}.busy"), *busy);
        put(format!("lane{i}.partly_idle"), *partly);
    }
    put("scalar.committed".into(), r.cores.iter().map(|c| c.committed).sum());
    put("scalar.issued".into(), r.cores.iter().map(|c| c.issued).sum());
    put("scalar.busy_cycles".into(), r.cores.iter().map(|c| c.busy_cycles).sum());
    put("scalar.lane_committed".into(), r.lanes.iter().map(|l| l.committed).sum());
    put("clamped_repartitions".into(), r.clamped_repartitions);
    f
}

/// Run `p` under the cycle-by-cycle oracle and the default driver, and
/// return the oracle's fields when both results agree and pass the golden
/// check.
pub fn oracle_fields(p: &Point) -> Result<Fields, String> {
    let (prog, golden, _) = build(p, &mut Clock::default())?;
    let cfg = p.cfg.clone().ok_or("the oracle needs a machine")?;
    let mut naive =
        System::new(cfg.clone(), &prog, p.threads).with_driver(vlt_core::DriverMode::CycleByCycle);
    let oracle = naive.run(MAX_CYCLES).map_err(|e| format!("oracle run failed: {e}"))?;
    golden(naive.funcsim())?;
    let event = System::new(cfg, &prog, p.threads).run(MAX_CYCLES);
    if event.as_ref() != Ok(&oracle) {
        return Err("event-driven result differs from the cycle-by-cycle oracle".into());
    }
    Ok(sim_fields(&oracle))
}
