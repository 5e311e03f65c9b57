//! Ablations (DESIGN.md §4): the design choices the paper argues for, each
//! swept around its design point and recorded in simulated cycles.
//!
//! * The front-end redirect penalty, this reproduction's stand-in for
//!   wrong-path execution (DESIGN.md §7): radix x1 on base-8.
//! * The issue width of the multiplexed VCL that every VLT thread shares
//!   (§3.2): trfd x4 on V4-CMP, bracketing the 2-way design point.
//! * The L2 bank count, which bounds how many vector element streams
//!   proceed at once: sage x1 on base-8.
//! * The lane-core issue width in VLT scalar-thread mode, where each lane
//!   is a 2-way in-order core (§5): ocean x8.
//!
//! The first three set existing `SystemConfig` fields and run through the
//! suite harness. `SystemConfig` has no lane-core knob, so the last sweep
//! drives eight `InOrderCore`s over one memory system directly.

use std::sync::Arc;

use vlt_core::{SimError, SystemConfig};
use vlt_exec::{ExecError, FuncSim, Step};
use vlt_mem::{MemConfig, MemSystem};
use vlt_scalar::{FetchResult, FetchSource, InOrderCore, LaneCoreConfig};
use vlt_stats::{Experiment, Series};
use vlt_workloads::{workload, Scale};

use crate::harness::{run_suite_parallel, RunSpec, SuiteError, MAX_CYCLES};

/// Run the four sweeps: one series of simulated cycles each, under its own
/// x axis.
pub fn run(scale: Scale) -> Result<Experiment, SuiteError> {
    let penalty = |p: u64| {
        let mut cfg = SystemConfig::base(8);
        cfg.cores[0].mispredict_penalty = p;
        (format!("penalty {p}"), cfg)
    };
    let issue = |w: usize| {
        let mut cfg = SystemConfig::v4_cmp();
        cfg.vcl.issue_width = w;
        (format!("VCL issue {w}"), cfg)
    };
    let banks = |b: usize| {
        let mut cfg = SystemConfig::base(8);
        cfg.mem.l2_banks = b;
        (format!("{b} L2 banks"), cfg)
    };
    let sweeps = [
        ("radix x1, base-8", "radix", 1, Vec::from([5, 10, 20].map(penalty))),
        ("trfd x4, V4-CMP", "trfd", 4, Vec::from([1, 2, 4].map(issue))),
        ("sage x1, base-8", "sage", 1, Vec::from([4, 16].map(banks))),
    ];
    let specs = sweeps
        .iter()
        .flat_map(|(_, name, threads, points)| {
            let w = workload(name).expect("a suite workload");
            points.iter().map(move |(_, config)| RunSpec {
                workload: w,
                config: config.clone(),
                threads: *threads,
                scale,
            })
        })
        .collect();
    let mut cycles = run_suite_parallel(specs)?.into_iter().map(|r| r.cycles as f64);

    let mut e = Experiment::new(
        "ablations",
        "Ablations: redirect penalty, VCL issue width, L2 banks, lane-core width",
        "simulated cycles",
    );
    for (label, _, _, points) in &sweeps {
        let x: Vec<String> = points.iter().map(|(x, _)| x.clone()).collect();
        e.push(Series::new(*label, &x, cycles.by_ref().take(x.len()).collect()));
    }
    let x = ["1-way lanes".to_string(), "2-way lanes".to_string()];
    let lanes = vec![lane_cycles(1, scale)? as f64, lane_cycles(2, scale)? as f64];
    e.push(Series::new("ocean x8, lane cores", &x, lanes));
    Ok(e)
}

/// Feeds each lane core its thread's instructions straight from the
/// functional simulator.
struct Lanes(FuncSim);

impl FetchSource for Lanes {
    fn fetch(&mut self, t: usize) -> Result<FetchResult, ExecError> {
        Ok(match self.0.step_thread(t)? {
            Step::Inst(d) => FetchResult::Inst(d),
            Step::AtBarrier => FetchResult::AtBarrier,
            Step::Halted => FetchResult::Halted,
        })
    }
}

/// Cycles for ocean x8 with one `width`-way in-order core per thread, all
/// on one default memory system, verified like every suite run.
fn lane_cycles(width: usize, scale: Scale) -> Result<u64, SuiteError> {
    const THREADS: usize = 8;
    let built = workload("ocean").expect("a suite workload").build(THREADS, scale);
    let run = format!("ocean on {width}-way lane cores x{THREADS}");
    let mut src = Lanes(FuncSim::new(&built.program, THREADS));
    let cfg = LaneCoreConfig { width, ..LaneCoreConfig::default() };
    let mut cores: Vec<InOrderCore> =
        (0..THREADS).map(|t| InOrderCore::new(cfg, t, 0, t, Arc::clone(&src.0.prog))).collect();
    let mut mem = MemSystem::new(MemConfig::default(), 2, THREADS);
    let mut now = 0;
    while !cores.iter().all(InOrderCore::done) {
        if now == MAX_CYCLES {
            return Err(SuiteError::Sim { run, source: SimError::Timeout { cycles: now } });
        }
        for core in &mut cores {
            let ticked = core.tick(now, &mut mem, &mut src);
            ticked.map_err(|e| SuiteError::Sim { run: run.clone(), source: e.into() })?;
        }
        now += 1;
    }
    (built.verifier)(&src.0).map_err(|message| SuiteError::Verify { run, message })?;
    Ok(now)
}
