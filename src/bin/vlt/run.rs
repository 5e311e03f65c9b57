//! `vlt run`: assemble and simulate a program on any design point.
//!
//! ```text
//! vlt run program.s                          # base 8-lane, 1 thread
//! vlt run program.s --config v2-cmp -t 2     # 2 VLT threads
//! vlt run program.s --config v4-cmt-lanes -t 8
//! vlt run program.s --lanes 4                # base with 4 lanes
//! vlt run program.s --functional             # no timing model
//! ```
//!
//! Prints cycles, instructions, IPC, datapath utilization, and region
//! attribution.

use std::process::ExitCode;

use vlt_bench::harness::MAX_CYCLES;
use vlt_core::{System, SystemConfig};
use vlt_exec::FuncSim;

use crate::cli::{self, Args, Command, Error, Flag, Result, Takes};

pub const COMMAND: Command = Command {
    name: "run",
    usage: "usage: vlt run <program.s> [--config NAME] [--threads N] [--lanes N] \
            [--functional] [--max-cycles N]\n\n  \
            -c, --config NAME  design point (default: base): base, v2-smt, v2-cmp,\n                     \
            v2-cmp-h, v4-smt, v4-cmt, v4-cmp, v4-cmp-h, cmt, v4-cmt-lanes,\n                     \
            v8-2x8, v8-4x8, v8-8x8\n  \
            -t, --threads N    software threads (default: 1)\n  \
            --lanes N          the base processor with N lanes\n  \
            -f, --functional   functional simulation only (no timing model)\n  \
            --max-cycles N     cycle budget (default: 2000000000)",
    flags: &[
        Flag(&["--config", "-c"], Takes::Value),
        Flag(&["--threads", "-t"], Takes::Value),
        Flag(&["--lanes"], Takes::Value),
        Flag(&["--max-cycles"], Takes::Value),
        Flag(&["--functional", "-f"], Takes::Nothing),
    ],
    main: run,
};

fn run(args: &Args) -> Result<ExitCode> {
    let input = args.single("program")?;
    let threads = args.threads.unwrap_or(1);
    let max_cycles = args.parsed("--max-cycles")?.unwrap_or(MAX_CYCLES);
    let cfg = match (args.config.clone(), args.positive("--lanes")?) {
        (Some(cfg), Some(_)) if cfg.name != "base" => {
            let msg = format!("--lanes sets the base processor's lanes, not {}'s", cfg.name);
            return Err(Error::Usage(msg));
        }
        (_, Some(lanes)) => SystemConfig::base(lanes),
        (cfg, None) => cfg.unwrap_or_else(|| SystemConfig::base(8)),
    };
    let functional = args.has("--functional");
    // A functional run models no machine, so only the functional
    // simulator's thread limit applies; a timed one must fit its threads
    // into the config's contexts.
    let cfg = if functional {
        cli::check_threads("functional simulation", threads).map_err(Error::Usage)?;
        cfg
    } else {
        cli::machine(cfg, 1, threads)?
    };
    let prog = cli::load(input)?;

    if functional {
        let mut sim = FuncSim::new(&prog, threads);
        let s = sim.run_to_completion(max_cycles).map_err(|e| Error::Failed(e.to_string()))?;
        println!("functional: {} instructions across {threads} thread(s)", s.insts);
        println!(
            "vectorization: {:.1}% of operations, avg VL {:.1}",
            s.pct_vectorization(),
            s.avg_vl()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let name = cfg.name.clone();
    let mut system = System::new(cfg, &prog, threads);
    let r = system.run(max_cycles).map_err(|e| Error::Failed(e.to_string()))?;
    println!("config {name}, {threads} thread(s):");
    println!("  cycles      : {}", r.cycles);
    println!("  instructions: {}", r.committed);
    println!("  IPC         : {:.2}", r.committed as f64 / r.cycles as f64);
    let u = r.utilization;
    if u.total() > 0 {
        println!(
            "  datapaths   : {:.1}% busy, {:.1}% partly idle, {:.1}% stalled, {:.1}% idle",
            100.0 * u.busy as f64 / u.total() as f64,
            100.0 * u.partly_idle as f64 / u.total() as f64,
            100.0 * u.stalled as f64 / u.total() as f64,
            100.0 * u.all_idle as f64 / u.total() as f64
        );
    }
    for (region, cycles) in &r.region_cycles {
        println!("  region {region}    : {cycles} cycles");
    }
    Ok(ExitCode::SUCCESS)
}
