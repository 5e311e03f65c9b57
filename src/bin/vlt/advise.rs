//! `vlt advise`: the static VLTCFG partition advisor over the workload
//! suite.
//!
//! ```text
//! vlt advise [--validate] [--scale test|small|full]
//! ```
//!
//! Runs the static DLP analyzer on every suite kernel (single-threaded
//! build, matching how `table4` characterizes them), prints the predicted
//! Table-4 profile with the advisor's recommended partition per workload
//! and per region, and writes `results/table4_static.json` (vlt-table v1).
//! The irregular kernel mix (SpMV, histogram, hash-join probe, multi-sweep
//! stencil) gets the same treatment as a second table, written to
//! `results/irregular_static.json`.
//!
//! With `--validate`, also measures the dynamic characterization, writes
//! `results/table4_dynamic.json` and `results/irregular_dynamic.json`, and
//! cross-checks static against dynamic exactly (every walk exact, and its
//! total equal to the replay's `RunSummary` field for field) — exiting 1
//! on any mismatch, so CI can gate releases on the analyzer staying
//! honest.

use std::process::ExitCode;

use vlt_bench::experiments::table4_static as ex;
use vlt_stats::Table;
use vlt_workloads::Scale;

use crate::cli::{Args, Command, Flag, Result, Takes};
use crate::repro::{print_and_write, write_table};

pub const COMMAND: Command = Command {
    name: "advise",
    usage: "usage: vlt advise [--validate] [--scale test|small|full]\n\n  \
            --validate  also measure the dynamic characterization and cross-check it\n  \
            --scale S   workload problem size (default: small)",
    flags: &[Flag(&["--validate"], Takes::Nothing), Flag(&["--scale"], Takes::Value)],
    main: advise,
};

fn advise(args: &Args) -> Result<ExitCode> {
    let scale = args.scale.unwrap_or(Scale::Small);

    let rows = ex::run(scale);
    print_static(&ex::static_table(&rows), &rows, "table4_static")?;

    let irr = ex::run_irregular(scale);
    println!();
    print_static(&ex::irregular_static_table(&irr), &irr, "irregular_static")?;

    if !args.has("--validate") {
        return Ok(ExitCode::SUCCESS);
    }

    println!("\nvalidating against the dynamic characterization...");
    let mut errs = Vec::new();
    let dyn_rows = ex::dynamic_rows(scale);
    print_and_write(&ex::dynamic_table(&dyn_rows), "table4_dynamic")?;
    errs.extend(ex::validate(&rows, &dyn_rows));

    let irr_dyn = ex::dynamic_rows_irregular(scale);
    print_and_write(&ex::dynamic_table(&irr_dyn), "irregular_dynamic")?;
    errs.extend(ex::validate(&irr, &irr_dyn));

    if !errs.is_empty() {
        for e in &errs {
            eprintln!("vlt advise: MISMATCH: {e}");
        }
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "static analysis validated against dynamic runs for all {} kernels",
        rows.len() + irr.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn print_static(t: &Table, rows: &[ex::StaticRow], name: &str) -> Result<()> {
    println!("{t}");
    for r in rows {
        let a = &r.advice;
        for reg in &a.regions {
            if reg.region == 0 {
                continue;
            }
            println!(
                "{}: region {}: {:?}, {:.1}% vectorized, avg VL {:.1}, best {} thread(s)",
                r.name,
                reg.region,
                reg.opportunity,
                reg.pct_vectorization,
                reg.avg_vl,
                reg.best_threads,
            );
        }
        let ranked: Vec<String> = a
            .ranking
            .iter()
            .map(|s| format!("{}x{} ({:.2}x)", s.threads, s.mvl, s.speedup))
            .collect();
        println!("{}: ranking: {}", r.name, ranked.join(" > "));
    }
    write_table(t, name)
}
