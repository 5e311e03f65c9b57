//! `vlt repro`: regenerate one of the paper's tables or figures (or an
//! extension study) into `results/<id>.json`, or `all` of them.
//!
//! ```text
//! vlt repro fig3                # one record
//! vlt repro all --scale small   # every record, then check none is missing
//! ```

use std::process::ExitCode;

use vlt_bench::experiments as ex;
use vlt_bench::{missing_result_files, results_dir, EXPECTED_RESULTS};
use vlt_stats::Table;
use vlt_workloads::Scale;

use crate::cli::{Args, Command, Error, Flag, Result, Takes};

pub const COMMAND: Command = Command {
    name: "repro",
    usage: "usage: vlt repro <experiment|all> [--scale test|small|full]\n\n\
            experiments: table1 table2 table3 table4 table4_static table4_dynamic\n             \
            fig1 fig3 fig4 fig5 fig6 ext_lanes ext_chaining ext_cluster\n             \
            irregular_stalls\n\
            all runs every experiment (default scale: small)",
    flags: &[Flag(&["--scale"], Takes::Value)],
    main: repro,
};

fn repro(args: &Args) -> Result<ExitCode> {
    let scale = args.scale.unwrap_or(Scale::Small);
    match args.single("experiment")? {
        "all" => all(scale),
        id => experiment(id, scale).map(|()| ExitCode::SUCCESS),
    }
}

/// Run one experiment: print its table and write `results/<id>.json`. A
/// failed sweep exits 1 with the failing run's diagnostic.
fn experiment(id: &str, scale: Scale) -> Result<()> {
    use ex::table4_static as t4s;
    match id {
        "table1" => ex::emit(&ex::table1::run()),
        "table2" => ex::emit(&ex::table2::run()),
        "table3" => {
            let t = ex::table3::run();
            println!("{t}");
            let p = t
                .write_to(&results_dir(), "table3")
                .map_err(|e| Error::Failed(format!("could not write results JSON: {e}")))?;
            println!("wrote {}", p.display());
        }
        "table4" => {
            println!("{}", ex::table4::render_full(scale));
            match ex::table4::run(scale).write_to(&results_dir()) {
                Ok(p) => println!("wrote {}", p.display()),
                Err(err) => eprintln!("could not write results JSON: {err}"),
            }
        }
        "table4_static" => print_and_write(&t4s::static_table(&t4s::run(scale)), id),
        "table4_dynamic" => print_and_write(&t4s::dynamic_table(&t4s::dynamic_rows(scale)), id),
        "fig1" => ex::emit_result(ex::fig1::run(scale)),
        "fig3" => ex::emit_result(ex::fig3::run(scale)),
        "fig4" => ex::emit_result(ex::fig4::run(scale)),
        "fig5" => ex::emit_result(ex::fig5::run(scale)),
        "fig6" => ex::emit_result(ex::fig6::run(scale)),
        "ext_lanes" => ex::emit_result(ex::ext_lanes::run(scale)),
        "ext_chaining" => ex::emit_result(ex::ext_chaining::run(scale)),
        "ext_cluster" => ex::emit_result(ex::ext_cluster::run(scale)),
        "irregular_stalls" => ex::emit_result(ex::irregular_stalls::run(scale)),
        _ => return Err(Error::Usage(format!("unknown experiment `{id}`"))),
    }
    Ok(())
}

/// Every expected record, then fail loudly if any is absent afterwards.
fn all(scale: Scale) -> Result<ExitCode> {
    for id in EXPECTED_RESULTS {
        experiment(id, scale)?;
    }
    let results = results_dir();
    let missing = missing_result_files(&results);
    if !missing.is_empty() {
        return Err(Error::Failed(format!(
            "suite incomplete: {} is missing expected result files: {}",
            results.display(),
            missing.join(", ")
        )));
    }
    Ok(ExitCode::SUCCESS)
}

/// Print `t`, then write it as `results/<name>.json`.
pub fn print_and_write(t: &Table, name: &str) {
    println!("{t}");
    write_table(t, name);
}

/// Write `t` as `results/<name>.json`, reporting (not failing on) errors.
pub fn write_table(t: &Table, name: &str) {
    match t.write_to(&results_dir(), name) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(err) => eprintln!("could not write results JSON: {err}"),
    }
}
