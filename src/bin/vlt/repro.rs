//! `vlt repro`: regenerate one of the paper's tables or figures (or an
//! extension study) into `results/<id>.json`, or `all` of them.
//!
//! ```text
//! vlt repro fig3                # one record
//! vlt repro all --scale small   # every record, then check none is missing
//! ```

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use vlt_bench::experiments as ex;
use vlt_bench::{missing_result_files, results_dir, SuiteError, EXPECTED_RESULTS};
use vlt_stats::Table;
use vlt_workloads::characterize::Characterization;
use vlt_workloads::Scale;

use crate::cli::{Args, Command, Error, Flag, Result, Takes};

pub const COMMAND: Command = Command {
    name: "repro",
    usage: "usage: vlt repro <experiment|all> [--scale test|small|full]\n\n\
            experiments: table1 table2 table3 table4 table4_static table4_dynamic\n             \
            fig1 fig3 fig4 fig5 fig6 ext_lanes ext_chaining ext_cluster\n             \
            irregular_stalls ablations\n\
            all runs every experiment (default scale: small)",
    flags: &[Flag(&["--scale"], Takes::Value)],
    main: repro,
};

fn repro(args: &Args) -> Result<ExitCode> {
    let scale = args.scale.unwrap_or(Scale::Small);
    match args.single("experiment")? {
        "all" => all(scale),
        id => experiment(id, scale, &mut None).map(|()| ExitCode::SUCCESS),
    }
}

/// The measured Table-4 rows behind `table4` and `table4_dynamic`,
/// characterized on first use (9 functional replays and 9 timed runs).
fn table4_rows(rows: &mut Option<Vec<Characterization>>, scale: Scale) -> &[Characterization] {
    rows.get_or_insert_with(|| ex::table4_static::dynamic_rows(scale))
}

/// Run one experiment: print its table and write `results/<id>.json`. A
/// failed sweep or write exits 1 with the diagnostic. `rows` holds the
/// Table-4 rows once measured, so a run of both Table-4 records
/// characterizes the workloads once.
fn experiment(id: &str, scale: Scale, rows: &mut Option<Vec<Characterization>>) -> Result<()> {
    use ex::table4_static as t4s;
    let e = match id {
        "table1" => ex::table1::run(),
        "table2" => ex::table2::run(),
        "table3" => return print_and_write(&ex::table3::run(), id),
        "table4" => {
            let rows = table4_rows(rows, scale);
            println!("{}", ex::table4::render_full(rows));
            return written(ex::table4::run(rows).write_to(&results_dir()));
        }
        "table4_static" => return print_and_write(&t4s::static_table(&t4s::run(scale)), id),
        "table4_dynamic" => {
            return print_and_write(&t4s::dynamic_table(table4_rows(rows, scale)), id)
        }
        "fig1" => ex::fig1::run(scale)?,
        "fig3" => ex::fig3::run(scale)?,
        "fig4" => ex::fig4::run(scale)?,
        "fig5" => ex::fig5::run(scale)?,
        "fig6" => ex::fig6::run(scale)?,
        "ext_lanes" => ex::ext_lanes::run(scale)?,
        "ext_chaining" => ex::ext_chaining::run(scale)?,
        "ext_cluster" => ex::ext_cluster::run(scale)?,
        "irregular_stalls" => ex::irregular_stalls::run(scale)?,
        "ablations" => ex::ablations::run(scale)?,
        _ => return Err(Error::Usage(format!("unknown experiment `{id}`"))),
    };
    for t in ex::render(&e) {
        println!("{t}");
    }
    written(e.write_to(&results_dir()))
}

/// A failed sweep fails the command with the failing run's diagnostic.
impl From<SuiteError> for Error {
    fn from(e: SuiteError) -> Self {
        Error::Failed(e.to_string())
    }
}

/// Every expected record, then fail loudly if any is absent afterwards.
fn all(scale: Scale) -> Result<ExitCode> {
    let mut rows = None;
    for id in EXPECTED_RESULTS {
        experiment(id, scale, &mut rows)?;
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

/// Print `t`, then write it as `results/<id>.json`.
pub fn print_and_write(t: &Table, id: &str) -> Result<()> {
    println!("{t}");
    write_table(t, id)
}

/// Write `t` as `results/<id>.json`.
pub fn write_table(t: &Table, id: &str) -> Result<()> {
    written(t.write_to(&results_dir(), id))
}

/// Report where a record was written. A record that cannot be written
/// fails the command (exit 1): a stale committed copy would otherwise pass
/// CI's `git diff --exit-code results/`.
fn written(r: io::Result<PathBuf>) -> Result<()> {
    let path = r.map_err(|e| Error::Failed(format!("could not write results JSON: {e}")))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_that_cannot_be_written_fails_the_command() {
        let file = std::env::temp_dir().join(format!("vlt-repro-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "a regular file, not a directory").unwrap();
        let outcome = written(Table::new("t", &["a"]).write_to(&file, "t"));
        std::fs::remove_file(&file).unwrap();
        assert!(matches!(outcome, Err(Error::Failed(_))));
    }
}
