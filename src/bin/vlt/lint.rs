//! `vlt lint`: the static verifier and lint driver for VLT assembly files.
//!
//! ```text
//! vlt lint [OPTIONS] <PATH>...
//!
//! Paths may be `.s` files or directories (scanned recursively for `.s`).
//!
//! Options:
//!   --strict          exit nonzero on warnings, not just errors
//!   --json            print machine-readable diagnostics (one
//!                     `vlint-report` object per file inside a top-level
//!                     `{"schema": "vlint", "version": 1, "files": [...]}`
//!                     document; see `vlt_verify::json` for the schema)
//!   --allow <code>    suppress a lint code (repeatable)
//!   --races[=N]       also run the barrier-epoch race analysis at N
//!                     threads (default: the program's `vlint.threads`
//!                     symbol, else 2)
//!   --dlp[=N]         also run the static DLP analysis at N threads
//!                     (default 1): prints the predicted Table-4 profile
//!                     and VLTCFG partition advice, and surfaces the
//!                     analyzer's diagnostics (`dlp-*` codes)
//!   --list-codes      print every lint code with severity and description
//!   -q, --quiet       print nothing for clean files
//! ```
//!
//! Both analyses walk every thread on the functional simulator's
//! interpreter, so a thread count (`N`, or `vlint.threads`) must be in
//! `1..=64`, the count `vlt run --functional` accepts. An out-of-range `N`
//! is a usage error; an out-of-range `vlint.threads` is reported against
//! its file, exit 2.
//!
//! Exit status: 0 when every file is clean, 1 when any file has an
//! error-severity finding (or any finding under `--strict`), 2 on usage,
//! I/O, or internal analysis problems.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vlt_verify::dlp::{advise, dlp_report, DlpOptions};
use vlt_verify::json::{vlint_output_to_json, FileOutcome};
use vlt_verify::{check_races_with, verify_with, Code, Options};

use crate::cli::{self, Args, Command, Error, Flag, LoadError, Result, Takes};

pub const COMMAND: Command = Command {
    name: "lint",
    usage: "usage: vlt lint [--strict] [--json] [--allow <code>] [--races[=N]] [--dlp[=N]] \
            [--list-codes] [-q|--quiet] <path>...\n\
            checks .s files (directories are scanned recursively)",
    flags: &[
        Flag(&["--strict"], Takes::Nothing),
        Flag(&["--json"], Takes::Nothing),
        Flag(&["--allow"], Takes::Value),
        Flag(&["--races"], Takes::Attached),
        Flag(&["--dlp"], Takes::Attached),
        Flag(&["--list-codes"], Takes::Nothing),
        Flag(&["--quiet", "-q"], Takes::Nothing),
    ],
    main: lint,
};

/// Collect `.s` files under `path` (recursively for directories).
fn collect(path: &Path, out: &mut Vec<PathBuf>) -> std::result::Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            if e.is_dir() || e.extension().is_some_and(|x| x == "s") {
                collect(&e, out)?;
            }
        }
    } else {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// An I/O or internal problem: reported, exit 2 (findings exit 1).
fn trouble(msg: impl std::fmt::Display) -> Result<ExitCode> {
    eprintln!("vlt lint: {msg}");
    Ok(ExitCode::from(2))
}

fn lint(args: &Args) -> Result<ExitCode> {
    if args.has("--list-codes") {
        for &c in Code::ALL {
            println!("{:7} {:22} {}", c.severity().to_string(), c.name(), c.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let (strict, json, quiet) = (args.has("--strict"), args.has("--json"), args.has("--quiet"));
    let mut opts = Options::default();
    for v in args.values("--allow") {
        let code =
            Code::from_name(v).ok_or_else(|| Error::Usage(format!("unknown lint code `{v}`")))?;
        opts.allow.insert(code);
    }
    // `Some(None)`: the flag without a count; `Some(Some(n))`: `--flag=n`.
    let count = |flag| -> Result<Option<Option<usize>>> {
        if !args.has(flag) {
            return Ok(None);
        }
        let n = args.positive(flag)?;
        Ok(Some(n.map(|n| cli::check_threads(flag, n)).transpose().map_err(Error::Usage)?))
    };
    let (races, dlp) = (count("--races")?, count("--dlp")?);
    if args.positional.is_empty() {
        return Err(Error::Usage("no input paths".into()));
    }

    let mut files = Vec::new();
    for p in &args.positional {
        if let Err(e) = collect(Path::new(p), &mut files) {
            return trouble(e);
        }
    }
    if files.is_empty() {
        return trouble("no .s files found under the given paths");
    }

    let mut failed = false;
    let mut json_files = Vec::new();
    for f in &files {
        let path = f.display().to_string();
        let prog = match cli::load(&path) {
            Ok(p) => p,
            Err(LoadError::Read(msg)) => return trouble(msg),
            Err(LoadError::Assemble { msg, .. }) => {
                if json {
                    json_files.push((path, FileOutcome::AssemblyError(msg)));
                } else {
                    println!("{path}: assembly error: {msg}");
                }
                failed = true;
                continue;
            }
        };
        let opts = opts.clone().with_program_allows(&prog);
        let race_threads = races
            .map(|n| n.or_else(|| prog.symbol("vlint.threads").map(|v| v as usize)).unwrap_or(2));
        if let Some(Err(msg)) = race_threads.map(|n| cli::check_threads("vlint.threads", n)) {
            return trouble(format!("{path}: {msg}"));
        }
        // A panic inside the analyses is an internal error, not a finding:
        // report it and exit 2 so CI can tell "program has races" (1) from
        // "the checker itself fell over" (2).
        let analysis = std::panic::catch_unwind(|| {
            let mut report = verify_with(&prog, &opts);
            if let Some(threads) = race_threads {
                let races = check_races_with(&prog, threads, &opts);
                report.diags.extend(races.diags);
                report.suppressed += races.suppressed;
            }
            let dlp = dlp.map(|n| {
                let threads = n.unwrap_or(1);
                let (profile, diags) =
                    dlp_report(&prog, &DlpOptions { threads, ..DlpOptions::default() });
                for d in diags {
                    if opts.allow.contains(&d.code) {
                        report.suppressed += 1;
                    } else {
                        report.diags.push(d);
                    }
                }
                profile
            });
            (report, dlp)
        });
        let Ok((report, dlp_profile)) = analysis else {
            return trouble(format!("{path}: internal error in analysis (this is a vlint bug)"));
        };
        failed |= report.errors() > 0 || (strict && report.warnings() > 0);
        if json {
            json_files.push((path, FileOutcome::Report(report)));
            continue;
        }
        if report.diags.is_empty() && report.suppressed == 0 && dlp_profile.is_none() {
            if !quiet {
                println!("{path}: clean");
            }
            continue;
        }
        println!("{path}:");
        if let Some(p) = &dlp_profile {
            let t = &p.total;
            println!(
                "  dlp: {} | {} insts, {} epochs | {:.1}% vectorized, avg VL {:.1}, common VLs {:?}",
                if p.exact { "exact" } else { "inexact (partial lower bound)" },
                t.insts,
                p.epochs,
                t.pct_vectorization(),
                t.avg_vl(),
                t.common_vls(4),
            );
            let a = advise(p);
            for r in &a.regions {
                if r.region == 0 {
                    continue;
                }
                println!(
                    "  dlp: region {}: {:?}, {:.1}% vectorized, avg VL {:.1}, best {} thread(s)",
                    r.region, r.opportunity, r.pct_vectorization, r.avg_vl, r.best_threads,
                );
            }
            println!(
                "  dlp: advice: {} thread(s) x MVL {} (est. {:.2}x over serial, {:.1}% opportunity)",
                a.best.threads, a.best.mvl, a.best.speedup, a.opportunity_pct,
            );
        }
        for d in &report.diags {
            println!("  {d}");
        }
        println!(
            "  {} error(s), {} warning(s){}",
            report.errors(),
            report.warnings(),
            if report.suppressed > 0 {
                format!(", {} suppressed", report.suppressed)
            } else {
                String::new()
            }
        );
    }
    if json {
        println!("{}", vlint_output_to_json(&json_files));
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
