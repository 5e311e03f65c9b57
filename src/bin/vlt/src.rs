//! `vlt src`: regenerate an irregular kernel's assembly source.
//!
//! The irregular kernels are generated programs (their `.data` sections
//! embed the golden input sets), so there is no checked-in `.s` file for
//! `vlt lint` to read. This prints the exact source a workload build
//! assembles, which is how CI runs the strict lint over the suite:
//!
//! ```text
//! vlt src spmv --threads 4 > spmv.s && vlt lint --strict --races --dlp spmv.s
//! ```

use std::process::ExitCode;

use vlt_workloads::{irregular_source, irregular_suite, Scale};

use crate::cli::{self, Args, Command, Error, Flag, Result, Takes};

pub const COMMAND: Command = Command {
    name: "src",
    usage: "usage: vlt src <name> [--threads N] [--clusters N] [--scale test|small|full]\n       \
            vlt src --list\n\n\
            defaults: 2 threads, 1 cluster, test scale",
    flags: &[
        Flag(&["--threads"], Takes::Value),
        Flag(&["--clusters"], Takes::Value),
        Flag(&["--scale"], Takes::Value),
        Flag(&["--list"], Takes::Nothing),
    ],
    main: src,
};

fn src(args: &Args) -> Result<ExitCode> {
    if args.has("--list") {
        for w in irregular_suite() {
            println!("{}", w.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let name = args.single("kernel name")?;
    let (threads, clusters) = (args.threads.unwrap_or(2), args.clusters.unwrap_or(1));
    cli::check_spread(threads, clusters)?;
    let src = irregular_source(name, threads, clusters, args.scale.unwrap_or(Scale::Test))
        .ok_or_else(|| {
            let known: Vec<&str> = irregular_suite().iter().map(|w| w.name()).collect();
            Error::Usage(format!("unknown kernel `{name}` (known: {})", known.join(", ")))
        })?;
    print!("{src}");
    Ok(ExitCode::SUCCESS)
}
