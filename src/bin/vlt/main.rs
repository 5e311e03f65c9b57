//! `vlt` — the command-line front end of the VLT reproduction.
//!
//! ```text
//! vlt as kernel.s --list                      # assemble (and list)
//! vlt run kernel.s --config v4-cmt -t 4       # simulate a program
//! vlt lint --strict examples/asm              # static verifier
//! vlt prof mpenc --config v2-cmp --threads 2  # profile a workload
//! vlt repro all                               # regenerate every record
//! ```
//!
//! Every subcommand reads its flags through one parser (`cli`), which
//! resolves the shared `--config --threads --clusters --scale` vocabulary
//! once. A bad command line exits 2; a failed run exits 1.

mod advise;
mod asm;
mod cli;
mod lint;
mod prof;
mod regress;
mod repro;
mod run;
mod src;

use std::process::ExitCode;

use cli::{Command, Error};

const USAGE: &str = "\
usage: vlt <command> [args...]      (vlt <command> --help for its options)

commands:
  as       assemble a VLT-ISA source file
  dis      disassemble a raw text segment
  run      assemble and simulate a program on a design point
  lint     static verifier and lint pass over .s files
  prof     profile a workload or program (trace, metrics, what-if, diff)
  advise   static VLTCFG partition advice for the workload suite
  regress  record or check the performance-regression baseline
  repro    regenerate a paper table or figure (or all of them)
  src      print an irregular kernel's generated assembly";

const COMMANDS: [Command; 9] = [
    asm::AS,
    asm::DIS,
    run::COMMAND,
    lint::COMMAND,
    prof::COMMAND,
    advise::COMMAND,
    regress::COMMAND,
    repro::COMMAND,
    src::COMMAND,
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    if sub == "-h" || sub == "--help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == sub) else {
        if !sub.is_empty() {
            eprintln!("vlt: unknown command `{sub}`\n");
        }
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = cli::parse(argv, cmd.flags).and_then(|args| {
        if args.help {
            println!("{}", cmd.usage);
            Ok(ExitCode::SUCCESS)
        } else {
            (cmd.main)(&args)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(Error::Usage(msg)) => {
            eprintln!("vlt {sub}: {msg}\n\n{}", cmd.usage);
            ExitCode::from(2)
        }
        Err(Error::Failed(msg)) => {
            eprintln!("vlt {sub}: {msg}");
            ExitCode::FAILURE
        }
    }
}
