//! `vlt as` and `vlt dis`: the assembler and the disassembler.
//!
//! ```text
//! vlt as program.s            # assemble, report sizes
//! vlt as program.s -o out.bin # also write the raw text segment
//! vlt as program.s --list     # print the encoded listing
//! vlt dis out.bin             # disassemble raw 32-bit words
//! ```

use std::process::ExitCode;

use vlt_isa::disasm::disasm_text;
use vlt_isa::TEXT_BASE;

use crate::cli::{self, Args, Command, Error, Flag, Result, Takes};

pub const AS: Command = Command {
    name: "as",
    usage: "usage: vlt as <program.s> [-o out.bin] [--list]\n\n  \
            -o out.bin  also write the raw text segment (little-endian words)\n  \
            --list      print the encoded listing",
    flags: &[Flag(&["-o"], Takes::Value), Flag(&["--list"], Takes::Nothing)],
    main: assemble,
};

pub const DIS: Command = Command {
    name: "dis",
    usage: "usage: vlt dis <text.bin>\n\n\
            disassembles a raw text segment as written by `vlt as -o`\n\
            (`vlt as program.s --list` lists a source file)",
    flags: &[],
    main: disassemble,
};

fn assemble(args: &Args) -> Result<ExitCode> {
    let input = args.single("program")?;
    let prog = cli::load(input)?;
    println!(
        "{input}: {} instructions, {} data bytes, {} symbols",
        prog.text.len(),
        prog.data.len(),
        prog.symbols.len()
    );
    if args.has("--list") {
        print!("{}", disasm_text(&prog.text, TEXT_BASE));
    }
    if let Some(out) = args.value("-o") {
        let bytes: Vec<u8> = prog.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(out, bytes)
            .map_err(|e| Error::Failed(format!("cannot write {out}: {e}")))?;
        println!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn disassemble(args: &Args) -> Result<ExitCode> {
    let input = args.single("text segment")?;
    let bytes =
        std::fs::read(input).map_err(|e| Error::Failed(format!("cannot read {input}: {e}")))?;
    if bytes.len() % 4 != 0 {
        return Err(Error::Failed(format!("{input}: length is not a multiple of 4")));
    }
    let text: Vec<u32> =
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    print!("{}", disasm_text(&text, TEXT_BASE));
    Ok(ExitCode::SUCCESS)
}
