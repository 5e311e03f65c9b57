//! A two-pass assembler for the VLT ISA.
//!
//! Pass 1 parses every line, expands pseudo-instructions, lays out the data
//! segment, and assigns label addresses. Pass 2 resolves label fixups
//! (PC-relative branch/jump offsets and `%hi`/`%lo`-style address halves for
//! `la`) and encodes the final 32-bit words.
//!
//! ## Syntax
//!
//! * Comments: `#` or `//` to end of line.
//! * Sections: `.text` (default) and `.data`.
//! * Labels: `name:` — may share a line with a statement.
//! * Constants: `.eq NAME, expr` — must be defined before use.
//! * Data: `.dword`, `.word`, `.byte`, `.double`, `.zero`/`.space`, `.align`.
//! * Masked vector ops take a trailing `, vm` operand: `vadd.vv v1, v2, v3, vm`.
//! * Pseudo-instructions: `li`, `la`, `mv`, `neg`, `beqz`, `bnez`, `ble`,
//!   `bgt`, `call`, `ret`.

mod expr;
mod pseudo;

use std::collections::HashMap;

use crate::encode::encode;
use crate::error::IsaError;
use crate::inst::Inst;
use crate::opcode::{Op, OperandSig};
use crate::program::{Program, DATA_BASE, TEXT_BASE};

pub use expr::eval;

/// How an instruction's immediate gets patched in pass 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fixup {
    /// PC-relative word offset to a label (branches and jumps).
    Rel(String),
    /// High 19 bits of a symbol address: `addr >> 13` (arithmetic).
    Hi(String),
    /// Low 13 bits of a symbol address: `addr & 0x1fff`.
    Lo(String),
}

/// A pass-1 instruction awaiting encoding.
#[derive(Debug, Clone)]
struct Pending {
    line: usize,
    inst: Inst,
    fixup: Option<Fixup>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Assemble source text into a [`Program`].
pub fn assemble(src: &str) -> Result<Program, IsaError> {
    Assembler::default().run(src)
}

#[derive(Default)]
struct Assembler {
    consts: HashMap<String, i64>,
    symbols: HashMap<String, u64>,
    pending: Vec<Pending>,
    data: Vec<u8>,
    section: Option<Section>,
}

impl Assembler {
    fn run(mut self, src: &str) -> Result<Program, IsaError> {
        // Pass 1: parse, expand, lay out.
        for (i, raw) in src.lines().enumerate() {
            let line = i + 1;
            let stripped = strip_comment(raw).trim();
            if stripped.is_empty() {
                continue;
            }
            self.statement(stripped, line)?;
        }

        // Pass 2: resolve fixups and encode.
        let mut text = Vec::with_capacity(self.pending.len());
        for (idx, p) in self.pending.iter().enumerate() {
            let mut inst = p.inst;
            if let Some(fix) = &p.fixup {
                let name = match fix {
                    Fixup::Rel(n) | Fixup::Hi(n) | Fixup::Lo(n) => n,
                };
                let addr = *self
                    .symbols
                    .get(name)
                    .ok_or_else(|| IsaError::asm(p.line, format!("undefined label `{name}`")))?;
                inst.imm = match fix {
                    Fixup::Rel(_) => {
                        let pc = TEXT_BASE + 4 * idx as u64;
                        ((addr as i64 - pc as i64) / 4) as i32
                    }
                    Fixup::Hi(_) => ((addr as i64) >> 13) as i32,
                    Fixup::Lo(_) => (addr & 0x1FFF) as i32,
                };
            }
            text.push(encode(&inst).map_err(|e| match e {
                IsaError::ImmOutOfRange { op, imm, bits } => IsaError::asm(
                    p.line,
                    format!("immediate {imm} out of range for `{op}` ({bits} bits)"),
                ),
                other => other,
            })?);
        }

        let mut symbols = self.symbols;
        for (k, v) in &self.consts {
            symbols.entry(k.clone()).or_insert(*v as u64);
        }
        Ok(Program { text, data: self.data, symbols, entry: TEXT_BASE })
    }

    fn statement(&mut self, mut s: &str, line: usize) -> Result<(), IsaError> {
        // Peel off leading labels.
        while let Some(colon) = find_label(s) {
            let (label, rest) = s.split_at(colon);
            let label = label.trim();
            if !is_ident(label) {
                return Err(IsaError::asm(line, format!("bad label `{label}`")));
            }
            let addr = match self.cur_section() {
                Section::Text => TEXT_BASE + 4 * self.pending.len() as u64,
                Section::Data => DATA_BASE + self.data.len() as u64,
            };
            if self.symbols.insert(label.to_string(), addr).is_some() {
                return Err(IsaError::asm(line, format!("duplicate label `{label}`")));
            }
            s = rest[1..].trim();
            if s.is_empty() {
                return Ok(());
            }
        }

        if let Some(rest) = s.strip_prefix('.') {
            return self.directive(rest, line);
        }

        let (mnemonic, operands) = split_mnemonic(s);
        if self.cur_section() != Section::Text {
            return Err(IsaError::asm(line, "instruction outside .text section"));
        }
        let ops: Vec<&str> = if operands.is_empty() { vec![] } else { split_operands(operands) };

        if pseudo::is_pseudo(mnemonic) {
            let expanded = pseudo::expand(mnemonic, &ops, &self.consts, line)?;
            for (inst, fixup) in expanded {
                self.pending.push(Pending { line, inst, fixup });
            }
            return Ok(());
        }

        let op = Op::from_mnemonic(mnemonic)
            .ok_or_else(|| IsaError::asm(line, format!("unknown mnemonic `{mnemonic}`")))?;
        let (inst, fixup) = parse_operands(op, &ops, &self.consts, line)?;
        self.pending.push(Pending { line, inst, fixup });
        Ok(())
    }

    fn cur_section(&self) -> Section {
        self.section.unwrap_or(Section::Text)
    }

    fn directive(&mut self, s: &str, line: usize) -> Result<(), IsaError> {
        let (name, rest) = split_mnemonic(s);
        match name {
            "text" => self.section = Some(Section::Text),
            "data" => self.section = Some(Section::Data),
            "eq" => {
                let parts = split_operands(rest);
                if parts.len() != 2 || !is_ident(parts[0]) {
                    return Err(IsaError::asm(line, ".eq expects `NAME, expr`"));
                }
                let v = eval(parts[1], &self.consts, line)?;
                self.consts.insert(parts[0].to_string(), v);
            }
            "dword" | "word" | "byte" => {
                self.need_data(line)?;
                let width = match name {
                    "dword" => 8,
                    "word" => 4,
                    _ => 1,
                };
                // Data expressions may reference constants and already-defined
                // labels (e.g. a table of pointers to earlier arrays).
                let mut env = self.consts.clone();
                for (k, v) in &self.symbols {
                    env.entry(k.clone()).or_insert(*v as i64);
                }
                for part in split_operands(rest) {
                    let v = eval(part, &env, line)?;
                    self.data.extend_from_slice(&v.to_le_bytes()[..width]);
                }
            }
            "double" => {
                self.need_data(line)?;
                for part in split_operands(rest) {
                    let v: f64 = part
                        .trim()
                        .parse()
                        .map_err(|_| IsaError::asm(line, format!("bad float `{part}`")))?;
                    self.data.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            "zero" | "space" => {
                self.need_data(line)?;
                let n = eval(rest, &self.consts, line)?;
                if n < 0 {
                    return Err(IsaError::asm(line, "negative .zero size"));
                }
                self.data.resize(self.data.len() + n as usize, 0);
            }
            "align" => {
                self.need_data(line)?;
                let n = eval(rest, &self.consts, line)?;
                if n <= 0 || (n & (n - 1)) != 0 {
                    return Err(IsaError::asm(line, ".align expects a power of two"));
                }
                while !self.data.len().is_multiple_of(n as usize) {
                    self.data.push(0);
                }
            }
            other => return Err(IsaError::asm(line, format!("unknown directive `.{other}`"))),
        }
        Ok(())
    }

    fn need_data(&self, line: usize) -> Result<(), IsaError> {
        if self.cur_section() != Section::Data {
            return Err(IsaError::asm(line, "data directive outside .data section"));
        }
        Ok(())
    }
}

/// Parse one real (non-pseudo) instruction's operands into an [`Inst`].
pub(crate) fn parse_operands(
    op: Op,
    ops: &[&str],
    consts: &HashMap<String, i64>,
    line: usize,
) -> Result<(Inst, Option<Fixup>), IsaError> {
    let sig = op.sig();
    // Optional trailing `vm` mask operand on maskable vector formats.
    let mut masked = false;
    let mut ops = ops;
    if op.maskable() && ops.len() == sig.len() + 1 && ops[sig.len()].trim() == "vm" {
        masked = true;
        ops = &ops[..sig.len()];
    }
    if ops.len() != sig.len() {
        return Err(IsaError::asm(
            line,
            format!("`{}` expects {} operand(s), got {}", op.mnemonic(), sig.len(), ops.len()),
        ));
    }

    let mut inst = Inst { op, rd: 0, rs1: 0, rs2: 0, imm: 0, masked };
    let mut fixup = None;
    // Register operands and a memory base fill the format's fields in order.
    let mut fields = op.format().reg_fields().iter().map(|&(field, _)| field);
    let mut field = || fields.next().expect("the table gives each register operand a field");

    for (o, k) in ops.iter().zip(sig.iter()) {
        let o = o.trim();
        match k {
            OperandSig::Ri | OperandSig::Rf | OperandSig::Rv => {
                let want = match k {
                    OperandSig::Ri => 'x',
                    OperandSig::Rf => 'f',
                    _ => 'v',
                };
                *inst.field_mut(field()) = parse_reg_alias(o, line, want)?;
            }
            OperandSig::Imm => {
                inst.imm = eval(o, consts, line)? as i32;
            }
            OperandSig::Mem => {
                let open = o
                    .find('(')
                    .ok_or_else(|| IsaError::asm(line, format!("expected `off(xN)`, got `{o}`")))?;
                if !o.ends_with(')') {
                    return Err(IsaError::asm(line, format!("expected `off(xN)`, got `{o}`")));
                }
                let off = o[..open].trim();
                inst.imm = if off.is_empty() { 0 } else { eval(off, consts, line)? as i32 };
                *inst.field_mut(field()) =
                    parse_reg_alias(o[open + 1..o.len() - 1].trim(), line, 'x')?;
            }
            OperandSig::Lab => {
                if is_ident(o) && !consts.contains_key(o) {
                    fixup = Some(Fixup::Rel(o.to_string()));
                } else {
                    inst.imm = eval(o, consts, line)? as i32;
                }
            }
        }
    }
    Ok((inst, fixup))
}

/// Parse a register token with ABI aliases, checking the register class.
pub(crate) fn parse_reg_alias(tok: &str, line: usize, want: char) -> Result<u8, IsaError> {
    let canonical = match tok {
        "zero" => "x0",
        "ra" => "x31",
        "sp" => "x30",
        t => t,
    };
    match crate::reg::parse_reg(canonical) {
        Some((class, idx)) if class == want => Ok(idx),
        Some((class, _)) => Err(IsaError::asm(
            line,
            format!("expected `{want}` register, got `{tok}` (class `{class}`)"),
        )),
        None => Err(IsaError::asm(line, format!("bad register `{tok}`"))),
    }
}

fn strip_comment(line: &str) -> &str {
    let hash = line.find('#').unwrap_or(line.len());
    let slashes = line.find("//").unwrap_or(line.len());
    &line[..hash.min(slashes)]
}

/// Find the colon terminating a leading label, ignoring colons inside
/// operands (there are none in this ISA, so the first colon wins if it
/// precedes any whitespace-separated operand field containing `(`).
fn find_label(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    // A label must be the first token: no spaces before the colon.
    if s[..colon].chars().any(|c| c.is_whitespace()) {
        None
    } else {
        Some(colon)
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.')
}

fn split_mnemonic(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

fn split_operands(s: &str) -> Vec<&str> {
    s.split(',').map(str::trim).collect()
}

#[cfg(test)]
mod tests;
