//! Assembled programs and the simulated address-space layout.

use std::collections::HashMap;
use std::ops::Range;

use crate::encode::decode;
use crate::inst::Inst;

/// Base address of the text segment. Instructions occupy 4 bytes each.
pub const TEXT_BASE: u64 = 0x0000_1000;
/// Base address of the data segment.
pub const DATA_BASE: u64 = 0x0010_0000;
/// Base of the per-thread stacks; thread `t` gets
/// `STACK_BASE + t * STACK_SIZE` as its stack top (stacks grow down).
/// Kept below `2^31` so every address materializes with a two-instruction
/// `lui`+`ori` sequence.
pub const STACK_BASE: u64 = 0x4000_0000;
/// Bytes of stack per thread.
pub const STACK_SIZE: u64 = 0x10_0000;
/// One past the last stack byte: the top of the 64th thread's stack.
pub const STACK_END: u64 = STACK_BASE + 64 * STACK_SIZE;
/// Bytes past the end of the data image that a load may touch: unrolled
/// scalar walks deliberately over-read (the values are unused).
pub const READ_SLACK: u64 = 64;

/// The address ranges a load (`write == false`) or a store may start in,
/// for a program with a `data_len`-byte data image: the data segment, which
/// a load may overrun by [`READ_SLACK`] bytes, and the thread stacks. The
/// static verifier and the dynamic checker both hold accesses to these.
pub fn access_regions(data_len: u64, write: bool) -> [Range<u64>; 2] {
    let data_end = DATA_BASE + data_len + if write { 0 } else { READ_SLACK };
    [DATA_BASE..data_end, STACK_BASE..STACK_END]
}

/// An assembled program: encoded text, initial data image, and symbols.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Encoded instructions; instruction `i` lives at `TEXT_BASE + 4*i`.
    pub text: Vec<u32>,
    /// Initial bytes of the data segment, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Label name to byte address (text labels) or data address.
    pub symbols: HashMap<String, u64>,
    /// Entry point address (defaults to [`TEXT_BASE`]).
    pub entry: u64,
}

impl Program {
    /// Create an empty program with the default entry point.
    pub fn new() -> Self {
        Program { text: Vec::new(), data: Vec::new(), symbols: HashMap::new(), entry: TEXT_BASE }
    }

    /// The address one past the last instruction.
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + 4 * self.text.len() as u64
    }

    /// Look up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Decode the whole text segment (panics on malformed words; assembled
    /// programs are always well-formed).
    pub fn decoded(&self) -> Vec<Inst> {
        self.text.iter().map(|&w| decode(w).expect("well-formed text")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::opcode::Op;

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate layout sanity checks
    fn layout_is_disjoint() {
        assert!(TEXT_BASE < DATA_BASE);
        // Generous text budget before data:
        assert!(DATA_BASE - TEXT_BASE >= 4 * 1024);
        assert!(DATA_BASE < STACK_BASE);
    }

    #[test]
    fn text_end_follows_the_text() {
        let mut p = Program::new();
        p.text.push(encode(&Inst::r(Op::Add, 1, 2, 3)).unwrap());
        p.text.push(encode(&Inst::sys(Op::Halt)).unwrap());
        assert_eq!(p.text_end(), TEXT_BASE + 8);
        assert_eq!(p.decoded()[1].op, Op::Halt);
    }
}
