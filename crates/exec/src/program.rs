//! Pre-decoded program with per-instruction metadata for the timing models.

use std::sync::Arc;

use vlt_isa::{Inst, OpClass, Program, RegRef, TEXT_BASE};

/// One static instruction with everything the timing models need,
/// precomputed once so the per-dynamic-instruction cost stays low.
#[derive(Debug, Clone)]
pub struct StaticInst {
    /// The decoded instruction.
    pub inst: Inst,
    /// Resource class (cached from `inst.op.class()`).
    pub class: OpClass,
    /// Registers written.
    pub defs: Vec<RegRef>,
    /// Registers read.
    pub uses: Vec<RegRef>,
    /// Byte address of this instruction.
    pub pc: u64,
}

/// A program decoded once, shared by the functional and timing simulators.
#[derive(Debug)]
pub struct DecodedProgram {
    /// Static instructions in text order.
    pub insts: Vec<StaticInst>,
    /// The original assembled program (symbols, data image).
    pub program: Program,
}

impl DecodedProgram {
    /// Decode every instruction and precompute defs/uses.
    pub fn new(program: &Program) -> Arc<Self> {
        let insts = program
            .decoded()
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                let (defs, uses) = inst.defs_uses();
                StaticInst {
                    class: inst.op.class(),
                    defs,
                    uses,
                    pc: TEXT_BASE + 4 * i as u64,
                    inst,
                }
            })
            .collect();
        Arc::new(DecodedProgram { insts, program: program.clone() })
    }

    /// Look up the static index for a byte PC, if it is inside the text.
    ///
    /// O(1) arithmetic against the dense text layout (`TEXT_BASE + 4*i`),
    /// self-contained so the per-step hot path of both engines never
    /// touches the original [`Program`].
    #[inline]
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(TEXT_BASE);
        if !off.is_multiple_of(4) {
            return None;
        }
        let idx = (off / 4) as usize;
        // Out-of-text PCs below TEXT_BASE wrap to huge offsets and fail
        // the same bound.
        if idx < self.insts.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Static instruction by index.
    #[inline]
    pub fn get(&self, sidx: usize) -> &StaticInst {
        &self.insts[sidx]
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;
    use vlt_isa::Op;

    #[test]
    fn decodes_with_metadata() {
        let p = assemble("add x1, x2, x3\nvadd.vv v1, v2, v3\nhalt\n").unwrap();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0).inst.op, Op::Add);
        assert_eq!(d.get(0).defs, vec![RegRef::I(1)]);
        assert!(d.get(1).class.is_vector());
        assert_eq!(d.get(1).pc, TEXT_BASE + 4);
        assert_eq!(d.index_of(TEXT_BASE), Some(0));
        assert_eq!(d.index_of(TEXT_BASE + 8), Some(2));
        assert_eq!(d.index_of(TEXT_BASE + 12), None);
        // Misaligned, and below the text segment.
        assert_eq!(d.index_of(TEXT_BASE + 2), None);
        assert_eq!(d.index_of(TEXT_BASE - 4), None);
        assert_eq!(d.index_of(0), None);
    }
}
