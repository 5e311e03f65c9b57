//! The decoded instruction form and its register defs/uses.

use crate::opcode::{Effect, Op, OpClass, OperandSig, RegField};
use crate::reg::RegRef;

/// A decoded instruction: an opcode plus raw operand fields.
///
/// Which register file each field names is determined by the opcode's
/// operand signature (see [`Op::sig`]); the flat layout keeps the encoder,
/// decoder, and interpreter compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register field (or source value for stores).
    pub rd: u8,
    /// First source register field.
    pub rs1: u8,
    /// Second source register field.
    pub rs2: u8,
    /// Immediate field (sign-extended to 32 bits as appropriate per format).
    pub imm: i32,
    /// Mask bit: vector operation executes under the mask register.
    pub masked: bool,
}

impl Inst {
    /// A canonical `nop`.
    pub const NOP: Inst = Inst { op: Op::Nop, rd: 0, rs1: 0, rs2: 0, imm: 0, masked: false };

    /// R-format constructor (`rd, rs1, rs2`).
    pub fn r(op: Op, rd: u8, rs1: u8, rs2: u8) -> Self {
        Inst { op, rd, rs1, rs2, imm: 0, masked: false }
    }

    /// I-format constructor (`rd, rs1, imm`).
    pub fn i(op: Op, rd: u8, rs1: u8, imm: i32) -> Self {
        Inst { op, rd, rs1, rs2: 0, imm, masked: false }
    }

    /// Two-register constructor (`rd, rs1`).
    pub fn r2(op: Op, rd: u8, rs1: u8) -> Self {
        Inst { op, rd, rs1, rs2: 0, imm: 0, masked: false }
    }

    /// Opcode-only constructor.
    pub fn sys(op: Op) -> Self {
        Inst { op, rd: 0, rs1: 0, rs2: 0, imm: 0, masked: false }
    }

    /// Mark a vector instruction as executing under the mask register.
    pub fn with_mask(mut self) -> Self {
        self.masked = true;
        self
    }

    /// The register number in `field`.
    pub fn field(&self, field: RegField) -> u8 {
        match field {
            RegField::Rd => self.rd,
            RegField::Rs1 => self.rs1,
            RegField::Rs2 => self.rs2,
        }
    }

    /// The register number in `field`, to set.
    pub fn field_mut(&mut self, field: RegField) -> &mut u8 {
        match field {
            RegField::Rd => &mut self.rd,
            RegField::Rs1 => &mut self.rs1,
            RegField::Rs2 => &mut self.rs2,
        }
    }

    /// Registers written (defs) and read (uses) by this instruction, read
    /// off its table row: the register operands ([`Op::sig`]) in the
    /// fields they fill ([`Format::reg_fields`](crate::Format::reg_fields)),
    /// then the row's [`Op::effects`].
    ///
    /// `rd` is written, except in a store, which reads it; `rs1`, `rs2` and
    /// a memory operand's base are read. `x0` never appears (writes are
    /// discarded, reads are constant-ready); `f0` and `v0` do. Uses come in
    /// order: `rd` if the op reads it too, the source operands, the row's
    /// implicit uses, and last the mask register for a masked vector op
    /// that does not read it already. This drives the timing models'
    /// dependence tracking, so it must be exact.
    pub fn defs_uses(&self) -> (Vec<RegRef>, Vec<RegRef>) {
        let (op, effects) = (self.op, self.op.effects());
        let (mut defs, mut uses) = (Vec::new(), Vec::new());
        let store = matches!(op.class(), OpClass::Store | OpClass::VStore);
        let regs = op.sig().iter().filter(|k| !matches!(k, OperandSig::Imm | OperandSig::Lab));
        for (kind, &(field, _)) in regs.zip(op.format().reg_fields()) {
            let n = self.field(field);
            let r = match kind {
                OperandSig::Rf => RegRef::F(n),
                OperandSig::Rv => RegRef::V(n),
                _ if n == 0 => continue, // `x0` is never read or written
                _ => RegRef::I(n),
            };
            if field == RegField::Rd && !store {
                defs.push(r);
                if effects.contains(&Effect::UseRd) {
                    uses.push(r);
                }
            } else {
                uses.push(r);
            }
        }
        for fx in effects {
            match fx {
                Effect::UseRd => {} // pushed with `rd` above
                Effect::DefVl => defs.push(RegRef::Vl),
                Effect::DefLink => defs.push(RegRef::I(31)),
                Effect::DefVm => defs.push(RegRef::Vm),
                Effect::UseVm => uses.push(RegRef::Vm),
                Effect::UseVl => uses.push(RegRef::Vl),
            }
        }
        if self.masked && op.class().is_vector() && !effects.contains(&Effect::UseVm) {
            uses.push(RegRef::Vm);
        }
        (defs, uses)
    }

    /// True if this is a control-transfer instruction.
    pub fn is_control(&self) -> bool {
        matches!(self.op.class(), OpClass::Branch | OpClass::Jump)
    }

    /// True for the self-XOR/self-SUB zeroing idiom (`xor x5, x5, x5`,
    /// `vxor.vv v4, v4, v4`, ...): the result is zero regardless of the
    /// source value, so the "read" of the source is not a real data use.
    /// Static analyses use this to avoid flagging the idiom as a read of
    /// an undefined register.
    pub fn is_zero_idiom(&self) -> bool {
        matches!(self.op, Op::Xor | Op::Sub | Op::VxorVV | Op::VsubVV) && self.rs1 == self.rs2
    }

    /// True if this instruction writes only part of its destination
    /// register (element insert, or a vector write under a mask), so the
    /// previous value of the destination remains partly live.
    pub fn is_partial_def(&self) -> bool {
        matches!(self.op, Op::Vinsert | Op::Vfinsert)
            || (self.masked && self.op.class().is_vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Op;

    #[test]
    fn x0_never_appears() {
        let i = Inst::r(Op::Add, 0, 0, 0);
        let (d, u) = i.defs_uses();
        assert!(d.is_empty());
        assert!(u.is_empty());
    }

    #[test]
    fn add_defs_uses() {
        let i = Inst::r(Op::Add, 1, 2, 3);
        let (d, u) = i.defs_uses();
        assert_eq!(d, vec![RegRef::I(1)]);
        assert_eq!(u, vec![RegRef::I(2), RegRef::I(3)]);
    }

    #[test]
    fn store_uses_value_and_base() {
        let i = Inst::i(Op::Sd, 5, 6, 8);
        let (d, u) = i.defs_uses();
        assert!(d.is_empty());
        assert_eq!(u, vec![RegRef::I(5), RegRef::I(6)]);
    }

    #[test]
    fn fma_reads_dest() {
        let i = Inst::r(Op::Fma, 1, 2, 3);
        let (d, u) = i.defs_uses();
        assert_eq!(d, vec![RegRef::F(1)]);
        assert!(u.contains(&RegRef::F(1)));
    }

    #[test]
    fn vector_ops_read_vl() {
        let i = Inst::r(Op::VfaddVV, 1, 2, 3);
        let (_, u) = i.defs_uses();
        assert!(u.contains(&RegRef::Vl));
    }

    #[test]
    fn masked_vector_reads_vm() {
        let i = Inst::r(Op::VaddVV, 1, 2, 3).with_mask();
        let (_, u) = i.defs_uses();
        assert!(u.contains(&RegRef::Vm));
        let plain = Inst::r(Op::VaddVV, 1, 2, 3);
        let (_, u2) = plain.defs_uses();
        assert!(!u2.contains(&RegRef::Vm));
    }

    #[test]
    fn vmerge_reads_vm_once() {
        let i = Inst::r(Op::Vmerge, 1, 2, 3).with_mask();
        let (_, u) = i.defs_uses();
        assert_eq!(u.iter().filter(|r| **r == RegRef::Vm).count(), 1);
    }

    #[test]
    fn setvl_defines_vl() {
        let i = Inst::r2(Op::SetVl, 1, 2);
        let (d, _) = i.defs_uses();
        assert!(d.contains(&RegRef::Vl));
        assert!(d.contains(&RegRef::I(1)));
    }

    #[test]
    fn jal_defines_link() {
        let i = Inst { op: Op::Jal, rd: 0, rs1: 0, rs2: 0, imm: 4, masked: false };
        let (d, _) = i.defs_uses();
        assert_eq!(d, vec![RegRef::I(31)]);
    }

    #[test]
    fn control_detection() {
        assert!(Inst::sys(Op::J).is_control());
        assert!(Inst::r(Op::Beq, 0, 1, 2).is_control());
        assert!(Inst { op: Op::Jr, rs1: 31, rd: 0, rs2: 0, imm: 0, masked: false }.is_control());
        assert!(!Inst::r(Op::Add, 1, 2, 3).is_control());
    }
}
