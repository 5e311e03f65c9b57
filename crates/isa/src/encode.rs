//! Binary encoding and decoding of instructions to/from 32-bit words.

use crate::error::IsaError;
use crate::inst::Inst;
use crate::opcode::Op;

const MASK_BIT: u32 = 1 << 8;

fn check_signed(op: Op, imm: i64, bits: u32) -> Result<u32, IsaError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if imm < min || imm > max {
        return Err(IsaError::ImmOutOfRange { op: op.mnemonic(), imm, bits });
    }
    Ok((imm as u32) & ((1u32 << bits) - 1))
}

/// The low `bits` bits of `v`, sign-extended.
fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// Encode a decoded instruction into its 32-bit word: the opcode byte,
/// the format's register fields ([`Format::reg_fields`](crate::Format::reg_fields))
/// and immediate, and the mask bit.
///
/// Fails if the immediate does not fit the format's field, or a register
/// field exceeds 31.
pub fn encode(inst: &Inst) -> Result<u32, IsaError> {
    for r in [inst.rd, inst.rs1, inst.rs2] {
        if r >= 32 {
            return Err(IsaError::BadRegister(r));
        }
    }
    let op = inst.op;
    if inst.masked && !op.maskable() {
        return Err(IsaError::BadMask(op.mnemonic()));
    }
    let mut w = (op as u8 as u32) << 24;
    if inst.masked {
        w |= MASK_BIT;
    }
    for &(field, bit) in op.format().reg_fields() {
        w |= (inst.field(field) as u32) << bit;
    }
    if let Some(bits) = op.format().imm_bits() {
        w |= check_signed(op, inst.imm as i64, bits)?;
    }
    Ok(w)
}

/// Decode a 32-bit word back into an instruction. Fields the format does
/// not carry decode as zero.
pub fn decode(word: u32) -> Result<Inst, IsaError> {
    let opb = (word >> 24) as u8;
    let op = Op::from_u8(opb).ok_or(IsaError::BadOpcode(opb))?;
    // The mask bit is meaningful only on maskable (vector R/R2) ops;
    // scalar encodings treat bit 8 as don't-care so a stray bit cannot
    // conjure an `Inst` the assembler could never produce.
    let masked = op.maskable() && word & MASK_BIT != 0;
    let imm = op.format().imm_bits().map_or(0, |bits| sext(word, bits));
    let mut inst = Inst { op, rd: 0, rs1: 0, rs2: 0, imm, masked };
    for &(field, bit) in op.format().reg_fields() {
        *inst.field_mut(field) = ((word >> bit) & 0x1F) as u8;
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Op;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basic() {
        let cases = [
            Inst::r(Op::Add, 1, 2, 3),
            Inst::i(Op::Addi, 4, 5, -100),
            Inst::i(Op::Ld, 7, 30, 8191),
            Inst::i(Op::Sd, 7, 30, -8192),
            Inst { op: Op::Lui, rd: 9, rs1: 0, rs2: 0, imm: -262144, masked: false },
            Inst { op: Op::Beq, rd: 0, rs1: 3, rs2: 4, imm: -20, masked: false },
            Inst { op: Op::Jal, rd: 0, rs1: 0, rs2: 0, imm: 100000, masked: false },
            Inst::r(Op::VfmaVV, 10, 11, 12).with_mask(),
            Inst::r2(Op::Vld, 1, 2),
            Inst::sys(Op::Barrier),
            Inst { op: Op::VltCfg, rd: 0, rs1: 17, rs2: 0, imm: 0, masked: false },
        ];
        for c in &cases {
            let w = encode(c).unwrap();
            assert_eq!(&decode(w).unwrap(), c, "roundtrip failed for {c:?}");
        }
    }

    #[test]
    fn imm_out_of_range() {
        let i = Inst::i(Op::Addi, 1, 2, 8192);
        assert!(matches!(encode(&i), Err(IsaError::ImmOutOfRange { .. })));
        let i = Inst::i(Op::Addi, 1, 2, -8193);
        assert!(matches!(encode(&i), Err(IsaError::ImmOutOfRange { .. })));
    }

    #[test]
    fn bad_register_rejected() {
        let i = Inst::r(Op::Add, 32, 0, 0);
        assert!(matches!(encode(&i), Err(IsaError::BadRegister(32))));
    }

    #[test]
    fn bad_opcode_rejected() {
        assert!(matches!(decode(0xFF00_0000), Err(IsaError::BadOpcode(0xFF))));
    }

    fn arb_inst() -> impl Strategy<Value = Inst> {
        (0..Op::ALL.len(), 0u8..32, 0u8..32, 0u8..32, any::<i16>(), any::<bool>()).prop_map(
            |(opi, rd, rs1, rs2, imm16, masked)| {
                let op = Op::ALL[opi];
                let raw = Inst { op, rd, rs1, rs2, imm: 0, masked };
                // Keep only what the format carries, mirroring decode, with
                // the immediate clamped to its field.
                let imm = op.format().imm_bits().map_or(0, |bits| {
                    let max = (1 << (bits - 1)) - 1;
                    (imm16 as i32).clamp(-max - 1, max)
                });
                let mut i =
                    Inst { op, rd: 0, rs1: 0, rs2: 0, imm, masked: masked && op.maskable() };
                for &(field, _) in op.format().reg_fields() {
                    *i.field_mut(field) = raw.field(field);
                }
                i
            },
        )
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(inst in arb_inst()) {
            let w = encode(&inst).unwrap();
            prop_assert_eq!(decode(w).unwrap(), inst);
        }

        #[test]
        fn decode_never_panics(word in any::<u32>()) {
            let _ = decode(word);
        }

        #[test]
        fn decode_encode_roundtrip(word in any::<u32>()) {
            // Any word that decodes must re-encode to itself modulo
            // don't-care bits, and then roundtrip stably.
            if let Ok(inst) = decode(word) {
                let w2 = encode(&inst).unwrap();
                prop_assert_eq!(decode(w2).unwrap(), inst);
            }
        }
    }
}
