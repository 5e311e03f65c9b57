//! Disassembler: turn decoded instructions back into assembler syntax.
//!
//! The output re-assembles to the same encoding (modulo labels: PC-relative
//! targets are printed as numeric word offsets, which the assembler accepts).

use crate::inst::Inst;
use crate::opcode::OperandSig;

/// Render one instruction in assembler syntax.
pub fn disasm(inst: &Inst) -> String {
    let op = inst.op;
    let sig = op.sig();
    if sig.is_empty() {
        return op.mnemonic().to_string();
    }
    // Register operands and a memory base name the format's fields in
    // order, as in the assembler.
    let mut regs = op.format().reg_fields().iter().map(|&(field, _)| inst.field(field));
    let mut reg = |class: char| {
        format!("{class}{}", regs.next().expect("the table gives each register operand a field"))
    };
    let mut parts: Vec<String> = Vec::with_capacity(sig.len() + 1);
    for k in sig {
        parts.push(match k {
            OperandSig::Ri => reg('x'),
            OperandSig::Rf => reg('f'),
            OperandSig::Rv => reg('v'),
            OperandSig::Imm | OperandSig::Lab => inst.imm.to_string(),
            OperandSig::Mem => format!("{}({})", inst.imm, reg('x')),
        });
    }
    if inst.masked {
        parts.push("vm".to_string());
    }
    format!("{} {}", op.mnemonic(), parts.join(", "))
}

/// Disassemble a full text segment with addresses.
pub fn disasm_text(text: &[u32], base: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, &w) in text.iter().enumerate() {
        let addr = base + 4 * i as u64;
        match crate::encode::decode(w) {
            Ok(inst) => writeln!(out, "{addr:#010x}: {}", disasm(&inst)).unwrap(),
            Err(_) => writeln!(out, "{addr:#010x}: .word {w:#010x}").unwrap(),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::encode::decode;
    use crate::opcode::Op;

    #[test]
    fn simple_forms() {
        let i = Inst::r(Op::Add, 1, 2, 3);
        assert_eq!(disasm(&i), "add x1, x2, x3");
        let i = Inst::i(Op::Ld, 4, 30, -8);
        assert_eq!(disasm(&i), "ld x4, -8(x30)");
        let i = Inst::sys(Op::Barrier);
        assert_eq!(disasm(&i), "barrier");
        let i = Inst::r(Op::VfmaVV, 1, 2, 3).with_mask();
        assert_eq!(disasm(&i), "vfma.vv v1, v2, v3, vm");
    }

    #[test]
    fn roundtrips_through_assembler() {
        let src = r#"
            add     x1, x2, x3
            addi    x1, x2, -100
            lui     x5, 1234
            ld      x1, 8(x2)
            fsd     f3, -16(sp)
            fadd    f1, f2, f3
            fcvt.f.x f1, x2
            setvl   x1, x2
            vld     v1, x2
            vlds    v1, x2, x3
            vfma.vs v1, v2, f3, vm
            vseq.vv v1, v2
            vextract x1, v2, x3
            vredsum x1, v2
            barrier
            vltcfg  x1
            halt
        "#;
        let p = assemble(src).unwrap();
        for &w in &p.text {
            let inst = decode(w).unwrap();
            let text = disasm(&inst);
            let p2 = assemble(&text).unwrap();
            assert_eq!(p2.text.len(), 1, "`{text}` did not reassemble to one word");
            assert_eq!(p2.text[0], w, "`{text}` changed encoding");
        }
    }

    #[test]
    fn text_listing() {
        let p = assemble("nop\nhalt\n").unwrap();
        let listing = disasm_text(&p.text, crate::program::TEXT_BASE);
        assert!(listing.contains("nop"));
        assert!(listing.contains("halt"));
        assert!(listing.contains("0x00001000"));
    }
}
