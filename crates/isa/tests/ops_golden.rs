//! Every opcode's encoded word, disassembly and register defs/uses, pinned
//! to a committed file.
//!
//! The codec tests check `encode` and `decode` against each other, so a
//! field moved in both would still pass them; this golden holds the words
//! themselves. One line per op (plus a masked line where the op is
//! maskable) gives the canonical instance `rd` 5, `rs1` 6, `rs2` 7 with the
//! per-format immediate of `text_roundtrip`, then [`Inst::defs_uses`] for
//! each register triple in [`TRIPLES`]. An intended change fails with a
//! message naming a fresh copy of the text under the test's target
//! directory; read the diff, then copy that file over the golden.

use std::fmt::Write as _;

use vlt_isa::{decode, disasm, encode, Format, Inst, Op, RegRef};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ops.txt");

/// The `(rd, rs1, rs2)` triples each op's defs/uses are recorded for: `x0`
/// in every position, aliasing fields, and the top registers.
const TRIPLES: [(u8, u8, u8); 7] =
    [(1, 2, 3), (0, 0, 0), (5, 5, 5), (0, 2, 3), (1, 0, 3), (1, 2, 0), (31, 30, 29)];

/// The immediate `text_roundtrip` gives each format.
fn imm_for(f: Format) -> i32 {
    match f {
        Format::I | Format::B => -168,
        Format::U | Format::UI => -26_000,
        Format::J => 99_999,
        _ => 0,
    }
}

fn regs(v: &[RegRef]) -> String {
    if v.is_empty() {
        return "-".to_string();
    }
    v.iter().map(RegRef::to_string).collect::<Vec<_>>().join(" ")
}

fn render() -> String {
    let mut out = String::from(
        "# Every opcode (crates/isa/tests/ops_golden.rs): name, `/vm` if masked, the encoded\n\
         # word and disassembly of rd 5, rs1 6, rs2 7, then defs <- uses per rd,rs1,rs2.\n",
    );
    for &op in Op::ALL {
        for masked in [false, true].into_iter().filter(|&m| !m || op.maskable()) {
            let imm = imm_for(op.format());
            let word = encode(&Inst { op, rd: 5, rs1: 6, rs2: 7, imm, masked }).unwrap();
            let text = disasm(&decode(word).unwrap());
            write!(out, "{op}{} {word:08x} \"{text}\"", if masked { "/vm" } else { "" }).unwrap();
            for (rd, rs1, rs2) in TRIPLES {
                let (defs, uses) = Inst { op, rd, rs1, rs2, imm, masked }.defs_uses();
                write!(out, " | {rd},{rs1},{rs2} {} <- {}", regs(&defs), regs(&uses)).unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_op_matches_its_golden() {
    let got = render();
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got != want {
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/ops.txt");
        std::fs::write(fresh, &got).unwrap();
        let (n, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(want.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap();
        panic!(
            "the ops table differs from {GOLDEN} at line {}: got {g:?}, want {w:?}; the new \
             text is in {fresh}",
            n + 1
        );
    }
}
