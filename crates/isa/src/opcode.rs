//! The opcode table: one row per mnemonic, the single definition of the
//! ISA that the encoder, decoder, assembler, disassembler, functional
//! interpreter, timing models and static analyzers all read.
//!
//! A row gives an op's encoding byte, mnemonic, binary [`Format`], assembler
//! operand signature ([`OperandSig`]), timing class ([`OpClass`]), and the
//! register [`Effect`]s it has beyond its explicit operands. Together with
//! [`Format::reg_fields`] (which fields a format's register operands fill,
//! and where they sit in the word) and [`Format::imm_bits`], that is the
//! op's whole shape: its encoding, its text, and the registers it reads and
//! writes ([`Inst::defs_uses`](crate::Inst::defs_uses)). Only its semantics
//! live elsewhere, in the interpreter.

/// Binary instruction format. Every instruction is one 32-bit word with the
/// opcode in bits `[31:24]`.
///
/// | format | fields (high to low, after the opcode byte) |
/// |--------|---------------------------------------------|
/// | `R0`   | none                                        |
/// | `R1`   | `rd[23:19]`                                 |
/// | `Rs`   | `rs1[18:14]`                                |
/// | `R2`   | `rd[23:19] rs1[18:14] mask[8]`              |
/// | `R`    | `rd[23:19] rs1[18:14] rs2[13:9] mask[8]`    |
/// | `RR0`  | `rs1[18:14] rs2[13:9]`                      |
/// | `I`    | `rd[23:19] rs1[18:14] imm14[13:0]`          |
/// | `U`    | `rd[23:19] imm19[18:0]`                     |
/// | `UI`   | `imm19[18:0]`                               |
/// | `B`    | `rs1[23:19] rs2[18:14] imm14[13:0]`         |
/// | `J`    | `imm24[23:0]`                               |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field layouts documented in the table above
pub enum Format {
    R0,
    R1,
    Rs,
    R2,
    R,
    RR0,
    I,
    U,
    UI,
    B,
    J,
}

/// An instruction field that holds a register number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegField {
    /// The destination field (the stored value, in a store).
    Rd,
    /// The first source field (a memory operand's base).
    Rs1,
    /// The second source field.
    Rs2,
}

impl Format {
    /// The fields this format's register operands fill, in operand order,
    /// each with the bit its 5-bit field starts at in the word. A memory
    /// operand's base fills the next field like a register operand; `B`
    /// and `RR0` start at `rs1`.
    pub fn reg_fields(self) -> &'static [(RegField, u32)] {
        use RegField::*;
        match self {
            Format::R0 | Format::UI | Format::J => &[],
            Format::R1 | Format::U => &[(Rd, 19)],
            Format::Rs => &[(Rs1, 14)],
            Format::R2 | Format::I => &[(Rd, 19), (Rs1, 14)],
            Format::R => &[(Rd, 19), (Rs1, 14), (Rs2, 9)],
            Format::RR0 => &[(Rs1, 14), (Rs2, 9)],
            Format::B => &[(Rs1, 19), (Rs2, 14)],
        }
    }

    /// The width of this format's immediate, which fills the low bits of
    /// the word and is sign-extended, or `None` if it has none.
    pub fn imm_bits(self) -> Option<u32> {
        match self {
            Format::I | Format::B => Some(14),
            Format::U | Format::UI => Some(19),
            Format::J => Some(24),
            _ => None,
        }
    }
}

/// Assembler operand kinds, in source order. Drives both the parser and the
/// disassembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSig {
    /// Integer scalar register `xN`.
    Ri,
    /// Floating-point scalar register `fN`.
    Rf,
    /// Vector register `vN`.
    Rv,
    /// Plain immediate (decimal, hex, or `.eq` constant).
    Imm,
    /// Memory operand `imm(xN)`; fills `rs1` and `imm`.
    Mem,
    /// Branch/jump target label; assembled to a PC-relative word offset.
    Lab,
}

/// A register an op reads or writes beyond its explicit operands: the last
/// column of the table. Implicit defs and uses follow the explicit ones in
/// the order the row lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// `rd` is read too, first among the sources (accumulate, insert).
    UseRd,
    /// Writes the vector-length register.
    DefVl,
    /// Writes the link register `x31`.
    DefLink,
    /// Writes the mask register.
    DefVm,
    /// Reads the mask register.
    UseVm,
    /// Reads the vector-length register.
    UseVl,
}

/// Resource class used by the timing models to pick a functional unit.
///
/// The vector unit has three arithmetic datapaths per lane (the paper's "3
/// arithmetic units"): an add/logical unit (`VAdd`), a multiply unit
/// (`VMul`), and a divide/miscellaneous unit (`VDiv`), plus two memory ports
/// per lane (`VLoad`/`VStore`). `VMask` operations execute in the vector
/// control logic itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU (also simple system reads).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide/remainder.
    IntDiv,
    /// FP add/compare/move class.
    FpAdd,
    /// FP multiply / fused multiply-add class.
    FpMul,
    /// Unpipelined FP divide/square root.
    FpDiv,
    /// Scalar load (int or FP).
    Load,
    /// Scalar store (int or FP).
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump/call/return.
    Jump,
    /// Vector add/logical/shift/compare/merge datapath.
    VAdd,
    /// Vector multiply/FMA datapath.
    VMul,
    /// Vector divide/sqrt/convert/reduction (misc) datapath.
    VDiv,
    /// Mask-register operation executed in the VCL.
    VMask,
    /// Vector load (unit/strided/indexed).
    VLoad,
    /// Vector store (unit/strided/indexed).
    VStore,
    /// System instruction (nop, halt, barrier, vltcfg, region).
    Sys,
}

impl OpClass {
    /// True if this class executes in the vector unit (lanes or VCL).
    pub fn is_vector(self) -> bool {
        matches!(
            self,
            OpClass::VAdd
                | OpClass::VMul
                | OpClass::VDiv
                | OpClass::VMask
                | OpClass::VLoad
                | OpClass::VStore
        )
    }

    /// True if this class accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store | OpClass::VLoad | OpClass::VStore)
    }
}

/// Address pattern of a vector memory instruction, as classified by the
/// static DLP analyzer (Table 4's stride column). `Unit` accesses are
/// bank-friendly on any power-of-two interleave; `Strided` accesses hit a
/// reduced bank set whenever the element stride shares a factor with the
/// interleave; `Indexed` gather/scatter addresses are data-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VMemPattern {
    /// Unit-stride (`vld`/`vst`): consecutive 8-byte elements.
    Unit,
    /// Constant byte stride from a scalar register (`vlds`/`vsts`).
    Strided,
    /// Per-element byte indices from a vector register (`vldx`/`vstx`).
    Indexed,
}

impl Op {
    /// True if this instruction accepts a trailing `, vm` mask operand:
    /// vector-class ops in the `R`/`R2` formats. The encoder rejects and
    /// the decoder ignores the mask bit on everything else, so the flag
    /// can never appear where the assembler could not have written it.
    pub fn maskable(self) -> bool {
        matches!(self.format(), Format::R | Format::R2) && self.class().is_vector()
    }

    /// True for a jump whose target comes from a register (`jr`, `jalr`):
    /// a `Jump`-class op outside the PC-relative `J` format.
    pub fn is_indirect(self) -> bool {
        self.class() == OpClass::Jump && self.format() != Format::J
    }

    /// The address pattern of a vector memory instruction, or `None` for
    /// everything that is not a vector load/store.
    pub fn vmem_pattern(self) -> Option<VMemPattern> {
        match self {
            Op::Vld | Op::Vst => Some(VMemPattern::Unit),
            Op::Vlds | Op::Vsts => Some(VMemPattern::Strided),
            Op::Vldx | Op::Vstx => Some(VMemPattern::Indexed),
            _ => None,
        }
    }
}

macro_rules! define_ops {
    ($(($variant:ident, $code:literal, $mn:literal, $fmt:ident, [$($sig:ident),*], $class:ident,
        [$($fx:ident),*])),* $(,)?) => {
        /// Every instruction mnemonic in the ISA. The discriminant is the
        /// opcode byte stored in bits `[31:24]` of the encoded word; see the
        /// table in this module's source for format/signature/class/effects.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum Op {
            $($variant = $code),*
        }

        impl Op {
            /// All opcodes, in table order (useful for exhaustive tests).
            pub const ALL: &'static [Op] = &[$(Op::$variant),*];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self { $(Op::$variant => $mn),* }
            }

            /// Decode an opcode byte.
            pub fn from_u8(b: u8) -> Option<Op> {
                match b { $($code => Some(Op::$variant),)* _ => None }
            }

            /// Look up an opcode by mnemonic (exact, lowercase).
            pub fn from_mnemonic(s: &str) -> Option<Op> {
                match s { $($mn => Some(Op::$variant),)* _ => None }
            }

            /// The binary format of this instruction.
            pub fn format(self) -> Format {
                match self { $(Op::$variant => Format::$fmt),* }
            }

            /// The assembler operand signature.
            pub fn sig(self) -> &'static [OperandSig] {
                match self { $(Op::$variant => &[$(OperandSig::$sig),*]),* }
            }

            /// The timing/resource class.
            pub fn class(self) -> OpClass {
                match self { $(Op::$variant => OpClass::$class),* }
            }

            /// The registers read or written beyond the explicit operands.
            pub fn effects(self) -> &'static [Effect] {
                match self { $(Op::$variant => &[$(Effect::$fx),*]),* }
            }
        }
    };
}

define_ops! {
    // ---- system ----
    (Nop,      0x00, "nop",      R0, [],             Sys,    []),
    (Halt,     0x01, "halt",     R0, [],             Sys,    []),
    (Barrier,  0x02, "barrier",  R0, [],             Sys,    []),
    (Tid,      0x03, "tid",      R1, [Ri],           IntAlu, []),
    (Nthr,     0x04, "nthr",     R1, [Ri],           IntAlu, []),
    (VltCfg,   0x05, "vltcfg",   Rs, [Ri],           Sys,    []),
    (SetVl,    0x06, "setvl",    R2, [Ri, Ri],       IntAlu, [DefVl]),
    (GetVl,    0x07, "getvl",    R1, [Ri],           IntAlu, [UseVl]),
    (Region,   0x08, "region",   UI, [Imm],          Sys,    []),

    // ---- integer register-register ----
    (Add,  0x10, "add",  R, [Ri, Ri, Ri], IntAlu, []),
    (Sub,  0x11, "sub",  R, [Ri, Ri, Ri], IntAlu, []),
    (Mul,  0x12, "mul",  R, [Ri, Ri, Ri], IntMul, []),
    (Div,  0x13, "div",  R, [Ri, Ri, Ri], IntDiv, []),
    (Rem,  0x14, "rem",  R, [Ri, Ri, Ri], IntDiv, []),
    (And,  0x15, "and",  R, [Ri, Ri, Ri], IntAlu, []),
    (Or,   0x16, "or",   R, [Ri, Ri, Ri], IntAlu, []),
    (Xor,  0x17, "xor",  R, [Ri, Ri, Ri], IntAlu, []),
    (Sll,  0x18, "sll",  R, [Ri, Ri, Ri], IntAlu, []),
    (Srl,  0x19, "srl",  R, [Ri, Ri, Ri], IntAlu, []),
    (Sra,  0x1A, "sra",  R, [Ri, Ri, Ri], IntAlu, []),
    (Slt,  0x1B, "slt",  R, [Ri, Ri, Ri], IntAlu, []),
    (Sltu, 0x1C, "sltu", R, [Ri, Ri, Ri], IntAlu, []),

    // ---- integer register-immediate ----
    (Addi, 0x20, "addi", I, [Ri, Ri, Imm], IntAlu, []),
    (Andi, 0x21, "andi", I, [Ri, Ri, Imm], IntAlu, []),
    (Ori,  0x22, "ori",  I, [Ri, Ri, Imm], IntAlu, []),
    (Xori, 0x23, "xori", I, [Ri, Ri, Imm], IntAlu, []),
    (Slli, 0x24, "slli", I, [Ri, Ri, Imm], IntAlu, []),
    (Srli, 0x25, "srli", I, [Ri, Ri, Imm], IntAlu, []),
    (Srai, 0x26, "srai", I, [Ri, Ri, Imm], IntAlu, []),
    (Slti, 0x27, "slti", I, [Ri, Ri, Imm], IntAlu, []),
    (Lui,  0x28, "lui",  U, [Ri, Imm],     IntAlu, []),

    // ---- scalar memory ----
    (Ld,  0x30, "ld",  I, [Ri, Mem], Load,  []),
    (Lw,  0x31, "lw",  I, [Ri, Mem], Load,  []),
    (Lwu, 0x32, "lwu", I, [Ri, Mem], Load,  []),
    (Lb,  0x33, "lb",  I, [Ri, Mem], Load,  []),
    (Lbu, 0x34, "lbu", I, [Ri, Mem], Load,  []),
    (Sd,  0x35, "sd",  I, [Ri, Mem], Store, []),
    (Sw,  0x36, "sw",  I, [Ri, Mem], Store, []),
    (Sb,  0x37, "sb",  I, [Ri, Mem], Store, []),
    (Fld, 0x38, "fld", I, [Rf, Mem], Load,  []),
    (Fsd, 0x39, "fsd", I, [Rf, Mem], Store, []),

    // ---- control flow ----
    (Beq,  0x40, "beq",  B,  [Ri, Ri, Lab], Branch, []),
    (Bne,  0x41, "bne",  B,  [Ri, Ri, Lab], Branch, []),
    (Blt,  0x42, "blt",  B,  [Ri, Ri, Lab], Branch, []),
    (Bge,  0x43, "bge",  B,  [Ri, Ri, Lab], Branch, []),
    (Bltu, 0x44, "bltu", B,  [Ri, Ri, Lab], Branch, []),
    (Bgeu, 0x45, "bgeu", B,  [Ri, Ri, Lab], Branch, []),
    (J,    0x46, "j",    J,  [Lab],         Jump,   []),
    (Jal,  0x47, "jal",  J,  [Lab],         Jump,   [DefLink]),
    (Jr,   0x48, "jr",   Rs, [Ri],          Jump,   []),
    (Jalr, 0x49, "jalr", R2, [Ri, Ri],      Jump,   []),

    // ---- scalar floating point ----
    (Fadd,   0x50, "fadd",     R,  [Rf, Rf, Rf], FpAdd, []),
    (Fsub,   0x51, "fsub",     R,  [Rf, Rf, Rf], FpAdd, []),
    (Fmul,   0x52, "fmul",     R,  [Rf, Rf, Rf], FpMul, []),
    (Fdiv,   0x53, "fdiv",     R,  [Rf, Rf, Rf], FpDiv, []),
    (Fmin,   0x54, "fmin",     R,  [Rf, Rf, Rf], FpAdd, []),
    (Fmax,   0x55, "fmax",     R,  [Rf, Rf, Rf], FpAdd, []),
    (Fma,    0x56, "fma",      R,  [Rf, Rf, Rf], FpMul, [UseRd]), // rd += rs1 * rs2
    (Fsqrt,  0x57, "fsqrt",    R2, [Rf, Rf],     FpDiv, []),
    (Fneg,   0x58, "fneg",     R2, [Rf, Rf],     FpAdd, []),
    (Fabs,   0x59, "fabs",     R2, [Rf, Rf],     FpAdd, []),
    (Fmov,   0x5A, "fmov",     R2, [Rf, Rf],     FpAdd, []),
    (Feq,    0x5B, "feq",      R,  [Ri, Rf, Rf], FpAdd, []),
    (Flt,    0x5C, "flt",      R,  [Ri, Rf, Rf], FpAdd, []),
    (Fle,    0x5D, "fle",      R,  [Ri, Rf, Rf], FpAdd, []),
    (FcvtFx, 0x5E, "fcvt.f.x", R2, [Rf, Ri],     FpAdd, []), // int -> fp
    (FcvtXf, 0x5F, "fcvt.x.f", R2, [Ri, Rf],     FpAdd, []), // fp -> int (truncate)

    // ---- vector integer, vector-vector ----
    (VaddVV, 0x60, "vadd.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VsubVV, 0x61, "vsub.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VmulVV, 0x62, "vmul.vv", R, [Rv, Rv, Rv], VMul, [UseVl]),
    (VandVV, 0x63, "vand.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VorVV,  0x64, "vor.vv",  R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VxorVV, 0x65, "vxor.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VsllVV, 0x66, "vsll.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VsrlVV, 0x67, "vsrl.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VsraVV, 0x68, "vsra.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VminVV, 0x69, "vmin.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),
    (VmaxVV, 0x6A, "vmax.vv", R, [Rv, Rv, Rv], VAdd, [UseVl]),

    // ---- vector integer, vector-scalar (scalar operand from xN) ----
    (VaddVS, 0x70, "vadd.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VsubVS, 0x71, "vsub.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VmulVS, 0x72, "vmul.vs", R, [Rv, Rv, Ri], VMul, [UseVl]),
    (VandVS, 0x73, "vand.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VorVS,  0x74, "vor.vs",  R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VxorVS, 0x75, "vxor.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VsllVS, 0x76, "vsll.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VsrlVS, 0x77, "vsrl.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),
    (VsraVS, 0x78, "vsra.vs", R, [Rv, Rv, Ri], VAdd, [UseVl]),

    // ---- vector floating point, vector-vector ----
    (VfaddVV, 0x80, "vfadd.vv", R,  [Rv, Rv, Rv], VAdd, [UseVl]),
    (VfsubVV, 0x81, "vfsub.vv", R,  [Rv, Rv, Rv], VAdd, [UseVl]),
    (VfmulVV, 0x82, "vfmul.vv", R,  [Rv, Rv, Rv], VMul, [UseVl]),
    (VfdivVV, 0x83, "vfdiv.vv", R,  [Rv, Rv, Rv], VDiv, [UseVl]),
    (VfmaVV,  0x84, "vfma.vv",  R,  [Rv, Rv, Rv], VMul, [UseRd, UseVl]), // vd += vs1 * vs2
    (VfminVV, 0x85, "vfmin.vv", R,  [Rv, Rv, Rv], VAdd, [UseVl]),
    (VfmaxVV, 0x86, "vfmax.vv", R,  [Rv, Rv, Rv], VAdd, [UseVl]),
    (Vfsqrt,  0x87, "vfsqrt.v", R2, [Rv, Rv],     VDiv, [UseVl]),

    // ---- vector floating point, vector-scalar (scalar operand from fN) ----
    (VfaddVS, 0x90, "vfadd.vs", R, [Rv, Rv, Rf], VAdd, [UseVl]),
    (VfsubVS, 0x91, "vfsub.vs", R, [Rv, Rv, Rf], VAdd, [UseVl]),
    (VfmulVS, 0x92, "vfmul.vs", R, [Rv, Rv, Rf], VMul, [UseVl]),
    (VfdivVS, 0x93, "vfdiv.vs", R, [Rv, Rv, Rf], VDiv, [UseVl]),
    (VfmaVS,  0x94, "vfma.vs",  R, [Rv, Rv, Rf], VMul, [UseRd, UseVl]), // vd += vs1 * fs2

    // ---- vector compares (write the mask register) ----
    (Vseq, 0xA0, "vseq.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vsne, 0xA1, "vsne.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vslt, 0xA2, "vslt.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vsge, 0xA3, "vsge.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vfeq, 0xA4, "vfeq.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vflt, 0xA5, "vflt.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),
    (Vfle, 0xA6, "vfle.vv", RR0, [Rv, Rv], VAdd, [DefVm, UseVl]),

    // ---- mask register ----
    (Vmnot,   0xA8, "vmnot",   R0, [],   VMask, [DefVm, UseVm]),
    (Vmset,   0xA9, "vmset",   R0, [],   VMask, [DefVm]),
    (Vpopc,   0xAA, "vpopc",   R1, [Ri], VMask, [UseVm, UseVl]),
    (Vmfirst, 0xAB, "vmfirst", R1, [Ri], VMask, [UseVm, UseVl]),
    (Vmgetb,  0xAC, "vmgetb",  R1, [Ri], VMask, [UseVm, UseVl]),
    (Vmsetb,  0xAD, "vmsetb",  Rs, [Ri], VMask, [DefVm]),

    // ---- vector misc ----
    (Vmv,      0xB1, "vmv",      R2, [Rv, Rv],     VAdd, [UseVl]),
    (Vmerge,   0xB2, "vmerge",   R,  [Rv, Rv, Rv], VAdd, [UseVm, UseVl]),
    (Vid,      0xB3, "vid",      R1, [Rv],         VAdd, [UseVl]),
    (Vsplat,   0xB4, "vsplat",   R2, [Rv, Ri],     VAdd, [UseVl]),
    (Vfsplat,  0xB5, "vfsplat",  R2, [Rv, Rf],     VAdd, [UseVl]),
    (Vextract, 0xB6, "vextract", R,  [Ri, Rv, Ri], VDiv, []),
    (Vfextract,0xB7, "vfextract",R,  [Rf, Rv, Ri], VDiv, []),
    (Vinsert,  0xB8, "vinsert",  R,  [Rv, Ri, Ri], VDiv, [UseRd]),
    (Vfinsert, 0xB9, "vfinsert", R,  [Rv, Ri, Rf], VDiv, [UseRd]),
    (VcvtFx,   0xBA, "vcvt.f.x", R2, [Rv, Rv],     VDiv, [UseVl]),
    (VcvtXf,   0xBB, "vcvt.x.f", R2, [Rv, Rv],     VDiv, [UseVl]),

    // ---- vector reductions (scalar destination) ----
    (Vredsum,  0xC0, "vredsum",  R2, [Ri, Rv], VDiv, [UseVl]),
    (Vredmin,  0xC1, "vredmin",  R2, [Ri, Rv], VDiv, [UseVl]),
    (Vredmax,  0xC2, "vredmax",  R2, [Ri, Rv], VDiv, [UseVl]),
    (Vfredsum, 0xC3, "vfredsum", R2, [Rf, Rv], VDiv, [UseVl]),
    (Vfredmin, 0xC4, "vfredmin", R2, [Rf, Rv], VDiv, [UseVl]),
    (Vfredmax, 0xC5, "vfredmax", R2, [Rf, Rv], VDiv, [UseVl]),

    // ---- vector memory ----
    (Vld,  0xD0, "vld",  R2, [Rv, Ri],     VLoad,  [UseVl]), // unit stride
    (Vlds, 0xD1, "vlds", R,  [Rv, Ri, Ri], VLoad,  [UseVl]), // stride in bytes (rs2)
    (Vldx, 0xD2, "vldx", R,  [Rv, Ri, Rv], VLoad,  [UseVl]), // gather, byte indices (vs2)
    (Vst,  0xD3, "vst",  R2, [Rv, Ri],     VStore, [UseVl]), // unit stride
    (Vsts, 0xD4, "vsts", R,  [Rv, Ri, Ri], VStore, [UseVl]), // strided scatter
    (Vstx, 0xD5, "vstx", R,  [Rv, Ri, Rv], VStore, [UseVl]), // indexed scatter
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = HashSet::new();
        for &op in Op::ALL {
            assert!(seen.insert(op as u8), "duplicate opcode byte for {op:?}");
        }
    }

    #[test]
    fn mnemonics_are_unique_and_lowercase() {
        let mut seen = HashSet::new();
        for &op in Op::ALL {
            let mn = op.mnemonic();
            assert!(seen.insert(mn), "duplicate mnemonic {mn}");
            assert_eq!(mn, mn.to_lowercase());
        }
    }

    #[test]
    fn byte_roundtrip() {
        for &op in Op::ALL {
            assert_eq!(Op::from_u8(op as u8), Some(op));
        }
        assert_eq!(Op::from_u8(0xFF), None);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for &op in Op::ALL {
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Op::from_mnemonic("bogus"), None);
    }

    /// Each register operand (and memory base) has a field to fill, and
    /// an op has an immediate operand (a memory offset counts) exactly when
    /// its format has an immediate.
    #[test]
    fn sig_fills_the_format_fields() {
        for &op in Op::ALL {
            let (sig, f) = (op.sig(), op.format());
            let regs = sig.iter().filter(|k| !matches!(k, OperandSig::Imm | OperandSig::Lab));
            let imms = sig.iter().filter(|k| matches!(k, OperandSig::Imm | OperandSig::Lab));
            let mems = sig.iter().filter(|k| **k == OperandSig::Mem).count();
            assert_eq!(regs.count(), f.reg_fields().len(), "{op:?}");
            assert_eq!(imms.count() + mems, f.imm_bits().is_some() as usize, "{op:?}");
        }
    }

    #[test]
    fn indirect_jumps_are_jr_and_jalr() {
        let indirect: Vec<Op> = Op::ALL.iter().copied().filter(|op| op.is_indirect()).collect();
        assert_eq!(indirect, [Op::Jr, Op::Jalr]);
    }

    #[test]
    fn vector_classes_marked_vector() {
        assert!(Op::VaddVV.class().is_vector());
        assert!(Op::Vld.class().is_vector());
        assert!(Op::Vpopc.class().is_vector());
        assert!(!Op::Add.class().is_vector());
        assert!(!Op::Fadd.class().is_vector());
    }

    #[test]
    fn mem_classes() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::VStore.is_mem());
        assert!(!OpClass::VAdd.is_mem());
    }
}
