//! Threaded-code micro-ops: the pre-compiled form of one static
//! instruction, specialized at block-compile time so the hot execution
//! loop does no per-step decode work.
//!
//! A [`Uop`] carries everything the executor needs already extracted:
//! register slots as plain bytes, immediates sign-extended to their final
//! width, branch targets resolved to absolute byte addresses, and the
//! operation narrowed to a small function enum that the executor matches
//! *outside* its element loops (so the unmasked vector fast paths
//! monomorphize and the bounds checks hoist).
//!
//! Specialization policy, chosen so the µop executor is bit-exact against
//! [`crate::interp::step`]:
//!
//! * **Not compiled at all** ([`compile`] returns `None`): `barrier`,
//!   `halt`, and `vltcfg`. These are stateful at the [`crate::FuncSim`]
//!   level (rendezvous, liveness, repartition) and always execute through
//!   the interpreter, terminating the enclosing block.
//! * **Compiled to [`Uop::Interp`]**: masked vector operations (the
//!   `lane_enabled` family). The fast paths are monomorphized for the
//!   common unmasked case; a masked instruction falls back to the
//!   interpreter for that one step, without breaking the block.
//! * **Everything else** compiles to a specialized µop.
//!
//! The executor preserves every documented edge case of the interpreter:
//! div/rem-by-zero results, shift-amount low-6-bit masking,
//! `vextract`/`vinsert` index wrap modulo [`MAX_VL`], vector-compare
//! writes touching only bits `0..vl`, and element-order-exact vector
//! memory address recording into the [`AddrArena`].

use vlt_isa::{Op, MAX_VL};

use crate::arena::AddrArena;
use crate::error::ExecError;
use crate::interp;
use crate::memory::Memory;
use crate::program::{DecodedProgram, StaticInst};
use crate::state::ArchState;
use crate::trace::{DynInst, DynKind};

/// Scalar integer register-register function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluFn {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
}

/// Scalar integer register-immediate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluIFn {
    Add,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
}

/// Scalar load width/extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum LdW {
    D,
    W,
    Wu,
    B,
    Bu,
}

/// Scalar store width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum StW {
    D,
    W,
    B,
}

/// Conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Scalar FP three-register function (`rd, rs1, rs2`; `Fma` accumulates
/// into `rd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Fp3Fn {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Fma,
}

/// Scalar FP unary function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Fp2Fn {
    Sqrt,
    Neg,
    Abs,
    Mov,
}

/// Scalar FP comparison (writes an integer register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FpCmpFn {
    Eq,
    Lt,
    Le,
}

/// Elementwise vector function over raw 64-bit element patterns (the `F*`
/// variants reinterpret them as `f64`, exactly as the interpreter does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VFn {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Min,
    Max,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
}

/// Vector-compare function (writes mask bits `0..vl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VCmpFn {
    Seq,
    Sne,
    Slt,
    Sge,
    Feq,
    Flt,
    Fle,
}

/// Vector reduction function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VRedFn {
    Sum,
    Min,
    Max,
    FSum,
    FMin,
    FMax,
}

/// Vector memory addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VMode {
    Unit,
    Strided,
    Indexed,
}

/// One threaded-code micro-op. All operands are pre-extracted; immediates
/// are sign-extended and branch targets absolute. See the module docs for
/// the specialization policy.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum Uop {
    /// `nop` (and any future effect-free instruction).
    Nop,
    /// Integer register-register ALU op.
    Alu { f: AluFn, rd: u8, rs1: u8, rs2: u8 },
    /// Integer register-immediate ALU op.
    AluI { f: AluIFn, rd: u8, rs1: u8, imm: i64 },
    /// Load an immediate (`lui`, value precomputed).
    MovImm { rd: u8, imm: u64 },
    /// `tid rd`.
    Tid { rd: u8 },
    /// `nthr rd`.
    Nthr { rd: u8 },
    /// `setvl rd, rs1` (may fault on a zero request).
    SetVl { rd: u8, rs1: u8 },
    /// `getvl rd`.
    GetVl { rd: u8 },
    /// `region imm` marker.
    Region { region: u32 },
    /// Scalar integer load.
    Load { w: LdW, rd: u8, rs1: u8, imm: i64 },
    /// Scalar integer store (`rs` is the value register — the encoding's
    /// `rd` field).
    Store { w: StW, rs: u8, rs1: u8, imm: i64 },
    /// `fld`.
    FLoad { rd: u8, rs1: u8, imm: i64 },
    /// `fsd` (`rs` is the FP value register).
    FStore { rs: u8, rs1: u8, imm: i64 },
    /// Conditional branch; `target` is the absolute taken-path address.
    Br { c: BrCond, rs1: u8, rs2: u8, target: u64 },
    /// `j`/`jal` (`link` writes `x31 = pc + 4`).
    Jmp { target: u64, link: bool },
    /// `jr`/`jalr` (dynamic target from `rs1`; `link` writes `rd`).
    JmpR { rd: u8, rs1: u8, link: bool },
    /// Scalar FP three-register op.
    Fp3 { f: Fp3Fn, rd: u8, rs1: u8, rs2: u8 },
    /// Scalar FP unary op.
    Fp2 { f: Fp2Fn, rd: u8, rs1: u8 },
    /// Scalar FP compare into an integer register.
    FpCmp { f: FpCmpFn, rd: u8, rs1: u8, rs2: u8 },
    /// `fcvt.f.x`.
    FCvtFx { rd: u8, rs1: u8 },
    /// `fcvt.x.f`.
    FCvtXf { rd: u8, rs1: u8 },
    /// Unmasked elementwise vector-vector op.
    VVV { f: VFn, rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked vector-scalar op, scalar from `x[rs2]`.
    VVS { f: VFn, rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked vector-scalar op, scalar from `f[rs2]` bits.
    VVFs { f: VFn, rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked `vfma.vv` (accumulates into `rd`).
    VFma { rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked `vfma.vs`.
    VFmaS { rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked `vfsqrt`.
    VSqrt { rd: u8, rs1: u8 },
    /// Unmasked `vcvt.f.x`.
    VCvtFx { rd: u8, rs1: u8 },
    /// Unmasked `vcvt.x.f`.
    VCvtXf { rd: u8, rs1: u8 },
    /// Vector compare into the mask register.
    VCmp { f: VCmpFn, rs1: u8, rs2: u8 },
    /// `vmnot`.
    MNot,
    /// `vmset`.
    MSet,
    /// `vpopc rd`.
    Popc { rd: u8 },
    /// `vmfirst rd`.
    MFirst { rd: u8 },
    /// `vmgetb rd`.
    MGetB { rd: u8 },
    /// `vmsetb rs1`.
    MSetB { rs1: u8 },
    /// Unmasked `vmv`.
    Vmv { rd: u8, rs1: u8 },
    /// `vmerge` (always reads the mask register).
    VMerge { rd: u8, rs1: u8, rs2: u8 },
    /// `vid`.
    Vid { rd: u8 },
    /// Unmasked `vsplat`.
    VSplat { rd: u8, rs1: u8 },
    /// Unmasked `vfsplat`.
    VFSplat { rd: u8, rs1: u8 },
    /// `vextract rd, rs1, rs2` (index wraps modulo [`MAX_VL`]).
    VExtract { rd: u8, rs1: u8, rs2: u8 },
    /// `vfextract`.
    VFExtract { rd: u8, rs1: u8, rs2: u8 },
    /// `vinsert rd, rs1, rs2`.
    VInsert { rd: u8, rs1: u8, rs2: u8 },
    /// `vfinsert`.
    VFInsert { rd: u8, rs1: u8, rs2: u8 },
    /// Vector reduction into a scalar register.
    VRed { f: VRedFn, rd: u8, rs1: u8 },
    /// Unmasked vector load.
    VLd { m: VMode, rd: u8, rs1: u8, rs2: u8 },
    /// Unmasked vector store (`rs` is the value register).
    VSt { m: VMode, rs: u8, rs1: u8, rs2: u8 },
    /// Fallback: execute this step through [`crate::interp::step`]
    /// (masked vector operations). The block continues afterwards.
    Interp,
}

/// True when the interpreter consults per-lane mask enables for this op
/// (the `lane_enabled` family). Masked instances of these fall back to
/// [`Uop::Interp`]; everything else either ignores the mask bit entirely
/// or reads the whole mask register by definition.
fn uses_lane_mask(op: Op) -> bool {
    matches!(
        op,
        Op::VaddVV
            | Op::VsubVV
            | Op::VmulVV
            | Op::VandVV
            | Op::VorVV
            | Op::VxorVV
            | Op::VsllVV
            | Op::VsrlVV
            | Op::VsraVV
            | Op::VminVV
            | Op::VmaxVV
            | Op::VaddVS
            | Op::VsubVS
            | Op::VmulVS
            | Op::VandVS
            | Op::VorVS
            | Op::VxorVS
            | Op::VsllVS
            | Op::VsrlVS
            | Op::VsraVS
            | Op::VfaddVV
            | Op::VfsubVV
            | Op::VfmulVV
            | Op::VfdivVV
            | Op::VfminVV
            | Op::VfmaxVV
            | Op::VfmaVV
            | Op::Vfsqrt
            | Op::VfaddVS
            | Op::VfsubVS
            | Op::VfmulVS
            | Op::VfdivVS
            | Op::VfmaVS
            | Op::Vmv
            | Op::Vsplat
            | Op::Vfsplat
            | Op::VcvtFx
            | Op::VcvtXf
            | Op::Vld
            | Op::Vlds
            | Op::Vldx
            | Op::Vst
            | Op::Vsts
            | Op::Vstx
    )
}

/// Compile one static instruction into a micro-op. Returns `None` for the
/// block-terminating stateful instructions (`barrier`, `halt`, `vltcfg`)
/// that must always execute through the interpreter.
pub fn compile(si: &StaticInst) -> Option<Uop> {
    let inst = si.inst;
    let (rd, rs1, rs2, imm) = (inst.rd, inst.rs1, inst.rs2, inst.imm as i64);
    if inst.masked && uses_lane_mask(inst.op) {
        return Some(Uop::Interp);
    }
    let alu = |f| Uop::Alu { f, rd, rs1, rs2 };
    let alui = |f| Uop::AluI { f, rd, rs1, imm };
    let load = |w| Uop::Load { w, rd, rs1, imm };
    let store = |w| Uop::Store { w, rs: rd, rs1, imm };
    let br = |c| Uop::Br { c, rs1, rs2, target: (si.pc as i64 + 4 * imm) as u64 };
    let fp3 = |f| Uop::Fp3 { f, rd, rs1, rs2 };
    let fp2 = |f| Uop::Fp2 { f, rd, rs1 };
    let fcmp = |f| Uop::FpCmp { f, rd, rs1, rs2 };
    let vvv = |f| Uop::VVV { f, rd, rs1, rs2 };
    let vvs = |f| Uop::VVS { f, rd, rs1, rs2 };
    let vvfs = |f| Uop::VVFs { f, rd, rs1, rs2 };
    let vcmp = |f| Uop::VCmp { f, rs1, rs2 };
    let vred = |f| Uop::VRed { f, rd, rs1 };
    Some(match inst.op {
        Op::Barrier | Op::Halt | Op::VltCfg => return None,

        Op::Nop => Uop::Nop,
        Op::Tid => Uop::Tid { rd },
        Op::Nthr => Uop::Nthr { rd },
        Op::SetVl => Uop::SetVl { rd, rs1 },
        Op::GetVl => Uop::GetVl { rd },
        Op::Region => Uop::Region { region: inst.imm as u32 },

        Op::Add => alu(AluFn::Add),
        Op::Sub => alu(AluFn::Sub),
        Op::Mul => alu(AluFn::Mul),
        Op::Div => alu(AluFn::Div),
        Op::Rem => alu(AluFn::Rem),
        Op::And => alu(AluFn::And),
        Op::Or => alu(AluFn::Or),
        Op::Xor => alu(AluFn::Xor),
        Op::Sll => alu(AluFn::Sll),
        Op::Srl => alu(AluFn::Srl),
        Op::Sra => alu(AluFn::Sra),
        Op::Slt => alu(AluFn::Slt),
        Op::Sltu => alu(AluFn::Sltu),

        Op::Addi => alui(AluIFn::Add),
        Op::Andi => alui(AluIFn::And),
        Op::Ori => alui(AluIFn::Or),
        Op::Xori => alui(AluIFn::Xor),
        Op::Slli => alui(AluIFn::Sll),
        Op::Srli => alui(AluIFn::Srl),
        Op::Srai => alui(AluIFn::Sra),
        Op::Slti => alui(AluIFn::Slt),
        Op::Lui => Uop::MovImm { rd, imm: (imm << 13) as u64 },

        Op::Ld => load(LdW::D),
        Op::Lw => load(LdW::W),
        Op::Lwu => load(LdW::Wu),
        Op::Lb => load(LdW::B),
        Op::Lbu => load(LdW::Bu),
        Op::Sd => store(StW::D),
        Op::Sw => store(StW::W),
        Op::Sb => store(StW::B),
        Op::Fld => Uop::FLoad { rd, rs1, imm },
        Op::Fsd => Uop::FStore { rs: rd, rs1, imm },

        Op::Beq => br(BrCond::Eq),
        Op::Bne => br(BrCond::Ne),
        Op::Blt => br(BrCond::Lt),
        Op::Bge => br(BrCond::Ge),
        Op::Bltu => br(BrCond::Ltu),
        Op::Bgeu => br(BrCond::Geu),
        Op::J | Op::Jal => {
            Uop::Jmp { target: (si.pc as i64 + 4 * imm) as u64, link: inst.op == Op::Jal }
        }
        Op::Jr | Op::Jalr => Uop::JmpR { rd, rs1, link: inst.op == Op::Jalr },

        Op::Fadd => fp3(Fp3Fn::Add),
        Op::Fsub => fp3(Fp3Fn::Sub),
        Op::Fmul => fp3(Fp3Fn::Mul),
        Op::Fdiv => fp3(Fp3Fn::Div),
        Op::Fmin => fp3(Fp3Fn::Min),
        Op::Fmax => fp3(Fp3Fn::Max),
        Op::Fma => fp3(Fp3Fn::Fma),
        Op::Fsqrt => fp2(Fp2Fn::Sqrt),
        Op::Fneg => fp2(Fp2Fn::Neg),
        Op::Fabs => fp2(Fp2Fn::Abs),
        Op::Fmov => fp2(Fp2Fn::Mov),
        Op::Feq => fcmp(FpCmpFn::Eq),
        Op::Flt => fcmp(FpCmpFn::Lt),
        Op::Fle => fcmp(FpCmpFn::Le),
        Op::FcvtFx => Uop::FCvtFx { rd, rs1 },
        Op::FcvtXf => Uop::FCvtXf { rd, rs1 },

        Op::VaddVV => vvv(VFn::Add),
        Op::VsubVV => vvv(VFn::Sub),
        Op::VmulVV => vvv(VFn::Mul),
        Op::VandVV => vvv(VFn::And),
        Op::VorVV => vvv(VFn::Or),
        Op::VxorVV => vvv(VFn::Xor),
        Op::VsllVV => vvv(VFn::Sll),
        Op::VsrlVV => vvv(VFn::Srl),
        Op::VsraVV => vvv(VFn::Sra),
        Op::VminVV => vvv(VFn::Min),
        Op::VmaxVV => vvv(VFn::Max),

        Op::VaddVS => vvs(VFn::Add),
        Op::VsubVS => vvs(VFn::Sub),
        Op::VmulVS => vvs(VFn::Mul),
        Op::VandVS => vvs(VFn::And),
        Op::VorVS => vvs(VFn::Or),
        Op::VxorVS => vvs(VFn::Xor),
        Op::VsllVS => vvs(VFn::Sll),
        Op::VsrlVS => vvs(VFn::Srl),
        Op::VsraVS => vvs(VFn::Sra),

        Op::VfaddVV => vvv(VFn::FAdd),
        Op::VfsubVV => vvv(VFn::FSub),
        Op::VfmulVV => vvv(VFn::FMul),
        Op::VfdivVV => vvv(VFn::FDiv),
        Op::VfminVV => vvv(VFn::FMin),
        Op::VfmaxVV => vvv(VFn::FMax),
        Op::VfmaVV => Uop::VFma { rd, rs1, rs2 },
        Op::Vfsqrt => Uop::VSqrt { rd, rs1 },

        Op::VfaddVS => vvfs(VFn::FAdd),
        Op::VfsubVS => vvfs(VFn::FSub),
        Op::VfmulVS => vvfs(VFn::FMul),
        Op::VfdivVS => vvfs(VFn::FDiv),
        Op::VfmaVS => Uop::VFmaS { rd, rs1, rs2 },

        Op::Vseq => vcmp(VCmpFn::Seq),
        Op::Vsne => vcmp(VCmpFn::Sne),
        Op::Vslt => vcmp(VCmpFn::Slt),
        Op::Vsge => vcmp(VCmpFn::Sge),
        Op::Vfeq => vcmp(VCmpFn::Feq),
        Op::Vflt => vcmp(VCmpFn::Flt),
        Op::Vfle => vcmp(VCmpFn::Fle),

        Op::Vmnot => Uop::MNot,
        Op::Vmset => Uop::MSet,
        Op::Vpopc => Uop::Popc { rd },
        Op::Vmfirst => Uop::MFirst { rd },
        Op::Vmgetb => Uop::MGetB { rd },
        Op::Vmsetb => Uop::MSetB { rs1 },

        Op::Vmv => Uop::Vmv { rd, rs1 },
        Op::Vmerge => Uop::VMerge { rd, rs1, rs2 },
        Op::Vid => Uop::Vid { rd },
        Op::Vsplat => Uop::VSplat { rd, rs1 },
        Op::Vfsplat => Uop::VFSplat { rd, rs1 },
        Op::Vextract => Uop::VExtract { rd, rs1, rs2 },
        Op::Vfextract => Uop::VFExtract { rd, rs1, rs2 },
        Op::Vinsert => Uop::VInsert { rd, rs1, rs2 },
        Op::Vfinsert => Uop::VFInsert { rd, rs1, rs2 },
        Op::VcvtFx => Uop::VCvtFx { rd, rs1 },
        Op::VcvtXf => Uop::VCvtXf { rd, rs1 },

        Op::Vredsum => vred(VRedFn::Sum),
        Op::Vredmin => vred(VRedFn::Min),
        Op::Vredmax => vred(VRedFn::Max),
        Op::Vfredsum => vred(VRedFn::FSum),
        Op::Vfredmin => vred(VRedFn::FMin),
        Op::Vfredmax => vred(VRedFn::FMax),

        Op::Vld => Uop::VLd { m: VMode::Unit, rd, rs1, rs2 },
        Op::Vlds => Uop::VLd { m: VMode::Strided, rd, rs1, rs2 },
        Op::Vldx => Uop::VLd { m: VMode::Indexed, rd, rs1, rs2 },
        Op::Vst => Uop::VSt { m: VMode::Unit, rs: rd, rs1, rs2 },
        Op::Vsts => Uop::VSt { m: VMode::Strided, rs: rd, rs1, rs2 },
        Op::Vstx => Uop::VSt { m: VMode::Indexed, rs: rd, rs1, rs2 },
    })
}

/// Execute one micro-op at (`sidx`, `pc`), bit-exactly mirroring
/// [`crate::interp::step`] for the same instruction. On success `st.pc`
/// advances (fall-through or branch target); on error `st.pc` still holds
/// `pc`, exactly as the interpreter leaves it.
///
/// The caller (the block executor) guarantees `st.pc == pc` on entry —
/// required by the [`Uop::Interp`] fallback, which re-dispatches through
/// the interpreter.
#[inline]
pub fn exec(
    u: Uop,
    sidx: u32,
    pc: u64,
    st: &mut ArchState,
    mem: &mut Memory,
    prog: &DecodedProgram,
    arena: &mut AddrArena,
) -> Result<DynInst, ExecError> {
    debug_assert_eq!(st.pc, pc, "block executor out of sync with thread pc");
    let mut kind = DynKind::Plain;
    let mut vl_field: u16 = 0;
    let mut next = pc + 4;

    // Clamped vector length: `st.vl <= MAX_VL` is an ArchState invariant,
    // restated here so LLVM drops the bounds checks in the element loops.
    macro_rules! vl {
        () => {{
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
            st.vl.min(MAX_VL)
        }};
    }

    match u {
        Uop::Nop => {}
        Uop::Tid { rd } => st.set_x(rd, st.tid as u64),
        Uop::Nthr { rd } => st.set_x(rd, st.nthr as u64),
        Uop::SetVl { rd, rs1 } => {
            let req = st.get_x(rs1);
            if req == 0 {
                return Err(ExecError::ZeroVl { tid: st.tid, pc });
            }
            st.vl = (req as usize).min(st.mvl);
            st.set_x(rd, st.vl as u64);
        }
        Uop::GetVl { rd } => st.set_x(rd, st.vl as u64),
        Uop::Region { region } => st.region = region,

        Uop::Alu { f, rd, rs1, rs2 } => {
            let (a, b) = (st.get_x(rs1), st.get_x(rs2));
            let v = match f {
                AluFn::Add => a.wrapping_add(b),
                AluFn::Sub => a.wrapping_sub(b),
                AluFn::Mul => a.wrapping_mul(b),
                AluFn::Div => {
                    if b == 0 {
                        u64::MAX
                    } else {
                        (a as i64).wrapping_div(b as i64) as u64
                    }
                }
                AluFn::Rem => {
                    if b == 0 {
                        a
                    } else {
                        (a as i64).wrapping_rem(b as i64) as u64
                    }
                }
                AluFn::And => a & b,
                AluFn::Or => a | b,
                AluFn::Xor => a ^ b,
                AluFn::Sll => a << (b & 63),
                AluFn::Srl => a >> (b & 63),
                AluFn::Sra => ((a as i64) >> (b & 63)) as u64,
                AluFn::Slt => ((a as i64) < (b as i64)) as u64,
                AluFn::Sltu => (a < b) as u64,
            };
            st.set_x(rd, v);
        }
        Uop::AluI { f, rd, rs1, imm } => {
            let a = st.get_x(rs1);
            let v = match f {
                AluIFn::Add => a.wrapping_add(imm as u64),
                AluIFn::And => a & imm as u64,
                AluIFn::Or => a | imm as u64,
                AluIFn::Xor => a ^ imm as u64,
                AluIFn::Sll => a << (imm as u64 & 63),
                AluIFn::Srl => a >> (imm as u64 & 63),
                AluIFn::Sra => ((a as i64) >> (imm as u64 & 63)) as u64,
                AluIFn::Slt => ((a as i64) < imm) as u64,
            };
            st.set_x(rd, v);
        }
        Uop::MovImm { rd, imm } => st.set_x(rd, imm),

        Uop::Load { w, rd, rs1, imm } => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            let (v, size) = match w {
                LdW::D => (mem.read_u64(addr), 8),
                LdW::W => (mem.read_u32(addr) as i32 as i64 as u64, 4),
                LdW::Wu => (mem.read_u32(addr) as u64, 4),
                LdW::B => (mem.read_u8(addr) as i8 as i64 as u64, 1),
                LdW::Bu => (mem.read_u8(addr) as u64, 1),
            };
            st.set_x(rd, v);
            kind = DynKind::Mem { addr, size };
        }
        Uop::Store { w, rs, rs1, imm } => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            let v = st.get_x(rs);
            let size = match w {
                StW::D => {
                    mem.write_u64(addr, v);
                    8
                }
                StW::W => {
                    mem.write_u32(addr, v as u32);
                    4
                }
                StW::B => {
                    mem.write_u8(addr, v as u8);
                    1
                }
            };
            kind = DynKind::Mem { addr, size };
        }
        Uop::FLoad { rd, rs1, imm } => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            st.f[rd as usize] = mem.read_f64(addr);
            kind = DynKind::Mem { addr, size: 8 };
        }
        Uop::FStore { rs, rs1, imm } => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            mem.write_f64(addr, st.f[rs as usize]);
            kind = DynKind::Mem { addr, size: 8 };
        }

        Uop::Br { c, rs1, rs2, target } => {
            let (a, b) = (st.get_x(rs1), st.get_x(rs2));
            let taken = match c {
                BrCond::Eq => a == b,
                BrCond::Ne => a != b,
                BrCond::Lt => (a as i64) < (b as i64),
                BrCond::Ge => (a as i64) >= (b as i64),
                BrCond::Ltu => a < b,
                BrCond::Geu => a >= b,
            };
            if taken {
                next = target;
            }
            kind = DynKind::Branch { taken, target };
        }
        Uop::Jmp { target, link } => {
            if link {
                st.set_x(31, pc + 4);
            }
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }
        Uop::JmpR { rd, rs1, link } => {
            // Target reads before the link write (`jalr rd, rd` works).
            let target = st.get_x(rs1);
            if link {
                st.set_x(rd, pc + 4);
            }
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }

        Uop::Fp3 { f, rd, rs1, rs2 } => {
            let (a, b) = (st.f[rs1 as usize], st.f[rs2 as usize]);
            st.f[rd as usize] = match f {
                Fp3Fn::Add => a + b,
                Fp3Fn::Sub => a - b,
                Fp3Fn::Mul => a * b,
                Fp3Fn::Div => a / b,
                Fp3Fn::Min => a.min(b),
                Fp3Fn::Max => a.max(b),
                Fp3Fn::Fma => a.mul_add(b, st.f[rd as usize]),
            };
        }
        Uop::Fp2 { f, rd, rs1 } => {
            let a = st.f[rs1 as usize];
            st.f[rd as usize] = match f {
                Fp2Fn::Sqrt => a.sqrt(),
                Fp2Fn::Neg => -a,
                Fp2Fn::Abs => a.abs(),
                Fp2Fn::Mov => a,
            };
        }
        Uop::FpCmp { f, rd, rs1, rs2 } => {
            let (a, b) = (st.f[rs1 as usize], st.f[rs2 as usize]);
            let v = match f {
                FpCmpFn::Eq => a == b,
                FpCmpFn::Lt => a < b,
                FpCmpFn::Le => a <= b,
            };
            st.set_x(rd, v as u64);
        }
        Uop::FCvtFx { rd, rs1 } => st.f[rd as usize] = st.get_x(rs1) as i64 as f64,
        Uop::FCvtXf { rd, rs1 } => st.set_x(rd, st.f[rs1 as usize] as i64 as u64),

        Uop::VVV { f, rd, rs1, rs2 } => {
            let vl = vl!();
            let (rd, rs1, rs2) = (rd as usize, rs1 as usize, rs2 as usize);
            // Match outside the loop so each function monomorphizes into a
            // straight unmasked element loop.
            macro_rules! lp {
                ($g:expr) => {
                    for e in 0..vl {
                        let (a, b) = (st.v[rs1][e], st.v[rs2][e]);
                        st.v[rd][e] = $g(a, b);
                    }
                };
            }
            match f {
                VFn::Add => lp!(|a: u64, b: u64| a.wrapping_add(b)),
                VFn::Sub => lp!(|a: u64, b: u64| a.wrapping_sub(b)),
                VFn::Mul => lp!(|a: u64, b: u64| a.wrapping_mul(b)),
                VFn::And => lp!(|a, b| a & b),
                VFn::Or => lp!(|a, b| a | b),
                VFn::Xor => lp!(|a, b| a ^ b),
                VFn::Sll => lp!(|a: u64, b: u64| a << (b & 63)),
                VFn::Srl => lp!(|a: u64, b: u64| a >> (b & 63)),
                VFn::Sra => lp!(|a: u64, b: u64| ((a as i64) >> (b & 63)) as u64),
                VFn::Min => lp!(|a: u64, b: u64| (a as i64).min(b as i64) as u64),
                VFn::Max => lp!(|a: u64, b: u64| (a as i64).max(b as i64) as u64),
                VFn::FAdd => lp!(fbin(|a, b| a + b)),
                VFn::FSub => lp!(fbin(|a, b| a - b)),
                VFn::FMul => lp!(fbin(|a, b| a * b)),
                VFn::FDiv => lp!(fbin(|a, b| a / b)),
                VFn::FMin => lp!(fbin(f64::min)),
                VFn::FMax => lp!(fbin(f64::max)),
            }
        }
        Uop::VVS { f, rd, rs1, rs2 } => {
            let vl = vl!();
            let s = st.get_x(rs2);
            vs_loop(st, f, rd, rs1, s, vl);
        }
        Uop::VVFs { f, rd, rs1, rs2 } => {
            let vl = vl!();
            let s = st.f[rs2 as usize].to_bits();
            vs_loop(st, f, rd, rs1, s, vl);
        }
        Uop::VFma { rd, rs1, rs2 } => {
            let vl = vl!();
            let (rd, rs1, rs2) = (rd as usize, rs1 as usize, rs2 as usize);
            for e in 0..vl {
                let acc = f64::from_bits(st.v[rd][e]);
                let a = f64::from_bits(st.v[rs1][e]);
                let b = f64::from_bits(st.v[rs2][e]);
                st.v[rd][e] = a.mul_add(b, acc).to_bits();
            }
        }
        Uop::VFmaS { rd, rs1, rs2 } => {
            let vl = vl!();
            let s = st.f[rs2 as usize];
            let (rd, rs1) = (rd as usize, rs1 as usize);
            for e in 0..vl {
                let acc = f64::from_bits(st.v[rd][e]);
                let a = f64::from_bits(st.v[rs1][e]);
                st.v[rd][e] = a.mul_add(s, acc).to_bits();
            }
        }
        Uop::VSqrt { rd, rs1 } => {
            let vl = vl!();
            let (rd, rs1) = (rd as usize, rs1 as usize);
            for e in 0..vl {
                st.v[rd][e] = f64::from_bits(st.v[rs1][e]).sqrt().to_bits();
            }
        }
        Uop::VCvtFx { rd, rs1 } => {
            let vl = vl!();
            let (rd, rs1) = (rd as usize, rs1 as usize);
            for e in 0..vl {
                st.v[rd][e] = ((st.v[rs1][e] as i64) as f64).to_bits();
            }
        }
        Uop::VCvtXf { rd, rs1 } => {
            let vl = vl!();
            let (rd, rs1) = (rd as usize, rs1 as usize);
            for e in 0..vl {
                st.v[rd][e] = (f64::from_bits(st.v[rs1][e]) as i64) as u64;
            }
        }

        Uop::VCmp { f, rs1, rs2 } => {
            let vl = vl!();
            let (rs1, rs2) = (rs1 as usize, rs2 as usize);
            macro_rules! lp {
                ($g:expr) => {
                    for e in 0..vl {
                        let (a, b) = (st.v[rs1][e], st.v[rs2][e]);
                        if $g(a, b) {
                            st.vm |= 1 << e;
                        } else {
                            st.vm &= !(1 << e);
                        }
                    }
                };
            }
            match f {
                VCmpFn::Seq => lp!(|a, b| a == b),
                VCmpFn::Sne => lp!(|a, b| a != b),
                VCmpFn::Slt => lp!(|a: u64, b: u64| (a as i64) < (b as i64)),
                VCmpFn::Sge => lp!(|a: u64, b: u64| (a as i64) >= (b as i64)),
                VCmpFn::Feq => lp!(|a, b| f64::from_bits(a) == f64::from_bits(b)),
                VCmpFn::Flt => lp!(|a, b| f64::from_bits(a) < f64::from_bits(b)),
                VCmpFn::Fle => lp!(|a, b| f64::from_bits(a) <= f64::from_bits(b)),
            }
        }

        Uop::MNot => {
            st.vm = !st.vm;
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Uop::MSet => {
            st.vm = u64::MAX;
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Uop::Popc { rd } => {
            st.set_x(rd, (st.vm & interp::vl_mask(st.vl)).count_ones() as u64);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Uop::MFirst { rd } => {
            let v = st.vm & interp::vl_mask(st.vl);
            st.set_x(rd, if v == 0 { u64::MAX } else { v.trailing_zeros() as u64 });
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Uop::MGetB { rd } => {
            st.set_x(rd, st.vm & interp::vl_mask(st.vl));
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Uop::MSetB { rs1 } => {
            st.vm = st.get_x(rs1);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }

        Uop::Vmv { rd, rs1 } => {
            let vl = vl!();
            let (rd, rs1) = (rd as usize, rs1 as usize);
            for e in 0..vl {
                st.v[rd][e] = st.v[rs1][e];
            }
        }
        Uop::VMerge { rd, rs1, rs2 } => {
            let vl = vl!();
            let (rd, rs1, rs2) = (rd as usize, rs1 as usize, rs2 as usize);
            for e in 0..vl {
                st.v[rd][e] = if (st.vm >> e) & 1 == 1 { st.v[rs1][e] } else { st.v[rs2][e] };
            }
        }
        Uop::Vid { rd } => {
            let vl = vl!();
            let rd = rd as usize;
            for e in 0..vl {
                st.v[rd][e] = e as u64;
            }
        }
        Uop::VSplat { rd, rs1 } => {
            let vl = vl!();
            let s = st.get_x(rs1);
            let rd = rd as usize;
            for e in 0..vl {
                st.v[rd][e] = s;
            }
        }
        Uop::VFSplat { rd, rs1 } => {
            let vl = vl!();
            let s = st.f[rs1 as usize].to_bits();
            let rd = rd as usize;
            for e in 0..vl {
                st.v[rd][e] = s;
            }
        }
        Uop::VExtract { rd, rs1, rs2 } => {
            let idx = st.get_x(rs2) as usize % MAX_VL;
            st.set_x(rd, st.v[rs1 as usize][idx]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Uop::VFExtract { rd, rs1, rs2 } => {
            let idx = st.get_x(rs2) as usize % MAX_VL;
            st.f[rd as usize] = f64::from_bits(st.v[rs1 as usize][idx]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Uop::VInsert { rd, rs1, rs2 } => {
            let idx = st.get_x(rs1) as usize % MAX_VL;
            st.v[rd as usize][idx] = st.get_x(rs2);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Uop::VFInsert { rd, rs1, rs2 } => {
            let idx = st.get_x(rs1) as usize % MAX_VL;
            st.v[rd as usize][idx] = st.f[rs2 as usize].to_bits();
            vl_field = 1;
            kind = DynKind::Vector;
        }

        Uop::VRed { f, rd, rs1 } => {
            let vl = vl!();
            let rs1 = rs1 as usize;
            match f {
                VRedFn::Sum => {
                    let mut acc = 0u64;
                    for e in 0..vl {
                        acc = acc.wrapping_add(st.v[rs1][e]);
                    }
                    st.set_x(rd, acc);
                }
                VRedFn::Min | VRedFn::Max => {
                    let mut acc = st.v[rs1][0] as i64;
                    for e in 1..vl {
                        let v = st.v[rs1][e] as i64;
                        acc = if f == VRedFn::Min { acc.min(v) } else { acc.max(v) };
                    }
                    st.set_x(rd, acc as u64);
                }
                VRedFn::FSum => {
                    let mut acc = 0f64;
                    for e in 0..vl {
                        acc += f64::from_bits(st.v[rs1][e]);
                    }
                    st.f[rd as usize] = acc;
                }
                VRedFn::FMin | VRedFn::FMax => {
                    let mut acc = f64::from_bits(st.v[rs1][0]);
                    for e in 1..vl {
                        let v = f64::from_bits(st.v[rs1][e]);
                        acc = if f == VRedFn::FMin { acc.min(v) } else { acc.max(v) };
                    }
                    st.f[rd as usize] = acc;
                }
            }
        }

        Uop::VLd { m, rd, rs1, rs2 } => {
            let vl = st.vl.min(MAX_VL);
            vl_field = st.vl as u16;
            let base = st.get_x(rs1);
            let mut addrs = arena.begin(st.tid, vl);
            let rd = rd as usize;
            match m {
                VMode::Unit => {
                    for e in 0..vl {
                        let addr = base.wrapping_add(8 * e as u64);
                        st.v[rd][e] = mem.read_u64(addr);
                        addrs.push(addr);
                    }
                }
                VMode::Strided => {
                    let stride = st.get_x(rs2);
                    for e in 0..vl {
                        let addr = base.wrapping_add(stride.wrapping_mul(e as u64));
                        st.v[rd][e] = mem.read_u64(addr);
                        addrs.push(addr);
                    }
                }
                VMode::Indexed => {
                    let rs2 = rs2 as usize;
                    for e in 0..vl {
                        // Index read precedes the element write (`vldx
                        // vA, x, vA` self-gather works, as in the
                        // interpreter's per-element order).
                        let addr = base.wrapping_add(st.v[rs2][e]);
                        st.v[rd][e] = mem.read_u64(addr);
                        addrs.push(addr);
                    }
                }
            }
            kind = DynKind::VMem { addrs: addrs.finish() };
        }
        Uop::VSt { m, rs, rs1, rs2 } => {
            let vl = st.vl.min(MAX_VL);
            vl_field = st.vl as u16;
            let base = st.get_x(rs1);
            let mut addrs = arena.begin(st.tid, vl);
            let rs = rs as usize;
            match m {
                VMode::Unit => {
                    for e in 0..vl {
                        let addr = base.wrapping_add(8 * e as u64);
                        mem.write_u64(addr, st.v[rs][e]);
                        addrs.push(addr);
                    }
                }
                VMode::Strided => {
                    let stride = st.get_x(rs2);
                    for e in 0..vl {
                        let addr = base.wrapping_add(stride.wrapping_mul(e as u64));
                        mem.write_u64(addr, st.v[rs][e]);
                        addrs.push(addr);
                    }
                }
                VMode::Indexed => {
                    let rs2 = rs2 as usize;
                    for e in 0..vl {
                        let addr = base.wrapping_add(st.v[rs2][e]);
                        mem.write_u64(addr, st.v[rs][e]);
                        addrs.push(addr);
                    }
                }
            }
            kind = DynKind::VMem { addrs: addrs.finish() };
        }

        Uop::Interp => return interp::step(st, mem, prog, arena),
    }

    st.pc = next;
    Ok(DynInst { sidx, pc, vl: vl_field, kind })
}

/// Shared monomorphized vector-scalar element loop (scalar pre-read by the
/// caller from `x` or `f`).
#[inline]
fn vs_loop(st: &mut ArchState, f: VFn, rd: u8, rs1: u8, s: u64, vl: usize) {
    let (rd, rs1) = (rd as usize, rs1 as usize);
    macro_rules! lp {
        ($g:expr) => {
            for e in 0..vl {
                let a = st.v[rs1][e];
                st.v[rd][e] = $g(a, s);
            }
        };
    }
    match f {
        VFn::Add => lp!(|a: u64, s: u64| a.wrapping_add(s)),
        VFn::Sub => lp!(|a: u64, s: u64| a.wrapping_sub(s)),
        VFn::Mul => lp!(|a: u64, s: u64| a.wrapping_mul(s)),
        VFn::And => lp!(|a, s| a & s),
        VFn::Or => lp!(|a, s| a | s),
        VFn::Xor => lp!(|a, s| a ^ s),
        VFn::Sll => lp!(|a: u64, s: u64| a << (s & 63)),
        VFn::Srl => lp!(|a: u64, s: u64| a >> (s & 63)),
        VFn::Sra => lp!(|a: u64, s: u64| ((a as i64) >> (s & 63)) as u64),
        VFn::Min => lp!(|a: u64, s: u64| (a as i64).min(s as i64) as u64),
        VFn::Max => lp!(|a: u64, s: u64| (a as i64).max(s as i64) as u64),
        VFn::FAdd => lp!(fbin(|a, s| a + s)),
        VFn::FSub => lp!(fbin(|a, s| a - s)),
        VFn::FMul => lp!(fbin(|a, s| a * s)),
        VFn::FDiv => lp!(fbin(|a, s| a / s)),
        VFn::FMin => lp!(fbin(f64::min)),
        VFn::FMax => lp!(fbin(f64::max)),
    }
}

/// f64 view of a raw-element binary function (same helper the interpreter
/// uses, kept local so the closures inline).
#[inline]
fn fbin(f: impl Fn(f64, f64) -> f64) -> impl Fn(u64, u64) -> u64 {
    move |a, b| f(f64::from_bits(a), f64::from_bits(b)).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn decoded(src: &str) -> std::sync::Arc<DecodedProgram> {
        DecodedProgram::new(&assemble(src).unwrap())
    }

    #[test]
    fn stateful_ops_do_not_compile() {
        let p = decoded("barrier\nhalt\nli x1, 1\nvltcfg x1\n");
        assert!(compile(p.get(0)).is_none());
        assert!(compile(p.get(1)).is_none());
        assert!(compile(p.get(3)).is_none());
    }

    #[test]
    fn masked_lane_ops_fall_back_to_interp() {
        let p = decoded("vadd.vv v1, v2, v3, vm\nvadd.vv v1, v2, v3\n");
        assert!(matches!(compile(p.get(0)), Some(Uop::Interp)));
        assert!(matches!(compile(p.get(1)), Some(Uop::VVV { f: VFn::Add, .. })));
    }

    #[test]
    fn branch_targets_are_absolute() {
        let p = decoded("beq x1, x2, next\nnop\nnext:\nhalt\n");
        match compile(p.get(0)) {
            Some(Uop::Br { target, .. }) => assert_eq!(target, p.get(2).pc),
            other => panic!("expected Br, got {other:?}"),
        }
    }

    /// Every opcode either refuses to compile (the three stateful ones) or
    /// produces a µop — no silent holes when the ISA grows.
    #[test]
    fn compile_is_total() {
        for &op in Op::ALL {
            let si = StaticInst {
                inst: vlt_isa::Inst { op, rd: 1, rs1: 2, rs2: 3, imm: 1, masked: false },
                class: op.class(),
                defs: vec![],
                uses: vec![],
                pc: 0x1000,
            };
            let compiled = compile(&si);
            assert_eq!(
                compiled.is_none(),
                matches!(op, Op::Barrier | Op::Halt | Op::VltCfg),
                "{op:?}"
            );
        }
    }
}
