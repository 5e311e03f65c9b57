//! The instruction interpreter: the one definition of what each
//! instruction does. [`step`] finds the instruction at `st.pc` and
//! [`exec`] executes it, producing the dynamic record the timing models
//! replay. The block engine ([`crate::block`]) runs [`exec`] on the
//! instructions of a compiled block; the static verifier folds constants
//! through [`int_alu`] and [`clamp_vl`]; it and the checked mode
//! ([`crate::checker`]) check the accesses [`access_size`] and
//! [`vmem_addr`] describe.
//!
//! Semantics notes:
//!
//! * Integer arithmetic wraps (two's complement, 64-bit).
//! * `div`/`rem` by zero produce `-1` / the dividend (no trap).
//! * Shift amounts use the low 6 bits.
//! * `setvl` clamps its request, read unsigned, to the partition MVL.
//! * Masked-off vector elements keep their previous destination value.
//! * Vector compares write mask bits `0..vl`; higher bits are untouched.
//! * `vextract`/`vinsert` indices wrap modulo [`MAX_VL`].
//! * Every NaN that FP arithmetic produces is [`CANONICAL_NAN`], so which
//!   NaN comes out is a property of the ISA, not of code generation. Moves
//!   and sign ops (`fmov`, `fneg`, `fabs`, splats, inserts, extracts,
//!   loads and stores) keep their operand's bits.

use vlt_isa::{Op, MAX_VL};

use crate::arena::AddrArena;
use crate::error::ExecError;
use crate::memory::Memory;
use crate::program::{DecodedProgram, StaticInst};
use crate::state::ArchState;
use crate::trace::{DynInst, DynKind};

/// Execute the instruction at `st.pc`, updating `st` and `mem`. Vector
/// memory instructions record their element addresses into `arena` under
/// the thread's ring segment.
///
/// The caller (the [`crate::FuncSim`] driver) is responsible for barrier
/// rendezvous; this function simply reports the barrier and moves on.
pub fn step(
    st: &mut ArchState,
    mem: &mut Memory,
    prog: &DecodedProgram,
    arena: &mut AddrArena,
) -> Result<DynInst, ExecError> {
    let sidx = prog.index_of(st.pc).ok_or(ExecError::BadPc { tid: st.tid, pc: st.pc })?;
    exec(st, mem, prog.get(sidx), sidx as u32, arena)
}

/// Execute `si`, the instruction with static index `sidx`, which must be
/// the one at `st.pc`. On success `st.pc` advances to the fall-through or
/// the branch target; on a fault it still rests on `si`.
///
/// Kept out of line, so both engines run one copy: inlined into the block
/// engine's loop, its element loops measured slower.
#[inline(never)]
pub fn exec(
    st: &mut ArchState,
    mem: &mut Memory,
    si: &StaticInst,
    sidx: u32,
    arena: &mut AddrArena,
) -> Result<DynInst, ExecError> {
    debug_assert_eq!(st.pc, si.pc, "executing an instruction away from the thread's pc");
    let inst = si.inst;
    let op = inst.op;
    let pc = st.pc;
    let (rd, rs1, rs2, imm) = (inst.rd, inst.rs1, inst.rs2, inst.imm as i64);
    let masked = inst.masked;
    let (d, s1, s2) = (rd as usize, rs1 as usize, rs2 as usize);

    let mut kind = DynKind::Plain;
    let mut vl_field: u16 = 0;
    let mut next = pc + 4;

    macro_rules! branch {
        ($cond:expr) => {{
            let taken = $cond;
            let target = (pc as i64 + 4 * imm) as u64;
            if taken {
                next = target;
            }
            kind = DynKind::Branch { taken, target };
        }};
    }

    // A vector instruction over the current vl.
    macro_rules! vector {
        () => {{
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }};
    }
    // Elementwise helpers over the enabled elements.
    macro_rules! vv {
        ($f:expr) => {{
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| v[d][e] = $f(v[s1][e], v[s2][e]));
            vector!();
        }};
    }
    macro_rules! vs {
        ($f:expr, $scalar:expr) => {{
            let s = $scalar;
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| v[d][e] = $f(v[s1][e], s));
            vector!();
        }};
    }
    macro_rules! vcmp {
        ($f:expr) => {{
            for e in 0..st.vl.min(MAX_VL) {
                if $f(st.v[s1][e], st.v[s2][e]) {
                    st.vm |= 1 << e;
                } else {
                    st.vm &= !(1 << e);
                }
            }
            vector!();
        }};
    }

    // A vector load or store; `$op` is a constant, so each arm's element
    // loop computes its own addressing mode.
    macro_rules! vmem {
        ($op:path, $dir:ident) => {{
            let (base, stride) = (st.get_x(rs1), st.get_x(rs2));
            let mut addrs = arena.begin(st.tid, st.vl);
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                // The index reads before the element moves (`vldx vA, x, vA`
                // gathers through its own old value).
                let addr = vmem_addr($op, base, stride, v[s2][e], e);
                vmem!(@$dir v, addr, e);
                addrs.push(addr);
            });
            vl_field = st.vl as u16;
            kind = DynKind::VMem { addrs: addrs.finish() };
        }};
        (@load $v:ident, $addr:ident, $e:ident) => {
            $v[d][$e] = mem.read_u64($addr)
        };
        (@store $v:ident, $addr:ident, $e:ident) => {
            mem.write_u64($addr, $v[d][$e])
        };
    }

    match op {
        Op::Nop => {}
        Op::Halt => {
            st.halted = true;
            kind = DynKind::Halt;
        }
        Op::Barrier => kind = DynKind::Barrier,
        Op::Tid => st.set_x(rd, st.tid as u64),
        Op::Nthr => st.set_x(rd, st.nthr as u64),
        Op::VltCfg => {
            let v = st.get_x(rs1);
            let Some(h) = vlt_isa::vltcfg::unpack(v) else {
                return Err(ExecError::BadVltCfg { tid: st.tid, threads: v });
            };
            st.mvl = vlt_isa::vltcfg::effective_mvl(MAX_VL, h);
            st.vl = clamp_vl(st.vl as u64, st.mvl);
            kind = DynKind::VltCfg { threads: h.threads, clusters: h.clusters };
        }
        Op::SetVl => {
            let req = st.get_x(rs1);
            if req == 0 {
                return Err(ExecError::ZeroVl { tid: st.tid, pc });
            }
            st.vl = clamp_vl(req, st.mvl);
            st.set_x(rd, st.vl as u64);
        }
        Op::GetVl => st.set_x(rd, st.vl as u64),
        Op::Region => st.region = inst.imm as u32,

        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Sll
        | Op::Srl
        | Op::Sra
        | Op::Slt
        | Op::Sltu => {
            let v = int_alu(op, st.get_x(rs1), st.get_x(rs2));
            st.set_x(rd, v.expect("a register-form ALU op"));
        }
        Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slli | Op::Srli | Op::Srai | Op::Slti => {
            let v = int_alu(op, st.get_x(rs1), imm as u64);
            st.set_x(rd, v.expect("an immediate-form ALU op"));
        }
        Op::Lui => st.set_x(rd, (imm << 13) as u64),

        Op::Ld | Op::Lw | Op::Lwu | Op::Lb | Op::Lbu | Op::Fld => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            match op {
                Op::Ld => st.set_x(rd, mem.read_u64(addr)),
                Op::Lw => st.set_x(rd, mem.read_u32(addr) as i32 as i64 as u64),
                Op::Lwu => st.set_x(rd, mem.read_u32(addr) as u64),
                Op::Lb => st.set_x(rd, mem.read_u8(addr) as i8 as i64 as u64),
                Op::Lbu => st.set_x(rd, mem.read_u8(addr) as u64),
                _ => st.f[d] = mem.read_f64(addr),
            }
            kind = DynKind::Mem { addr, size: access_size(op).expect("a scalar load") };
        }
        Op::Sd | Op::Sw | Op::Sb | Op::Fsd => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            match op {
                Op::Sd => mem.write_u64(addr, st.get_x(rd)),
                Op::Sw => mem.write_u32(addr, st.get_x(rd) as u32),
                Op::Sb => mem.write_u8(addr, st.get_x(rd) as u8),
                _ => mem.write_f64(addr, st.f[d]),
            }
            kind = DynKind::Mem { addr, size: access_size(op).expect("a scalar store") };
        }

        Op::Beq => branch!(st.get_x(rs1) == st.get_x(rs2)),
        Op::Bne => branch!(st.get_x(rs1) != st.get_x(rs2)),
        Op::Blt => branch!((st.get_x(rs1) as i64) < (st.get_x(rs2) as i64)),
        Op::Bge => branch!((st.get_x(rs1) as i64) >= (st.get_x(rs2) as i64)),
        Op::Bltu => branch!(st.get_x(rs1) < st.get_x(rs2)),
        Op::Bgeu => branch!(st.get_x(rs1) >= st.get_x(rs2)),
        Op::J | Op::Jal => {
            if op == Op::Jal {
                st.set_x(31, pc + 4);
            }
            let target = (pc as i64 + 4 * imm) as u64;
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }
        Op::Jr | Op::Jalr => {
            // The target reads before the link writes (`jalr rd, rd` works).
            let target = st.get_x(rs1);
            if op == Op::Jalr {
                st.set_x(rd, pc + 4);
            }
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }

        Op::Fadd => st.f[d] = canon(st.f[s1] + st.f[s2]),
        Op::Fsub => st.f[d] = canon(st.f[s1] - st.f[s2]),
        Op::Fmul => st.f[d] = canon(st.f[s1] * st.f[s2]),
        Op::Fdiv => st.f[d] = canon(st.f[s1] / st.f[s2]),
        Op::Fmin => st.f[d] = canon(st.f[s1].min(st.f[s2])),
        Op::Fmax => st.f[d] = canon(st.f[s1].max(st.f[s2])),
        Op::Fma => st.f[d] = canon(st.f[s1].mul_add(st.f[s2], st.f[d])),
        Op::Fsqrt => st.f[d] = canon(st.f[s1].sqrt()),
        Op::Fneg => st.f[d] = -st.f[s1],
        Op::Fabs => st.f[d] = st.f[s1].abs(),
        Op::Fmov => st.f[d] = st.f[s1],
        Op::Feq => st.set_x(rd, (st.f[s1] == st.f[s2]) as u64),
        Op::Flt => st.set_x(rd, (st.f[s1] < st.f[s2]) as u64),
        Op::Fle => st.set_x(rd, (st.f[s1] <= st.f[s2]) as u64),
        Op::FcvtFx => st.f[d] = st.get_x(rs1) as i64 as f64,
        Op::FcvtXf => st.set_x(rd, st.f[s1] as i64 as u64),

        Op::VaddVV => vv!(|a: u64, b: u64| a.wrapping_add(b)),
        Op::VsubVV => vv!(|a: u64, b: u64| a.wrapping_sub(b)),
        Op::VmulVV => vv!(|a: u64, b: u64| a.wrapping_mul(b)),
        Op::VandVV => vv!(|a, b| a & b),
        Op::VorVV => vv!(|a, b| a | b),
        Op::VxorVV => vv!(|a, b| a ^ b),
        Op::VsllVV => vv!(|a: u64, b: u64| a << (b & 63)),
        Op::VsrlVV => vv!(|a: u64, b: u64| a >> (b & 63)),
        Op::VsraVV => vv!(|a: u64, b: u64| ((a as i64) >> (b & 63)) as u64),
        Op::VminVV => vv!(|a: u64, b: u64| (a as i64).min(b as i64) as u64),
        Op::VmaxVV => vv!(|a: u64, b: u64| (a as i64).max(b as i64) as u64),

        Op::VaddVS => vs!(|a: u64, s: u64| a.wrapping_add(s), st.get_x(rs2)),
        Op::VsubVS => vs!(|a: u64, s: u64| a.wrapping_sub(s), st.get_x(rs2)),
        Op::VmulVS => vs!(|a: u64, s: u64| a.wrapping_mul(s), st.get_x(rs2)),
        Op::VandVS => vs!(|a, s| a & s, st.get_x(rs2)),
        Op::VorVS => vs!(|a, s| a | s, st.get_x(rs2)),
        Op::VxorVS => vs!(|a, s| a ^ s, st.get_x(rs2)),
        Op::VsllVS => vs!(|a: u64, s: u64| a << (s & 63), st.get_x(rs2)),
        Op::VsrlVS => vs!(|a: u64, s: u64| a >> (s & 63), st.get_x(rs2)),
        Op::VsraVS => vs!(|a: u64, s: u64| ((a as i64) >> (s & 63)) as u64, st.get_x(rs2)),

        Op::VfaddVV => vv!(ff(|a, b| a + b)),
        Op::VfsubVV => vv!(ff(|a, b| a - b)),
        Op::VfmulVV => vv!(ff(|a, b| a * b)),
        Op::VfdivVV => vv!(ff(|a, b| a / b)),
        Op::VfminVV => vv!(ff(f64::min)),
        Op::VfmaxVV => vv!(ff(f64::max)),
        Op::VfmaVV => {
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                let (x, y) = (f64::from_bits(v[s1][e]), f64::from_bits(v[s2][e]));
                v[d][e] = canon(x.mul_add(y, f64::from_bits(v[d][e]))).to_bits();
            });
            vector!();
        }
        Op::Vfsqrt => {
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                v[d][e] = canon(f64::from_bits(v[s1][e]).sqrt()).to_bits();
            });
            vector!();
        }

        Op::VfaddVS => vs!(ff(|a, s| a + s), st.f[s2].to_bits()),
        Op::VfsubVS => vs!(ff(|a, s| a - s), st.f[s2].to_bits()),
        Op::VfmulVS => vs!(ff(|a, s| a * s), st.f[s2].to_bits()),
        Op::VfdivVS => vs!(ff(|a, s| a / s), st.f[s2].to_bits()),
        Op::VfmaVS => {
            let s = st.f[s2];
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                let x = f64::from_bits(v[s1][e]);
                v[d][e] = canon(x.mul_add(s, f64::from_bits(v[d][e]))).to_bits();
            });
            vector!();
        }

        Op::Vseq => vcmp!(|a, b| a == b),
        Op::Vsne => vcmp!(|a, b| a != b),
        Op::Vslt => vcmp!(|a: u64, b: u64| (a as i64) < (b as i64)),
        Op::Vsge => vcmp!(|a: u64, b: u64| (a as i64) >= (b as i64)),
        Op::Vfeq => vcmp!(|a, b| f64::from_bits(a) == f64::from_bits(b)),
        Op::Vflt => vcmp!(|a, b| f64::from_bits(a) < f64::from_bits(b)),
        Op::Vfle => vcmp!(|a, b| f64::from_bits(a) <= f64::from_bits(b)),

        Op::Vmnot => {
            st.vm = !st.vm;
            vector!();
        }
        Op::Vmset => {
            st.vm = u64::MAX;
            vector!();
        }
        Op::Vpopc => {
            st.set_x(rd, (st.vm & vl_mask(st.vl)).count_ones() as u64);
            vector!();
        }
        Op::Vmfirst => {
            let v = st.vm & vl_mask(st.vl);
            st.set_x(rd, if v == 0 { u64::MAX } else { v.trailing_zeros() as u64 });
            vector!();
        }
        Op::Vmgetb => {
            st.set_x(rd, st.vm & vl_mask(st.vl));
            vector!();
        }
        Op::Vmsetb => {
            st.vm = st.get_x(rs1);
            vector!();
        }

        Op::Vmv => {
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| v[d][e] = v[s1][e]);
            vector!();
        }
        Op::Vmerge => {
            for e in 0..st.vl.min(MAX_VL) {
                st.v[d][e] = if (st.vm >> e) & 1 == 1 { st.v[s1][e] } else { st.v[s2][e] };
            }
            vector!();
        }
        Op::Vid => {
            for e in 0..st.vl.min(MAX_VL) {
                st.v[d][e] = e as u64;
            }
            vector!();
        }
        Op::Vsplat | Op::Vfsplat => {
            let s = if op == Op::Vsplat { st.get_x(rs1) } else { st.f[s1].to_bits() };
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| v[d][e] = s);
            vector!();
        }
        Op::Vextract => {
            st.set_x(rd, st.v[s1][st.get_x(rs2) as usize % MAX_VL]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vfextract => {
            st.f[d] = f64::from_bits(st.v[s1][st.get_x(rs2) as usize % MAX_VL]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vinsert => {
            st.v[d][st.get_x(rs1) as usize % MAX_VL] = st.get_x(rs2);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vfinsert => {
            st.v[d][st.get_x(rs1) as usize % MAX_VL] = st.f[s2].to_bits();
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::VcvtFx => {
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                v[d][e] = ((v[s1][e] as i64) as f64).to_bits();
            });
            vector!();
        }
        Op::VcvtXf => {
            let v = &mut *st.v;
            for_enabled(st.vl, st.vm, masked, |e| {
                v[d][e] = (f64::from_bits(v[s1][e]) as i64) as u64;
            });
            vector!();
        }

        Op::Vredsum => {
            let mut acc = 0u64;
            for e in 0..st.vl {
                acc = acc.wrapping_add(st.v[s1][e]);
            }
            st.set_x(rd, acc);
            vector!();
        }
        Op::Vredmin | Op::Vredmax => {
            let mut acc = st.v[s1][0] as i64;
            for e in 1..st.vl {
                let v = st.v[s1][e] as i64;
                acc = if op == Op::Vredmin { acc.min(v) } else { acc.max(v) };
            }
            st.set_x(rd, acc as u64);
            vector!();
        }
        Op::Vfredsum => {
            let mut acc = 0f64;
            for e in 0..st.vl {
                acc += f64::from_bits(st.v[s1][e]);
            }
            st.f[d] = canon(acc);
            vector!();
        }
        Op::Vfredmin | Op::Vfredmax => {
            let mut acc = f64::from_bits(st.v[s1][0]);
            for e in 1..st.vl {
                let v = f64::from_bits(st.v[s1][e]);
                acc = if op == Op::Vfredmin { acc.min(v) } else { acc.max(v) };
            }
            st.f[d] = canon(acc);
            vector!();
        }

        Op::Vld => vmem!(Op::Vld, load),
        Op::Vlds => vmem!(Op::Vlds, load),
        Op::Vldx => vmem!(Op::Vldx, load),
        Op::Vst => vmem!(Op::Vst, store),
        Op::Vsts => vmem!(Op::Vsts, store),
        Op::Vstx => vmem!(Op::Vstx, store),
    }

    st.pc = next;
    Ok(DynInst { sidx, pc, vl: vl_field, kind })
}

/// The result of a scalar integer ALU op, register or immediate form, on
/// operands `a` and `b` (the immediate sign-extended), or `None` for every
/// other op.
#[inline]
pub fn int_alu(op: Op, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        Op::Add | Op::Addi => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::Div if b == 0 => u64::MAX,
        Op::Div => (a as i64).wrapping_div(b as i64) as u64,
        Op::Rem if b == 0 => a,
        Op::Rem => (a as i64).wrapping_rem(b as i64) as u64,
        Op::And | Op::Andi => a & b,
        Op::Or | Op::Ori => a | b,
        Op::Xor | Op::Xori => a ^ b,
        Op::Sll | Op::Slli => a << (b & 63),
        Op::Srl | Op::Srli => a >> (b & 63),
        Op::Sra | Op::Srai => ((a as i64) >> (b & 63)) as u64,
        Op::Slt | Op::Slti => ((a as i64) < (b as i64)) as u64,
        Op::Sltu => (a < b) as u64,
        _ => return None,
    })
}

/// The vector length a request of `req` elements gets under a partition
/// MVL of `mvl`: the request, read unsigned, clamped to the MVL. `setvl`
/// clamps its request this way, and `vltcfg` the current vl.
#[inline]
pub fn clamp_vl(req: u64, mvl: usize) -> usize {
    req.min(mvl as u64) as usize
}

/// Bytes a scalar load or store moves, or `None` for every other op.
#[inline]
pub fn access_size(op: Op) -> Option<u8> {
    match op {
        Op::Ld | Op::Sd | Op::Fld | Op::Fsd => Some(8),
        Op::Lw | Op::Lwu | Op::Sw => Some(4),
        Op::Lb | Op::Lbu | Op::Sb => Some(1),
        _ => None,
    }
}

/// The address of element `e` of a vector load or store `op` from `base`:
/// unit stride, `stride` bytes apart, or `index` (the element of the index
/// vector) bytes off `base`.
#[inline(always)]
pub fn vmem_addr(op: Op, base: u64, stride: u64, index: u64, e: usize) -> u64 {
    match op {
        Op::Vld | Op::Vst => base.wrapping_add(8 * e as u64),
        Op::Vlds | Op::Vsts => base.wrapping_add(stride.wrapping_mul(e as u64)),
        _ => base.wrapping_add(index),
    }
}

/// Run `f` on each element below `vl` that an instruction enables: every
/// one when it is unmasked, else those whose bit in `vm` is set. `masked`
/// is tested once per instruction, not per element, and `vl` is clamped to
/// [`MAX_VL`] (an [`ArchState`] invariant, restated) so the element loops
/// need no bounds checks.
#[inline(always)]
pub(crate) fn for_enabled(vl: usize, vm: u64, masked: bool, mut f: impl FnMut(usize)) {
    let vl = vl.min(MAX_VL);
    if masked {
        for e in 0..vl {
            if (vm >> e) & 1 == 1 {
                f(e);
            }
        }
    } else {
        for e in 0..vl {
            f(e);
        }
    }
}

/// The one NaN FP arithmetic produces: the quiet NaN with a clear sign and
/// an empty payload.
pub const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;

/// `x`, or [`CANONICAL_NAN`] for any NaN. Tested and chosen on the bits:
/// with a float test the optimizer may take one NaN for another and keep
/// `x` (release builds did).
#[inline(always)]
fn canon(x: f64) -> f64 {
    let b = x.to_bits();
    f64::from_bits(if b & !(1 << 63) > f64::INFINITY.to_bits() { CANONICAL_NAN } else { b })
}

/// f64 view of a binary FP arithmetic function on raw element bits.
#[inline]
fn ff(f: impl Fn(f64, f64) -> f64) -> impl Fn(u64, u64) -> u64 {
    move |a, b| canon(f(f64::from_bits(a), f64::from_bits(b))).to_bits()
}

/// All-ones mask over the low `vl` bits.
#[inline]
fn vl_mask(vl: usize) -> u64 {
    if vl >= 64 {
        u64::MAX
    } else {
        (1u64 << vl) - 1
    }
}

#[cfg(test)]
mod tests;
