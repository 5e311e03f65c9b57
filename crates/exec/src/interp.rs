//! The instruction interpreter: architecturally exact execution of one
//! instruction, producing the dynamic record the timing models replay.
//!
//! Semantics notes:
//!
//! * Integer arithmetic wraps (two's complement, 64-bit).
//! * `div`/`rem` by zero produce `-1` / the dividend (no trap).
//! * Shift amounts use the low 6 bits.
//! * Masked-off vector elements keep their previous destination value.
//! * Vector compares write mask bits `0..vl`; higher bits are untouched.
//! * `vextract`/`vinsert` indices wrap modulo [`MAX_VL`].

use vlt_isa::{Op, MAX_VL};

use crate::arena::AddrArena;
use crate::error::ExecError;
use crate::memory::Memory;
use crate::program::DecodedProgram;
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
    let sidx = prog.index_of(st.pc).ok_or(ExecError::BadPc { tid: st.tid, pc: st.pc })? as u32;
    let si = prog.get(sidx as usize);
    let inst = si.inst;
    let pc = st.pc;
    let (rd, rs1, rs2, imm) = (inst.rd, inst.rs1, inst.rs2, inst.imm as i64);
    let masked = inst.masked;

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

    // Vector helpers. All respect the current vl and (when `masked`) vm.
    macro_rules! vv {
        ($f:expr) => {{
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    let a = st.v[rs1 as usize][e];
                    let b = st.v[rs2 as usize][e];
                    st.v[rd as usize][e] = $f(a, b);
                }
            }
            kind = DynKind::Vector;
        }};
    }
    macro_rules! vs {
        ($f:expr, $scalar:expr) => {{
            vl_field = st.vl as u16;
            let s = $scalar;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    let a = st.v[rs1 as usize][e];
                    st.v[rd as usize][e] = $f(a, s);
                }
            }
            kind = DynKind::Vector;
        }};
    }
    macro_rules! vcmp {
        ($f:expr) => {{
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                let a = st.v[rs1 as usize][e];
                let b = st.v[rs2 as usize][e];
                if $f(a, b) {
                    st.vm |= 1 << e;
                } else {
                    st.vm &= !(1 << e);
                }
            }
            kind = DynKind::Vector;
        }};
    }

    // f64 views of raw element bits.
    #[inline]
    fn ff(f: impl Fn(f64, f64) -> f64) -> impl Fn(u64, u64) -> u64 {
        move |a, b| f(f64::from_bits(a), f64::from_bits(b)).to_bits()
    }

    match inst.op {
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
            st.vl = st.vl.min(st.mvl);
            kind = DynKind::VltCfg { threads: h.threads, clusters: h.clusters };
        }
        Op::SetVl => {
            let req = st.get_x(rs1);
            if req == 0 {
                return Err(ExecError::ZeroVl { tid: st.tid, pc });
            }
            st.vl = (req as usize).min(st.mvl);
            st.set_x(rd, st.vl as u64);
        }
        Op::GetVl => st.set_x(rd, st.vl as u64),
        Op::Region => st.region = inst.imm as u32,

        Op::Add => st.set_x(rd, st.get_x(rs1).wrapping_add(st.get_x(rs2))),
        Op::Sub => st.set_x(rd, st.get_x(rs1).wrapping_sub(st.get_x(rs2))),
        Op::Mul => st.set_x(rd, st.get_x(rs1).wrapping_mul(st.get_x(rs2))),
        Op::Div => {
            let (a, b) = (st.get_x(rs1) as i64, st.get_x(rs2) as i64);
            st.set_x(rd, if b == 0 { u64::MAX } else { a.wrapping_div(b) as u64 });
        }
        Op::Rem => {
            let (a, b) = (st.get_x(rs1) as i64, st.get_x(rs2) as i64);
            st.set_x(rd, if b == 0 { a as u64 } else { a.wrapping_rem(b) as u64 });
        }
        Op::And => st.set_x(rd, st.get_x(rs1) & st.get_x(rs2)),
        Op::Or => st.set_x(rd, st.get_x(rs1) | st.get_x(rs2)),
        Op::Xor => st.set_x(rd, st.get_x(rs1) ^ st.get_x(rs2)),
        Op::Sll => st.set_x(rd, st.get_x(rs1) << (st.get_x(rs2) & 63)),
        Op::Srl => st.set_x(rd, st.get_x(rs1) >> (st.get_x(rs2) & 63)),
        Op::Sra => st.set_x(rd, ((st.get_x(rs1) as i64) >> (st.get_x(rs2) & 63)) as u64),
        Op::Slt => st.set_x(rd, ((st.get_x(rs1) as i64) < (st.get_x(rs2) as i64)) as u64),
        Op::Sltu => st.set_x(rd, (st.get_x(rs1) < st.get_x(rs2)) as u64),

        Op::Addi => st.set_x(rd, st.get_x(rs1).wrapping_add(imm as u64)),
        Op::Andi => st.set_x(rd, st.get_x(rs1) & imm as u64),
        Op::Ori => st.set_x(rd, st.get_x(rs1) | imm as u64),
        Op::Xori => st.set_x(rd, st.get_x(rs1) ^ imm as u64),
        Op::Slli => st.set_x(rd, st.get_x(rs1) << (imm as u64 & 63)),
        Op::Srli => st.set_x(rd, st.get_x(rs1) >> (imm as u64 & 63)),
        Op::Srai => st.set_x(rd, ((st.get_x(rs1) as i64) >> (imm as u64 & 63)) as u64),
        Op::Slti => st.set_x(rd, ((st.get_x(rs1) as i64) < imm) as u64),
        Op::Lui => st.set_x(rd, (imm << 13) as u64),

        Op::Ld | Op::Lw | Op::Lwu | Op::Lb | Op::Lbu => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            let (v, size) = match inst.op {
                Op::Ld => (mem.read_u64(addr), 8),
                Op::Lw => (mem.read_u32(addr) as i32 as i64 as u64, 4),
                Op::Lwu => (mem.read_u32(addr) as u64, 4),
                Op::Lb => (mem.read_u8(addr) as i8 as i64 as u64, 1),
                _ => (mem.read_u8(addr) as u64, 1),
            };
            st.set_x(rd, v);
            kind = DynKind::Mem { addr, size };
        }
        Op::Fld => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            st.f[rd as usize] = mem.read_f64(addr);
            kind = DynKind::Mem { addr, size: 8 };
        }
        Op::Sd | Op::Sw | Op::Sb => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            let v = st.get_x(rd);
            let size = match inst.op {
                Op::Sd => {
                    mem.write_u64(addr, v);
                    8
                }
                Op::Sw => {
                    mem.write_u32(addr, v as u32);
                    4
                }
                _ => {
                    mem.write_u8(addr, v as u8);
                    1
                }
            };
            kind = DynKind::Mem { addr, size };
        }
        Op::Fsd => {
            let addr = st.get_x(rs1).wrapping_add(imm as u64);
            mem.write_f64(addr, st.f[rd as usize]);
            kind = DynKind::Mem { addr, size: 8 };
        }

        Op::Beq => branch!(st.get_x(rs1) == st.get_x(rs2)),
        Op::Bne => branch!(st.get_x(rs1) != st.get_x(rs2)),
        Op::Blt => branch!((st.get_x(rs1) as i64) < (st.get_x(rs2) as i64)),
        Op::Bge => branch!((st.get_x(rs1) as i64) >= (st.get_x(rs2) as i64)),
        Op::Bltu => branch!(st.get_x(rs1) < st.get_x(rs2)),
        Op::Bgeu => branch!(st.get_x(rs1) >= st.get_x(rs2)),
        Op::J | Op::Jal => {
            if inst.op == Op::Jal {
                st.set_x(31, pc + 4);
            }
            let target = (pc as i64 + 4 * imm) as u64;
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }
        Op::Jr | Op::Jalr => {
            let target = st.get_x(rs1);
            if inst.op == Op::Jalr {
                st.set_x(rd, pc + 4);
            }
            next = target;
            kind = DynKind::Branch { taken: true, target };
        }

        Op::Fadd => st.f[rd as usize] = st.f[rs1 as usize] + st.f[rs2 as usize],
        Op::Fsub => st.f[rd as usize] = st.f[rs1 as usize] - st.f[rs2 as usize],
        Op::Fmul => st.f[rd as usize] = st.f[rs1 as usize] * st.f[rs2 as usize],
        Op::Fdiv => st.f[rd as usize] = st.f[rs1 as usize] / st.f[rs2 as usize],
        Op::Fmin => st.f[rd as usize] = st.f[rs1 as usize].min(st.f[rs2 as usize]),
        Op::Fmax => st.f[rd as usize] = st.f[rs1 as usize].max(st.f[rs2 as usize]),
        Op::Fma => {
            st.f[rd as usize] = st.f[rs1 as usize].mul_add(st.f[rs2 as usize], st.f[rd as usize])
        }
        Op::Fsqrt => st.f[rd as usize] = st.f[rs1 as usize].sqrt(),
        Op::Fneg => st.f[rd as usize] = -st.f[rs1 as usize],
        Op::Fabs => st.f[rd as usize] = st.f[rs1 as usize].abs(),
        Op::Fmov => st.f[rd as usize] = st.f[rs1 as usize],
        Op::Feq => st.set_x(rd, (st.f[rs1 as usize] == st.f[rs2 as usize]) as u64),
        Op::Flt => st.set_x(rd, (st.f[rs1 as usize] < st.f[rs2 as usize]) as u64),
        Op::Fle => st.set_x(rd, (st.f[rs1 as usize] <= st.f[rs2 as usize]) as u64),
        Op::FcvtFx => st.f[rd as usize] = st.get_x(rs1) as i64 as f64,
        Op::FcvtXf => st.set_x(rd, st.f[rs1 as usize] as i64 as u64),

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
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    let acc = f64::from_bits(st.v[rd as usize][e]);
                    let a = f64::from_bits(st.v[rs1 as usize][e]);
                    let b = f64::from_bits(st.v[rs2 as usize][e]);
                    st.v[rd as usize][e] = a.mul_add(b, acc).to_bits();
                }
            }
            kind = DynKind::Vector;
        }
        Op::Vfsqrt => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = f64::from_bits(st.v[rs1 as usize][e]).sqrt().to_bits();
                }
            }
            kind = DynKind::Vector;
        }

        Op::VfaddVS => vs!(ff(|a, s| a + s), st.f[rs2 as usize].to_bits()),
        Op::VfsubVS => vs!(ff(|a, s| a - s), st.f[rs2 as usize].to_bits()),
        Op::VfmulVS => vs!(ff(|a, s| a * s), st.f[rs2 as usize].to_bits()),
        Op::VfdivVS => vs!(ff(|a, s| a / s), st.f[rs2 as usize].to_bits()),
        Op::VfmaVS => {
            vl_field = st.vl as u16;
            let s = st.f[rs2 as usize];
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    let acc = f64::from_bits(st.v[rd as usize][e]);
                    let a = f64::from_bits(st.v[rs1 as usize][e]);
                    st.v[rd as usize][e] = a.mul_add(s, acc).to_bits();
                }
            }
            kind = DynKind::Vector;
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
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vmset => {
            st.vm = u64::MAX;
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vpopc => {
            let m = vl_mask(st.vl);
            st.set_x(rd, (st.vm & m).count_ones() as u64);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vmfirst => {
            let m = vl_mask(st.vl);
            let v = st.vm & m;
            st.set_x(rd, if v == 0 { u64::MAX } else { v.trailing_zeros() as u64 });
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vmgetb => {
            st.set_x(rd, st.vm & vl_mask(st.vl));
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vmsetb => {
            st.vm = st.get_x(rs1);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }

        Op::Vmv => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = st.v[rs1 as usize][e];
                }
            }
            kind = DynKind::Vector;
        }
        Op::Vmerge => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                st.v[rd as usize][e] = if (st.vm >> e) & 1 == 1 {
                    st.v[rs1 as usize][e]
                } else {
                    st.v[rs2 as usize][e]
                };
            }
            kind = DynKind::Vector;
        }
        Op::Vid => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                st.v[rd as usize][e] = e as u64;
            }
            kind = DynKind::Vector;
        }
        Op::Vsplat => {
            vl_field = st.vl as u16;
            let s = st.get_x(rs1);
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = s;
                }
            }
            kind = DynKind::Vector;
        }
        Op::Vfsplat => {
            vl_field = st.vl as u16;
            let s = st.f[rs1 as usize].to_bits();
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = s;
                }
            }
            kind = DynKind::Vector;
        }
        Op::Vextract => {
            let idx = st.get_x(rs2) as usize % MAX_VL;
            st.set_x(rd, st.v[rs1 as usize][idx]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vfextract => {
            let idx = st.get_x(rs2) as usize % MAX_VL;
            st.f[rd as usize] = f64::from_bits(st.v[rs1 as usize][idx]);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vinsert => {
            let idx = st.get_x(rs1) as usize % MAX_VL;
            st.v[rd as usize][idx] = st.get_x(rs2);
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::Vfinsert => {
            let idx = st.get_x(rs1) as usize % MAX_VL;
            st.v[rd as usize][idx] = st.f[rs2 as usize].to_bits();
            vl_field = 1;
            kind = DynKind::Vector;
        }
        Op::VcvtFx => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = ((st.v[rs1 as usize][e] as i64) as f64).to_bits();
                }
            }
            kind = DynKind::Vector;
        }
        Op::VcvtXf => {
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if st.lane_enabled(masked, e) {
                    st.v[rd as usize][e] = (f64::from_bits(st.v[rs1 as usize][e]) as i64) as u64;
                }
            }
            kind = DynKind::Vector;
        }

        Op::Vredsum => {
            let mut acc = 0u64;
            for e in 0..st.vl {
                acc = acc.wrapping_add(st.v[rs1 as usize][e]);
            }
            st.set_x(rd, acc);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vredmin | Op::Vredmax => {
            let mut acc = st.v[rs1 as usize][0] as i64;
            for e in 1..st.vl {
                let v = st.v[rs1 as usize][e] as i64;
                acc = if inst.op == Op::Vredmin { acc.min(v) } else { acc.max(v) };
            }
            st.set_x(rd, acc as u64);
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vfredsum => {
            let mut acc = 0f64;
            for e in 0..st.vl {
                acc += f64::from_bits(st.v[rs1 as usize][e]);
            }
            st.f[rd as usize] = acc;
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }
        Op::Vfredmin | Op::Vfredmax => {
            let mut acc = f64::from_bits(st.v[rs1 as usize][0]);
            for e in 1..st.vl {
                let v = f64::from_bits(st.v[rs1 as usize][e]);
                acc = if inst.op == Op::Vfredmin { acc.min(v) } else { acc.max(v) };
            }
            st.f[rd as usize] = acc;
            vl_field = st.vl as u16;
            kind = DynKind::Vector;
        }

        Op::Vld | Op::Vlds | Op::Vldx => {
            let base = st.get_x(rs1);
            let mut addrs = arena.begin(st.tid, st.vl);
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if !st.lane_enabled(masked, e) {
                    continue;
                }
                let addr = match inst.op {
                    Op::Vld => base.wrapping_add(8 * e as u64),
                    Op::Vlds => base.wrapping_add(st.get_x(rs2).wrapping_mul(e as u64)),
                    _ => base.wrapping_add(st.v[rs2 as usize][e]),
                };
                st.v[rd as usize][e] = mem.read_u64(addr);
                addrs.push(addr);
            }
            kind = DynKind::VMem { addrs: addrs.finish() };
        }
        Op::Vst | Op::Vsts | Op::Vstx => {
            let base = st.get_x(rs1);
            let mut addrs = arena.begin(st.tid, st.vl);
            vl_field = st.vl as u16;
            for e in 0..st.vl {
                if !st.lane_enabled(masked, e) {
                    continue;
                }
                let addr = match inst.op {
                    Op::Vst => base.wrapping_add(8 * e as u64),
                    Op::Vsts => base.wrapping_add(st.get_x(rs2).wrapping_mul(e as u64)),
                    _ => base.wrapping_add(st.v[rs2 as usize][e]),
                };
                mem.write_u64(addr, st.v[rd as usize][e]);
                addrs.push(addr);
            }
            kind = DynKind::VMem { addrs: addrs.finish() };
        }
    }

    st.pc = next;
    Ok(DynInst { sidx, pc, vl: vl_field, kind })
}

/// All-ones mask over the low `vl` bits.
#[inline]
pub(crate) fn vl_mask(vl: usize) -> u64 {
    if vl >= 64 {
        u64::MAX
    } else {
        (1u64 << vl) - 1
    }
}

#[cfg(test)]
mod tests;
