//! Forward abstract interpretation over the CFG.
//!
//! One fixpoint computes three families of facts simultaneously, because
//! they share the same propagation structure:
//!
//! * **Definedness** — for every `x`/`f`/`v` register, whether it has been
//!   written on *all* paths ([`Init::Yes`]), *some* paths ([`Init::Maybe`]),
//!   or *no* path ([`Init::No`]) from the entry. `x0` is hardwired zero and
//!   `x30` (`sp`) is initialized by the runtime, so both start defined.
//! * **Constant propagation** — integer register values in the flat lattice
//!   `Bot < K(c) < Top`. Every integer ALU op, register and immediate form,
//!   folds through the interpreter's own [`int_alu`], and `setvl`/`vltcfg`
//!   clamp `vl` through its [`clamp_vl`], so a constant is exactly the
//!   value the program computes. This feeds the static memory checks and
//!   the `vl`/`vltcfg` checks.
//! * **Vector-length state** — abstract `vl` (value + whether any `setvl`
//!   executed), abstract MVL under the current `vltcfg` partition, and
//!   whether `vm` was ever written.
//!
//! Integer registers also carry an interval ([`Iv`]) beside their constant,
//! so a memory access whose address is not constant is still reported when
//! every address its hull allows misses both the data segment and the
//! stack (a *certain* miss).
//!
//! The fixpoint sweeps the blocks in reverse post-order until no block
//! input changes. Joins take the exact hull everywhere except at loop
//! heads — blocks with a predecessor at or after them in RPO, which cut
//! every cycle of the CFG. A loop head's input stays exact through its
//! first arrival and one growth; from then on an interval side that grows
//! jumps to unbounded. So a pointer swapped between two buffers keeps its
//! two-value hull, a loop counter widens on its second growth, and the
//! fixpoint settles in a handful of sweeps however long the loops run.
//!
//! Soundness caveats (documented in DESIGN.md §7): register definedness is
//! whole-register (a masked or element-wise write counts as a full def),
//! and memory checks report only certain slips — a constant address out of
//! bounds or misaligned, or a hull that misses every valid region. The
//! analysis never *proves* memory safety.

use std::ops::Range;

use vlt_exec::interp::{access_size, clamp_vl, int_alu, vmem_addr};
use vlt_isa::{
    access_regions, Format, Inst, Op, Program, RegRef, DATA_BASE, MAX_VL, STACK_BASE, STACK_END,
    STACK_SIZE, TEXT_BASE,
};

use crate::cfg::Cfg;
use crate::diag::Code;
use crate::interval::Iv;

/// Flat constant lattice: `Bot` (unreached) < `K(c)` < `Top` (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cv {
    /// No value has reached this point yet.
    Bot,
    /// Exactly this value on every path.
    K(i64),
    /// More than one possible value.
    Top,
}

impl Cv {
    fn join(self, other: Cv) -> Cv {
        match (self, other) {
            (Cv::Bot, v) | (v, Cv::Bot) => v,
            (Cv::K(a), Cv::K(b)) if a == b => Cv::K(a),
            _ => Cv::Top,
        }
    }

    /// `f` of two constants; `Top` where either is unknown or `f` has no
    /// value.
    fn map2(self, other: Cv, f: impl Fn(i64, i64) -> Option<i64>) -> Cv {
        match (self, other) {
            (Cv::K(a), Cv::K(b)) => f(a, b).map_or(Cv::Top, Cv::K),
            (Cv::Bot, _) | (_, Cv::Bot) => Cv::Bot,
            _ => Cv::Top,
        }
    }

    fn known(self) -> Option<i64> {
        match self {
            Cv::K(v) => Some(v),
            _ => None,
        }
    }
}

/// Three-point definedness lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Not written on any path.
    No,
    /// Written on some paths but not all.
    Maybe,
    /// Written on every path.
    Yes,
}

impl Init {
    fn join(self, other: Init) -> Init {
        if self == other {
            self
        } else {
            Init::Maybe
        }
    }
}

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsState {
    /// Integer register values.
    pub x: [Cv; 32],
    /// Integer register value *intervals* — a strictly weaker but wider
    /// net than `x`: where the constant lattice collapses to `Top`, the
    /// interval can still bound the value (`tid` in `[0, 63]`, a `setvl`
    /// result in `[1, mvl]`, a hull of branch-merged constants). Joins keep
    /// the exact hull, except that a loop head widens a growing side to
    /// unbounded once its input has arrived and grown once, so the
    /// fixpoint still terminates by state equality.
    pub xr: [Iv; 32],
    /// Integer register definedness.
    pub xi: [Init; 32],
    /// FP register definedness.
    pub fi: [Init; 32],
    /// Vector register definedness (whole-register granularity).
    pub vi: [Init; 32],
    /// Abstract current vector length.
    pub vl: Cv,
    /// Whether any `setvl` executed on paths reaching this point.
    pub vl_set: Init,
    /// Abstract MVL under the current `vltcfg` partition.
    pub mvl: Cv,
    /// Whether `vm` was ever written.
    pub vm_set: Init,
    /// True while no path has reached this point (join identity).
    pub bot: bool,
}

impl AbsState {
    /// The entry state: architectural reset. Registers reset to zero, but
    /// only `x0` (hardwired) and `x30` (stack pointer, set per-thread by the
    /// runtime) count as *defined*; reading any other register before
    /// writing it is a def-before-use finding even though the machine
    /// forgivingly returns zero. `x30` differs per thread, so its value is
    /// unknown.
    pub fn entry() -> AbsState {
        let mut x = [Cv::K(0); 32];
        x[30] = Cv::Top;
        let mut xr = [Iv::exact(0); 32];
        // The runtime points x30 at the top of the thread's stack slot.
        xr[30] = Iv::new((STACK_BASE + STACK_SIZE) as i64, STACK_END as i64);
        let mut xi = [Init::No; 32];
        xi[0] = Init::Yes;
        xi[30] = Init::Yes;
        AbsState {
            x,
            xr,
            xi,
            fi: [Init::No; 32],
            vi: [Init::No; 32],
            vl: Cv::K(MAX_VL as i64),
            vl_set: Init::No,
            mvl: Cv::K(MAX_VL as i64),
            vm_set: Init::No,
            bot: false,
        }
    }

    fn bottom() -> AbsState {
        AbsState { bot: true, ..AbsState::entry() }
    }

    /// Join `other` into this state and report whether it changed. With
    /// `widen`, an interval side that grows jumps to unbounded
    /// ([`Iv::widen`]); otherwise intervals take the exact hull.
    fn join_from(&mut self, other: &AbsState, widen: bool) -> bool {
        if other.bot {
            return false;
        }
        if self.bot {
            *self = other.clone();
            return true;
        }
        let before = self.clone();
        for i in 0..32 {
            self.x[i] = self.x[i].join(other.x[i]);
            let hull = before.xr[i].join(other.xr[i]);
            self.xr[i] = if widen { hull.widen(before.xr[i]) } else { hull };
            self.xi[i] = self.xi[i].join(other.xi[i]);
            self.fi[i] = self.fi[i].join(other.fi[i]);
            self.vi[i] = self.vi[i].join(other.vi[i]);
        }
        self.vl = self.vl.join(other.vl);
        self.vl_set = self.vl_set.join(other.vl_set);
        self.mvl = self.mvl.join(other.mvl);
        self.vm_set = self.vm_set.join(other.vm_set);
        *self != before
    }
}

/// A finding produced by the abstract interpretation, before severity
/// assignment and allow filtering.
pub type RawDiag = (Code, usize, String);

/// Run the forward analysis; returns raw findings in discovery order.
pub fn run(cfg: &Cfg, prog: &Program) -> Vec<RawDiag> {
    let (input, _) = fixpoint(cfg, prog);

    // Emission pass: replay each reachable block from its fixed input.
    let mut out: Vec<RawDiag> = Vec::new();
    for &b in &cfg.rpo() {
        if input[b].bot {
            continue;
        }
        let mut st = input[b].clone();
        for i in cfg.blocks[b].start..cfg.blocks[b].end {
            transfer(&cfg.insts[i], i, &mut st, prog, Some(&mut out));
        }
    }
    out
}

/// Sweep the blocks in reverse post-order until no block input changes;
/// returns every block's fixed input state and the number of sweeps.
fn fixpoint(cfg: &Cfg, prog: &Program) -> (Vec<AbsState>, usize) {
    let nb = cfg.blocks.len();
    let mut input: Vec<AbsState> = (0..nb).map(|_| AbsState::bottom()).collect();
    input[cfg.entry] = AbsState::entry();

    let order = cfg.rpo();
    let mut pos = vec![0; nb];
    for (i, &b) in order.iter().enumerate() {
        pos[b] = i;
    }
    // A loop head has a reachable predecessor at or after it in RPO. Every
    // cycle's earliest block is one, so widening at heads alone terminates.
    let mut head = vec![false; nb];
    for &b in &order {
        for &s in &cfg.blocks[b].succs {
            head[s] |= pos[s] <= pos[b];
        }
    }
    // How often each input has changed; the entry's reset state is its
    // first arrival. A head widens from its third change on.
    let mut changes = vec![0u32; nb];
    changes[cfg.entry] = 1;

    let mut sweeps = 0;
    let mut changed = true;
    while changed {
        changed = false;
        sweeps += 1;
        for &b in &order {
            if input[b].bot {
                continue;
            }
            let mut st = input[b].clone();
            for i in cfg.blocks[b].start..cfg.blocks[b].end {
                transfer(&cfg.insts[i], i, &mut st, prog, None);
            }
            for &s in &cfg.blocks[b].succs {
                if input[s].join_from(&st, head[s] && changes[s] >= 2) {
                    changes[s] += 1;
                    changed = true;
                }
            }
        }
    }
    (input, sweeps)
}

/// Apply one instruction to the abstract state, optionally emitting
/// findings. The emission-pass replay must take exactly the same state
/// transitions as the fixpoint pass, so all mutation lives here.
fn transfer(
    inst: &Inst,
    sidx: usize,
    st: &mut AbsState,
    prog: &Program,
    mut sink: Option<&mut Vec<RawDiag>>,
) {
    let (rd, rs1) = (inst.rd, inst.rs1);
    let mut emit = |code: Code, msg: String| {
        if let Some(s) = sink.as_deref_mut() {
            s.push((code, sidx, msg));
        }
    };

    // --- use checks -------------------------------------------------------
    let (defs, uses) = inst.defs_uses();
    let zero_idiom = inst.is_zero_idiom();
    for u in &uses {
        match *u {
            RegRef::I(r) => {
                if !zero_idiom {
                    check_init(st.xi[r as usize], format!("x{r}"), &mut emit);
                }
            }
            RegRef::F(r) => check_init(st.fi[r as usize], format!("f{r}"), &mut emit),
            RegRef::V(r) => {
                if !zero_idiom {
                    check_init(st.vi[r as usize], format!("v{r}"), &mut emit);
                }
            }
            RegRef::Vl => {
                if inst.op.class().is_vector() && st.vl_set != Init::Yes {
                    let how = if st.vl_set == Init::No { "never" } else { "not on every path" };
                    emit(
                        Code::VlReset,
                        format!(
                            "vector instruction executes with `vl` {how} set by `setvl` \
                             (reset value is the full MVL)"
                        ),
                    );
                }
            }
            RegRef::Vm => {
                let meaningful = inst.masked
                    || matches!(inst.op, Op::Vmerge | Op::Vpopc | Op::Vmfirst | Op::Vmgetb);
                if meaningful && st.vm_set == Init::No {
                    emit(
                        Code::MaskReset,
                        "mask-consuming operation with `vm` never written \
                         (reset mask enables every lane)"
                            .to_string(),
                    );
                }
            }
        }
    }

    // --- memory checks ----------------------------------------------------
    check_memory(inst, st, prog, &mut emit);

    // --- vl / vltcfg semantics -------------------------------------------
    match inst.op {
        Op::SetVl => {
            let req = st.x[rs1 as usize];
            if req == Cv::K(0) {
                emit(
                    Code::ZeroVl,
                    "`setvl` request is statically zero — dynamic `ZeroVl` fault".to_string(),
                );
            }
            if let (Some(r), Some(m)) = (req.known(), st.mvl.known()) {
                let (r, m) = (r as u64, m as usize);
                if clamp_vl(r, m) as u64 != r && rd == 0 {
                    emit(
                        Code::SetvlDiscardsClamp,
                        format!(
                            "request {r} exceeds the partition MVL {m} and the clamped \
                             result is discarded (rd = x0)"
                        ),
                    );
                }
            }
            st.vl = req.map2(st.mvl, |r, m| Some(clamp_vl(r as u64, m as usize) as i64));
            st.vl_set = Init::Yes;
        }
        Op::VltCfg => {
            let t = st.x[rs1 as usize];
            if let Some(tv) = t.known() {
                let h = u64::try_from(tv).ok().and_then(vlt_isa::vltcfg::unpack);
                if let Some(h) = h {
                    let new_mvl = vlt_isa::vltcfg::effective_mvl(MAX_VL, h) as i64;
                    // Only meaningful when a `setvl` actually ran: the
                    // reset vl is the full MVL and clamping it is the
                    // normal effect of partitioning.
                    if let (Init::Maybe | Init::Yes, Some(v)) = (st.vl_set, st.vl.known()) {
                        if v > new_mvl {
                            emit(
                                Code::VltcfgClampsVl,
                                format!(
                                    "partition MVL {new_mvl} is below the current vl {v}; \
                                     the stale vl is silently clamped — `vltcfg` before `setvl`"
                                ),
                            );
                        }
                    }
                    st.mvl = Cv::K(new_mvl);
                } else {
                    emit(
                        Code::BadVltCfg,
                        format!(
                            "operand {tv} is not a valid threads x clusters \
                             encoding — dynamic fault"
                        ),
                    );
                    // Keep analyzing with an unknown partition.
                    st.mvl = Cv::Top;
                }
            } else {
                st.mvl = Cv::Top;
            }
            st.vl = st.vl.map2(st.mvl, |v, m| Some(clamp_vl(v as u64, m as usize) as i64));
        }
        _ => {}
    }

    // --- value transfer for integer defs ---------------------------------
    let val = int_value(inst, st);
    let ivl = int_interval(inst, st, val);

    // --- apply defs -------------------------------------------------------
    for d in &defs {
        match *d {
            RegRef::I(r) => {
                st.xi[r as usize] = Init::Yes;
                st.x[r as usize] = val;
                st.xr[r as usize] = ivl;
            }
            RegRef::F(r) => st.fi[r as usize] = Init::Yes,
            RegRef::V(r) => st.vi[r as usize] = Init::Yes,
            RegRef::Vm => st.vm_set = Init::Yes,
            RegRef::Vl => {} // handled in the SetVl arm above
        }
    }
    // setvl writes the clamped vl to rd.
    if inst.op == Op::SetVl && rd != 0 {
        st.x[rd as usize] = st.vl;
        st.xr[rd as usize] = vl_interval(st);
    }
}

/// The interval a `vl`-valued result lies in: exact when the constant
/// lattice pins it, else `[1, mvl]` (a live `vl` is never zero).
fn vl_interval(st: &AbsState) -> Iv {
    match st.vl.known() {
        Some(v) => Iv::exact(v),
        None => Iv::new(1, st.mvl.known().unwrap_or(MAX_VL as i64)),
    }
}

fn check_init(init: Init, reg: String, emit: &mut impl FnMut(Code, String)) {
    match init {
        Init::Yes => {}
        Init::No => emit(
            Code::UndefRead,
            format!("{reg} is read but never written on any path from entry (reads reset zero)"),
        ),
        Init::Maybe => emit(
            Code::MaybeUndefRead,
            format!("{reg} is read but written on only some paths from entry"),
        ),
    }
}

/// The constant value an instruction writes to its integer destination, if
/// the analysis can compute it: the integer ALU ops fold through the
/// interpreter's own [`int_alu`]. Unmodeled ops produce `Top`.
fn int_value(inst: &Inst, st: &AbsState) -> Cv {
    let a = st.x[inst.rs1 as usize];
    let imm = inst.op.format() == Format::I;
    let b = if imm { Cv::K(inst.imm as i64) } else { st.x[inst.rs2 as usize] };
    match inst.op {
        Op::Lui => Cv::K((inst.imm as i64) << 13),
        Op::GetVl => st.vl,
        // Loads, tid/nthr, reductions, extracts, converts: unknown.
        op => a.map2(b, |x, y| int_alu(op, x as u64, y as u64).map(|v| v as i64)),
    }
}

/// The interval an instruction's integer destination lies in. Falls back
/// to the constant lattice when that is exact, and knows the
/// architecturally-bounded sources the constant lattice cannot track:
/// `tid`/`nthr`, `setvl`/`getvl` results, mask population counts, compare
/// results, and sub-word loads. Interval arithmetic covers the address-
/// forming ALU subset.
fn int_interval(inst: &Inst, st: &AbsState, val: Cv) -> Iv {
    if let Some(k) = val.known() {
        return Iv::exact(k);
    }
    let (rs1, rs2, imm) = (inst.rs1 as usize, inst.rs2 as usize, inst.imm as i64);
    let a = st.xr[rs1];
    let b = st.xr[rs2];
    match inst.op {
        Op::Addi => a.add_k(imm),
        Op::Add => a.add(b),
        Op::Sub => a.sub(b),
        Op::Mul => a.mul(b),
        Op::Slli => a.shl_k((imm as u64 & 63) as u32),
        Op::Andi => Iv::and_k(imm),
        Op::Slti | Op::Slt | Op::Sltu => Iv::new(0, 1),
        Op::Feq | Op::Flt | Op::Fle => Iv::new(0, 1),
        Op::Tid => Iv::new(0, 63),
        Op::Nthr => Iv::new(1, 64),
        Op::GetVl => vl_interval(st),
        Op::Vpopc => Iv::new(0, MAX_VL as i64),
        Op::Vmfirst => Iv::new(-1, MAX_VL as i64 - 1),
        Op::Vmgetb => Iv::new(0, 1),
        Op::Lwu => Iv::new(0, u32::MAX as i64),
        Op::Lw => Iv::new(i32::MIN as i64, i32::MAX as i64),
        Op::Lb => Iv::new(i8::MIN as i64, i8::MAX as i64),
        Op::Lbu => Iv::new(0, u8::MAX as i64),
        _ => Iv::TOP,
    }
}

/// Static memory checks: exact for a constant address, and a certain miss
/// of the whole interval otherwise.
fn check_memory(inst: &Inst, st: &AbsState, prog: &Program, emit: &mut impl FnMut(Code, String)) {
    use vlt_isa::OpClass;
    let class = inst.op.class();
    if !class.is_mem() {
        return;
    }
    let base = st.x[inst.rs1 as usize];
    let Some(b) = base.known() else {
        // Not a constant — but the interval domain may still bound the
        // whole address range. Only a *certain* miss is reported: every
        // address in the (sound, over-approximate) hull lies outside both
        // the data segment and the stack, so whatever the concrete value,
        // the access is out of bounds.
        if let Some(size) = access_size(inst.op) {
            let size = size as i64;
            let write = class == OpClass::Store;
            let range = st.xr[inst.rs1 as usize].add_k(inst.imm as i64);
            if let (Some(lo), Some(hi)) = (range.lo, range.hi) {
                check_addr_range(lo, hi, size, write, prog, emit);
            }
        }
        return;
    };

    match class {
        OpClass::Load | OpClass::Store => {
            let size = access_size(inst.op).expect("a scalar access") as i64;
            let addr = b.wrapping_add(inst.imm as i64);
            let write = class == OpClass::Store;
            check_addr(addr, size, write, prog, emit);
        }
        OpClass::VLoad | OpClass::VStore => {
            let write = class == OpClass::VStore;
            // Element `e`'s address, as the interpreter computes it.
            let elem = |stride: i64, e: i64| {
                vmem_addr(inst.op, b as u64, stride as u64, 0, e as usize) as i64
            };
            match inst.op {
                Op::Vld | Op::Vst => {
                    // Check the full unit-stride footprint only when vl is
                    // statically known; otherwise just the first element
                    // (assuming the MVL bound would flag valid short strips).
                    let elems = st.vl.known().unwrap_or(1).max(1);
                    check_addr(b, 8, write, prog, emit);
                    if elems > 1 {
                        check_addr(elem(0, elems - 1), 8, write, prog, emit);
                    }
                }
                Op::Vlds | Op::Vsts => {
                    if let (Some(s), Some(v)) = (st.x[inst.rs2 as usize].known(), st.vl.known()) {
                        // First and last element of the strided footprint;
                        // alignment only when the stride preserves it.
                        let aligned_stride = s % 8 == 0;
                        let sz = if aligned_stride { 8 } else { 1 };
                        check_addr(b, sz, write, prog, emit);
                        if v > 1 {
                            check_addr(elem(s, v - 1), sz, write, prog, emit);
                        }
                    }
                }
                // Indexed gather/scatter: element addresses are data values.
                _ => {}
            }
        }
        _ => unreachable!("is_mem covers scalar and vector memory classes"),
    }
}

/// Report an access whose *entire* possible address range `[lo, hi]`
/// (start addresses, each touching `size` bytes) misses both the data
/// segment and the stack. Unlike [`check_addr`] this fires on non-constant
/// addresses, but only when the miss is certain for every value in the
/// hull.
fn check_addr_range(
    lo: i64,
    hi: i64,
    size: i64,
    write: bool,
    prog: &Program,
    emit: &mut impl FnMut(Code, String),
) {
    let (code, what) =
        if write { (Code::OobWrite, "store to") } else { (Code::OobRead, "load from") };
    if hi < 0 {
        emit(code, format!("{what} a negative address (all of [{lo:#x}, {hi:#x}])"));
        return;
    }
    // Does any access starting in [lo, hi] overlap the region?
    let touches = |r: &Range<u64>| hi.saturating_add(size) > r.start as i64 && lo < r.end as i64;
    if !access_regions(prog.data.len() as u64, write).iter().any(touches) {
        let data_end = DATA_BASE + prog.data.len() as u64;
        emit(
            code,
            format!(
                "{what} [{lo:#x}, {hi:#x}]: every possible address lies outside the \
                 data segment [{DATA_BASE:#x}, {data_end:#x}) and the stack region"
            ),
        );
    }
}

fn check_addr(
    addr: i64,
    size: i64,
    write: bool,
    prog: &Program,
    emit: &mut impl FnMut(Code, String),
) {
    let (code, what) =
        if write { (Code::OobWrite, "store to") } else { (Code::OobRead, "load from") };
    if addr < 0 {
        emit(code, format!("{what} negative address {addr:#x}"));
        return;
    }
    let a = addr as u64;
    if !a.is_multiple_of(size as u64) {
        emit(
            Code::Misaligned,
            format!("address {a:#x} is not aligned to the {size}-byte element size"),
        );
    }
    if !access_regions(prog.data.len() as u64, write).iter().any(|r| r.contains(&a)) {
        let data_end = DATA_BASE + prog.data.len() as u64;
        let region = if (TEXT_BASE..prog.text_end()).contains(&a) {
            " (inside the text segment)"
        } else {
            ""
        };
        emit(
            code,
            format!(
                "{what} {a:#x}{region}, outside the data segment \
                 [{DATA_BASE:#x}, {data_end:#x}) and the stack region"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn raw(src: &str) -> Vec<RawDiag> {
        let p = assemble(src).unwrap();
        let cfg = Cfg::build(p.decoded());
        run(&cfg, &p)
    }

    fn has(diags: &[RawDiag], code: Code) -> bool {
        diags.iter().any(|(c, _, _)| *c == code)
    }

    #[test]
    fn clean_kernel_is_clean() {
        let d = raw(".data\nxs: .dword 1, 2, 3, 4\n.text\n\
             li x1, 4\nsetvl x2, x1\nla x3, xs\nvld v1, x3\n\
             vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n");
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn undef_read_caught() {
        let d = raw("add x1, x2, x3\nhalt\n");
        assert!(has(&d, Code::UndefRead));
    }

    #[test]
    fn maybe_undef_on_one_path() {
        let d = raw("beqz x0, skip\nli x5, 1\nskip:\nadd x1, x5, x0\nhalt\n");
        assert!(has(&d, Code::MaybeUndefRead));
        assert!(!has(&d, Code::UndefRead));
    }

    #[test]
    fn zero_idiom_not_flagged() {
        let d = raw("xor x5, x5, x5\nadd x1, x5, x0\nvxor.vv v1, v1, v1\nli x2, 4\nsetvl x0, x2\nvadd.vv v2, v1, v1\nhalt\n");
        assert!(!has(&d, Code::UndefRead), "{d:?}");
    }

    #[test]
    fn vl_reset_warned() {
        let d = raw("vid v1\nhalt\n");
        assert!(has(&d, Code::VlReset));
    }

    #[test]
    fn zero_vl_caught() {
        let d = raw("setvl x1, x0\nhalt\n");
        assert!(has(&d, Code::ZeroVl));
    }

    #[test]
    fn bad_vltcfg_caught() {
        let d = raw("li x1, 3\nvltcfg x1\nhalt\n");
        assert!(has(&d, Code::BadVltCfg));
    }

    #[test]
    fn vltcfg_after_setvl_warned() {
        let d = raw("li x1, 64\nsetvl x2, x1\nli x3, 4\nvltcfg x3\nhalt\n");
        assert!(has(&d, Code::VltcfgClampsVl));
    }

    #[test]
    fn vltcfg_before_setvl_clean() {
        let d = raw("li x3, 4\nvltcfg x3\nli x1, 64\nsetvl x2, x1\nhalt\n");
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn oob_store_caught() {
        let d = raw("li x1, 64\nsd x1, 0(x1)\nhalt\n");
        assert!(has(&d, Code::OobWrite));
    }

    #[test]
    fn misaligned_caught() {
        let d = raw(".data\nxs: .dword 7\n.text\nla x1, xs\nld x2, 3(x1)\nhalt\n");
        assert!(has(&d, Code::Misaligned));
    }

    #[test]
    fn vld_footprint_checked() {
        // 1-element array, vl = 16: the last element lands past data+slack.
        let d = raw(".data\nys: .dword 1\n.text\n\
             li x1, 16\nsetvl x0, x1\nla x2, ys\nvld v1, x2\nhalt\n");
        assert!(has(&d, Code::OobRead), "{d:?}");
    }
    /// One list of accesses at the edges of the layout, through absint and
    /// the dynamic checker: both give the listed verdict. Each access is
    /// made at its address (checked exactly) and at its address plus `tid`
    /// (a 64-byte hull, checked for a certain miss; one thread runs it at
    /// tid 0).
    #[test]
    fn layout_boundaries_match_the_checker() {
        use vlt_exec::{CheckConfig, DynFault, FuncSim};
        use vlt_isa::READ_SLACK;
        let data_end = DATA_BASE + 16;
        // (access, address, out of bounds)
        let cases = [
            ("lbu", data_end + READ_SLACK - 1, false),
            ("lbu", data_end + READ_SLACK, true),
            ("sb", data_end - 1, false),
            ("sb", data_end, true),
            ("lbu", STACK_END - 1, false),
            ("sb", STACK_END - 1, false),
            ("lbu", STACK_END, true),
            ("sb", STACK_END, true),
        ];
        for (op, addr, oob) in cases {
            for offset in ["", "tid x3\nadd x1, x1, x3\n"] {
                let src = format!(
                    ".data\nxs: .zero 16\n.text\nli x1, {addr}\n{offset}li x2, 1\n\
                     {op} x2, 0(x1)\nhalt\n"
                );
                let p = assemble(&src).unwrap();
                let access = p.text.len() - 2;
                let flagged = run(&Cfg::build(p.decoded()), &p)
                    .iter()
                    .any(|&(c, i, _)| i == access && matches!(c, Code::OobRead | Code::OobWrite));
                let mut sim = FuncSim::new(&p, 1);
                sim.enable_checker(CheckConfig::default());
                sim.run_to_completion(100).unwrap();
                let faulted = sim.checker().unwrap().faults().iter().any(|f| {
                    f.sidx == access
                        && matches!(f.fault, DynFault::OobRead(_) | DynFault::OobWrite(_))
                });
                assert_eq!((flagged, faulted), (oob, oob), "{op} at {addr:#x}:\n{src}");
            }
        }
    }

    /// The interval domain proves whole-range misses that the constant
    /// lattice cannot: a `tid`-scaled address is not constant, but its
    /// hull `[0, 504]` lies entirely below `DATA_BASE`.
    #[test]
    fn interval_whole_range_oob_caught() {
        let d = raw("tid x1\nslli x2, x1, 3\nld x3, 0(x2)\nhalt\n");
        assert!(has(&d, Code::OobRead), "{d:?}");
    }

    /// ... but a `tid`-scaled index off a valid base stays clean: part of
    /// the hull is inside the data segment, so nothing is certain.
    #[test]
    fn interval_partial_overlap_not_flagged() {
        let d = raw(".data\nxs: .dword 1, 2, 3, 4\n.text\n\
             la x4, xs\ntid x1\nslli x2, x1, 3\nadd x5, x4, x2\nld x3, 0(x5)\nhalt\n");
        assert!(!has(&d, Code::OobRead), "{d:?}");
    }

    /// Loop-carried growth widens to unbounded instead of looping the
    /// fixpoint forever, and an unbounded hull never emits.
    #[test]
    fn interval_loop_growth_terminates() {
        let d = raw(".data\nxs: .dword 1\n.text\n\
             la x1, xs\nli x2, 0\nloop:\naddi x2, x2, 1\nblt x2, x1, loop\nhalt\n");
        assert!(!has(&d, Code::OobRead), "{d:?}");
    }

    /// A pointer swapped between two buffers grows its loop head's hull
    /// once and then holds: the head keeps the exact two-value hull, so a
    /// load through it is a certain miss. Widening on the first growth
    /// would lose the upper bound and the finding.
    #[test]
    fn ping_pong_pointer_keeps_its_exact_hull() {
        let d = raw("li x1, 0x100\nli x2, 0x200\nli x4, 10\n\
             loop:\nld x3, 0(x1)\nmv x5, x1\nmv x1, x2\nmv x2, x5\n\
             addi x4, x4, -1\nbnez x4, loop\nsd x3, -8(sp)\nhalt\n");
        let oob: Vec<_> = d.iter().filter(|(c, _, _)| *c == Code::OobRead).collect();
        assert!(oob.iter().any(|(_, _, m)| m.contains("[0x100, 0x200]")), "{d:?}");
    }

    /// A join that is not a loop head keeps the exact hull however wide
    /// it is: `0x100` and `0x9000` merge to a range that misses the data
    /// segment and the stack everywhere.
    #[test]
    fn wide_branch_merge_stays_exact() {
        let d = raw("tid x5\nbeqz x5, low\nli x1, 0x9000\nj merge\n\
             low:\nli x1, 0x100\nmerge:\nld x3, 0(x1)\nsd x3, -8(sp)\nhalt\n");
        let oob: Vec<_> = d.iter().filter(|(c, _, _)| *c == Code::OobRead).collect();
        assert!(oob.iter().any(|(_, _, m)| m.contains("[0x100, 0x9000]")), "{d:?}");
    }

    /// Loop heads widen every growing counter on its second growth, so a
    /// three-deep nest settles in a few sweeps, not one per iteration.
    #[test]
    fn loop_nest_converges_in_few_sweeps() {
        let p = assemble(
            ".data\nxs: .space 4096\n.text\nla x9, xs\nli x1, 0\nli x7, 8\n\
             outer:\nli x2, 0\nmid:\nli x3, 0\ninner:\n\
             slli x4, x3, 3\nadd x5, x9, x4\nld x6, 0(x5)\naddi x3, x3, 1\nblt x3, x7, inner\n\
             addi x2, x2, 1\nblt x2, x7, mid\naddi x1, x1, 1\nblt x1, x7, outer\nhalt\n",
        )
        .unwrap();
        let cfg = Cfg::build(p.decoded());
        let (_, sweeps) = fixpoint(&cfg, &p);
        assert!(sweeps <= 8, "{sweeps} sweeps");
    }

    /// The last element of a unit-stride footprint past `i64::MAX` wraps
    /// to a negative address instead of overflowing the analysis.
    #[test]
    fn unit_stride_footprint_wraps() {
        let d = raw("li x1, 1\nslli x1, x1, 63\naddi x1, x1, -1\nli x2, 64\nsetvl x0, x2\n\
             vld v1, x1\nhalt\n");
        assert!(d.iter().any(|(c, _, m)| *c == Code::OobRead && m.contains("negative")), "{d:?}");
    }

    #[test]
    fn stack_access_clean() {
        let d = raw("sd x0, -8(sp)\nld x1, -8(sp)\nhalt\n");
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn mask_reset_warned() {
        let d = raw("li x1, 4\nsetvl x0, x1\nvid v1\nvmerge v2, v1, v1\nhalt\n");
        assert!(has(&d, Code::MaskReset));
    }

    #[test]
    fn setvl_discard_clamp_warned() {
        let d = raw("li x1, 4\nvltcfg x1\nli x2, 64\nsetvl x0, x2\nhalt\n");
        assert!(has(&d, Code::SetvlDiscardsClamp));
    }

    /// A request with the top bit set is a huge unsigned request, clamped
    /// to the MVL like any other, and the warning names it unsigned.
    #[test]
    fn setvl_discard_clamp_warned_for_top_bit_requests() {
        let d = raw("li x1, -1\nsetvl x0, x1\nhalt\n");
        let clamp: Vec<_> = d.iter().filter(|(c, _, _)| *c == Code::SetvlDiscardsClamp).collect();
        assert_eq!(clamp.len(), 1, "{d:?}");
        assert!(clamp[0].2.contains("request 18446744073709551615 exceeds"), "{d:?}");
    }

    /// Assembly that leaves the 64-bit `v` in `xr`, built only from ops
    /// the constant lattice folds.
    fn materialize(r: u8, v: u64) -> String {
        let mut s = format!("li x{r}, {}\n", v >> 48);
        for shift in [32, 16, 0] {
            s += &format!(
                "slli x{r}, x{r}, 16\nli x29, {}\nor x{r}, x{r}, x29\n",
                (v >> shift) & 0xffff
            );
        }
        s
    }

    /// The abstract state just before the program's final `halt`.
    fn state_at_halt(p: &Program) -> AbsState {
        let cfg = Cfg::build(p.decoded());
        let (input, _) = fixpoint(&cfg, p);
        let last = cfg.insts.len() - 1;
        let b = cfg.blocks.iter().position(|b| (b.start..b.end).contains(&last)).unwrap();
        let mut st = input[b].clone();
        for i in cfg.blocks[b].start..last {
            transfer(&cfg.insts[i], i, &mut st, p, None);
        }
        st
    }

    /// The interpreter's final state for a one-thread run of `p`.
    fn interpreted(p: &Program) -> vlt_exec::ArchState {
        let mut sim = vlt_exec::FuncSim::new(p, 1);
        sim.run_to_completion(10_000).unwrap();
        sim.thread(0).clone()
    }

    /// absint's constants are the interpreter's results: every scalar
    /// integer op, register and immediate forms and `lui`, on edge operands
    /// (division by zero, `i64::MIN / -1`, shift amounts of 64 and above
    /// and negative ones, signed against unsigned order); and `setvl`'s
    /// clamp, with requests up to 2^64 - 1, under every flat partition.
    #[test]
    fn constants_are_what_the_interpreter_computes() {
        use vlt_isa::{OpClass, OperandSig};
        const EDGES: [u64; 12] = [
            0,
            1,
            7,
            63,
            64,
            65,
            130,
            -1i64 as u64,
            -3i64 as u64,
            1 << 63,
            i64::MAX as u64,
            0xfedc_ba98_7654_3210,
        ];
        const IMMS: [i64; 9] = [0, 1, -1, 7, 63, 64, 65, 8191, -8192];
        let alu =
            |op: Op| matches!(op.class(), OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv);
        let mut cases = Vec::new();
        for &op in Op::ALL.iter().filter(|&&op| alu(op)) {
            let mn = op.mnemonic();
            match op.sig() {
                [OperandSig::Ri, OperandSig::Ri, OperandSig::Ri] => {
                    for a in EDGES {
                        for b in EDGES {
                            cases.push(
                                materialize(1, a)
                                    + &materialize(2, b)
                                    + &format!("{mn} x5, x1, x2\n"),
                            );
                        }
                    }
                }
                [OperandSig::Ri, OperandSig::Ri, OperandSig::Imm] => {
                    for a in EDGES {
                        for imm in IMMS {
                            cases.push(materialize(1, a) + &format!("{mn} x5, x1, {imm}\n"));
                        }
                    }
                }
                [OperandSig::Ri, OperandSig::Imm] => {
                    for imm in [0, 1, -1, 0x1234, 262143, -262144] {
                        cases.push(format!("{mn} x5, {imm}\n"));
                    }
                }
                // tid, nthr, getvl and setvl read no integer operand pair.
                _ => {}
            }
        }
        for threads in [1u64, 2, 4, 8] {
            let mvl = MAX_VL as u64 / threads;
            for req in [1, mvl, mvl + 1, 1 << 63, u64::MAX] {
                cases.push(
                    format!("li x9, {threads}\nvltcfg x9\n")
                        + &materialize(1, req)
                        + "setvl x5, x1\n",
                );
            }
        }
        assert!(cases.len() > 2000, "{}", cases.len());
        for src in cases {
            let p = assemble(&(src.clone() + "halt\n")).unwrap();
            let (st, conc) = (state_at_halt(&p), interpreted(&p));
            assert_eq!(st.x[5], Cv::K(conc.x[5] as i64), "x5 after:\n{src}");
            assert_eq!(st.vl, Cv::K(conc.vl as i64), "vl after:\n{src}");
        }
    }
}
