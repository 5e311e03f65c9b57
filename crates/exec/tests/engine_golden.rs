//! Golden tests for the interpreter's edge-case semantics, run through
//! **both** functional engines.
//!
//! Both engines execute each instruction through `interp::exec`; the block
//! engine chains it through compiled blocks. Every deliberately-odd corner
//! of the ISA — division by zero, shift-amount masking, permute index
//! wrap, masked-element preservation — is asserted here against
//! hand-computed values under `EngineMode::Interp` *and*
//! `EngineMode::Block`, plus a lockstep run that the two engines emit
//! identical [`Step`] streams and leave identical memory. The every-op
//! golden pins the results of every opcode, on edge operands, to a
//! committed file.

use vlt_exec::{EngineMode, FuncSim, Step};
use vlt_isa::asm::assemble;
use vlt_isa::Op;

const BUDGET: u64 = 1_000_000;

/// Run `src` to completion on one thread under `engine`.
fn run_on(src: &str, engine: EngineMode) -> FuncSim {
    let p = assemble(src).unwrap();
    let mut sim = FuncSim::new(&p, 1).with_engine(engine);
    sim.run_to_completion(BUDGET).unwrap();
    sim
}

/// Step both engines in lockstep over `src`, asserting an identical
/// per-thread [`Step`] stream, then run golden checks on each final state.
fn check_both(src: &str, mut golden: impl FnMut(&FuncSim, &str)) {
    let p = assemble(src).unwrap();
    let mut a = FuncSim::new(&p, 1).with_engine(EngineMode::Interp);
    let mut b = FuncSim::new(&p, 1).with_engine(EngineMode::Block);
    let mut steps = 0u64;
    while !a.all_halted() {
        let sa = a.step_thread(0).unwrap();
        let sb = b.step_thread(0).unwrap();
        assert_eq!(sa, sb, "engines diverged at step {steps}");
        if let Step::Inst(d) = &sa {
            if let vlt_exec::DynKind::VMem { addrs } = d.kind {
                assert_eq!(a.addrs(addrs), b.addrs(addrs), "addresses diverged at {steps}");
            }
        }
        steps += 1;
        assert!(steps < BUDGET, "program did not halt");
    }
    assert!(b.all_halted());
    assert_eq!(a.mem, b.mem, "final memory diverged");
    golden(&a, "interp");
    golden(&b, "block");
}

#[test]
fn div_rem_by_zero_and_overflow() {
    check_both(
        r#"
        li   x1, 7
        li   x2, 0
        div  x3, x1, x2        # /0 -> all ones
        rem  x4, x1, x2        # %0 -> dividend
        sub  x5, x0, x1        # -7
        div  x6, x5, x2
        rem  x7, x5, x2
        li   x8, 1
        slli x8, x8, 63        # i64::MIN
        sub  x9, x0, x1
        div  x10, x9, x1       # -7 / 7 = -1
        div  x11, x8, x10      # i64::MIN / -1 wraps to i64::MIN
        rem  x12, x8, x10      # i64::MIN % -1 = 0
        halt
    "#,
        |s, eng| {
            let st = s.thread(0);
            assert_eq!(st.x[3], u64::MAX, "{eng}: div by zero");
            assert_eq!(st.x[4], 7, "{eng}: rem by zero keeps dividend");
            assert_eq!(st.x[6], u64::MAX, "{eng}: signed div by zero");
            assert_eq!(st.x[7], (-7i64) as u64, "{eng}: signed rem by zero");
            assert_eq!(st.x[10], u64::MAX, "{eng}: -7/7");
            assert_eq!(st.x[11], i64::MIN as u64, "{eng}: overflow wraps");
            assert_eq!(st.x[12], 0, "{eng}: overflow rem");
        },
    );
}

#[test]
fn shifts_mask_amount_to_low_six_bits() {
    check_both(
        r#"
        li   x1, 1
        li   x2, 65
        sll  x3, x1, x2        # 1 << (65 & 63) = 2
        li   x4, 64
        sll  x5, x1, x4        # 1 << 0 = 1
        slli x6, x1, 63        # high bit
        srl  x7, x6, x2        # >> 1
        sra  x8, x6, x2        # arithmetic >> 1 keeps the sign
        li   x9, 1
        sub  x10, x0, x9       # -1: shift amount masks to 63
        sll  x11, x1, x10      # 1 << 63
        halt
    "#,
        |s, eng| {
            let st = s.thread(0);
            assert_eq!(st.x[3], 2, "{eng}: sll 65");
            assert_eq!(st.x[5], 1, "{eng}: sll 64");
            assert_eq!(st.x[7], 1 << 62, "{eng}: srl 65");
            assert_eq!(st.x[8], 0b11 << 62, "{eng}: sra 65");
            assert_eq!(st.x[11], 1 << 63, "{eng}: sll -1");
        },
    );
}

#[test]
fn vextract_vinsert_wrap_index_modulo_mvl() {
    check_both(
        r#"
        li        x1, 4
        setvl     x2, x1
        vid       v1
        li        x3, 66
        vextract  x4, v1, x3   # index 66 % 64 = 2
        li        x5, 65       # index 1
        li        x6, 99
        vinsert   v1, x5, x6
        li        x7, 1
        vextract  x8, v1, x7
        halt
    "#,
        |s, eng| {
            let st = s.thread(0);
            assert_eq!(st.x[4], 2, "{eng}: vextract wraps mod 64");
            assert_eq!(st.x[8], 99, "{eng}: vinsert wraps mod 64");
            assert_eq!(st.v[1][1], 99, "{eng}: lane written through wrap");
        },
    );
}

#[test]
fn accesses_wrap_past_the_top_of_the_address_space() {
    check_both(
        r#"
        li    x5, 0x04030201
        slli  x5, x5, 32
        sd    x5, -8(x0)       # the last dword of the address space
        li    x6, 0x08070605
        sd    x6, 0(x0)
        li    x7, 9
        sd    x7, 8(x0)
        li    x1, -8
        li    x2, 4
        setvl x0, x2
        vld   v1, x1           # elements at -8, 0, 8, 16: the sum wraps
        vst   v1, x1
        li    x3, -4
        ld    x4, 0(x3)        # bytes -4..3 straddle the top
        sd    x4, 0(x3)
        halt
    "#,
        |s, eng| {
            let st = s.thread(0);
            assert_eq!(st.v[1][..4], [0x0403_0201_0000_0000, 0x0807_0605, 9, 0], "{eng}: vld");
            assert_eq!(st.x[4], 0x0807_0605_0403_0201, "{eng}: straddling ld");
            assert_eq!(s.mem.read_u64(u64::MAX - 7), 0x0403_0201_0000_0000, "{eng}: top dword");
            assert_eq!(s.mem.read_u64(0), 0x0807_0605, "{eng}: bottom dword");
        },
    );
}

#[test]
fn masked_ops_preserve_disabled_elements() {
    check_both(
        r#"
        li      x1, 8
        setvl   x2, x1
        li      x3, 7
        vsplat  v1, x3           # all lanes 7
        vid     v2
        li      x4, 0b0101
        vmsetb  x4
        vadd.vv v1, v2, v2, vm   # lanes 0,2 <- 2*e; others keep 7
        li      x5, 100
        vsplat  v3, x5
        vsplat  v3, x3, vm       # lanes 0,2 <- 7
        halt
    "#,
        |s, eng| {
            let st = s.thread(0);
            for e in 0..8usize {
                let want = if e == 0 || e == 2 { 2 * e as u64 } else { 7 };
                assert_eq!(st.v[1][e], want, "{eng}: v1[{e}]");
                let want = if e == 0 || e == 2 { 7 } else { 100 };
                assert_eq!(st.v[3][e], want, "{eng}: v3[{e}]");
            }
        },
    );
}

#[test]
fn vcmp_touches_only_bits_below_vl() {
    check_both(
        r#"
        li      x1, 8
        setvl   x2, x1
        vmset                  # vm = all 64 ones
        li      x3, 2
        setvl   x4, x3
        vid     v1
        vsne.vv v1, v1         # all false within vl=2: clears bits 0,1
        halt
    "#,
        |s, eng| {
            assert_eq!(s.thread(0).vm, !0b11, "{eng}: bits >= vl preserved");
        },
    );
}

#[test]
fn masked_load_leaves_disabled_lanes_and_memory_alone() {
    let src = r#"
        .data
    src:
        .dword 10, 20, 30, 40
    dst:
        .dword 1, 2, 3, 4
        .text
        li      x1, 4
        setvl   x2, x1
        li      x3, 5
        vsplat  v1, x3
        li      x4, 0b1010
        vmsetb  x4
        la      x5, src
        vld     v1, x5, vm     # lanes 1,3 load; 0,2 keep 5
        la      x6, dst
        vst     v1, x6, vm     # lanes 1,3 store; dst[0], dst[2] untouched
        halt
    "#;
    let dst = assemble(src).unwrap().symbol("dst").unwrap();
    check_both(src, |s, eng| {
        let st = s.thread(0);
        assert_eq!(st.v[1][0], 5, "{eng}: masked-off lane 0");
        assert_eq!(st.v[1][1], 20, "{eng}: enabled lane 1");
        assert_eq!(st.v[1][2], 5, "{eng}: masked-off lane 2");
        assert_eq!(st.v[1][3], 40, "{eng}: enabled lane 3");
        assert_eq!(s.mem.read_u64(dst), 1, "{eng}: dst[0] untouched");
        assert_eq!(s.mem.read_u64(dst + 8), 20, "{eng}: dst[1] stored");
        assert_eq!(s.mem.read_u64(dst + 16), 3, "{eng}: dst[2] untouched");
        assert_eq!(s.mem.read_u64(dst + 24), 40, "{eng}: dst[3] stored");
    });
}

/// Engine-pinned golden checks (not just cross-engine agreement): the same
/// values asserted under each engine independently, so a bug shared by both
/// paths cannot hide.
#[test]
fn each_engine_matches_hand_computed_values() {
    let src = r#"
        li   x1, 7
        li   x2, 0
        div  x3, x1, x2
        li   x4, 65
        sll  x5, x1, x4
        halt
    "#;
    for engine in [EngineMode::Interp, EngineMode::Block] {
        let s = run_on(src, engine);
        assert_eq!(s.thread(0).x[3], u64::MAX, "{engine:?}");
        assert_eq!(s.thread(0).x[5], 14, "{engine:?}");
    }
}

// ---------------------------------------------------------------------------
// The every-op golden
// ---------------------------------------------------------------------------

/// The committed golden of [`every_op_program`] (see
/// [`every_opcode_matches_its_golden`]).
const EVERY_OP_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/every_op.txt");

/// Elements per vector instruction in the every-op program: one lane per
/// edge pair of the vector operand pools.
const VL: usize = 10;

/// The mixed mask: lanes 1, 4, 6, 7 and 9 enabled, plus set bits above
/// [`VL`] that compares must keep and mask reads must ignore.
const MIXED_MASK: u64 = 0xf0f0_0000_0000_02d2;

const MIN: u64 = 1 << 63;
const PAT: u64 = 0xfedc_ba98_7654_3210;

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// A generated every-op program and the layout of the results it stores.
struct EveryOp {
    src: String,
    /// One entry per result stored to `out`, in store order: what produced
    /// it and its width in dwords.
    spills: Vec<(String, usize)>,
    labels: usize,
}

/// The operands one instance of an op reads, in signature order of each
/// register file, plus the immediate or memory offset it uses.
#[derive(Clone, Copy)]
struct Row {
    x: [&'static str; 2],
    f: [&'static str; 2],
    v: [&'static str; 2],
    imm: i64,
    /// Stride register of a strided vector access.
    stride: &'static str,
    /// Base register of a vector load.
    base: &'static str,
}

/// Scalar rows: integer pairs for division by zero, `i64::MIN / -1`, shift
/// amounts of 64, 65 and -3, signed against unsigned order and equality;
/// FP pairs for `-0.0` against `0.0`, NaN on either side, infinities and
/// overflow.
const SCALAR_ROWS: [Row; 8] = [
    Row { x: ["x1", "x2"], f: ["f1", "f2"], v: ["v1", "v2"], imm: 0, stride: "x12", base: "x11" },
    Row { x: ["x3", "x4"], f: ["f3", "f4"], v: ["v1", "v2"], imm: 64, stride: "x12", base: "x11" },
    Row { x: ["x8", "x5"], f: ["f4", "f3"], v: ["v1", "v2"], imm: -1, stride: "x12", base: "x11" },
    Row { x: ["x8", "x6"], f: ["f5", "f2"], v: ["v1", "v2"], imm: 65, stride: "x12", base: "x11" },
    Row {
        x: ["x8", "x7"],
        f: ["f6", "f7"],
        v: ["v1", "v2"],
        imm: 8191,
        stride: "x12",
        base: "x11",
    },
    Row {
        x: ["x4", "x3"],
        f: ["f2", "f1"],
        v: ["v1", "v2"],
        imm: -8192,
        stride: "x12",
        base: "x11",
    },
    Row { x: ["x9", "x1"], f: ["f8", "f8"], v: ["v1", "v2"], imm: 7, stride: "x12", base: "x11" },
    Row { x: ["x1", "x1"], f: ["f3", "f3"], v: ["v1", "v2"], imm: 63, stride: "x12", base: "x11" },
];

/// Vector rows: integer edge lanes, FP edge lanes both ways round; scalar
/// operands 130 (an index and shift of 64 and above), `i64::MIN` and -1;
/// strides 16, -8 and 0; loads from `va`, from `va + 4` and from -16, so
/// the elements wrap past the top of the address space.
const VECTOR_ROWS: [Row; 3] = [
    Row { x: ["x9", "x1"], f: ["f8", "f5"], v: ["v1", "v2"], imm: 0, stride: "x12", base: "x11" },
    Row { x: ["x3", "x4"], f: ["f3", "f4"], v: ["v3", "v4"], imm: 0, stride: "x13", base: "x18" },
    Row { x: ["x4", "x3"], f: ["f1", "f2"], v: ["v4", "v3"], imm: 0, stride: "x2", base: "x19" },
];

/// Scalar memory offsets, one per scalar row: aligned, unaligned, and
/// across the dword boundary.
const OFFSETS: [i64; 8] = [0, 4, 7, 1, 8, 12, 3, 2];

/// `lui` immediates, one per scalar row: both ends of its 19-bit field.
const LUI_IMMS: [i64; 8] = [0, 1, -1, 262143, -262144, 0x1234, 7, 100];

/// (mask, vl) register pairs for the mask reads: mixed, empty, full, only
/// bit 63 (above vl), at vl 10 and at vl 64.
const MASK_ROWS: [(&str, &str); 6] =
    [("x15", "x14"), ("x2", "x14"), ("x4", "x14"), ("x3", "x14"), ("x3", "x17"), ("x15", "x17")];

/// `vltcfg` operands: every flat thread count and four clustered ones.
const VLTCFG_OPERANDS: [u64; 8] = [1, 2, 4, 8, 0x102, 0x204, 0x408, 0x808];

/// What an op writes, as far as the golden observes it.
#[derive(Clone, Copy, PartialEq)]
enum Dest {
    X,
    F,
    V,
    Mask,
}

impl EveryOp {
    fn line(&mut self, s: &str) {
        self.src.push_str("    ");
        self.src.push_str(s);
        self.src.push('\n');
    }

    fn label(&mut self) -> String {
        self.labels += 1;
        format!("L{}", self.labels)
    }

    /// Store `reg` (an `x` or `f` register) to `out` and advance.
    fn spill(&mut self, reg: &str, what: String) {
        let st = if reg.starts_with('f') { "fsd" } else { "sd" };
        self.line(&format!("{st} {reg}, 0(x29)"));
        self.line("addi x29, x29, 8");
        self.spills.push((what, 1));
    }

    fn spill_dest(&mut self, dest: Dest, what: String) {
        match dest {
            Dest::X => self.spill("x20", what),
            Dest::F => self.spill("f20", what),
            Dest::V => {
                self.line("vst v20, x29");
                self.line(&format!("addi x29, x29, {}", 8 * VL));
                self.spills.push((what, VL));
            }
            Dest::Mask => {
                // All 64 bits: `vmgetb` reads only the bits below vl.
                self.line("setvl x0, x17");
                self.line("vmgetb x21");
                self.line("setvl x0, x14");
                self.spill("x21", what);
            }
        }
    }

    /// Reset what an instance reads besides its operands: the mixed mask
    /// and the destination's previous value.
    fn prefill(&mut self, dest: Option<Dest>) {
        self.line("vmsetb x15");
        match dest {
            Some(Dest::X) => self.line("mv x20, x16"),
            Some(Dest::F) => self.line("fmov f20, f9"),
            Some(Dest::V) => self.line("vmv v20, v6"),
            _ => {}
        }
    }
}

/// The destination an op writes: signature position 0 unless the op only
/// reads its operands (stores, branches, compares, `vmsetb`).
fn dest_of(op: Op) -> Option<Dest> {
    use vlt_isa::{OpClass, OperandSig};
    if matches!(op, Op::Vseq | Op::Vsne | Op::Vslt | Op::Vsge | Op::Vfeq | Op::Vflt | Op::Vfle)
        || matches!(op, Op::Vmnot | Op::Vmset | Op::Vmsetb)
    {
        return Some(Dest::Mask);
    }
    if matches!(op.class(), OpClass::Store | OpClass::VStore | OpClass::Branch) {
        return None;
    }
    match op.sig().first()? {
        OperandSig::Ri => Some(Dest::X),
        OperandSig::Rf => Some(Dest::F),
        OperandSig::Rv => Some(Dest::V),
        _ => None,
    }
}

/// Render one instance of `op` reading `row`: the operand text, and the
/// index of the first source in the destination's register file.
fn operands(op: Op, row: &Row, dest: Option<Dest>, base: &str) -> (Vec<String>, Option<usize>) {
    use vlt_isa::OperandSig;
    let sig = op.sig();
    let writes = matches!(dest, Some(Dest::X | Dest::F | Dest::V));
    let (mut xi, mut fi, mut vi) = (0, 0, 0);
    let mut ops = Vec::new();
    let mut alias = None;
    for (k, s) in sig.iter().enumerate() {
        if k == 0 && writes {
            ops.push(match s {
                OperandSig::Ri => "x20".to_string(),
                OperandSig::Rf => "f20".to_string(),
                _ => "v20".to_string(),
            });
            continue;
        }
        let same = |d: Dest| dest == Some(d) && alias.is_none();
        let text = match s {
            OperandSig::Ri => {
                // A vector access reads its base first, then its stride.
                let r = if op.class().is_mem() && xi == 0 {
                    base
                } else if matches!(op, Op::Vlds | Op::Vsts) {
                    row.stride
                } else {
                    row.x[xi.min(1)]
                };
                xi += 1;
                if same(Dest::X) {
                    alias = Some(k);
                }
                r.to_string()
            }
            OperandSig::Rf => {
                let r = row.f[fi];
                fi += 1;
                if same(Dest::F) {
                    alias = Some(k);
                }
                r.to_string()
            }
            OperandSig::Rv => {
                // An indexed access takes its byte offsets from v5.
                let r = if matches!(op, Op::Vldx | Op::Vstx) && k == 2 { "v5" } else { row.v[vi] };
                vi += 1;
                if same(Dest::V) {
                    alias = Some(k);
                }
                r.to_string()
            }
            OperandSig::Imm => row.imm.to_string(),
            OperandSig::Mem => {
                xi += 1;
                if same(Dest::X) {
                    alias = Some(k);
                }
                format!("{}({base})", row.imm)
            }
            OperandSig::Lab => unreachable!("control flow is emitted by hand"),
        };
        ops.push(text);
    }
    (ops, alias)
}

/// One program that runs every opcode in [`Op::ALL`], generated from its
/// operand signature: each scalar op over [`SCALAR_ROWS`], each vector op
/// over [`VECTOR_ROWS`] both unmasked and, when maskable, under the mixed
/// mask, and once more with the destination aliasing its first source.
/// Every result is stored to `out`.
fn every_op_program() -> EveryOp {
    use vlt_isa::OpClass;
    let nan = bits(f64::NAN);
    let xpool = [7, 0, MIN, u64::MAX, 64, 65, -3i64 as u64, PAT, 130, MIXED_MASK];
    let fpool =
        [bits(-0.0), 0, nan, bits(1.5), bits(-2.25), bits(f64::INFINITY), bits(f64::NEG_INFINITY)]
            .into_iter()
            .chain([bits(1e300), bits(3.0)]);
    let lanes = |edge: &[u64], rest: &dyn Fn(u64) -> u64| -> String {
        let all: Vec<String> = (0..64)
            .map(|e| format!("{:#x}", if e < VL { edge[e] } else { rest(e as u64) }))
            .collect();
        all.join(", ")
    };
    let va = [7, MIN, PAT, PAT, PAT, u64::MAX, i64::MAX as u64, -8i64 as u64, 130, 0];
    let vb = [0, u64::MAX, 64, 65, -3i64 as u64, MIN, 1, 2, 7, 0];
    // One NaN per FP vector, positive in one and negative in the other:
    // FP arithmetic turns either into the canonical NaN.
    let vfa = [
        bits(-0.0),
        nan,
        bits(1.5),
        bits(-2.25),
        bits(f64::INFINITY),
        0,
        bits(1e300),
        bits(f64::NEG_INFINITY),
        bits(-1.0),
        bits(2.0),
    ];
    let vfb = [
        0,
        bits(1.5),
        nan | MIN,
        0,
        bits(f64::NEG_INFINITY),
        bits(-0.0),
        bits(1e300),
        bits(f64::INFINITY),
        bits(-0.0),
        bits(3.0),
    ];
    let vidx = [0, 8, 16, 72, 8, 0, 40, 32, 24, 48];

    let mut g = EveryOp { src: String::new(), spills: Vec::new(), labels: 0 };
    // Setup: pools, bases, the prefill pattern in all 64 lanes of v6 and
    // v20, and vl = 10.
    g.line("la x29, ints");
    for r in 1..=9 {
        g.line(&format!("ld x{r}, {}(x29)", 8 * (r - 1)));
    }
    g.line("ld x15, 72(x29)");
    g.line("la x29, fps");
    for r in 1..=9 {
        g.line(&format!("fld f{r}, {}(x29)", 8 * (r - 1)));
    }
    for line in [
        "la x10, scal",
        "la x11, va",
        "addi x18, x11, 4",
        "li x19, -16",
        "li x12, 16",
        "li x13, -8",
        "li x14, 10",
        "li x16, 0x5a5a",
        "li x17, 64",
        "setvl x0, x17",
        "la x29, va",
        "vld v1, x29",
        "la x29, vb",
        "vld v2, x29",
        "la x29, vfa",
        "vld v3, x29",
        "la x29, vfb",
        "vld v4, x29",
        "la x29, vidx",
        "vld v5, x29",
        "la x29, vold",
        "vld v6, x29",
        "vmv v20, v6",
        "setvl x0, x14",
        "mv x20, x16",
        "fmov f20, f9",
        "la x29, out",
    ] {
        g.line(line);
    }

    for &op in Op::ALL {
        let mn = op.mnemonic();
        g.line(&format!("# {mn}"));
        g.line("setvl x0, x14");
        let class = op.class();
        match op {
            // The program ends in `halt`.
            Op::Halt => {}
            Op::Nop | Op::Barrier => g.line(mn),
            Op::Region => g.line("region 5"),
            Op::VltCfg => {
                for h in VLTCFG_OPERANDS {
                    g.line(&format!("li x21, {h}"));
                    g.line("vltcfg x21");
                    g.line("getvl x20");
                    g.spill("x20", format!("vltcfg {h:#x}; getvl"));
                    g.line("setvl x20, x4");
                    g.spill("x20", format!("vltcfg {h:#x}; setvl x20, x4"));
                    g.line("setvl x0, x14");
                }
                g.line("li x21, 1");
                g.line("vltcfg x21");
            }
            Op::SetVl => {
                for req in ["x1", "x5", "x6", "x9", "x3", "x4", "x14"] {
                    g.line(&format!("setvl x20, {req}"));
                    g.spill("x20", format!("setvl x20, {req}"));
                    g.line("getvl x20");
                    g.spill("x20", format!("setvl x20, {req}; getvl"));
                }
                g.line("setvl x0, x14");
            }
            Op::J | Op::Jal | Op::Jr | Op::Jalr => {
                let l = g.label();
                let inst = match op {
                    Op::J | Op::Jal => format!("{mn} {l}"),
                    Op::Jr => "jr x21".to_string(),
                    _ => "jalr x20, x21".to_string(),
                };
                g.line(&format!("la x21, {l}"));
                g.line("li x22, 0");
                g.line(&inst);
                g.line("addi x22, x22, 1");
                g.src.push_str(&format!("{l}:\n"));
                g.spill("x22", format!("{inst} (1 = fell through)"));
                match op {
                    Op::Jal => g.spill("x31", format!("{inst}; link")),
                    Op::Jalr => g.spill("x20", format!("{inst}; link")),
                    _ => {}
                }
                if op == Op::Jalr {
                    // The target reads before the link writes.
                    let l = g.label();
                    g.line(&format!("la x20, {l}"));
                    g.line("jalr x20, x20");
                    g.line("li x20, 0");
                    g.src.push_str(&format!("{l}:\n"));
                    g.spill("x20", "jalr x20, x20; link".to_string());
                }
            }
            _ if class == OpClass::Branch => {
                for row in &SCALAR_ROWS {
                    let l = g.label();
                    let inst = format!("{mn} {}, {}", row.x[0], row.x[1]);
                    g.line("li x22, 0");
                    g.line(&format!("{inst}, {l}"));
                    g.line("addi x22, x22, 1");
                    g.src.push_str(&format!("{l}:\n"));
                    g.spill("x22", format!("{inst} (1 = fell through)"));
                }
            }
            Op::Lui => {
                for imm in LUI_IMMS {
                    g.line(&format!("lui x20, {imm}"));
                    g.spill("x20", format!("lui x20, {imm}"));
                }
            }
            Op::Vmnot | Op::Vmset | Op::Vpopc | Op::Vmfirst | Op::Vmgetb => {
                let dest = dest_of(op).unwrap();
                for (mask, vl) in MASK_ROWS {
                    g.prefill(Some(dest));
                    g.line(&format!("vmsetb {mask}"));
                    g.line(&format!("setvl x0, {vl}"));
                    let inst = if dest == Dest::X { format!("{mn} x20") } else { mn.to_string() };
                    g.line(&inst);
                    g.line("setvl x0, x14");
                    g.spill_dest(dest, format!("{inst} (vm = {mask}, vl = {vl})"));
                }
            }
            _ if class == OpClass::Store => {
                for (row, off) in SCALAR_ROWS.iter().zip(OFFSETS) {
                    let src = if op == Op::Fsd { row.f[0] } else { row.x[0] };
                    let inst = format!("{mn} {src}, {off}(x29)");
                    g.line(&inst);
                    g.line("addi x29, x29, 24");
                    g.spills.push((inst, 3));
                }
            }
            _ if class == OpClass::VStore => {
                let words = if op == Op::Vsts { 2 * VL } else { VL };
                for row in &VECTOR_ROWS {
                    for masked in [false, true] {
                        // A negative stride stores downwards from the
                        // window's last element.
                        let base = if row.stride == "x13" { "x22" } else { "x29" };
                        g.line(&format!("addi x22, x29, {}", 8 * (VL - 1)));
                        g.prefill(None);
                        let (ops, _) = operands(op, row, None, base);
                        let vm = if masked { ", vm" } else { "" };
                        let inst = format!("{mn} {}{vm}", ops.join(", "));
                        g.line(&inst);
                        g.line(&format!("addi x29, x29, {}", 8 * words));
                        g.spills.push((inst, words));
                    }
                }
            }
            _ => {
                let dest = dest_of(op);
                let (rows, base): (&[Row], &str) =
                    if class.is_vector() { (&VECTOR_ROWS, "x11") } else { (&SCALAR_ROWS, "x10") };
                // Ops with no source operand run once.
                let mut seen = std::collections::HashSet::new();
                for (k, row) in rows.iter().enumerate() {
                    let mut row = *row;
                    if class == OpClass::Load {
                        row.imm = OFFSETS[k];
                    }
                    let variants: &[bool] = if op.maskable() { &[false, true] } else { &[false] };
                    let base = if class == OpClass::VLoad { row.base } else { base };
                    for &masked in variants {
                        let (ops, _) = operands(op, &row, dest, base);
                        let vm = if masked { ", vm" } else { "" };
                        let inst = format!("{mn} {}{vm}", ops.join(", "));
                        if !seen.insert(inst.clone()) {
                            continue;
                        }
                        g.prefill(dest);
                        g.line(&inst);
                        emit_result(&mut g, op, dest, &ops, inst);
                    }
                }
                // Once more with the destination aliasing its first source
                // of the same register file.
                let row = rows[0];
                let (mut ops, alias) = operands(op, &row, dest, base);
                if let Some(k) = alias {
                    g.prefill(dest);
                    let copy = match dest {
                        Some(Dest::X) if op.sig()[k] == vlt_isa::OperandSig::Mem => {
                            let r = format!("mv x20, {base}");
                            ops[k] = format!("{}(x20)", row.imm);
                            r
                        }
                        Some(Dest::X) => {
                            format!("mv x20, {}", std::mem::replace(&mut ops[k], "x20".into()))
                        }
                        Some(Dest::F) => {
                            format!("fmov f20, {}", std::mem::replace(&mut ops[k], "f20".into()))
                        }
                        _ => format!("vmv v20, {}", std::mem::replace(&mut ops[k], "v20".into())),
                    };
                    g.line(&copy);
                    let inst = format!("{mn} {}", ops.join(", "));
                    g.line(&inst);
                    emit_result(&mut g, op, dest, &ops, format!("{copy}; {inst}"));
                }
            }
        }
    }
    g.line("halt");

    let words: usize = g.spills.iter().map(|(_, n)| n).sum();
    let join = |v: &[u64]| v.iter().map(|w| format!("{w:#x}")).collect::<Vec<_>>().join(", ");
    let fps: Vec<u64> = fpool.collect();
    let text = std::mem::take(&mut g.src);
    g.src = format!(
        "    .data\nints:\n    .dword {}\nfps:\n    .dword {}\nscal:\n    .dword 0x808182ff7f800180, 0x0123456789abcdef, 0x7f\n\
         va:\n    .dword {}\nvb:\n    .dword {}\nvfa:\n    .dword {}\nvfb:\n    .dword {}\n\
         vidx:\n    .dword {}\nvold:\n    .dword {}\nout:\n    .space {}\n    .text\n{text}",
        join(&xpool),
        join(&fps),
        lanes(&va, &|e| 0x0101_0101 * e),
        lanes(&vb, &|e| e),
        lanes(&vfa, &|e| bits(e as f64 * 0.5)),
        lanes(&vfb, &|e| bits(-(e as f64))),
        lanes(&vidx, &|e| 8 * e),
        lanes(&[0xdead_0000_0000_0000; VL], &|e| 0xdead_0000_0000_0000 | e),
        8 * words + 64,
    );
    g
}

/// Store what `inst` produced: its destination, and for an insert the
/// element it wrote, read back at the same index.
fn emit_result(g: &mut EveryOp, op: Op, dest: Option<Dest>, ops: &[String], inst: String) {
    let Some(dest) = dest else { return };
    g.spill_dest(dest, inst.clone());
    if matches!(op, Op::Vinsert | Op::Vfinsert) {
        g.line(&format!("vextract x21, v20, {}", ops[1]));
        g.spill("x21", format!("{inst}; vextract at {}", ops[1]));
    }
}

/// The golden text of a finished every-op run: every stored result, then
/// the final registers, mask, vl and partition. Every word prints as hex:
/// the interpreter canonicalizes the NaNs FP arithmetic produces, so no
/// result depends on the build.
fn render_every_op(sim: &FuncSim, prog: &EveryOp, out: u64) -> String {
    let mut s = String::from(
        "# Every opcode's results (crates/exec/tests/engine_golden.rs, every_op_program),\n\
         # one stored result per line, then the final architectural state. Words are hex.\n",
    );
    let mut addr = out;
    for (what, n) in &prog.spills {
        let words: Vec<String> =
            (0..*n).map(|k| format!("{:016x}", sim.mem.read_u64(addr + 8 * k as u64))).collect();
        s.push_str(&format!("{what} => {}\n", words.join(" ")));
        addr += 8 * *n as u64;
    }
    let st = sim.thread(0);
    s.push_str(&format!(
        "final: pc {:#x} vl {} mvl {} vm {:016x} region {} halted {}\n",
        st.pc, st.vl, st.mvl, st.vm, st.region, st.halted
    ));
    for r in 0..32 {
        s.push_str(&format!("x{r} = {:016x}\n", st.x[r]));
    }
    for r in 0..32 {
        s.push_str(&format!("f{r} = {:016x}\n", st.f[r].to_bits()));
    }
    for r in 0..32 {
        if st.v[r].iter().all(|&w| w == 0) {
            continue;
        }
        for (k, chunk) in st.v[r].chunks(16).enumerate() {
            let words: Vec<String> = chunk.iter().map(|w| format!("{w:016x}")).collect();
            s.push_str(&format!("v{r}[{}..{}] = {}\n", 16 * k, 16 * k + 16, words.join(" ")));
        }
    }
    s
}

/// Every opcode, on edge operands, leaves the results and final state the
/// committed golden records: under the interpreter and the block engine,
/// stepped in lockstep and run in one batch.
///
/// After an intended semantic change the mismatch message names a copy of
/// the new text under the test's target directory; copy it over
/// `tests/golden/every_op.txt`.
#[test]
fn every_opcode_matches_its_golden() {
    let prog = every_op_program();
    let assembled = assemble(&prog.src).unwrap();
    let insts = assembled.decoded();
    for &op in Op::ALL {
        assert!(insts.iter().any(|i| i.op == op), "{op:?} is never run");
        assert!(!op.maskable() || insts.iter().any(|i| i.op == op && i.masked), "{op:?} masked");
    }
    let out = assembled.symbol("out").unwrap();
    let mut texts = Vec::new();
    check_both(&prog.src, |s, eng| {
        texts.push((format!("{eng}, stepped"), render_every_op(s, &prog, out)))
    });
    for engine in [EngineMode::Interp, EngineMode::Block] {
        let s = run_on(&prog.src, engine);
        texts.push((format!("{engine:?}, batch"), render_every_op(&s, &prog, out)));
    }
    let want = std::fs::read_to_string(EVERY_OP_GOLDEN).unwrap_or_default();
    for (how, got) in &texts {
        if *got != want {
            let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/every_op.txt");
            std::fs::write(fresh, got).unwrap();
            let (n, (g, w)) = got
                .lines()
                .chain(std::iter::repeat("<end>"))
                .zip(want.lines().chain(std::iter::repeat("<end>")))
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .unwrap();
            panic!(
                "{how}: the every-op run differs from {EVERY_OP_GOLDEN} at line {}: got {g:?}, \
                 want {w:?}; the new text is in {fresh}",
                n + 1
            );
        }
    }
}
