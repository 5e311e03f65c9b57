//! Golden tests for the interpreter's edge-case semantics, run through
//! **both** functional engines.
//!
//! The block engine re-implements instruction semantics as specialized
//! µops, so every deliberately-odd corner of the ISA — division by zero,
//! shift-amount masking, permute index wrap, masked-element preservation —
//! is asserted here against hand-computed values under `EngineMode::Interp`
//! *and* `EngineMode::Block`, plus a lockstep run that the two engines
//! emit identical [`Step`] streams and leave identical memory.

use vlt_exec::{EngineMode, FuncSim, Step};
use vlt_isa::asm::assemble;

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
fn check_both(src: &str, golden: impl Fn(&FuncSim, &str)) {
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
