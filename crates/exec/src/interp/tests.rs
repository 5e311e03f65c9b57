//! Interpreter semantics tests. Each runs a tiny program to completion and
//! checks architectural state, exercising one behaviour per test.

use proptest::prelude::*;
use vlt_isa::asm::assemble;
use vlt_isa::MAX_VL;

use crate::funcsim::FuncSim;
use crate::trace::DynKind;

/// Run `src` single-threaded and return the sim.
fn run(src: &str) -> FuncSim {
    let p = assemble(src).unwrap();
    let mut sim = FuncSim::new(&p, 1);
    sim.run_to_completion(1_000_000).unwrap();
    sim
}

fn x(sim: &FuncSim, r: usize) -> u64 {
    sim.thread(0).x[r]
}

fn f(sim: &FuncSim, r: usize) -> f64 {
    sim.thread(0).f[r]
}

fn velem(sim: &FuncSim, r: usize, e: usize) -> u64 {
    sim.thread(0).v[r][e]
}

#[test]
fn int_arithmetic() {
    let s = run("li x1, 7\nli x2, -3\nadd x3, x1, x2\nsub x4, x1, x2\nmul x5, x1, x2\nhalt\n");
    assert_eq!(x(&s, 3), 4);
    assert_eq!(x(&s, 4), 10);
    assert_eq!(x(&s, 5) as i64, -21);
}

#[test]
fn div_rem_signed_and_by_zero() {
    let s = run("li x1, -17\nli x2, 5\ndiv x3, x1, x2\nrem x4, x1, x2\nli x5, 0\ndiv x6, x1, x5\nrem x7, x1, x5\nhalt\n");
    assert_eq!(x(&s, 3) as i64, -3);
    assert_eq!(x(&s, 4) as i64, -2);
    assert_eq!(x(&s, 6), u64::MAX);
    assert_eq!(x(&s, 7) as i64, -17);
}

#[test]
fn logic_and_shifts() {
    let s = run("li x1, 0xF0\nli x2, 0x0F\nand x3, x1, x2\nor x4, x1, x2\nxor x5, x1, x2\nli x6, 4\nsll x7, x2, x6\nsrl x8, x1, x6\nhalt\n");
    assert_eq!(x(&s, 3), 0);
    assert_eq!(x(&s, 4), 0xFF);
    assert_eq!(x(&s, 5), 0xFF);
    assert_eq!(x(&s, 7), 0xF0);
    assert_eq!(x(&s, 8), 0x0F);
}

#[test]
fn sra_is_arithmetic() {
    let s = run("li x1, -16\nli x2, 2\nsra x3, x1, x2\nsrl x4, x1, x2\nhalt\n");
    assert_eq!(x(&s, 3) as i64, -4);
    assert_eq!(x(&s, 4), (u64::MAX - 15) >> 2);
}

#[test]
fn slt_family() {
    let s = run("li x1, -1\nli x2, 1\nslt x3, x1, x2\nsltu x4, x1, x2\nslti x5, x1, 0\nhalt\n");
    assert_eq!(x(&s, 3), 1); // -1 < 1 signed
    assert_eq!(x(&s, 4), 0); // u64::MAX > 1 unsigned
    assert_eq!(x(&s, 5), 1);
}

#[test]
fn lui_ori_li_roundtrip() {
    let s = run("li x1, 0x12345678\nli x2, -559038737\nhalt\n");
    assert_eq!(x(&s, 1), 0x12345678);
    assert_eq!(x(&s, 2) as i64, -559038737);
}

#[test]
fn scalar_memory_widths() {
    let s = run(r#"
        .data
    buf:
        .zero 32
        .text
        la  x1, buf
        li  x2, -2
        sd  x2, 0(x1)
        lw  x3, 0(x1)      # signed 32
        lwu x4, 0(x1)      # unsigned 32
        lb  x5, 0(x1)      # signed byte
        lbu x6, 0(x1)
        li  x7, 300
        sw  x7, 8(x1)
        ld  x8, 8(x1)
        sb  x7, 16(x1)
        lbu x9, 16(x1)
        halt
    "#);
    assert_eq!(x(&s, 3) as i64, -2);
    assert_eq!(x(&s, 4), 0xFFFF_FFFE);
    assert_eq!(x(&s, 5) as i64, -2);
    assert_eq!(x(&s, 6), 0xFE);
    assert_eq!(x(&s, 8), 300);
    assert_eq!(x(&s, 9), 300 & 0xFF);
}

#[test]
fn loops_and_branches() {
    // Sum 1..=10 with a loop.
    let s = run(r#"
        li x1, 0     # acc
        li x2, 1     # i
        li x3, 10
    loop:
        add  x1, x1, x2
        addi x2, x2, 1
        ble  x2, x3, loop
        halt
    "#);
    assert_eq!(x(&s, 1), 55);
}

#[test]
fn call_ret_linkage() {
    let s = run(r#"
        li   x1, 5
        call double
        call double
        halt
    double:
        add x1, x1, x1
        ret
    "#);
    assert_eq!(x(&s, 1), 20);
}

#[test]
fn jalr_indirect_call() {
    let s = run(r#"
        la   x5, target
        jalr x7, x5
        halt
    target:
        li   x6, 99
        jr   x7
    "#);
    assert_eq!(x(&s, 6), 99);
}

#[test]
fn fp_arithmetic() {
    let s = run(r#"
        .data
    a: .double 3.5
    b: .double -2.0
        .text
        la   x1, a
        fld  f1, 0(x1)
        fld  f2, 8(x1)
        fadd f3, f1, f2
        fsub f4, f1, f2
        fmul f5, f1, f2
        fdiv f6, f1, f2
        fneg f7, f2
        fabs f8, f2
        fmin f9, f1, f2
        fmax f10, f1, f2
        halt
    "#);
    assert_eq!(f(&s, 3), 1.5);
    assert_eq!(f(&s, 4), 5.5);
    assert_eq!(f(&s, 5), -7.0);
    assert_eq!(f(&s, 6), -1.75);
    assert_eq!(f(&s, 7), 2.0);
    assert_eq!(f(&s, 8), 2.0);
    assert_eq!(f(&s, 9), -2.0);
    assert_eq!(f(&s, 10), 3.5);
}

#[test]
fn fma_accumulates() {
    let s = run(r#"
        li       x1, 2
        fcvt.f.x f1, x1
        li       x2, 3
        fcvt.f.x f2, x2
        li       x3, 10
        fcvt.f.x f3, x3
        fma      f3, f1, f2     # f3 += 2*3
        halt
    "#);
    assert_eq!(f(&s, 3), 16.0);
}

#[test]
fn fp_compare_and_convert() {
    let s = run(r#"
        li       x1, -7
        fcvt.f.x f1, x1
        fcvt.x.f x2, f1
        li       x3, 3
        fcvt.f.x f2, x3
        flt      x4, f1, f2
        fle      x5, f2, f1
        feq      x6, f1, f1
        fsqrt    f3, f2
        halt
    "#);
    assert_eq!(x(&s, 2) as i64, -7);
    assert_eq!(x(&s, 4), 1);
    assert_eq!(x(&s, 5), 0);
    assert_eq!(x(&s, 6), 1);
    assert!((f(&s, 3) - 3f64.sqrt()).abs() < 1e-12);
}

#[test]
fn setvl_clamps_to_mvl() {
    let s = run("li x1, 100\nsetvl x2, x1\nhalt\n");
    assert_eq!(x(&s, 2), MAX_VL as u64);
    assert_eq!(s.thread(0).vl, MAX_VL);
    let s = run("li x1, 13\nsetvl x2, x1\ngetvl x3\nhalt\n");
    assert_eq!(x(&s, 2), 13);
    assert_eq!(x(&s, 3), 13);
}

#[test]
fn vltcfg_partitions_register_file() {
    // 4 threads -> mvl = 16; setvl 64 then clamps to 16.
    let s = run("li x1, 4\nvltcfg x1\nli x2, 64\nsetvl x3, x2\nhalt\n");
    assert_eq!(x(&s, 3), 16);
    // Reconfig back to 1 thread restores full MVL.
    let s = run("li x1, 2\nvltcfg x1\nli x1, 1\nvltcfg x1\nli x2, 64\nsetvl x3, x2\nhalt\n");
    assert_eq!(x(&s, 3), 64);
}

#[test]
fn vltcfg_rejects_bad_counts() {
    let p = assemble("li x1, 3\nvltcfg x1\nhalt\n").unwrap();
    let mut sim = FuncSim::new(&p, 1);
    assert!(sim.run_to_completion(100).is_err());
}

#[test]
fn setvl_zero_rejected() {
    let p = assemble("li x1, 0\nsetvl x2, x1\nhalt\n").unwrap();
    let mut sim = FuncSim::new(&p, 1);
    assert!(sim.run_to_completion(100).is_err());
}

#[test]
fn vector_int_arith() {
    let s = run(r#"
        li      x1, 8
        setvl   x2, x1
        vid     v1
        li      x3, 10
        vsplat  v2, x3
        vadd.vv v3, v1, v2     # 10..17
        vmul.vv v4, v1, v1     # squares
        vsub.vs v5, v3, x3     # back to 0..7
        halt
    "#);
    for e in 0..8 {
        assert_eq!(velem(&s, 3, e), 10 + e as u64);
        assert_eq!(velem(&s, 4, e), (e * e) as u64);
        assert_eq!(velem(&s, 5, e), e as u64);
    }
}

#[test]
fn vector_only_touches_vl_elements() {
    let s = run(r#"
        li      x1, 64
        setvl   x2, x1
        li      x3, 7
        vsplat  v1, x3         # all 64 elements = 7
        li      x1, 4
        setvl   x2, x1
        li      x3, 9
        vsplat  v1, x3         # only first 4 become 9
        halt
    "#);
    for e in 0..4 {
        assert_eq!(velem(&s, 1, e), 9);
    }
    for e in 4..64 {
        assert_eq!(velem(&s, 1, e), 7);
    }
}

#[test]
fn vector_fp_and_fma() {
    let s = run(r#"
        li       x1, 4
        setvl    x2, x1
        vid      v1
        vcvt.f.x v1, v1        # [0.0, 1.0, 2.0, 3.0]
        li       x3, 2
        fcvt.f.x f1, x3
        vfsplat  v2, f1        # all 2.0
        vfmul.vv v3, v1, v2    # [0,2,4,6]
        vfma.vv  v3, v1, v2    # v3 += v1*v2 -> [0,4,8,12]
        vfma.vs  v3, v1, f1    # v3 += v1*2  -> [0,6,12,18]
        vcvt.x.f v4, v3
        halt
    "#);
    for e in 0..4 {
        assert_eq!(velem(&s, 4, e), (6 * e) as u64);
    }
}

#[test]
fn vector_compare_merge_mask() {
    let s = run(r#"
        li      x1, 8
        setvl   x2, x1
        vid     v1
        li      x3, 4
        vsplat  v2, x3
        vslt.vv v1, v2         # mask = v1 < 4 -> elements 0..3
        vpopc   x4
        vmfirst x5
        vmerge  v3, v1, v2     # masked: v1, else v2
        vmnot
        vpopc   x6
        halt
    "#);
    assert_eq!(x(&s, 4), 4);
    assert_eq!(x(&s, 5), 0);
    for e in 0..4 {
        assert_eq!(velem(&s, 3, e), e as u64);
    }
    for e in 4..8 {
        assert_eq!(velem(&s, 3, e), 4);
    }
    assert_eq!(x(&s, 6), 4); // inverted within vl
}

#[test]
fn masked_ops_preserve_disabled_elements() {
    let s = run(r#"
        li      x1, 8
        setvl   x2, x1
        li      x3, 1
        vsplat  v1, x3             # v1 = all 1
        li      x4, 0x0F
        vmsetb  x4                 # mask = low 4 lanes
        li      x5, 100
        vsplat  v1, x5, vm         # only lanes 0..3 set to 100
        halt
    "#);
    for e in 0..4 {
        assert_eq!(velem(&s, 1, e), 100);
    }
    for e in 4..8 {
        assert_eq!(velem(&s, 1, e), 1);
    }
}

#[test]
fn vector_memory_unit_stride() {
    let s = run(r#"
        .data
    src:
        .dword 1, 2, 3, 4, 5, 6, 7, 8
    dst:
        .zero 64
        .text
        li      x1, 8
        setvl   x2, x1
        la      x3, src
        la      x4, dst
        vld     v1, x3
        vadd.vv v2, v1, v1
        vst     v2, x4
        halt
    "#);
    for e in 0..8 {
        let addr = s.prog.program.symbol("dst").unwrap() + 8 * e;
        assert_eq!(s.mem.read_u64(addr), 2 * (e + 1));
    }
}

#[test]
fn vector_memory_strided() {
    // Gather every third dword.
    let s = run(r#"
        .data
    src:
        .dword 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0
        .text
        li      x1, 4
        setvl   x2, x1
        la      x3, src
        addi    x3, x3, 0
        li      x4, 24         # stride: 3 dwords
        vlds    v1, x3, x4
        halt
    "#);
    assert_eq!(velem(&s, 1, 0), 0);
    assert_eq!(velem(&s, 1, 1), 1);
    assert_eq!(velem(&s, 1, 2), 2);
    assert_eq!(velem(&s, 1, 3), 3);
}

#[test]
fn vector_memory_indexed_gather_scatter() {
    let s = run(r#"
        .data
    src:
        .dword 10, 11, 12, 13, 14, 15, 16, 17
    dst:
        .zero 64
        .text
        li      x1, 4
        setvl   x2, x1
        vid     v1
        li      x3, 16
        vmul.vs v2, v1, x3     # byte offsets 0,16,32,48 (every other dword)
        la      x4, src
        vldx    v3, x4, v2     # gather 10,12,14,16
        la      x5, dst
        vstx    v3, x5, v2     # scatter back to same pattern
        halt
    "#);
    assert_eq!(velem(&s, 3, 0), 10);
    assert_eq!(velem(&s, 3, 1), 12);
    assert_eq!(velem(&s, 3, 2), 14);
    assert_eq!(velem(&s, 3, 3), 16);
    let dst = s.prog.program.symbol("dst").unwrap();
    assert_eq!(s.mem.read_u64(dst), 10);
    assert_eq!(s.mem.read_u64(dst + 16), 12);
    assert_eq!(s.mem.read_u64(dst + 32), 14);
    assert_eq!(s.mem.read_u64(dst + 48), 16);
}

#[test]
fn masked_vector_load_skips_lanes() {
    let p = assemble(
        r#"
        .data
    src:
        .dword 1, 2, 3, 4
        .text
        li      x1, 4
        setvl   x2, x1
        li      x3, 0b0101
        vmsetb  x3
        la      x4, src
        vld     v1, x4, vm
        halt
    "#,
    )
    .unwrap();
    let mut sim = FuncSim::new(&p, 1);
    // Collect the VMem dyninst to check address count.
    let mut vmem_addrs = None;
    while let crate::funcsim::Step::Inst(d) = sim.step_thread(0).unwrap() {
        if let DynKind::VMem { addrs } = &d.kind {
            vmem_addrs = Some(*addrs);
        }
        if d.kind == DynKind::Halt {
            break;
        }
    }
    let r = vmem_addrs.unwrap();
    assert_eq!(r.len(), 2); // only lanes 0 and 2
    let src = p.symbol("src").unwrap();
    assert_eq!(sim.addrs(r), &[src, src + 16]); // elements 0 and 2
    assert_eq!(sim.thread(0).v[1][0], 1);
    assert_eq!(sim.thread(0).v[1][1], 0); // untouched
    assert_eq!(sim.thread(0).v[1][2], 3);
}

#[test]
fn reductions() {
    let s = run(r#"
        li       x1, 8
        setvl    x2, x1
        vid      v1
        vredsum  x3, v1
        vredmin  x4, v1
        vredmax  x5, v1
        vcvt.f.x v2, v1
        vfredsum f1, v2
        vfredmin f2, v2
        vfredmax f3, v2
        halt
    "#);
    assert_eq!(x(&s, 3), 28);
    assert_eq!(x(&s, 4), 0);
    assert_eq!(x(&s, 5), 7);
    assert_eq!(f(&s, 1), 28.0);
    assert_eq!(f(&s, 2), 0.0);
    assert_eq!(f(&s, 3), 7.0);
}

#[test]
fn extract_insert() {
    let s = run(r#"
        li        x1, 8
        setvl     x2, x1
        vid       v1
        li        x3, 5
        vextract  x4, v1, x3    # = 5
        li        x5, 77
        vinsert   v1, x3, x5    # v1[5] = 77
        vextract  x6, v1, x3
        halt
    "#);
    assert_eq!(x(&s, 4), 5);
    assert_eq!(x(&s, 6), 77);
}

#[test]
fn region_markers_tracked() {
    let s = run("region 2\nnop\nregion 0\nhalt\n");
    assert_eq!(s.thread(0).region, 0);
}

#[test]
fn tid_nthr_reported() {
    let p = assemble("tid x1\nnthr x2\nhalt\n").unwrap();
    let mut sim = FuncSim::new(&p, 4);
    sim.run_to_completion(100).unwrap();
    for t in 0..4 {
        assert_eq!(sim.thread(t).x[1], t as u64);
        assert_eq!(sim.thread(t).x[2], 4);
    }
}

proptest! {
    #[test]
    fn vadd_matches_scalar_loop(vals in proptest::collection::vec(any::<u32>(), 1..=16)) {
        // Build a program that loads `vals`, adds them to themselves
        // vector-wise, and compare against the obvious scalar computation.
        let n = vals.len();
        let data: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
        let src = format!(
            ".data\nsrc:\n.dword {}\ndst:\n.zero {}\n.text\nli x1, {}\nsetvl x2, x1\nla x3, src\nvld v1, x3\nvadd.vv v2, v1, v1\nla x4, dst\nvst v2, x4\nhalt\n",
            data.join(", "),
            8 * n,
            n
        );
        let p = assemble(&src).unwrap();
        let mut sim = FuncSim::new(&p, 1);
        sim.run_to_completion(10_000).unwrap();
        let dst = p.symbol("dst").unwrap();
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(sim.mem.read_u64(dst + 8 * i as u64), 2 * *v as u64);
        }
    }

    #[test]
    fn int_ops_match_rust_semantics(a in any::<i64>(), b in any::<i64>()) {
        let src = format!(
            ".data\nops:\n.dword {a}, {b}\n.text\nla x1, ops\nld x2, 0(x1)\nld x3, 8(x1)\nadd x4, x2, x3\nsub x5, x2, x3\nmul x6, x2, x3\nand x7, x2, x3\nxor x8, x2, x3\nhalt\n"
        );
        let p = assemble(&src).unwrap();
        let mut sim = FuncSim::new(&p, 1);
        sim.run_to_completion(100).unwrap();
        let s = sim.thread(0);
        prop_assert_eq!(s.x[4], (a.wrapping_add(b)) as u64);
        prop_assert_eq!(s.x[5], (a.wrapping_sub(b)) as u64);
        prop_assert_eq!(s.x[6], (a.wrapping_mul(b)) as u64);
        prop_assert_eq!(s.x[7], (a & b) as u64);
        prop_assert_eq!(s.x[8], (a ^ b) as u64);
    }
}

#[test]
fn fp_arithmetic_makes_one_nan_and_moves_keep_bits() {
    // A signalling NaN with the sign set and a payload, and sqrt(-1), whose
    // NaN the host makes negative: arithmetic on either, scalar, vector or
    // reduction, gives the canonical NaN; moves and sign ops keep the bits.
    let s = run("\
        .data\nn: .dword 0xfff0000000000123\n.text\n\
        la x1, n\nfld f1, 0(x1)\nli x2, -1\nfcvt.f.x f2, x2\n\
        fsqrt f3, f2\nfadd f4, f1, f1\nfneg f5, f1\nfmov f6, f1\n\
        li x3, 4\nsetvl x0, x3\nvfsplat v1, f1\nvfredsum f7, v1\n\
        vfadd.vv v2, v1, v1\nvfextract f8, v2, x0\nvfextract f9, v1, x0\n\
        fsd f4, 0(x1)\nld x4, 0(x1)\nhalt\n");
    let bits = |r| f(&s, r).to_bits();
    assert_eq!([bits(3), bits(4), bits(7), bits(8)], [super::CANONICAL_NAN; 4]);
    assert_eq!(
        [bits(5), bits(6), bits(9)],
        [0x7ff0_0000_0000_0123, 0xfff0_0000_0000_0123, 0xfff0_0000_0000_0123]
    );
    assert_eq!(x(&s, 4), super::CANONICAL_NAN);
}
