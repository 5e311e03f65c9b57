//! Full-system tests: assemble real SPMD kernels, run them on named
//! configurations, verify results *and* timing-shape properties.

use vlt_isa::asm::assemble;
use vlt_isa::Program;

use vlt_exec::ExecError;

use crate::config::SystemConfig;
use crate::result::{SimError, SimResult};
use crate::system::{
    CycleView, DriverMode, NullObserver, RepartitionEvent, SimObserver, System, Work,
};
use vlt_scalar::StallCause;

const MAX: u64 = 20_000_000;

/// A vectorized SPMD daxpy: setup (region 0) fills `xs` with global element
/// ids as floats; the measured loop (region 1) computes `y[i] += 2 * x[i]`
/// in chunks of `vl`, with `scalar_work` extra dependent scalar adds per
/// iteration standing in for the application's non-vectorized fraction.
fn daxpy(npt: usize, vl: usize, threads: usize, scalar_work: usize) -> Program {
    daxpy_passes(npt, vl, threads, scalar_work, 3)
}

/// Hierarchical daxpy: same kernel, but the `vltcfg` operand carries an
/// explicit thread × cluster spread (DESIGN.md §11).
fn daxpy_hier(
    npt: usize,
    vl: usize,
    threads: usize,
    clusters: usize,
    scalar_work: usize,
) -> Program {
    daxpy_operand(
        npt,
        vl,
        threads,
        vlt_isa::vltcfg::operand(threads as u8, clusters as u8) as usize,
        scalar_work,
        3,
    )
}

/// `passes` repetitions of the measured loop (apps iterate over resident
/// data, so steady-state behaviour dominates the one-time cold fill).
fn daxpy_passes(
    npt: usize,
    vl: usize,
    threads: usize,
    scalar_work: usize,
    passes: usize,
) -> Program {
    daxpy_operand(npt, vl, threads, threads, scalar_work, passes)
}

/// The daxpy kernel with an explicit `vltcfg` operand (flat thread counts
/// or packed hierarchical encodings alike).
fn daxpy_operand(
    npt: usize,
    vl: usize,
    threads: usize,
    cfg_operand: usize,
    scalar_work: usize,
    passes: usize,
) -> Program {
    let total = npt * threads;
    let sw: String = vec!["add x25, x25, x26"; scalar_work].join("\n        ");
    let xs_data: Vec<String> = (0..total).map(|i| format!("{}.0", i)).collect();
    let src = format!(
        r#"
        .eq VL, {vl}
        .eq NPT, {npt}
        .data
    xs:
        .double {xs}
    ys:
        .zero {bytes}
        .text
        li      x9, {cfg_operand}
        vltcfg  x9
        tid     x10
        li      x12, NPT
        mul     x13, x10, x12      # start element
        slli    x14, x13, 3
        la      x15, xs
        add     x15, x15, x14      # &x[start]
        la      x16, ys
        add     x16, x16, x14      # &y[start]

        # --- setup (region 0): touch xs, zero ys; warms the L2 (the
        # paper's workloads are cache-resident) ---
        mv      x27, x15
        mv      x28, x16
        li      x17, 0
        vxor.vv v2, v2, v2
    setup:
        sub     x3, x12, x17
        setvl   x2, x3
        vld     v1, x27
        vst     v2, x28
        slli    x7, x2, 3
        add     x27, x27, x7
        add     x28, x28, x7
        add     x17, x17, x2
        blt     x17, x12, setup
        barrier

        # --- measured loop (region 1): y += a*x in VL chunks, repeated
        # over the resident arrays for `passes` passes ---
        region  1
        li      x18, 2
        fcvt.f.x f1, x18           # a = 2.0
        li      x6, VL
        li      x26, 1
        li      x29, {passes}
    pass_loop:
        la      x15, xs
        add     x15, x15, x14
        la      x16, ys
        add     x16, x16, x14
        li      x17, 0
    loop:
        sub     x3, x12, x17
        blt     x3, x6, small
        mv      x4, x6
        j       doit
    small:
        mv      x4, x3
    doit:
        setvl   x2, x4
        vld     v1, x15            # x
        vld     v2, x16            # y
        vfma.vs v2, v1, f1         # y += a*x
        vst     v2, x16
        {sw}
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x16, x16, x7
        add     x17, x17, x2
        blt     x17, x12, loop
        addi    x29, x29, -1
        bnez    x29, pass_loop
        region  0
        barrier
        halt
    "#,
        xs = xs_data.join(", "),
        bytes = 8 * total,
        passes = passes,
    );
    assemble(&src).unwrap()
}

/// Back-compat helper for tests without a scalar fraction.
fn daxpy_kernel(npt: usize, vl: usize, threads: usize) -> Program {
    daxpy(npt, vl, threads, 0)
}

/// Verify the daxpy result in the final memory image (default 3 passes:
/// y accumulates 2x per pass).
fn verify_daxpy(sys: &System, total: usize) {
    let base = sys.funcsim().prog.program.symbol("ys").unwrap();
    for i in (0..total).step_by((total / 17).max(1)) {
        let got = sys.funcsim().mem.read_f64(base + 8 * i as u64);
        assert_eq!(got, 6.0 * i as f64, "y[{i}]");
    }
}

/// A scalar SPMD kernel: thread t sums integers [t*n, (t+1)*n) and stores
/// the result in out[t]; then barriers and halts.
fn scalar_sum_kernel(n: usize, threads: usize) -> Program {
    let src = format!(
        r#"
        .data
    out:
        .zero {out_bytes}
        .text
        region  1
        tid     x10
        li      x11, {n}
        mul     x12, x10, x11     # start
        add     x13, x12, x11     # end
        li      x14, 0            # acc
    loop:
        add     x14, x14, x12
        addi    x12, x12, 1
        blt     x12, x13, loop
        la      x15, out
        slli    x16, x10, 3
        add     x15, x15, x16
        sd      x14, 0(x15)
        region  0
        barrier
        halt
    "#,
        out_bytes = 8 * threads,
        n = n
    );
    assemble(&src).unwrap()
}

fn verify_scalar_sum(sys: &System, n: u64, threads: usize) {
    let base = sys.funcsim().prog.program.symbol("out").unwrap();
    for t in 0..threads as u64 {
        let start = t * n;
        let expect: u64 = (start..start + n).sum();
        assert_eq!(sys.funcsim().mem.read_u64(base + 8 * t), expect, "thread {t}");
    }
}

#[test]
fn base_system_runs_vector_code_correctly() {
    let prog = daxpy_kernel(512, 64, 1);
    let mut sys = System::new(SystemConfig::base(8), &prog, 1);
    let r = sys.run(MAX).unwrap();
    verify_daxpy(&sys, 512);
    assert!(r.cycles > 0);
    assert!(r.committed > 0);
    // Figure-4 invariant: every datapath-cycle is classified.
    assert_eq!(r.utilization.total(), 3 * 8 * r.cycles);
    // The measured loop is a substantial marked region (the setup phase
    // is unmarked, so this sits near half).
    assert!(r.opportunity() > 35.0, "opportunity: {}", r.opportunity());
}

#[test]
fn determinism() {
    let prog = daxpy_kernel(256, 64, 1);
    let r1 = System::new(SystemConfig::base(8), &prog, 1).run(MAX).unwrap();
    let r2 = System::new(SystemConfig::base(8), &prog, 1).run(MAX).unwrap();
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.committed, r2.committed);
    assert_eq!(r1.utilization, r2.utilization);
}

#[test]
fn long_vectors_scale_with_lanes() {
    // Figure 1, long-vector shape: 8 lanes much faster than 1 lane.
    let prog = daxpy_kernel(2048, 64, 1);
    let c1 = System::new(SystemConfig::base(1), &prog, 1).run(MAX).unwrap().cycles;
    let c8 = System::new(SystemConfig::base(8), &prog, 1).run(MAX).unwrap().cycles;
    let speedup = c1 as f64 / c8 as f64;
    assert!(speedup > 2.5, "long vectors should profit from 8 lanes: {speedup:.2} ({c1} vs {c8})");
}

#[test]
fn short_vectors_do_not_scale_with_lanes() {
    // Figure 1, short-vector shape: VL=8 gains little beyond 8 lanes.
    let prog = daxpy_kernel(2048, 8, 1);
    let c4 = System::new(SystemConfig::base(4), &prog, 1).run(MAX).unwrap().cycles;
    let c8 = System::new(SystemConfig::base(8), &prog, 1).run(MAX).unwrap().cycles;
    let speedup = c4 as f64 / c8 as f64;
    assert!(speedup < 1.25, "short vectors cannot use extra lanes: {speedup:.2} ({c4} vs {c8})");
}

#[test]
fn vlt_two_threads_speed_up_short_vectors() {
    // The headline effect (Figure 3): a short-VL, partially-vectorized
    // workload on V2-CMP with two VLT threads beats the base run.
    let total = 4096;
    let base_prog = daxpy(total, 8, 1, 12);
    let vlt_prog = daxpy(total / 2, 8, 2, 12);
    let cb = System::new(SystemConfig::base(8), &base_prog, 1).run(MAX).unwrap().cycles;
    let mut sys = System::new(SystemConfig::v2_cmp(), &vlt_prog, 2);
    let cv = sys.run(MAX).unwrap().cycles;
    verify_daxpy(&sys, total);
    let speedup = cb as f64 / cv as f64;
    assert!(speedup > 1.4, "VLT should accelerate short vectors: {speedup:.2} ({cb} vs {cv})");
}

#[test]
fn vlt_four_threads_help_more() {
    let total = 4096;
    let v2 = daxpy(total / 2, 8, 2, 12);
    let v4 = daxpy(total / 4, 8, 4, 12);
    let c2 = System::new(SystemConfig::v2_cmp(), &v2, 2).run(MAX).unwrap().cycles;
    let c4 = System::new(SystemConfig::v4_cmp(), &v4, 4).run(MAX).unwrap().cycles;
    assert!(
        (c4 as f64) < 0.75 * c2 as f64,
        "4 VLT threads should beat 2 on partially-vectorized work: {c4} vs {c2}"
    );
}

#[test]
fn smt_su_matches_replicated_su_for_two_threads() {
    // Paper Figure 5: V2-SMT performs close to V2-CMP.
    let prog = daxpy(2048, 8, 2, 8);
    let c_smt = System::new(SystemConfig::v2_smt(), &prog, 2).run(MAX).unwrap().cycles;
    let c_cmp = System::new(SystemConfig::v2_cmp(), &prog, 2).run(MAX).unwrap().cycles;
    let ratio = c_smt as f64 / c_cmp as f64;
    assert!(ratio < 1.35, "V2-SMT should be close to V2-CMP: {ratio:.2} ({c_smt} vs {c_cmp})");
}

#[test]
fn cmt_runs_scalar_threads() {
    let prog = scalar_sum_kernel(5000, 4);
    let mut sys = System::new(SystemConfig::cmt(), &prog, 4);
    let r = sys.run(MAX).unwrap();
    verify_scalar_sum(&sys, 5000, 4);
    assert_eq!(r.utilization.total(), 0, "no vector unit in CMT");
    assert!(r.opportunity() > 50.0);
}

#[test]
fn lane_threads_run_eight_scalar_threads() {
    let prog = scalar_sum_kernel(5000, 8);
    let mut sys = System::new(SystemConfig::v4_cmt_lane_threads(), &prog, 8);
    let r = sys.run(MAX).unwrap();
    verify_scalar_sum(&sys, 5000, 8);
    assert!(r.committed > 8 * 3 * 5000, "all lane threads committed: {}", r.committed);
}

#[test]
fn lane_threads_beat_cmt_on_abundant_tlp() {
    // Figure 6 shape: 8 simple lane cores beat 4 SMT contexts on 2 OOO
    // cores when per-thread ILP is low and TLP is abundant.
    let work = 40_000;
    let cmt_prog = scalar_sum_kernel(work / 4, 4);
    let lane_prog = scalar_sum_kernel(work / 8, 8);
    let c_cmt = System::new(SystemConfig::cmt(), &cmt_prog, 4).run(MAX).unwrap().cycles;
    let c_lane =
        System::new(SystemConfig::v4_cmt_lane_threads(), &lane_prog, 8).run(MAX).unwrap().cycles;
    let speedup = c_cmt as f64 / c_lane as f64;
    assert!(
        speedup > 1.0,
        "8 lane threads should beat the 2-core CMT here: {speedup:.2} ({c_cmt} vs {c_lane})"
    );
}

#[test]
fn thread_count_validation() {
    let prog = scalar_sum_kernel(10, 1);
    let result = std::panic::catch_unwind(|| {
        System::new(SystemConfig::base(8), &prog, 2); // base has 1 context
    });
    assert!(result.is_err());
}

#[test]
fn timeout_reported() {
    let prog = assemble("loop:\nj loop\n").unwrap();
    let err = System::new(SystemConfig::base(8), &prog, 1).run(10_000).unwrap_err();
    assert!(matches!(err, crate::result::SimError::Timeout { .. }));
}

/// Dynamic per-phase repartitioning (paper §3.3): a program that runs a
/// long-vector phase on the full lane set (thread 0 only, `vltcfg 1`) and
/// then a short-vector phase across 2 partitions.
#[test]
fn dynamic_vltcfg_switches_phases() {
    let src = r#"
        .data
    xs:
        .zero 8192
    ys:
        .zero 8192
        .text
        tid     x10
        # ---- phase A: thread 0 sweeps all 1024 elements at VL 64 on the
        # full 8-lane unit; thread 1 idles at the barrier ----
        li      x9, 1
        vltcfg  x9
        bnez    x10, phase_a_done
        la      x15, xs
        li      x17, 0
        li      x12, 1024
    wide:
        sub     x3, x12, x17
        setvl   x2, x3
        vid     v1
        vadd.vs v1, v1, x17
        vst     v1, x15
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x17, x17, x2
        blt     x17, x12, wide
    phase_a_done:
        barrier
        # ---- phase B: both threads, 2 partitions, VL <= 32 ----
        li      x9, 2
        vltcfg  x9
        li      x12, 512           # elements per thread
        mul     x13, x10, x12
        slli    x14, x13, 3
        la      x15, xs
        add     x15, x15, x14
        la      x16, ys
        add     x16, x16, x14
        li      x17, 0
    narrow:
        sub     x3, x12, x17
        setvl   x2, x3
        vld     v1, x15
        vadd.vv v2, v1, v1
        vst     v2, x16
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x16, x16, x7
        add     x17, x17, x2
        blt     x17, x12, narrow
        barrier
        halt
    "#;
    let prog = assemble(src).unwrap();
    let mut sys = System::new(SystemConfig::v2_cmp(), &prog, 2);
    let r = sys.run(MAX).unwrap();
    // Results: xs[i] = i, ys[i] = 2i.
    let xs = sys.funcsim().prog.program.symbol("xs").unwrap();
    let ys = sys.funcsim().prog.program.symbol("ys").unwrap();
    for i in (0..1024u64).step_by(97) {
        assert_eq!(sys.funcsim().mem.read_u64(xs + 8 * i), i, "xs[{i}]");
        assert_eq!(sys.funcsim().mem.read_u64(ys + 8 * i), 2 * i, "ys[{i}]");
    }
    assert!(r.cycles > 0);
    // The wide phase used VL 64 (only possible on an undivided lane set).
    // Verify through the functional MVL history: thread 0 ended phase A
    // with vl up to 64.
    assert_eq!(r.utilization.total(), 3 * 8 * r.cycles);
}

/// The same two-phase program forced to a fixed 2-way partition for the
/// wide phase must be slower: the single active thread only gets 4 lanes.
#[test]
fn dynamic_vltcfg_beats_fixed_partitioning() {
    // Same program as above but WITHOUT the vltcfg 1 (stays at 2).
    let wide_insts = |cfg1: bool| {
        format!(
            r#"
        .data
    xs:
        .zero 32768
        .text
        tid     x10
        {maybe_cfg}
        bnez    x10, skip
        la      x15, xs
        li      x17, 0
        li      x12, 4096
    wide:
        sub     x3, x12, x17
        setvl   x2, x3
        vid     v1
        vadd.vs v1, v1, x17
        vfsplat v2, f1
        vadd.vv v1, v1, v1
        vst     v1, x15
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x17, x17, x2
        blt     x17, x12, wide
    skip:
        barrier
        halt
    "#,
            maybe_cfg =
                if cfg1 { "li x9, 1\n        vltcfg x9" } else { "li x9, 2\n        vltcfg x9" }
        )
    };
    let adaptive = assemble(&wide_insts(true)).unwrap();
    let fixed = assemble(&wide_insts(false)).unwrap();
    let ca = System::new(SystemConfig::v2_cmp(), &adaptive, 2).run(MAX).unwrap().cycles;
    let cf = System::new(SystemConfig::v2_cmp(), &fixed, 2).run(MAX).unwrap().cycles;
    assert!(
        (ca as f64) < 0.8 * cf as f64,
        "adaptive vltcfg must reclaim the idle partition: {ca} vs {cf}"
    );
}

/// A `vltcfg` fetched while vector work is in flight must drain the
/// machine before applying: the driver refuses new dispatches meanwhile and
/// reports the drain latency through `on_repartition_applied`.
#[test]
fn repartition_backpressure() {
    // Long dependent divides keep the VU busy when `vltcfg 1` is fetched,
    // so the repartition provably waits for the drain.
    let src = "
        li      x9, 2
        vltcfg  x9
        li      x1, 32
        setvl   x2, x1
        vfdiv.vv v1, v2, v3
        vfdiv.vv v4, v1, v3
        li      x9, 1
        vltcfg  x9
        tid     x10
        bnez    x10, skip
        vfadd.vv v5, v2, v3
    skip:
        barrier
        halt
    ";
    let prog = assemble(src).unwrap();
    let mut rec = Recorder::default();
    System::new(SystemConfig::v2_cmp(), &prog, 2).run_observed(MAX, &mut rec).unwrap();
    // The vltcfg 2 matches the running shape (no drain); the vltcfg 1
    // shrinks it and must wait for the in-flight divides.
    assert!(!rec.applies.is_empty(), "the vltcfg 1 never took effect");
    assert!(
        rec.applies.iter().any(|&(_, latency)| latency > 0),
        "shrinking amid in-flight work must report a non-zero drain: {:?}",
        rec.applies
    );
    for ev in &rec.reparts {
        assert!(!ev.clamped, "all requests are valid here: {ev:?}");
        assert_eq!(ev.applied, ev.requested as usize);
    }
}

/// Records every observer callback, for driver-spine tests.
#[derive(Default)]
struct Recorder {
    cycles_seen: u64,
    reparts: Vec<RepartitionEvent>,
    applies: Vec<(u64, u64)>,
    barrier_releases: u64,
    barrier_events: u64,
    finishes: u32,
}

impl SimObserver for Recorder {
    fn on_cycle(&mut self, _now: u64, _view: &CycleView<'_>) {
        self.cycles_seen += 1;
    }

    fn on_barrier(&mut self, _now: u64, releases: u64, _view: &CycleView<'_>) {
        self.barrier_releases = releases;
        self.barrier_events += 1;
    }

    fn on_repartition(&mut self, _now: u64, ev: &RepartitionEvent) {
        self.reparts.push(*ev);
    }

    fn on_repartition_applied(&mut self, now: u64, drain_latency: u64) {
        self.applies.push((now, drain_latency));
    }

    fn on_finish(&mut self, _result: &SimResult) {
        self.finishes += 1;
    }
}

/// The plain and observed entry points go through the same driver and
/// must return identical results.
#[test]
fn all_entry_points_share_one_driver() {
    let prog = daxpy(256, 16, 1, 4);
    let plain = System::new(SystemConfig::base(8), &prog, 1).run(MAX).unwrap();
    let observed =
        System::new(SystemConfig::base(8), &prog, 1).run_observed(MAX, &mut NullObserver).unwrap();
    assert_eq!(plain, observed);
}

/// The cycle-by-cycle oracle presents every cycle to the observer exactly
/// once, plus one `on_finish`.
#[test]
fn observer_sees_every_cycle() {
    let prog = daxpy(128, 16, 1, 0);
    let mut rec = Recorder::default();
    let r = System::new(SystemConfig::base(8), &prog, 1)
        .with_driver(DriverMode::CycleByCycle)
        .run_observed(MAX, &mut rec)
        .unwrap();
    assert_eq!(rec.cycles_seen, r.cycles);
    assert_eq!(rec.finishes, 1);
}

/// A dependent pointer-chase: one in-flight load at a time, so the machine
/// is provably idle for most of each access — guaranteed skippable spans
/// for the event-driven driver tests.
fn chase_kernel(hops: usize) -> Program {
    let lds = vec!["ld x1, 0(x1)"; hops].join("\n        ");
    let src = format!(
        r#"
        .data
    cell:
        .dword cell
        .text
        la x1, cell
        {lds}
        halt
    "#
    );
    assemble(&src).unwrap()
}

/// Observers only watch: an observer that overrides every hook (and asks
/// for vector and L2 events) still lets the event-driven driver elide the
/// chase kernel's memory waits, and the result equals the unobserved
/// run's.
#[test]
fn observers_do_not_constrain_skipping() {
    struct EveryHook(Recorder);
    impl SimObserver for EveryHook {
        fn on_cycle(&mut self, now: u64, view: &CycleView<'_>) {
            self.0.on_cycle(now, view);
        }
        fn on_barrier(&mut self, _now: u64, _releases: u64, _view: &CycleView<'_>) {}
        fn on_repartition(&mut self, _now: u64, _ev: &RepartitionEvent) {}
        fn on_repartition_applied(&mut self, _now: u64, _drain_latency: u64) {}
        fn on_region(&mut self, _now: u64, _region: u32, _view: &CycleView<'_>) {}
        fn on_park(&mut self, _now: u64, _thread: usize, _parked: bool) {}
        fn on_vec_issue(&mut self, _now: u64, _ev: &crate::vu::VecIssue) {}
        fn wants_vec_events(&self) -> bool {
            true
        }
        fn on_mem_access(&mut self, _now: u64, _ev: &vlt_mem::BankEvent) {}
        fn wants_mem_events(&self) -> bool {
            true
        }
        fn on_finish(&mut self, result: &SimResult) {
            self.0.on_finish(result);
        }
    }

    let prog = chase_kernel(24);
    let plain =
        System::new(SystemConfig::base(8), &prog, 1).run_observed(MAX, &mut NullObserver).unwrap();
    let mut every = EveryHook(Recorder::default());
    let r = System::new(SystemConfig::base(8), &prog, 1).run_observed(MAX, &mut every).unwrap();
    assert!(
        every.0.cycles_seen < r.cycles / 2,
        "memory waits should be skipped: saw {} of {} cycles",
        every.0.cycles_seen,
        r.cycles
    );
    assert_eq!(every.0.finishes, 1);
    assert_eq!(r, plain);
}

/// Event-driven vs cycle-by-cycle equality across every machine family:
/// vector (with VU), SMT, scalar CMT, and lane-thread configurations.
#[test]
fn event_driver_matches_naive_all_config_families() {
    let checks: Vec<(SystemConfig, Program, usize)> = vec![
        (SystemConfig::base(8), daxpy(256, 16, 1, 4), 1),
        (SystemConfig::base(8), chase_kernel(24), 1),
        (SystemConfig::v2_cmp(), daxpy(128, 8, 2, 4), 2),
        (SystemConfig::v2_smt(), daxpy(128, 8, 2, 4), 2),
        (SystemConfig::cmt(), scalar_sum_kernel(2000, 4), 4),
        (SystemConfig::v4_cmt_lane_threads(), scalar_sum_kernel(1000, 8), 8),
        (SystemConfig::v8_clustered(2), daxpy_hier(64, 16, 8, 2, 4), 8),
    ];
    for (cfg, prog, threads) in checks {
        let name = cfg.name.clone();
        let event = System::new(cfg.clone(), &prog, threads).run(MAX).unwrap();
        let naive = System::new(cfg, &prog, threads)
            .with_driver(DriverMode::CycleByCycle)
            .run(MAX)
            .unwrap();
        assert_eq!(event, naive, "driver divergence on {name} x{threads}");
    }
}

/// A would-be hang times out at exactly the same cycle in both modes (the
/// jump to the earliest wake is capped at the cycle budget).
#[test]
fn timeout_identical_across_drivers() {
    let prog = assemble("loop:\nj loop\n").unwrap();
    for mode in [DriverMode::EventDriven, DriverMode::CycleByCycle] {
        let err =
            System::new(SystemConfig::base(8), &prog, 1).with_driver(mode).run(10_000).unwrap_err();
        assert!(matches!(err, crate::result::SimError::Timeout { cycles: 10_000 }));
    }
}

/// `vltcfg 8` is architecturally valid (the funcsim accepts 1/2/4/8) but
/// exceeds the base machine's single lane partition: the driver clamps it,
/// counts it in the result, and reports it to the observer.
#[test]
fn clamped_vltcfg_counted_and_reported() {
    let src = r#"
        li      x9, 8
        vltcfg  x9
        li      x1, 8
        setvl   x2, x1
        vid     v1
        halt
    "#;
    let prog = assemble(src).unwrap();
    let mut rec = Recorder::default();
    let r = System::new(SystemConfig::base(8), &prog, 1).run_observed(MAX, &mut rec).unwrap();
    assert_eq!(r.clamped_repartitions, 1);
    assert_eq!(rec.reparts.len(), 1);
    let ev = rec.reparts[0];
    assert!(ev.clamped);
    assert_eq!(ev.requested, 8);
    assert_eq!(ev.applied, 1);
}

/// A `vltcfg` matching the machine passes through unclamped.
#[test]
fn valid_vltcfg_is_not_counted_as_clamped() {
    let prog = daxpy(256, 8, 2, 0); // starts with vltcfg 2
    let mut rec = Recorder::default();
    let mut sys = System::new(SystemConfig::v2_cmp(), &prog, 2);
    let r = sys.run_observed(MAX, &mut rec).unwrap();
    assert_eq!(r.clamped_repartitions, 0);
    // One event per thread: both threads execute the vltcfg.
    assert_eq!(rec.reparts.len(), 2);
    for ev in &rec.reparts {
        assert!(!ev.clamped);
        assert_eq!(ev.requested, 2);
        assert_eq!(ev.applied, 2);
    }
}

/// The ultra-wide machine (DESIGN.md §11): 8 VLT threads spread over two
/// 8-lane clusters run daxpy correctly, classify every datapath-cycle in
/// every cluster, route vector memory traffic through the inter-cluster
/// network, and keep stall-cause conservation exact.
#[test]
fn two_cluster_machine_runs_daxpy_correctly() {
    let prog = daxpy_hier(256, 16, 8, 2, 0); // effective MVL = 64*2/8 = 16
    let mut sys = System::new(SystemConfig::v8_clustered(2), &prog, 8);
    let r = sys.run(MAX).unwrap();
    verify_daxpy(&sys, 2048);
    // Figure-4 invariant across clusters: 3 datapaths x 16 total lanes.
    assert_eq!(r.utilization.total(), 3 * 16 * r.cycles);
    let net = r.mem.net.as_ref().expect("multi-cluster runs carry network stats");
    assert!(net.transfers > 0, "vector memory traffic crosses the network");
    r.check_stall_conservation().unwrap();
}

/// Every ultra-wide design point (16/32/64 total lanes) runs the kernel
/// correctly with conservation intact.
#[test]
fn cluster_sweep_runs_correctly() {
    for clusters in [2usize, 4, 8] {
        let mvl = 8 * clusters; // 64 * clusters / 8 threads
        let prog = daxpy_hier(8 * mvl, mvl, 8, clusters, 2);
        let mut sys = System::new(SystemConfig::v8_clustered(clusters), &prog, 8);
        let r = sys.run(MAX).unwrap();
        verify_daxpy(&sys, 8 * 8 * mvl);
        assert_eq!(
            r.utilization.total(),
            3 * 8 * clusters as u64 * r.cycles,
            "{clusters} clusters"
        );
        r.check_stall_conservation().unwrap_or_else(|e| panic!("{clusters} clusters: {e}"));
    }
}

/// Eight threads open at 8 × 2 clusters (the machine's initial shape), run
/// a vector op, then shrink to 4 threads × 1 cluster at a barrier; threads
/// 0-3 run one more vector op before the closing barrier.
fn cross_cluster_kernel() -> Program {
    let op82 = vlt_isa::vltcfg::operand(8, 2);
    let op41 = vlt_isa::vltcfg::operand(4, 1);
    let src = format!(
        "
        li      x9, {op82}
        vltcfg  x9
        li      x1, 16
        setvl   x2, x1
        vfdiv.vv v1, v2, v3
        barrier
        li      x9, {op41}
        vltcfg  x9
        tid     x10
        li      x11, 4
        blt     x10, x11, dovec
        j       join
    dovec:
        setvl   x2, x1
        vfadd.vv v4, v2, v3
    join:
        barrier
        halt
    "
    );
    assemble(&src).unwrap()
}

/// A repartition that crosses cluster boundaries — 8 threads × 2 clusters
/// down to 4 threads × 1 cluster — drains the whole machine first, applies
/// exactly once, and stays byte-identical across drivers.
#[test]
fn cross_cluster_repartition_drains_and_applies() {
    let prog = cross_cluster_kernel();
    let mut rec = Recorder::default();
    let r =
        System::new(SystemConfig::v8_clustered(2), &prog, 8).run_observed(MAX, &mut rec).unwrap();
    // The opening (8,2) matches the machine's initial shape (no drain);
    // only the cross-cluster shrink to (4,1) applies.
    assert!(!rec.applies.is_empty(), "the (4,1) repartition never took effect");
    for ev in &rec.reparts {
        assert!(!ev.clamped, "all requests are valid on this machine: {ev:?}");
    }
    assert!(rec.reparts.iter().any(|ev| ev.applied == 4 && ev.applied_clusters == 1));
    r.check_stall_conservation().unwrap();
    let naive = System::new(SystemConfig::v8_clustered(2), &prog, 8)
        .with_driver(DriverMode::CycleByCycle)
        .run(MAX)
        .unwrap();
    assert_eq!(r, naive, "driver divergence across a cross-cluster repartition");
}

/// Observer hooks, in the order the driver delivers them within a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Hook {
    Cycle,
    Barrier,
    Repartition,
    RepartitionApplied,
    Park,
    VecIssue,
    MemAccess,
    Region,
}

/// Logs `(cycle, hook)` for every [`SimObserver`] hook, with both opt-in
/// event streams on.
#[derive(Default)]
struct HookLog(Vec<(u64, Hook)>);

impl SimObserver for HookLog {
    fn on_cycle(&mut self, now: u64, _view: &CycleView<'_>) {
        self.0.push((now, Hook::Cycle));
    }

    fn on_barrier(&mut self, now: u64, _releases: u64, _view: &CycleView<'_>) {
        self.0.push((now, Hook::Barrier));
    }

    fn on_repartition(&mut self, now: u64, _ev: &RepartitionEvent) {
        self.0.push((now, Hook::Repartition));
    }

    fn on_repartition_applied(&mut self, now: u64, _drain_latency: u64) {
        self.0.push((now, Hook::RepartitionApplied));
    }

    fn on_region(&mut self, now: u64, _region: u32, _view: &CycleView<'_>) {
        self.0.push((now, Hook::Region));
    }

    fn on_park(&mut self, now: u64, _thread: usize, _parked: bool) {
        self.0.push((now, Hook::Park));
    }

    fn on_vec_issue(&mut self, now: u64, _ev: &crate::vu::VecIssue) {
        self.0.push((now, Hook::VecIssue));
    }

    fn wants_vec_events(&self) -> bool {
        true
    }

    fn on_mem_access(&mut self, now: u64, _ev: &vlt_mem::BankEvent) {
        self.0.push((now, Hook::MemAccess));
    }

    fn wants_mem_events(&self) -> bool {
        true
    }
}

/// Within a cycle the driver delivers `on_cycle`, then the step's barrier,
/// repartition, applied-repartition and park events, then the vector-unit
/// issues before the L2 bank events, then the region change; both drivers
/// deliver the same hooks on the same cycles.
#[test]
fn observer_hooks_keep_their_per_cycle_order() {
    let mut fired = std::collections::BTreeSet::new();
    for prog in [cross_cluster_kernel(), daxpy_hier(64, 16, 8, 2, 2)] {
        let mut logs = Vec::new();
        for mode in [DriverMode::EventDriven, DriverMode::CycleByCycle] {
            let mut log = HookLog::default();
            System::new(SystemConfig::v8_clustered(2), &prog, 8)
                .with_driver(mode)
                .run_observed(MAX, &mut log)
                .unwrap();
            for w in log.0.windows(2) {
                let ((c0, h0), (c1, h1)) = (w[0], w[1]);
                assert!(c0 <= c1, "{mode:?}: cycle went backwards: {:?}", w);
                assert!(c0 < c1 || h0 <= h1, "{mode:?}: hooks out of order: {:?}", w);
            }
            fired.extend(log.0.iter().map(|&(_, h)| h));
            log.0.retain(|&(_, h)| h != Hook::Cycle);
            logs.push(log.0);
        }
        assert_eq!(logs[0], logs[1], "drivers deliver different hook sequences");
    }
    assert_eq!(fired.len(), 8, "a hook never fired; fired: {fired:?}");
}

/// A vector instruction on a machine without a vector unit (the scalar CMT
/// baseline, VLT scalar-thread mode) is a typed fault naming the thread and
/// PC, under both drivers.
#[test]
fn vector_code_without_a_vector_unit_is_a_typed_error() {
    let src = r#"
        li      x1, 8
        setvl   x2, x1
    vec:
        vid     v1
        halt
    "#;
    let prog = assemble(src).unwrap();
    let pc = prog.symbol("vec").unwrap();
    for cfg in [SystemConfig::cmt(), SystemConfig::v4_cmt_lane_threads()] {
        for mode in [DriverMode::EventDriven, DriverMode::CycleByCycle] {
            let err = System::new(cfg.clone(), &prog, 1).with_driver(mode).run(MAX).unwrap_err();
            assert_eq!(
                err,
                SimError::Exec(ExecError::NoVectorUnit { tid: 0, pc }),
                "{} under {mode:?}",
                cfg.name
            );
        }
    }
}

/// Barrier-release accounting stays exact when a thread halts before the
/// rendezvous: 3 of 4 threads meet at two barriers. The historical
/// `fetches / nthreads` accounting reports 6/4 = 1 release here and would
/// skip a coherence flush; the exact counter reports 2.
#[test]
fn barrier_releases_exact_with_early_halt() {
    let src = r#"
        .data
    out:
        .zero 32
        .text
        tid   x1
        bnez  x1, worker
        halt
    worker:
        barrier
        la    x2, out
        slli  x3, x1, 3
        add   x2, x2, x3
        sd    x1, 0(x2)
        barrier
        halt
    "#;
    let prog = assemble(src).unwrap();
    let mut rec = Recorder::default();
    let mut sys = System::new(SystemConfig::cmt(), &prog, 4);
    sys.run_observed(MAX, &mut rec).unwrap();
    assert_eq!(rec.barrier_releases, 2, "exactly two rendezvous completed");
    // Every surviving thread's store is visible post-barrier.
    let base = sys.funcsim().prog.program.symbol("out").unwrap();
    for t in 1..4u64 {
        assert_eq!(sys.funcsim().mem.read_u64(base + 8 * t), t);
    }
}

/// The dividing case still counts one release per rendezvous, not one per
/// arriving thread.
#[test]
fn barrier_releases_count_rendezvous_not_arrivals() {
    let src = r#"
        barrier
        barrier
        barrier
        halt
    "#;
    let prog = assemble(src).unwrap();
    let mut rec = Recorder::default();
    System::new(SystemConfig::cmt(), &prog, 4).run_observed(MAX, &mut rec).unwrap();
    assert_eq!(rec.barrier_releases, 3);
    // Events report the cumulative count once per cycle, so several
    // rendezvous completing in one cycle coalesce into one callback.
    assert!(rec.barrier_events >= 1 && rec.barrier_events <= 3);
}

/// Every view `on_cycle` shows, with its cycle.
#[derive(Default)]
struct Views(Vec<(u64, String)>);

impl SimObserver for Views {
    fn on_cycle(&mut self, now: u64, view: &CycleView<'_>) {
        let counters =
            (view.utilization(), view.vu_stalls(), view.core_stalls(), view.lane_stalls());
        self.0.push((now, format!("{counters:?}")));
    }
}

/// Run `prog` under both drivers. The results must match, and so must
/// every view the event-driven run shows and the oracle's at the same
/// cycle. Returns the result and the event-driven and cycle-by-cycle work.
fn wake_edge_holds(cfg: SystemConfig, prog: &Program, threads: usize) -> (SimResult, Work, Work) {
    let run = |mode| {
        let mut views = Views::default();
        let mut sys = System::new(cfg.clone(), prog, threads).with_driver(mode);
        let r = sys.run_observed(MAX, &mut views).unwrap();
        (r, sys.work(), views.0)
    };
    let (re, we, ve) = run(DriverMode::EventDriven);
    let (rn, wn, vn) = run(DriverMode::CycleByCycle);
    assert_eq!(re, rn, "driver divergence on {}", cfg.name);
    for (now, view) in &ve {
        assert_eq!(Some(view), vn.get(*now as usize).map(|(_, v)| v), "view at cycle {now}");
    }
    (re, we, wn)
}

/// A core whose vector instruction the full window refused sleeps, and
/// the slot a completion frees wakes it to retry the next cycle: 48
/// independent divides serialize on one divider behind a 32-entry window,
/// and the scalar loop behind them starts only once the last is admitted.
#[test]
fn a_refused_dispatch_retries_the_cycle_after_a_slot_frees() {
    let src = "
        li      x1, 64
        setvl   x2, x1
        li      x3, 0
        li      x4, 48
    divs:
        vfdiv.vv v1, v2, v3
        addi    x3, x3, 1
        blt     x3, x4, divs
        li      x3, 0
        li      x4, 2000
    spin:
        addi    x3, x3, 1
        blt     x3, x4, spin
        halt
    ";
    let prog = assemble(src).unwrap();
    let (r, event, naive) = wake_edge_holds(SystemConfig::base(8), &prog, 1);
    assert!(r.cycles > 16 * 32 + 2000, "the loop waits for the last divide: {} cycles", r.cycles);
    assert!(event.core_ticks < naive.core_ticks, "the refused core slept: {event:?}");
}

/// Lane cores parked at a barrier sleep until the last thread's arrival
/// opens it; those later in the tick order resume that very cycle.
#[test]
fn a_parked_lane_core_resumes_at_release() {
    let src = "
        tid     x10
        bnez    x10, wait
        li      x1, 0
        li      x2, 400
    spin:
        addi    x1, x1, 1
        blt     x1, x2, spin
    wait:
        barrier
        addi    x3, x10, 1
        barrier
        halt
    ";
    let prog = assemble(src).unwrap();
    let (r, event, naive) = wake_edge_holds(SystemConfig::v4_cmt_lane_threads(), &prog, 8);
    assert!(r.lanes.iter().skip(1).all(|l| l.stalls.get(StallCause::BarrierWait) > 300));
    assert!(event.lane_ticks < naive.lane_ticks / 4, "the parked lanes slept: {event:?}");
}

/// An idle vector unit sleeps while thread 1 parks and thread 0 computes;
/// each change of the parked mask first credits the slept span with the
/// mask that held over it (`NoDlp` before the park, `BarrierWait` after).
#[test]
fn a_sleeping_vu_is_credited_with_the_old_mask_when_a_thread_parks() {
    let prog = scalar_sum_kernel(300, 2);
    let (r, event, _) = wake_edge_holds(SystemConfig::v2_cmp(), &prog, 2);
    assert!(r.vu_stalls.get(StallCause::BarrierWait) > 0 && r.vu_stalls.get(StallCause::NoDlp) > 0);
    assert!(event.vu_ticks < r.cycles / 10, "the idle VU slept: {event:?} in {} cycles", r.cycles);
}

/// Dispatches refused while a repartition drains sleep until it applies:
/// thread 1 keeps dispatching divides after thread 0's `vltcfg 1` starts
/// the drain, and the apply wakes it to dispatch into the new partition.
#[test]
fn cores_refused_during_a_drain_resume_after_the_apply() {
    let src = "
        li      x9, 2
        vltcfg  x9
        li      x1, 32
        setvl   x2, x1
        vfdiv.vv v1, v2, v3
        vfdiv.vv v4, v2, v3
        tid     x10
        bnez    x10, late
        li      x9, 1
        vltcfg  x9
        j       join
    late:
        vfdiv.vv v5, v2, v3
        vfdiv.vv v6, v2, v3
        vfdiv.vv v7, v2, v3
        li      x9, 1
        vltcfg  x9
    join:
        setvl   x2, x1
        vfadd.vv v8, v2, v3
        halt
    ";
    let prog = assemble(src).unwrap();
    let mut rec = Recorder::default();
    System::new(SystemConfig::v2_cmp(), &prog, 2).run_observed(MAX, &mut rec).unwrap();
    assert!(rec.applies.iter().any(|&(_, latency)| latency > 0), "no drain: {:?}", rec.applies);
    let (_, event, naive) = wake_edge_holds(SystemConfig::v2_cmp(), &prog, 2);
    assert!(event.core_ticks < naive.core_ticks, "no core slept: {event:?}");
}

/// A vector unit asleep through a long scalar phase is credited with its
/// empty window (all idle, `NoDlp`) before the dispatch that ends the
/// phase puts an entry in it, one that waits on a divide (stalled,
/// `ScalarDep`).
#[test]
fn a_sleeping_vu_is_credited_before_a_dispatch_changes_its_window() {
    let src = "
        li      x1, 8
        setvl   x2, x1
        li      x3, 0
        li      x4, 300
    spin:
        addi    x3, x3, 1
        blt     x3, x4, spin
        div     x5, x4, x1
        vadd.vs v1, v1, x5
        halt
    ";
    let prog = assemble(src).unwrap();
    let (r, event, _) = wake_edge_holds(SystemConfig::base(8), &prog, 1);
    assert!(r.vu_stalls.get(StallCause::NoDlp) > 0 && r.vu_stalls.get(StallCause::ScalarDep) > 0);
    assert!(event.vu_ticks < r.cycles / 10, "the idle VU slept: {event:?} in {} cycles", r.cycles);
}
