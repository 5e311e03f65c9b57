//! Property tests on the driver spine.
//!
//! 1. `run` is a thin wrapper over the observed loop, so `run` and
//!    `run_observed` with a no-op observer must produce identical
//!    `SimResult`s for any workload.
//! 2. The event-driven driver (units that sleep) must be **byte
//!    identical** — `SimResult`, the stream of observer hooks machine
//!    activity fires, and the view `on_cycle` shows at every cycle it
//!    steps — to the cycle-by-cycle oracle across randomized
//!    workload/config/thread matrices, including mid-run `vltcfg`
//!    repartitions and barrier flushes, and no unit class may tick more
//!    often than under the oracle.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use vlt_core::{
    CycleView, DriverMode, NullObserver, RepartitionEvent, SimObserver, SimResult, StallBreakdown,
    System, SystemConfig, Utilization, VecIssue, Work,
};
use vlt_isa::asm::assemble;
use vlt_isa::Program;
use vlt_mem::BankEvent;

const MAX: u64 = 20_000_000;

/// A small vectorized SPMD daxpy, parameterized over elements-per-thread,
/// vector length, thread count, and interleaved scalar work.
fn daxpy(npt: usize, vl: usize, threads: usize, scalar_work: usize) -> Program {
    daxpy_with_operand(npt, vl, threads, scalar_work, threads as u64)
}

/// `daxpy` with an explicit `vltcfg` operand — the hierarchical packed
/// encoding spreads the partitions over lane clusters.
fn daxpy_with_operand(
    npt: usize,
    vl: usize,
    threads: usize,
    scalar_work: usize,
    operand: u64,
) -> Program {
    let total = npt * threads;
    let sw: String = vec!["add x25, x25, x26"; scalar_work].join("\n        ");
    let xs_data: Vec<String> = (0..total).map(|i| format!("{}.0", i)).collect();
    let src = format!(
        r#"
        .data
    xs:
        .double {xs}
    ys:
        .zero {bytes}
        .text
        li      x9, {operand}
        vltcfg  x9
        tid     x10
        li      x12, {npt}
        mul     x13, x10, x12
        slli    x14, x13, 3
        la      x15, xs
        add     x15, x15, x14
        la      x16, ys
        add     x16, x16, x14
        li      x18, 2
        fcvt.f.x f1, x18
        li      x6, {vl}
        li      x26, 1
        li      x17, 0
        region  1
    loop:
        sub     x3, x12, x17
        blt     x3, x6, small
        mv      x4, x6
        j       doit
    small:
        mv      x4, x3
    doit:
        setvl   x2, x4
        vld     v1, x15
        vld     v2, x16
        vfma.vs v2, v1, f1
        vst     v2, x16
        {sw}
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x16, x16, x7
        add     x17, x17, x2
        blt     x17, x12, loop
        region  0
        barrier
        halt
    "#,
        xs = xs_data.join(", "),
        bytes = 8 * total,
        npt = npt,
        vl = vl,
        operand = operand,
        sw = sw,
    );
    assemble(&src).unwrap()
}

/// An 8-thread two-phase kernel for the 2-cluster machine: phase A runs
/// all 8 threads spread over both clusters (`vltcfg` operand `(8,2)`,
/// per-thread MVL 16); phase B repartitions across the cluster boundary
/// to `op_b` with only the low `threads_b` threads doing vector work (the
/// multi-cluster software contract after a shrink). Exercises drain-gated
/// cross-cluster repartitions and barrier flushes under both drivers.
fn cross_cluster_two_phase(npt_a: usize, npt_b: usize, op_b: u64, threads_b: usize) -> Program {
    let total = 8 * npt_a.max(npt_b);
    let op_a = vlt_isa::vltcfg::operand(8, 2);
    let src = format!(
        r#"
        .data
    xs:
        .zero {bytes}
    ys:
        .zero {bytes}
        .text
        tid     x10
        li      x9, {op_a}
        vltcfg  x9
        li      x12, {npt_a}
        mul     x13, x10, x12
        slli    x14, x13, 3
        la      x15, xs
        add     x15, x15, x14
        li      x17, 0
    loopa:
        sub     x3, x12, x17
        setvl   x2, x3
        vid     v1
        vadd.vs v1, v1, x13
        vst     v1, x15
        slli    x7, x2, 3
        add     x15, x15, x7
        add     x17, x17, x2
        blt     x17, x12, loopa
        barrier
        li      x9, {op_b}
        vltcfg  x9
        li      x11, {threads_b}
        blt     x10, x11, dovec
        j       join
    dovec:
        li      x12, {npt_b}
        mul     x13, x10, x12
        slli    x14, x13, 3
        la      x15, xs
        add     x15, x15, x14
        la      x16, ys
        add     x16, x16, x14
        li      x17, 0
    loopb:
        sub     x3, x12, x17
        setvl   x2, x3
        vld     v1, x15
        vadd.vv v2, v1, v1
        vst     v2, x16
        slli    x7, x2, 3
        add     x16, x16, x7
        add     x15, x15, x7
        add     x17, x17, x2
        blt     x17, x12, loopb
    join:
        barrier
        halt
    "#,
        bytes = 8 * total,
        op_a = op_a,
        op_b = op_b,
        npt_a = npt_a,
        npt_b = npt_b,
        threads_b = threads_b,
    );
    assemble(&src).unwrap()
}

/// A scalar SPMD kernel: thread t sums integers [t*n, (t+1)*n) into out[t]
/// — exercises the CMT and lane-thread machines (no vector unit).
fn scalar_sum(n: usize, threads: usize) -> Program {
    let src = format!(
        r#"
        .data
    out:
        .zero {out_bytes}
        .text
        tid     x10
        li      x11, {n}
        mul     x12, x10, x11
        add     x13, x12, x11
        li      x14, 0
    loop:
        add     x14, x14, x12
        addi    x12, x12, 1
        blt     x12, x13, loop
        la      x15, out
        slli    x16, x10, 3
        add     x15, x15, x16
        sd      x14, 0(x15)
        barrier
        halt
    "#,
        out_bytes = 8 * threads,
        n = n
    );
    assemble(&src).unwrap()
}

/// A two-phase program with a mid-run repartition: phase A runs wide
/// vectors on thread 0 alone (`vltcfg 1`, thread 1 parked at the barrier),
/// phase B switches to 2 partitions (`vltcfg 2`) and both threads sweep
/// short vectors. Exercises drain-gated repartitions, barrier flushes, and
/// long parked spans under the event-driven driver.
fn two_phase(wide: usize, narrow_npt: usize) -> Program {
    let total = 2 * narrow_npt.max(wide);
    let src = format!(
        r#"
        .data
    xs:
        .zero {xs_bytes}
    ys:
        .zero {xs_bytes}
        .text
        tid     x10
        li      x9, 1
        vltcfg  x9
        bnez    x10, phase_a_done
        la      x15, xs
        li      x17, 0
        li      x12, {wide}
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
        li      x9, 2
        vltcfg  x9
        li      x12, {narrow_npt}
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
    "#,
        xs_bytes = 8 * total,
        wide = wide,
        narrow_npt = narrow_npt,
    );
    assemble(&src).unwrap()
}

/// A radix sort in the style of vlt-workloads' `radix`: `passes` stable
/// LSD passes over 4-bit digits of `n` keys per thread. Each pass zeroes
/// the thread's column of a transposed histogram (`hist[digit][thread]`),
/// counts its slice, and after a barrier thread 0 turns the counts into
/// exclusive offsets; after another barrier each thread scatters its slice
/// through its offsets, with data-dependent addresses. Three barriers a
/// pass and a serial phase keep most threads parked much of the time.
fn radix_sort(n: usize, threads: usize, passes: usize) -> (Program, Vec<u64>) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let keys: Vec<u64> = (0..n * threads)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let data: Vec<String> = keys.iter().map(|k| format!("{:#x}", k)).collect();
    let src = format!(
        r#"
        .data
    keys:
        .dword {data}
    buf:
        .zero {bytes}
    hist:
        .zero {hbytes}
        .text
        tid     x10
        li      x11, {threads}
        li      x12, {n}
        mul     x13, x10, x12
        la      x17, hist
        li      x14, 0
        la      x15, keys
        la      x16, buf
        li      x18, 0
        li      x22, 16
    pass:
        li      x20, 0
    zero:
        mul     x21, x20, x11
        add     x21, x21, x10
        slli    x21, x21, 3
        add     x21, x21, x17
        sd      x0, 0(x21)
        addi    x20, x20, 1
        blt     x20, x22, zero
        slli    x23, x13, 3
        add     x23, x23, x15
        li      x20, 0
    count:
        ld      x24, 0(x23)
        srl     x24, x24, x14
        andi    x24, x24, 15
        mul     x21, x24, x11
        add     x21, x21, x10
        slli    x21, x21, 3
        add     x21, x21, x17
        ld      x25, 0(x21)
        addi    x25, x25, 1
        sd      x25, 0(x21)
        addi    x23, x23, 8
        addi    x20, x20, 1
        blt     x20, x12, count
        barrier
        bnez    x10, scanned
        mul     x26, x11, x22
        li      x20, 0
        li      x27, 0
        mv      x21, x17
    scan:
        ld      x25, 0(x21)
        sd      x27, 0(x21)
        add     x27, x27, x25
        addi    x21, x21, 8
        addi    x20, x20, 1
        blt     x20, x26, scan
    scanned:
        barrier
        slli    x23, x13, 3
        add     x23, x23, x15
        li      x20, 0
    scatter:
        ld      x24, 0(x23)
        srl     x28, x24, x14
        andi    x28, x28, 15
        mul     x21, x28, x11
        add     x21, x21, x10
        slli    x21, x21, 3
        add     x21, x21, x17
        ld      x25, 0(x21)
        slli    x29, x25, 3
        add     x29, x29, x16
        sd      x24, 0(x29)
        addi    x25, x25, 1
        sd      x25, 0(x21)
        addi    x23, x23, 8
        addi    x20, x20, 1
        blt     x20, x12, scatter
        barrier
        mv      x30, x15
        mv      x15, x16
        mv      x16, x30
        addi    x14, x14, 4
        addi    x18, x18, 1
        li      x30, {passes}
        blt     x18, x30, pass
        halt
    "#,
        data = data.join(", "),
        bytes = 8 * n * threads,
        hbytes = 8 * 16 * threads,
    );
    let mut sorted = keys;
    sorted.sort_by_key(|k| k & ((1u64 << (4 * passes)) - 1));
    (assemble(&src).unwrap(), sorted)
}

/// The machine's cumulative counters as a view shows them.
#[derive(Debug, PartialEq)]
struct Counters {
    utilization: Utilization,
    vu_stalls: StallBreakdown,
    cores: Vec<(u64, StallBreakdown)>,
    lanes: Vec<(u64, StallBreakdown)>,
}

impl Counters {
    fn of(view: &CycleView<'_>) -> Self {
        Counters {
            utilization: view.utilization(),
            vu_stalls: view.vu_stalls(),
            cores: view.core_stalls(),
            lanes: view.lane_stalls(),
        }
    }
}

/// One hook that machine activity fired, with its cycle and payload.
#[derive(Debug, PartialEq)]
enum Act {
    Barrier(u64, u64, Counters),
    Repartition(u64, RepartitionEvent),
    Applied(u64, u64),
    Region(u64, u32, Counters),
    Park(u64, usize, bool),
    VecIssue(u64, VecIssue),
    Mem(u64, BankEvent),
}

/// A digest of the counters a view shows: every `on_cycle` view of an
/// at-scale run is compared, too many to keep whole.
fn digest(view: &CycleView<'_>) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", Counters::of(view)).hash(&mut h);
    h.finish()
}

/// Records every hook machine activity fires: the activity stream both
/// drivers must deliver alike. `on_cycle` views are kept apart, since the
/// event-driven driver elides the cycles in which every unit sleeps: the
/// event-driven run records a digest of each, and the oracle's run checks
/// its view at the same cycle against it.
#[derive(Default)]
struct Activity {
    acts: Vec<Act>,
    views: Vec<(u64, u64)>,
    /// The event-driven run's views, checked by the oracle's run.
    expect: Option<std::iter::Peekable<std::vec::IntoIter<(u64, u64)>>>,
}

impl SimObserver for Activity {
    fn on_cycle(&mut self, now: u64, view: &CycleView<'_>) {
        let Some(expect) = &mut self.expect else {
            self.views.push((now, digest(view)));
            return;
        };
        if let Some((_, want)) = expect.next_if(|&(at, _)| at == now) {
            assert_eq!(digest(view), want, "on_cycle view diverged at cycle {now}");
        }
    }
    fn on_barrier(&mut self, now: u64, releases: u64, view: &CycleView<'_>) {
        self.acts.push(Act::Barrier(now, releases, Counters::of(view)));
    }
    fn on_repartition(&mut self, now: u64, ev: &RepartitionEvent) {
        self.acts.push(Act::Repartition(now, *ev));
    }
    fn on_repartition_applied(&mut self, now: u64, drain_latency: u64) {
        self.acts.push(Act::Applied(now, drain_latency));
    }
    fn on_region(&mut self, now: u64, region: u32, view: &CycleView<'_>) {
        self.acts.push(Act::Region(now, region, Counters::of(view)));
    }
    fn on_park(&mut self, now: u64, thread: usize, parked: bool) {
        self.acts.push(Act::Park(now, thread, parked));
    }
    fn on_vec_issue(&mut self, now: u64, ev: &VecIssue) {
        self.acts.push(Act::VecIssue(now, *ev));
    }
    fn wants_vec_events(&self) -> bool {
        true
    }
    fn on_mem_access(&mut self, now: u64, ev: &BankEvent) {
        self.acts.push(Act::Mem(now, *ev));
    }
    fn wants_mem_events(&self) -> bool {
        true
    }
}

/// Run `sys` with `obs`, returning the result and the driver's work.
fn run_with(mut sys: System, max: u64, obs: &mut Activity) -> (SimResult, Work) {
    let r = sys.run_observed(max, obs).unwrap();
    (r, sys.work())
}

/// Run the same machine under both drivers; the results, the activity
/// streams and every `on_cycle` view the event-driven run shows must match
/// the oracle's byte for byte, and no unit class may tick more often than
/// under the oracle. Panics on mismatch (the vendored proptest has no
/// shrinking, so a panic is exactly how properties fail).
fn assert_drivers_agree(mk: impl Fn() -> System, max: u64) {
    let mut event = Activity::default();
    let (re, we) = run_with(mk(), max, &mut event);
    let stepped = event.views.len() as u64;
    let mut naive = Activity {
        expect: Some(std::mem::take(&mut event.views).into_iter().peekable()),
        ..Activity::default()
    };
    let (rn, wn) = run_with(mk().with_driver(DriverMode::CycleByCycle), max, &mut naive);
    assert_eq!(re, rn, "SimResult diverged");
    let (ae, an) = (&event.acts, &naive.acts);
    if let Some(i) = (0..ae.len().max(an.len())).find(|&i| ae.get(i) != an.get(i)) {
        panic!("activity stream diverged at hook {i}: {:?} vs {:?}", ae.get(i), an.get(i));
    }
    let unchecked = naive.expect.map_or(0, Iterator::count);
    assert_eq!(unchecked, 0, "event-driven views at cycles the oracle never stepped");
    assert_eq!((we.stepped, wn.stepped), (stepped, rn.cycles), "stepped cycles miscounted");
    assert!(
        we.core_ticks <= wn.core_ticks
            && we.lane_ticks <= wn.lane_ticks
            && we.vu_ticks <= wn.vu_ticks,
        "a unit class ticked more often event-driven ({we:?}) than cycle by cycle ({wn:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn entry_points_produce_identical_results(
        npt in 16usize..96,
        vl_pick in 0usize..3,
        threads_pick in 0usize..2,
        scalar_work in 0usize..5,
    ) {
        let vl = [8usize, 16, 64][vl_pick];
        let threads = [1usize, 2][threads_pick];
        // 2-thread runs need two lane partitions and two scalar units.
        let cfg = || if threads == 2 { SystemConfig::v2_cmp() } else { SystemConfig::base(8) };
        let vl = vl.min(64 / threads);
        let prog = daxpy(npt, vl, threads, scalar_work);

        let plain = System::new(cfg(), &prog, threads).run(MAX).unwrap();
        let observed = System::new(cfg(), &prog, threads)
            .run_observed(MAX, &mut NullObserver)
            .unwrap();
        prop_assert_eq!(&plain, &observed);
    }

    /// Tentpole guarantee: the event-driven driver is byte-identical to the
    /// cycle-by-cycle oracle — SimResult *and* activity stream — over
    /// random daxpy shapes, vector lengths, and thread counts.
    #[test]
    fn event_driver_is_byte_identical_to_naive(
        npt in 16usize..96,
        vl_pick in 0usize..3,
        threads_pick in 0usize..2,
        scalar_work in 0usize..5,
    ) {
        let vl = [8usize, 16, 64][vl_pick];
        let threads = [1usize, 2][threads_pick];
        let cfg = || if threads == 2 { SystemConfig::v2_cmp() } else { SystemConfig::base(8) };
        let vl = vl.min(64 / threads);
        let prog = daxpy(npt, vl, threads, scalar_work);
        assert_drivers_agree(|| System::new(cfg(), &prog, threads), MAX);
    }

    /// Mid-run `vltcfg` repartitions and barrier flushes: phase A parks one
    /// thread at a barrier for a long span (the driver's best skipping
    /// opportunity), phase B re-splits the lanes two ways.
    #[test]
    fn event_driver_survives_repartitions_and_barriers(
        wide in 32usize..256,
        narrow_npt in 8usize..64,
    ) {
        let prog = two_phase(wide, narrow_npt);
        assert_drivers_agree(|| System::new(SystemConfig::v2_cmp(), &prog, 2), MAX);
    }

    /// Hierarchical `vltcfg` on the 2-cluster ultra-wide machine: flat and
    /// packed operands at 2/4/8 threads must drive both drivers to byte
    /// identical results and activity streams.
    #[test]
    fn event_driver_matches_naive_on_clustered_machines(
        npt in 16usize..64,
        threads_pick in 0usize..3,
        clusters_pick in 0usize..2,
        scalar_work in 0usize..4,
    ) {
        let threads = [2usize, 4, 8][threads_pick];
        let clusters = [1usize, 2][clusters_pick];
        // Flat operands keep the legacy MVL = 64/t; packed ones spread to
        // both clusters for MVL = 128/t.
        let (op, mvl) = if clusters > 1 {
            (vlt_isa::vltcfg::operand(threads as u8, clusters as u8), 128 / threads)
        } else {
            (threads as u64, 64 / threads)
        };
        let vl = mvl.min(16);
        let prog = daxpy_with_operand(npt, vl, threads, scalar_work, op);
        assert_drivers_agree(
            || System::new(SystemConfig::v8_clustered(2), &prog, threads),
            MAX,
        );
    }

    /// Mid-run repartitions that cross the cluster boundary: from 8
    /// threads over 2 clusters down to a flat split, an explicit
    /// single-cluster collapse, or one thread per cluster at full MVL.
    #[test]
    fn event_driver_survives_cross_cluster_repartitions(
        npt_a in 16usize..64,
        npt_b in 8usize..48,
        op_pick in 0usize..3,
    ) {
        let (op_b, threads_b) = [
            (4u64, 4usize),                      // flat: the machine keeps both clusters
            (vlt_isa::vltcfg::operand(4, 1), 4), // explicit collapse to one cluster
            (vlt_isa::vltcfg::operand(2, 2), 2), // one thread per cluster, MVL 64
        ][op_pick];
        let prog = cross_cluster_two_phase(npt_a, npt_b, op_b, threads_b);
        assert_drivers_agree(|| System::new(SystemConfig::v8_clustered(2), &prog, 8), MAX);
    }

    /// Scalar machines: the CMT baseline (in-order scalar cores, no VU) and
    /// VLT lane-thread mode (scalar threads on the lane cores).
    #[test]
    fn event_driver_matches_naive_on_scalar_machines(
        n in 32usize..256,
        cfg_pick in 0usize..2,
    ) {
        let cfg: fn() -> SystemConfig =
            [SystemConfig::cmt, SystemConfig::v4_cmt_lane_threads][cfg_pick];
        // CMT runs on the 4 SMT contexts; lane-thread mode on the 8 lanes.
        let threads = [4usize, 8][cfg_pick];
        let prog = scalar_sum(n, threads);
        assert_drivers_agree(|| System::new(cfg(), &prog, threads), MAX);
    }
}

/// At-scale equivalence run for CI's release-mode step: big enough that a
/// debug build would crawl, so it is `#[ignore]`d by default and run with
/// `cargo test --release -- --include-ignored`.
#[test]
#[ignore = "release-mode CI step: large inputs, slow under debug builds"]
fn event_driver_matches_naive_at_scale() {
    let prog = daxpy(4096, 64, 2, 12);
    assert_drivers_agree(|| System::new(SystemConfig::v2_cmp(), &prog, 2), MAX);

    let prog = two_phase(2048, 512);
    assert_drivers_agree(|| System::new(SystemConfig::v2_cmp(), &prog, 2), MAX);

    let prog = scalar_sum(4096, 8);
    assert_drivers_agree(|| System::new(SystemConfig::v4_cmt_lane_threads(), &prog, 8), MAX);

    // Multi-cluster at scale: 8 threads spread over 2 clusters, then a
    // long run with a mid-run collapse across the cluster boundary.
    let prog = daxpy_with_operand(2048, 16, 8, 6, vlt_isa::vltcfg::operand(8, 2));
    assert_drivers_agree(|| System::new(SystemConfig::v8_clustered(2), &prog, 8), MAX);

    let prog = cross_cluster_two_phase(1024, 256, vlt_isa::vltcfg::operand(4, 1), 4);
    assert_drivers_agree(|| System::new(SystemConfig::v8_clustered(2), &prog, 8), MAX);

    // Radix x8 in lane-thread mode: barrier-heavy lane cores beside two
    // scalar units that bind no context. A scalar kernel on V4-CMT: a
    // vector unit that never gets work.
    let (prog, _) = radix_sort(2048, 8, 2);
    assert_drivers_agree(|| System::new(SystemConfig::v4_cmt_lane_threads(), &prog, 8), MAX);

    let prog = scalar_sum(8192, 4);
    assert_drivers_agree(|| System::new(SystemConfig::v4_cmt(), &prog, 4), MAX);
}

/// The radix kernel sorts (so the at-scale comparison drives real work),
/// and on V4-CMT-lanes x8 each scalar unit, which binds no context, ticks
/// at most once.
#[test]
fn radix_sorts_and_unbound_scalar_units_sleep() {
    let (prog, sorted) = radix_sort(64, 8, 2);
    let cfg = SystemConfig::v4_cmt_lane_threads();
    let cores = cfg.cores.len() as u64;
    let mut sys = System::new(cfg, &prog, 8);
    sys.run(MAX).unwrap();
    let base = prog.symbol("keys").unwrap();
    let got: Vec<u64> =
        (0..sorted.len() as u64).map(|i| sys.funcsim().mem.read_u64(base + 8 * i)).collect();
    assert_eq!(got, sorted, "two stable 4-bit passes sort by the low byte");
    let work = sys.work();
    assert!(work.core_ticks <= cores, "unbound scalar units ticked {} times", work.core_ticks);
    assert!(work.lane_ticks > 0);
}

/// A scalar kernel on V4-CMT never gives the vector unit work: it ticks a
/// handful of times, not once per cycle.
#[test]
fn an_idle_vector_unit_sleeps() {
    let prog = scalar_sum(512, 4);
    let mut sys = System::new(SystemConfig::v4_cmt(), &prog, 4);
    let r = sys.run(MAX).unwrap();
    let work = sys.work();
    assert!(work.vu_ticks <= 8, "an idle VU ticked {} times in {} cycles", work.vu_ticks, r.cycles);
    assert!(work.stepped < r.cycles && work.core_ticks > 0);
}
