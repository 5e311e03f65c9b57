//! Vector-unit timing tests (unit level: hand-built dispatches).

use vlt_exec::{AddrArena, AddrRange, DecodedProgram};
use vlt_isa::asm::assemble;
use vlt_isa::OpClass;
use vlt_mem::{MemConfig, MemSystem};
use vlt_scalar::{DepSet, VecDispatch, VecToken, VectorSink};

use crate::vu::{VectorUnit, VuConfig};

/// A program whose instructions stand in for each class; `disp` picks the
/// matching static index so opcode-dependent costs (divide vs pipelined)
/// are exercised.
const CLASS_PROG: &str = "\
vfadd.vv v1, v2, v3
vfmul.vv v1, v2, v3
vfdiv.vv v1, v2, v3
vld v1, x1
vst v1, x1
vmset
halt
";

fn sidx_for(class: OpClass) -> u32 {
    match class {
        OpClass::VAdd => 0,
        OpClass::VMul => 1,
        OpClass::VDiv => 2,
        OpClass::VLoad => 3,
        OpClass::VStore => 4,
        _ => 5,
    }
}

fn unit(lanes: usize, threads: usize) -> VectorUnit {
    let prog = DecodedProgram::new(&assemble(CLASS_PROG).unwrap());
    VectorUnit::new(VuConfig::base(lanes).with_threads(threads), prog)
}

fn mem() -> MemSystem {
    MemSystem::new(MemConfig::default(), 1, 8)
}

/// A standalone address arena for hand-built dispatches (4 threads covers
/// every partitioning these tests use).
fn arena() -> AddrArena {
    AddrArena::new(4)
}

fn disp(vthread: usize, seq: u64, class: OpClass, vl: u16) -> VecDispatch {
    VecDispatch {
        vthread,
        sidx: sidx_for(class),
        vl,
        class,
        addrs: AddrRange::EMPTY,
        seq,
        deps: DepSet::EMPTY,
        scalar_deps: DepSet::EMPTY,
        ready_base: 0,
    }
}

/// Drive the VU until `token` completes; returns the completion cycle.
fn run_until_done(
    vu: &mut VectorUnit,
    mem: &mut MemSystem,
    arena: &AddrArena,
    token: vlt_scalar::VecToken,
    start: u64,
) -> u64 {
    for now in start..start + 10_000 {
        vu.tick(now, mem, None, arena, 0, 1, false);
        if let Some(t) = vu.poll(token) {
            return t;
        }
    }
    panic!("vector instruction never completed");
}

#[test]
fn arith_occupancy_scales_with_vl_over_lanes() {
    // VL 64 on 8 lanes: 8 occupancy cycles (+4 startup for the add unit).
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    let done = run_until_done(&mut vu, &mut m, &ar, tok, 0);
    // Issues at cycle 1 (dispatched at 0): 1 + 2 (startup) + 8 = 11.
    assert_eq!(done, 11);

    // Same instruction on 1 lane: 64 occupancy cycles.
    let mut vu1 = unit(1, 1);
    let tok = vu1.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    let done1 = run_until_done(&mut vu1, &mut m, &ar, tok, 0);
    assert_eq!(done1, 1 + 2 + 64);
}

#[test]
fn short_vectors_waste_lanes() {
    // VL 4 on 8 lanes still costs one occupancy cycle, wasting 4 datapaths.
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 4), 0).unwrap();
    run_until_done(&mut vu, &mut m, &ar, tok, 0);
    assert!(vu.util.partly_idle >= 4, "partial idling not recorded: {:?}", vu.util);
}

#[test]
fn division_is_expensive() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VDiv, 64), 0).unwrap();
    let done = run_until_done(&mut vu, &mut m, &ar, tok, 0);
    // 8 groups x 4 cycles each + startup 6 + issue at 1.
    assert_eq!(done, 1 + 6 + 32);
}

#[test]
fn independent_ops_use_different_fus_in_parallel() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let t_add = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    let t_mul = vu.try_dispatch(disp(0, 1, OpClass::VMul, 64), 0).unwrap();
    // Both issue at cycle 1 (2-way issue, different FUs).
    for now in 0..100 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    let a = vu.poll(t_add).unwrap();
    let b = vu.poll(t_mul).unwrap();
    assert_eq!(a, 1 + 2 + 8);
    assert_eq!(b, 1 + 3 + 8);
}

#[test]
fn same_fu_ops_serialize() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let t1 = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    let t2 = vu.try_dispatch(disp(0, 1, OpClass::VAdd, 64), 0).unwrap();
    for now in 0..100 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    let a = vu.poll(t1).unwrap();
    let b = vu.poll(t2).unwrap();
    // Second add waits for the FU: issues at 1+8=9.
    assert_eq!(a, 11);
    assert_eq!(b, 9 + 2 + 8);
}

#[test]
fn dependences_block_issue_until_resolved() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let mut d = disp(0, 1, OpClass::VAdd, 64);
    d.deps.insert(0); // producer seq 0, not yet resolved
    let tok = vu.try_dispatch(d, 0).unwrap();
    for now in 0..50 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    assert_eq!(vu.poll(tok), None, "must wait for the producer");
    vu.resolve(0, 0, 60);
    let done = run_until_done(&mut vu, &mut m, &ar, tok, 50);
    assert!(done >= 60 + 2 + 8, "issue cannot precede the producer: {done}");
}

#[test]
fn window_capacity_limits_dispatch() {
    let mut vu = unit(8, 1); // window 32
    for i in 0..32 {
        assert!(vu.try_dispatch(disp(0, i, OpClass::VAdd, 64), 0).is_some());
    }
    assert!(vu.try_dispatch(disp(0, 32, OpClass::VAdd, 64), 0).is_none());
}

#[test]
fn partitions_split_window_and_lanes() {
    let mut vu = unit(8, 2); // 2 threads: 16-entry windows, 4 lanes each
    for i in 0..16 {
        assert!(vu.try_dispatch(disp(0, i, OpClass::VAdd, 32), 0).is_some());
    }
    assert!(vu.try_dispatch(disp(0, 16, OpClass::VAdd, 32), 0).is_none());
    // The other partition is unaffected.
    assert!(vu.try_dispatch(disp(1, 0, OpClass::VAdd, 32), 0).is_some());
}

#[test]
fn two_partitions_execute_concurrently() {
    // One VL-32 add per thread on a 2-way partition (4 lanes each):
    // both complete at the same cycle — the whole point of VLT.
    let mut vu = unit(8, 2);
    let mut m = mem();
    let ar = arena();
    let t0 = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 32), 0).unwrap();
    let t1 = vu.try_dispatch(disp(1, 0, OpClass::VAdd, 32), 0).unwrap();
    for now in 0..100 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    let a = vu.poll(t0).unwrap();
    let b = vu.poll(t1).unwrap();
    assert_eq!(a, 1 + 2 + 8); // 32 elems / 4 lanes = 8 cycles
    assert_eq!(a, b);
}

#[test]
fn vector_loads_contend_for_banks() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let mut ar = arena();
    // Unit-stride: 64 addresses over all banks.
    let unit_addrs: Vec<u64> = (0..64u64).map(|e| 0x10000 + 8 * e).collect();
    let mut d = disp(0, 0, OpClass::VLoad, 64);
    d.addrs = ar.alloc(0, &unit_addrs);
    let t_unit = vu.try_dispatch(d, 0).unwrap();
    let unit_done = run_until_done(&mut vu, &mut m, &ar, t_unit, 0);

    // Same-bank stride: every address hits bank 0.
    let mut vu2 = unit(8, 1);
    let conf_addrs: Vec<u64> = (0..64u64).map(|e| 0x40000 + 8 * 16 * e).collect();
    let mut d2 = disp(0, 0, OpClass::VLoad, 64);
    d2.addrs = ar.alloc(0, &conf_addrs);
    let t_conf = vu2.try_dispatch(d2, 0).unwrap();
    let conf_done = run_until_done(&mut vu2, &mut m, &ar, t_conf, 0);

    assert!(
        conf_done > unit_done + 32,
        "bank conflicts must slow the strided access: {conf_done} vs {unit_done}"
    );
}

#[test]
fn mask_ops_bypass_the_lanes() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VMask, 8), 0).unwrap();
    let done = run_until_done(&mut vu, &mut m, &ar, tok, 0);
    assert_eq!(done, 2); // issue at 1, done at 2
}

#[test]
fn utilization_invariant_holds() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 20), 0).unwrap();
    let cycles = 50u64;
    for now in 0..cycles {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    assert!(vu.poll(tok).is_some());
    let u = vu.util;
    assert_eq!(u.total(), 3 * 8 * cycles, "3 datapath classes x 8 lanes x cycles: {u:?}");
    assert_eq!(u.busy, 20, "exactly vl element ops on the add unit");
    // VL 20 on 8 lanes: 3 occupancy cycles, 24 lane-slots, 4 partly idle.
    assert_eq!(u.partly_idle, 4);
}

#[test]
fn issue_bandwidth_is_partitioned_for_four_threads() {
    // 4 threads share 2 issue slots: 4 simultaneous VMask ops need 2 cycles
    // of issue, not 1.
    let mut vu = unit(8, 4);
    let mut m = mem();
    let ar = arena();
    let toks: Vec<_> =
        (0..4).map(|t| vu.try_dispatch(disp(t, 0, OpClass::VMask, 4), 0).unwrap()).collect();
    for now in 0..10 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    let dones: Vec<u64> = toks.into_iter().map(|t| vu.poll(t).unwrap()).collect();
    let earliest = *dones.iter().min().unwrap();
    let latest = *dones.iter().max().unwrap();
    assert!(latest > earliest, "4 threads cannot all issue in one cycle: {dones:?}");
}

#[test]
fn drained_reports_empty_windows() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    assert!(vu.drained());
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 8), 0).unwrap();
    assert!(!vu.drained());
    run_until_done(&mut vu, &mut m, &ar, tok, 0);
    vu.tick(10_001, &mut m, None, &ar, 0, 1, false); // retire the reported entry
    assert!(vu.drained());
}

// The hand-off contract the scalar unit relies on: `poll` reports a token's
// completion cycle once, as soon as the instruction issues; the reported
// entry holds its window slot until the end of the unit's next tick.

#[test]
fn a_token_polls_none_until_it_issues() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    assert_eq!(vu.poll(tok), None, "not issued yet");
    // Nothing issues in its own dispatch cycle.
    vu.tick(0, &mut m, None, &ar, 0, 1, false);
    assert_eq!(vu.poll(tok), None, "not issued in its dispatch cycle");
}

#[test]
fn a_token_reports_its_completion_once_at_issue() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VAdd, 64), 0).unwrap();
    vu.tick(0, &mut m, None, &ar, 0, 1, false);
    vu.tick(1, &mut m, None, &ar, 0, 1, false);
    // Issued at 1: 1 + 2 (startup) + 8 = 11, reported while still ahead.
    assert_eq!(vu.poll(tok), Some(11));
    assert_eq!(vu.poll(tok), None, "a completion is reported once");
    for now in 2..20 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
        assert_eq!(vu.poll(tok), None, "reported again at cycle {now}");
    }
}

#[test]
fn tokens_never_handed_out_poll_none() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    assert_eq!(vu.poll(VecToken(0)), None);
    let tok = vu.try_dispatch(disp(0, 0, OpClass::VMask, 8), 0).unwrap();
    for now in 0..4 {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
    }
    for other in [tok.0 + 1, tok.0 + 1000, u64::MAX] {
        assert_eq!(vu.poll(VecToken(other)), None, "token {other} was never handed out");
    }
    assert!(vu.poll(tok).is_some());
}

#[test]
fn a_reported_entry_holds_its_slot_until_the_next_tick_ends() {
    let mut vu = unit(8, 1); // one 32-entry partition
    let mut m = mem();
    let ar = arena();
    let toks: Vec<_> =
        (0..32).map(|i| vu.try_dispatch(disp(0, i, OpClass::VMask, 8), 0).unwrap()).collect();
    vu.tick(0, &mut m, None, &ar, 0, 1, false);
    vu.tick(1, &mut m, None, &ar, 0, 1, false); // issues the two oldest
    assert!(vu.try_dispatch(disp(0, 32, OpClass::VMask, 8), 1).is_none(), "window full");
    assert_eq!(vu.poll(toks[0]), Some(2));
    assert!(
        vu.try_dispatch(disp(0, 32, OpClass::VMask, 8), 1).is_none(),
        "the reported entry keeps its slot until the unit ticks"
    );
    vu.tick(2, &mut m, None, &ar, 0, 1, false);
    assert!(vu.try_dispatch(disp(0, 32, OpClass::VMask, 8), 2).is_some(), "slot released");
    // The issued-but-unpolled entry still holds its slot.
    assert!(vu.try_dispatch(disp(0, 33, OpClass::VMask, 8), 2).is_none());
    assert_eq!(vu.poll(toks[1]), Some(2));
}

#[test]
fn tokens_report_correctly_after_a_drain_and_repartition() {
    let mut vu = unit(8, 1);
    let mut m = mem();
    let ar = arena();
    let old: Vec<_> =
        (0..3).map(|i| vu.try_dispatch(disp(0, i, OpClass::VAdd, 16), 0).unwrap()).collect();
    let mut now = 0;
    let mut left = old.clone();
    while !left.is_empty() {
        vu.tick(now, &mut m, None, &ar, 0, 1, false);
        left.retain(|t| vu.poll(*t).is_none());
        now += 1;
    }
    vu.tick(now, &mut m, None, &ar, 0, 1, false); // release the last reported slot
    assert!(vu.drained());
    vu.repartition(2);
    now += 1;
    // VL 32 on a 4-lane partition: issue at now + 1, 2 startup, 8 groups.
    let t0 = vu.try_dispatch(disp(0, 10, OpClass::VAdd, 32), now).unwrap();
    let t1 = vu.try_dispatch(disp(1, 10, OpClass::VMul, 32), now).unwrap();
    assert!(old.iter().all(|t| *t != t0 && *t != t1), "tokens are never reused");
    let d1 = run_until_done(&mut vu, &mut m, &ar, t1, now);
    assert_eq!(d1, now + 1 + 3 + 8);
    assert_eq!(vu.poll(t0), Some(now + 1 + 2 + 8));
    for t in old {
        assert_eq!(vu.poll(t), None, "a token from before the repartition");
    }
}
