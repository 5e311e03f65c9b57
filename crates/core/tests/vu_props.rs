//! Property tests on the vector unit: for any dispatch sequence, the
//! utilization accounting stays exact, completions are sane, and window
//! capacity is respected.

use proptest::prelude::*;
use std::sync::Arc;
use vlt_core::{VectorUnit, VuConfig};

use vlt_exec::{AddrArena, AddrRange, DecodedProgram};
use vlt_isa::asm::assemble;
use vlt_isa::OpClass;
use vlt_mem::{MemConfig, MemSystem};
use vlt_scalar::{DepSet, VecDispatch, VecToken, VectorSink};

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

fn prog() -> Arc<DecodedProgram> {
    DecodedProgram::new(&assemble(CLASS_PROG).unwrap())
}

#[derive(Debug, Clone)]
struct Req {
    class_pick: u8,
    vl: u16,
    vthread: u8,
}

fn class_of(pick: u8) -> OpClass {
    match pick % 6 {
        0 => OpClass::VAdd,
        1 => OpClass::VMul,
        2 => OpClass::VDiv,
        3 => OpClass::VLoad,
        4 => OpClass::VStore,
        _ => OpClass::VMask,
    }
}

fn arb_req() -> impl Strategy<Value = Req> {
    (any::<u8>(), 1u16..=64, 0u8..4).prop_map(|(class_pick, vl, vthread)| Req {
        class_pick,
        vl,
        vthread,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatch a random stream of independent vector instructions at 1, 2,
    /// and 4 partitions: every accepted instruction completes, completions
    /// never precede dispatch, and the Figure-4 accounting covers exactly
    /// 3 * lanes datapath-slots per cycle.
    #[test]
    fn random_streams_complete_exactly(reqs in proptest::collection::vec(arb_req(), 1..60)) {
        for threads in [1usize, 2, 4] {
            let cfg = VuConfig::base(8).with_threads(threads);
            let mut vu = VectorUnit::new(cfg, prog());
            let mut mem = MemSystem::new(MemConfig::default(), 1, 8);
            let mut arena = AddrArena::new(4);
            let mut pending: Vec<(VecToken, u64)> = Vec::new();
            let mut next = 0usize;
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut done_count = 0usize;
            let mut accepted = 0usize;

            while (next < reqs.len() || !pending.is_empty()) && now < 200_000 {
                // Try to dispatch the next request.
                if next < reqs.len() {
                    let r = &reqs[next];
                    let vthread = (r.vthread as usize) % threads;
                    let class = class_of(r.class_pick);
                    let vl = r.vl.min((64 / threads) as u16);
                    let d = VecDispatch {
                        vthread,
                        sidx: sidx_for(class),
                        vl,
                        class,
                        addrs: if class.is_mem() {
                            let elems: Vec<u64> =
                                (0..vl as u64).map(|e| 0x10000 + 8 * e).collect();
                            arena.alloc(vthread, &elems)
                        } else {
                            AddrRange::EMPTY
                        },
                        seq,
                        deps: DepSet::EMPTY,
                        scalar_deps: DepSet::EMPTY,
                        ready_base: 0,
                    };
                    if let Some(tok) = vu.try_dispatch(d, now) {
                        pending.push((tok, now));
                        next += 1;
                        seq += 1;
                        accepted += 1;
                    }
                }
                vu.tick(now, &mut mem, None, &arena, 0, threads, false);
                let mut bad_completion = None;
                pending.retain(|(tok, dispatched)| match vu.poll(*tok) {
                    Some(t) => {
                        if t <= *dispatched {
                            bad_completion = Some((t, *dispatched));
                        }
                        done_count += 1;
                        false
                    }
                    None => true,
                });
                prop_assert!(bad_completion.is_none(), "completion before dispatch: {bad_completion:?}");
                now += 1;
            }
            prop_assert_eq!(done_count, accepted, "every accepted instruction completes");
            prop_assert_eq!(next, reqs.len(), "every request eventually dispatches");
            // Figure-4 invariant.
            prop_assert_eq!(vu.util.total(), 3 * 8 * now, "utilization accounting exact");
            // Busy element-cycles never exceed the 24 datapaths.
            prop_assert!(vu.util.busy <= 24 * now);
        }
    }
}

#[test]
fn window_capacity_is_partition_scoped() {
    let mut vu = VectorUnit::new(VuConfig::base(8).with_threads(4), prog());
    // Each partition holds window/4 = 8 entries.
    for p in 0..4usize {
        for i in 0..8 {
            let d = VecDispatch {
                vthread: p,
                sidx: 0,
                vl: 8,
                class: OpClass::VAdd,
                addrs: AddrRange::EMPTY,
                seq: (p * 8 + i) as u64,
                deps: DepSet::EMPTY,
                scalar_deps: DepSet::EMPTY,
                ready_base: 0,
            };
            assert!(vu.try_dispatch(d, 0).is_some(), "partition {p} entry {i}");
        }
        let d = VecDispatch {
            vthread: p,
            sidx: 0,
            vl: 8,
            class: OpClass::VAdd,
            addrs: AddrRange::EMPTY,
            seq: 1000 + p as u64,
            deps: DepSet::EMPTY,
            scalar_deps: DepSet::EMPTY,
            ready_base: 0,
        };
        assert!(vu.try_dispatch(d, 0).is_none(), "partition {p} must be full");
    }
}
