//! Dynamic checked-mode cross-validation (DESIGN.md §7).
//!
//! Runs every workload under `FuncSim` with the [`vlt_exec::Checker`]
//! enabled and an undefined-read predictor built from the static
//! verifier. Two properties are exercised at once:
//!
//! * the nine kernels are dynamically fault-free (no undefined reads, no
//!   out-of-bounds or misaligned accesses on any thread), and
//! * every dynamic undefined read would have been statically predicted —
//!   the `debug_assert` inside the checker fires otherwise, so merely
//!   finishing the run in a debug build is the cross-validation.

use vlt_exec::{CheckConfig, FuncSim};
use vlt_verify::{predicted_undef_reads, Options};
use vlt_workloads::suite::suite;
use vlt_workloads::Scale;

#[test]
fn all_workloads_run_clean_under_checker() {
    for w in suite() {
        for threads in [1, w.max_threads()] {
            let built = w.build(threads, Scale::Test);
            let predicted = predicted_undef_reads(&built.program, &Options::default());
            let mut sim = FuncSim::new(&built.program, threads);
            sim.enable_checker(CheckConfig {
                undef_predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
            });
            sim.run_to_completion(200_000_000)
                .unwrap_or_else(|e| panic!("{} t={threads}: {e}", w.name()));
            let ck = sim.checker().unwrap();
            assert!(
                ck.is_clean(),
                "{} t={threads}: dynamic faults: {:?} (+{} dropped)",
                w.name(),
                ck.faults(),
                ck.dropped()
            );
        }
    }
}

/// A kernel with a seeded def-before-use slip: the dynamic checker must
/// observe the undefined read, and the static predictor must have seen it
/// coming (otherwise the checker's `debug_assert` aborts this test).
#[test]
fn seeded_undef_read_is_caught_and_predicted() {
    let prog =
        vlt_isa::asm::assemble("tid x1\nbeqz x1, skip\nli x5, 7\nskip:\nsd x5, -8(sp)\nhalt\n")
            .unwrap();
    let predicted = predicted_undef_reads(&prog, &Options::default());
    let mut sim = FuncSim::new(&prog, 2);
    sim.enable_checker(CheckConfig {
        undef_predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
    });
    sim.run_to_completion(1_000).unwrap();
    let ck = sim.checker().unwrap();
    // Thread 0 takes the branch and reads x5 before any write; thread 1
    // initializes it. Exactly one undefined read, on thread 0.
    assert_eq!(ck.faults().len(), 1, "{:?}", ck.faults());
    assert_eq!(ck.faults()[0].tid, 0);
}
