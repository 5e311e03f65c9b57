//! Differential fuzz for the static DLP analyzer: random vlint-clean SPMD
//! programs (the same deterministic generator the engine-differential fuzz
//! uses, `crates/exec/tests/support/progen.rs`) are analyzed statically and
//! then actually run under `FuncSim`, and the predicted Table-4 profile is
//! compared against the measured `RunSummary`.
//!
//! The contract under test: whenever the walker reports `exact`, the
//! profile's total equals the run's `RunSummary` as one value — every
//! counter, the per-thread split and the full VL histogram (hence %
//! vectorization and average VL). When the walk bails to a partial lower
//! bound, the bound must actually be a lower bound. Generated programs are
//! fully concrete (no data-dependent addresses outside the private slice),
//! so the single-threaded walk must never bail; multi-threaded walks go
//! through the shared-memory two-pass and are expected to stay exact for
//! these race-free programs too, which the final ratio assertion enforces.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;
use vlt_verify::dlp::{analyze, DlpOptions};

#[path = "../../exec/tests/support/progen.rs"]
mod progen;
use progen::gen_program;

const CASES: u64 = 40;
const BUDGET: u64 = 4_000_000;

fn check_case(seed: u64, threads: usize) -> bool {
    let src = gen_program(seed, threads);
    let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: bad program: {e}\n{src}"));
    let report = vlt_verify::verify(&prog);
    assert_eq!(
        report.errors(),
        0,
        "seed {seed}: generator emitted a program vlint rejects:\n{report}\n{src}"
    );

    let p = analyze(&prog, &DlpOptions { threads, ..DlpOptions::default() });
    let mut sim = FuncSim::new(&prog, threads);
    let s = sim.run_to_completion(BUDGET).unwrap();

    if p.exact {
        assert_eq!(p.total, s, "seed {seed} x{threads}\n{src}");
    } else {
        // A bailed walk reports the profile up to the bail point — a lower
        // bound on every counter.
        assert!(p.total.insts <= s.insts, "seed {seed} x{threads}: bound exceeds run");
        assert!(p.total.elem_ops <= s.elem_ops, "seed {seed} x{threads}: bound exceeds run");
        for (vl, (&a, &b)) in p.total.vl_histogram.iter().zip(s.vl_histogram.iter()).enumerate() {
            assert!(a <= b, "seed {seed} x{threads}: histogram bound exceeds run at VL {vl}");
        }
    }
    p.exact
}

#[test]
fn randomized_programs_match_the_static_profile() {
    let mut total = 0u32;
    let mut exact = 0u32;
    for seed in 0..CASES {
        for threads in [1usize, 2, 4] {
            let e = check_case(seed * 31 + threads as u64, threads);
            if threads == 1 {
                assert!(e, "seed {}: single-threaded walk must be exact", seed * 31 + 1);
            }
            total += 1;
            exact += e as u32;
        }
    }
    // The generator only writes tid-private slices, so the shared-memory
    // two-pass should prove independence nearly everywhere.
    assert!(exact * 10 >= total * 9, "only {exact}/{total} walks were exact");
}
