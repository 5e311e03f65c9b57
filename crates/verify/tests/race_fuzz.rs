//! Differential fuzz for the race analysis: [`vlt_verify::check_races`]
//! must be empty exactly when the dynamic barrier-epoch checker
//! ([`vlt_exec::RaceChecker`]) sees no conflict.
//!
//! Programs come from the same deterministic generator the engine- and
//! DLP-differential fuzzes use (`crates/exec/tests/support/progen.rs`).
//! Their unit-stride, strided, indexed and content-steered traffic stays
//! inside each thread's private 1 KiB slice, so every one is race-free.
//! Each also gets a racy twin whose slices start 8 bytes apart instead of
//! 1 KiB (`slli x3, x1, 3`), so neighbouring slices overlap: a twin races
//! when one thread's store reaches bytes a neighbour touches in the same
//! epoch.
//!
//! The dynamic checker runs with a predictor built from
//! [`vlt_verify::predicted_race_sites`], so a conflict at a site the static
//! side did not predict aborts a debug build.

use vlt_exec::{FuncSim, RaceConfig};
use vlt_isa::asm::assemble;
use vlt_verify::{check_races, predicted_race_sites, Code};

#[path = "../../exec/tests/support/progen.rs"]
mod progen;
use progen::gen_program;

const SEEDS: u64 = 40;
const BUDGET: u64 = 4_000_000;

/// `(static report empty, dynamic checker clean)` for one program.
fn verdicts(src: &str, threads: usize, what: &str) -> (bool, bool) {
    let prog = assemble(src).unwrap_or_else(|e| panic!("{what}: bad program: {e}\n{src}"));
    let report = check_races(&prog, threads);
    assert!(
        report.diags.iter().all(|d| d.code != Code::RaceUnknown),
        "{what}: the walk gave no verdict:\n{report}\n{src}"
    );
    let predicted = predicted_race_sites(&prog, threads);
    let mut sim = FuncSim::new(&prog, threads);
    sim.enable_race_checker(RaceConfig {
        predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
    });
    sim.run_to_completion(BUDGET).unwrap_or_else(|e| panic!("{what}: {e}\n{src}"));
    (report.diags.is_empty(), sim.race_checker().unwrap().is_clean())
}

/// 160 generated programs: `SEEDS` seeds × 2 and 4 threads, each program
/// and its racy twin.
#[test]
fn static_verdicts_match_the_dynamic_checker() {
    let (mut programs, mut racy) = (0usize, 0usize);
    for seed in 0..SEEDS {
        for threads in [2usize, 4] {
            let src = gen_program(seed * 131 + threads as u64, threads);
            let twin = src.replacen("slli x3, x1, 10", "slli x3, x1, 3", 1);
            assert_ne!(twin, src, "the generator's slice offset moved");
            let what = format!("seed {seed} x{threads}");
            assert_eq!(verdicts(&src, threads, &what), (true, true), "{what} races\n{src}");
            let (clean, clean_dynamic) = verdicts(&twin, threads, &format!("{what} twin"));
            assert_eq!(clean, clean_dynamic, "{what} twin: static and dynamic verdicts differ");
            programs += 2;
            racy += usize::from(!clean);
        }
    }
    assert_eq!(programs, 160);
    // The twins must exercise both verdicts.
    assert!((40..80).contains(&racy), "{racy} of 80 twins race");
}
