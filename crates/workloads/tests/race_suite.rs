//! Barrier-epoch race checking over the workload suite (DESIGN.md §7).
//!
//! Two sides of the same invariant — threads only communicate across
//! barriers — are exercised over all nine kernels:
//!
//! * **dynamic**: every workload runs under [`vlt_exec::RaceChecker`] at
//!   1/2/4/8 threads (clamped to the kernel's maximum) and must finish with
//!   no same-epoch cross-thread conflict, and
//! * **static→dynamic containment**: a predictor built from
//!   `vlt_verify::predicted_race_sites` is installed, so any dynamic
//!   conflict not statically predicted aborts a debug build via the
//!   checker's `debug_assert` — merely finishing is the cross-validation.
//!
//! The static report itself must also be clean: no kernel carries a
//! `vlint.allow.race_*` line. The observed walk decides every verdict,
//! data-dependent scatters and gathers included; the `#[ignore]`d
//! Full-scale test holds every kernel within its step budget.

use vlt_exec::{FuncSim, RaceConfig};
use vlt_verify::{check_races, predicted_race_sites};
use vlt_workloads::suite::suite;
use vlt_workloads::{irregular_suite, Scale};

fn thread_counts(max: usize) -> impl Iterator<Item = usize> {
    [1, 2, 4, 8].into_iter().filter(move |&t| t <= max)
}

#[test]
fn all_workloads_run_clean_under_race_checker() {
    for w in suite() {
        for threads in thread_counts(w.max_threads()) {
            let built = w.build(threads, Scale::Test);
            let predicted = predicted_race_sites(&built.program, threads);
            let mut sim = FuncSim::new(&built.program, threads);
            sim.enable_race_checker(RaceConfig {
                predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
            });
            sim.run_to_completion(200_000_000)
                .unwrap_or_else(|e| panic!("{} t={threads}: {e}", w.name()));
            let rc = sim.race_checker().unwrap();
            assert!(
                rc.is_clean(),
                "{} t={threads}: intra-epoch conflicts: {:?} (+{} dropped, {} saturated)",
                w.name(),
                rc.conflicts(),
                rc.dropped(),
                rc.saturated()
            );
        }
    }
}

#[test]
fn all_workloads_statically_clean_or_allowed() {
    for w in suite() {
        for threads in thread_counts(w.max_threads()) {
            let built = w.build(threads, Scale::Test);
            let report = check_races(&built.program, threads);
            assert!(
                report.diags.is_empty(),
                "{} t={threads}: {} unsuppressed race diagnostics:\n{}",
                w.name(),
                report.diags.len(),
                report.diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
            );
        }
    }
}

/// All 13 kernels at Full scale and 1/2/4/8 threads, 8-thread vector
/// kernels spread over two clusters: every static report is empty. Too
/// slow for a debug build; CI runs it in release.
#[test]
#[ignore]
fn all_kernels_statically_clean_at_full_scale() {
    for w in suite().into_iter().chain(irregular_suite()) {
        for threads in [1, 2, 4, 8] {
            let built = if threads > w.max_threads() {
                w.build_spread(threads, 2, Scale::Full)
            } else {
                w.build(threads, Scale::Full)
            };
            let report = check_races(&built.program, threads);
            assert!(
                report.diags.is_empty(),
                "{} t={threads}: {} race diagnostics:\n{}",
                w.name(),
                report.diags.len(),
                report.diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
            );
        }
    }
}
