//! Acceptance gate for the irregular kernel suite (spmv, histo, hashjoin,
//! sweep): golden results at 1/2/4/8 threads under both drivers and both
//! engines, and the full strict-lint bar — static verifier, barrier-epoch
//! race analysis, and DLP walk all clean with **zero** `vlint.allow.*`
//! annotations. These four kernels exist to exercise the race walk on
//! data-dependent addressing; this file is where that claim is enforced.

use vlt_core::{DriverMode, EngineMode, System, SystemConfig};
use vlt_exec::{FuncSim, RaceConfig};
use vlt_verify::dlp::{analyze, DlpOptions};
use vlt_verify::{check_races, predicted_race_sites, verify, Severity};
use vlt_workloads::{irregular_suite, Built, Scale, Workload};

const BUDGET: u64 = 2_000_000_000;

/// Build `w` for `threads` and pick a machine that can run it. All four
/// irregular kernels are vector workloads: flat VLT partitions up to 4
/// threads, and the ultra-wide 2-cluster machine with the `vltcfg` spread
/// for 8 (mirroring the Table-4 engine suite).
fn built_on(w: &dyn Workload, threads: usize, scale: Scale) -> (SystemConfig, Built) {
    let cfg = match threads {
        8 => SystemConfig::v8_clustered(2),
        _ => SystemConfig::v4_cmt(),
    };
    let built = if threads == 8 { w.build_spread(8, 2, scale) } else { w.build(threads, scale) };
    (cfg, built)
}

/// Functional equivalence + golden verification for one build.
fn check_functional(w: &dyn Workload, built: &Built, threads: usize) {
    let what = format!("{} x{threads}", w.name());
    let mut oracle = FuncSim::new(&built.program, threads).with_engine(EngineMode::Interp);
    let mut blocks = FuncSim::new(&built.program, threads).with_engine(EngineMode::Block);
    let ra = oracle.run_to_completion(BUDGET).unwrap_or_else(|e| panic!("{what} interp: {e}"));
    let rb = blocks.run_to_completion(BUDGET).unwrap_or_else(|e| panic!("{what} block: {e}"));
    assert_eq!(ra, rb, "{what}: run summaries diverged");
    assert_eq!(oracle.mem, blocks.mem, "{what}: final memory diverged");
    (built.verifier)(&oracle).unwrap_or_else(|m| panic!("{what}: interp result bad: {m}"));
    (built.verifier)(&blocks).unwrap_or_else(|m| panic!("{what}: block result bad: {m}"));
}

/// Timing-layer equivalence for one build on one machine and driver.
fn check_system(
    w: &dyn Workload,
    cfg: &SystemConfig,
    built: &Built,
    threads: usize,
    driver: DriverMode,
) {
    let what = format!("{} on {} x{threads} {driver:?}", w.name(), cfg.name);
    let run = |engine: EngineMode| {
        let mut sys = System::new(cfg.clone(), &built.program, threads)
            .with_driver(driver)
            .with_engine(engine);
        let result = sys.run(BUDGET).unwrap_or_else(|e| panic!("{what} {engine:?}: {e}"));
        (built.verifier)(sys.funcsim()).unwrap_or_else(|m| panic!("{what} {engine:?}: {m}"));
        let mem = sys.funcsim().mem.clone();
        (result, mem)
    };
    let (res_i, mem_i) = run(EngineMode::Interp);
    let (res_b, mem_b) = run(EngineMode::Block);
    assert_eq!(res_i, res_b, "{what}: SimResults diverged across engines");
    assert_eq!(mem_i, mem_b, "{what}: final memory diverged across engines");
}

/// Golden results at every thread count under both engines, plus one
/// timing pair per kernel. Debug-build sized; the full driver matrix is
/// the `#[ignore]`d test below.
#[test]
fn irregular_kernels_agree_across_engines() {
    for w in irregular_suite() {
        for threads in [1usize, 2, 4, 8] {
            let (cfg, built) = built_on(w, threads, Scale::Test);
            check_functional(w, &built, threads);
            if threads == 4 {
                check_system(w, &cfg, &built, threads, DriverMode::EventDriven);
            }
        }
    }
}

/// Full acceptance matrix: 4 kernels x 1/2/4/8 threads x both drivers,
/// byte-identical `SimResult`s and final memory between engines.
#[test]
#[ignore = "release-mode CI step: 4 kernels x 4 thread counts x 2 drivers x 2 engines"]
fn irregular_kernels_full_matrix() {
    for w in irregular_suite() {
        for threads in [1usize, 2, 4, 8] {
            let (cfg, built) = built_on(w, threads, Scale::Test);
            check_functional(w, &built, threads);
            for driver in [DriverMode::EventDriven, DriverMode::CycleByCycle] {
                check_system(w, &cfg, &built, threads, driver);
            }
        }
    }
}

/// The strict lint bar: zero diagnostics of any severity from the static
/// verifier, at both test scales — and zero allow annotations to lean on
/// (any `vlint.allow.*` symbol in an irregular kernel is itself a
/// failure).
#[test]
fn irregular_kernels_strict_verify_clean_with_zero_allows() {
    for w in irregular_suite() {
        for threads in [1, 2, w.max_threads()] {
            for scale in [Scale::Test, Scale::Small] {
                let built = w.build(threads, scale);
                for sym in built.program.symbols.keys() {
                    assert!(
                        !sym.starts_with("vlint.allow."),
                        "{} x{threads}: carries allow annotation `{sym}`",
                        w.name()
                    );
                }
                let report = verify(&built.program);
                assert!(
                    report.diags.is_empty(),
                    "{} x{threads} {scale:?}: {} diagnostics:\n{report}",
                    w.name(),
                    report.diags.len()
                );
                assert_eq!(report.diags.iter().filter(|d| d.severity == Severity::Warn).count(), 0);
            }
        }
    }
}

/// Static race analysis: clean at every flat thread count, with no allow
/// symbols to suppress anything (checked above).
#[test]
fn irregular_kernels_statically_race_clean() {
    for w in irregular_suite() {
        for threads in [1, 2, 4] {
            let built = w.build(threads, Scale::Test);
            let report = check_races(&built.program, threads);
            assert!(
                report.diags.is_empty(),
                "{} t={threads}: {} race diagnostics:\n{}",
                w.name(),
                report.diags.len(),
                report.diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
            );
            assert_eq!(report.suppressed, 0, "{} t={threads}: suppressions", w.name());
        }
    }
}

/// Dynamic race checking cross-validated against the static prediction:
/// every kernel runs clean under the barrier-epoch checker with the
/// static predictor installed (an unpredicted dynamic conflict aborts a
/// debug build inside the checker).
#[test]
fn irregular_kernels_run_clean_under_race_checker() {
    for w in irregular_suite() {
        for threads in [1, 2, 4] {
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
                "{} t={threads}: intra-epoch conflicts: {:?}",
                w.name(),
                rc.conflicts()
            );
        }
    }
}

/// The static DLP walk must stay exact on every irregular kernel (the
/// data-dependent addressing steers through memory the analyzer models)
/// and reproduce the functional run's operation profile bit for bit.
#[test]
fn irregular_kernels_dlp_exact_and_bit_accurate() {
    for w in irregular_suite() {
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{}: static walk went inexact: {:?}", w.name(), p.notes);
        let mut sim = FuncSim::new(&built.program, 1);
        assert_eq!(p.total, sim.run_to_completion(BUDGET).unwrap(), "{}", w.name());
        // All four kernels vectorize their hot loops.
        assert!(p.total.pct_vectorization() > 5.0, "{}", w.name());
    }
}
