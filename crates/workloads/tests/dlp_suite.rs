//! Static-vs-dynamic DLP validation over the nine Table-4 workloads.
//!
//! The static analyzer (`vlt_verify::dlp`) must reproduce the functional
//! simulator's operation-level Table-4 metrics within the paper-level
//! tolerances — average VL within 10%, % vectorization within 5 points,
//! identical most-common VL — and its partition advisor must pick the
//! empirically best flat VLTCFG for each kernel. The `#[ignore]`d
//! Full-scale test extends the bit-exact check to all 13 kernels at
//! 1/2/4/8 threads.

use vlt_exec::FuncSim;
use vlt_verify::dlp::{advise, analyze, DlpOptions};
use vlt_workloads::characterize::characterize;
use vlt_workloads::common::Scale;
use vlt_workloads::suite::{irregular_suite, suite};

#[test]
fn static_table4_matches_dynamic_for_all_kernels() {
    for w in suite() {
        let c = characterize(w, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{}: static walk went inexact: {:?}", w.name(), p.notes);

        // Exact walks must agree with the run bit for bit, but assert the
        // acceptance-level tolerances so the test states the contract.
        let (sp, dp) = (p.total.pct_vectorization(), c.summary.pct_vectorization());
        assert!(
            (sp - dp).abs() <= 5.0,
            "{}: pct vectorization static {sp:.2} vs dynamic {dp:.2}",
            w.name()
        );
        let (sa, da) = (p.total.avg_vl(), c.summary.avg_vl());
        let tol = (da * 0.10).max(1e-9);
        assert!(
            (sa - da).abs() <= tol || (sa == 0.0 && da == 0.0),
            "{}: avg VL static {sa:.2} vs dynamic {da:.2}",
            w.name()
        );
        assert_eq!(p.total.common_vls(1), c.summary.common_vls(1), "{}: most common VL", w.name());
        assert_eq!(p.total.insts, c.summary.insts, "{}: instruction count", w.name());
    }
}

#[test]
fn static_profile_is_bit_exact_against_funcsim() {
    for w in suite() {
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{}: {:?}", w.name(), p.notes);
        let mut sim = FuncSim::new(&built.program, 1);
        assert_eq!(p.total, sim.run_to_completion(2_000_000_000).unwrap(), "{}", w.name());
    }
}

/// All 13 kernels at Full scale and 1/2/4/8 threads, 8-thread vector
/// kernels spread over two clusters. Every exact profile's total equals the
/// functional simulator's `RunSummary`. The only inexact points are
/// radix and histo with more than one thread: another thread's keys steer
/// a scalar address (radix) or a vector index (histo), and their totals
/// are lower bounds. The walks are concrete, so this also pins their step
/// budget's headroom on the largest inputs. Too slow for a debug build;
/// CI runs it in release.
#[test]
#[ignore]
fn static_profile_matches_funcsim_at_full_scale() {
    for w in suite().into_iter().chain(irregular_suite()) {
        for threads in [1, 2, 4, 8] {
            let built = if threads > w.max_threads() {
                w.build_spread(threads, 2, Scale::Full)
            } else {
                w.build(threads, Scale::Full)
            };
            let at = format!("{} t={threads}", w.name());
            let p = analyze(&built.program, &DlpOptions { threads, ..DlpOptions::default() });
            let mut sim = FuncSim::new(&built.program, threads);
            let s = sim.run_to_completion(2_000_000_000).unwrap_or_else(|e| panic!("{at}: {e}"));
            let steered = threads > 1 && matches!(w.name(), "radix" | "histo");
            assert_eq!(p.exact, !steered, "{at}: {:?}", p.notes);
            let t = &p.total;
            if p.exact {
                assert_eq!(*t, s, "{at}");
            } else {
                assert!(t.insts <= s.insts, "{at}: insts {} vs {}", t.insts, s.insts);
                assert!(t.scalar_ops <= s.scalar_ops, "{at}");
                assert!(t.vector_insts <= s.vector_insts, "{at}");
                assert!(t.elem_ops <= s.elem_ops, "{at}");
                let mut hist = t.vl_histogram.iter().zip(s.vl_histogram.iter());
                assert!(hist.all(|(a, b)| a <= b), "{at}: VL histogram");
            }
        }
    }
}

#[test]
fn advisor_matches_empirically_best_partitions() {
    // Best flat VLTCFG per kernel, measured on the timing model (see
    // EXPERIMENTS.md): vector kernels keep >=1 lane of width headroom,
    // scalar-parallel kernels split all the way to 8 threads.
    let expected = [
        ("mpenc", 4),
        ("trfd", 4),
        ("multprec", 4),
        ("bt", 4),
        ("radix", 8),
        ("ocean", 8),
        ("barnes", 8),
    ];
    let mut hits = 0;
    let mut misses = Vec::new();
    for (name, best_t) in expected {
        let w = suite().into_iter().find(|w| w.name() == name).unwrap();
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{name}: {:?}", p.notes);
        let a = advise(&p);
        if a.best.threads == best_t {
            hits += 1;
        } else {
            misses.push(format!("{name}: advised {} want {best_t}", a.best.threads));
        }
    }
    assert!(
        hits >= expected.len(),
        "advisor missed {:?} ({hits}/{} right)",
        misses,
        expected.len()
    );
}
