//! Causal-profiling soundness: the stall attribution is an *upper bound*
//! on what removing the attributed component can buy. For every
//! idealization knob, the measured cycle gain from turning it on must
//! not exceed the cycles the faithful run attributed to the matching
//! [`StallCause`] — otherwise the taxonomy undercounts that cause and
//! `vlt prof --whatif` would report realizations above 100%.
//!
//! And the knobs must be honest in both directions: all-off is
//! byte-identical to a config that never mentions idealization, while
//! each single knob really does change timing on a workload that
//! stresses its component.

use vlt_core::{IdealizeConfig, SimResult, StallCause, System, SystemConfig};
use vlt_workloads::{workload, Scale};

const MAX: u64 = 2_000_000_000;

/// Run `name` at `threads` on `cfg`, verifying the memory image.
fn run(name: &str, cfg: SystemConfig, threads: usize) -> SimResult {
    let built = workload(name).unwrap().build(threads, Scale::Test);
    let mut sys = System::new(cfg, &built.program, threads);
    let r = sys.run(MAX).unwrap();
    (built.verifier)(sys.funcsim()).unwrap_or_else(|e| panic!("{name}: verify failed: {e}"));
    r.check_stall_conservation().unwrap_or_else(|e| panic!("{name}: {e}"));
    r
}

/// `(kernel, config, threads)` pairs that exercise each idealizable
/// cause: spmv's gather traffic for the L2 bank knob, the clustered
/// machine for the network knob, histo's reduction rendezvous for the
/// barrier knob, and sweep's issue pressure for the issue-width knob.
fn cases_for(cause: StallCause) -> Vec<(&'static str, SystemConfig, usize)> {
    // First entry is the kernel that stresses the cause hardest — the
    // liveness test below flips the knob on that one.
    let stressor = match cause {
        StallCause::NetworkContention => {
            return vec![
                ("spmv", SystemConfig::v8_clustered(2), 4),
                ("mxm", SystemConfig::v8_clustered(2), 4),
            ];
        }
        StallCause::BarrierWait => "histo",
        StallCause::IssueWidth => "sweep",
        _ => "spmv",
    };
    let mut cases = vec![(stressor, SystemConfig::v4_cmp(), 4)];
    for name in ["spmv", "mxm", "sweep"] {
        if name != stressor {
            cases.push((name, SystemConfig::v4_cmp(), 4));
        }
    }
    cases
}

/// For every knob and stressing kernel: measured gain ≤ attributed
/// cycles. Idealizations may even *slow* a run (removing one queue can
/// expose another), so the gain saturates at zero — a slowdown trivially
/// satisfies the bound but must still verify.
#[test]
fn whatif_gain_never_exceeds_attribution() {
    for cause in StallCause::ALL {
        let Some(ideal) = IdealizeConfig::for_cause(cause) else { continue };
        for (name, cfg, threads) in cases_for(cause) {
            let base = run(name, cfg.clone(), threads);
            let mut icfg = cfg.clone();
            icfg.ideal = ideal;
            let idealized = run(name, icfg, threads);
            let gain = base.cycles.saturating_sub(idealized.cycles);
            let attributed = base.stalls().get(cause);
            assert!(
                gain <= attributed,
                "{name} on {} ({}): idealizing bought {gain} cycles but only {attributed} \
                 were attributed — the stall taxonomy undercounts this cause",
                cfg.name,
                cause.name(),
            );
        }
    }
}

/// With every knob off the timing model is untouched: an explicitly
/// defaulted `IdealizeConfig` is byte-identical to the stock config.
#[test]
fn idealizations_off_change_nothing() {
    assert!(!IdealizeConfig::default().any());
    let cfg = SystemConfig::v4_cmp();
    let mut explicit = cfg.clone();
    explicit.ideal = IdealizeConfig::default();
    let a = run("spmv", cfg, 4);
    let b = run("spmv", explicit, 4);
    assert_eq!(a, b, "explicitly-default idealization perturbed the run");
}

/// Each knob is live: on a kernel that stresses its component, flipping
/// it changes the stall profile (removing the targeted cause entirely or
/// shifting cycles elsewhere), so the what-if comparison measures a real
/// mechanism rather than a no-op flag.
#[test]
fn each_knob_changes_the_stall_profile() {
    for cause in StallCause::ALL {
        let Some(ideal) = IdealizeConfig::for_cause(cause) else { continue };
        let (name, cfg, threads) = cases_for(cause).remove(0);
        let base = run(name, cfg.clone(), threads);
        let mut icfg = cfg.clone();
        icfg.ideal = ideal;
        let idealized = run(name, icfg, threads);
        assert!(
            base.stalls() != idealized.stalls() || base.cycles != idealized.cycles,
            "{name} on {}: idealizing {} left timing and stalls untouched",
            cfg.name,
            cause.name(),
        );
    }
}
