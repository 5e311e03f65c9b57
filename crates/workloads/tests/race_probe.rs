//! Developer probe: dump the static race report and its wall time for
//! every workload (no asserts, `#[ignore]`d by default). Run it when a
//! kernel change makes a report non-empty, or to time the analysis:
//!
//! ```text
//! cargo test -p vlt-workloads --test race_probe -- --ignored --nocapture
//! PROBE_ONLY=radix cargo test -p vlt-workloads --test race_probe -- --ignored --nocapture
//! ```
//!
//! Note: the reports here are final verdicts. Symbolic candidates show
//! only when the observed walk refuses to certify the program (a real
//! race, a fault, or a walk past its step budget); a report is
//! *post-allow*, so a suppressed code counts under "suppressed".

use vlt_verify::check_races;
use vlt_workloads::{suite, Scale};

#[test]
#[ignore]
fn probe() {
    let filter = std::env::var("PROBE_ONLY").ok();
    for w in suite() {
        if let Some(f) = &filter {
            if w.name() != f {
                continue;
            }
        }
        for threads in [2, w.max_threads()] {
            let built = w.build(threads, Scale::Test);
            let t0 = std::time::Instant::now();
            let report = check_races(&built.program, threads);
            let dt = t0.elapsed();
            println!(
                "=== {} x{threads} ({} diags, {} suppressed, {:?})",
                w.name(),
                report.diags.len(),
                report.suppressed,
                dt
            );
            let mut by_code = std::collections::BTreeMap::new();
            for d in &report.diags {
                *by_code.entry(format!("{}", d.code)).or_insert(0u32) += 1;
            }
            for (c, n) in by_code {
                println!("  CODE {c} {n}");
            }
            for d in report.diags.iter().take(12) {
                println!("  {d}");
            }
        }
    }
}
