//! Stall-cause profiles for the four irregular kernels (ROADMAP item 3:
//! beyond the paper's Table 4 suite, where does an irregular,
//! gather/scatter-heavy program actually lose its cycles?).
//!
//! Each kernel runs at 4 VLT threads on `V4-CMT` and its machine-wide
//! stall attribution ([`SimResult::stalls`], the same breakdown `vlt prof`
//! prints) is normalized to percentage shares — one series per kernel,
//! one column per [`StallCause`]. The suite runner checks every run's
//! exact conservation invariant before the shares are reported, so a
//! profile that doesn't add up fails the experiment instead of skewing the
//! record.

use vlt_core::{SimResult, StallCause, SystemConfig};
use vlt_stats::{Experiment, Series};
use vlt_workloads::{irregular_suite, Scale};

use crate::harness::{run_built, SuiteError};

/// VLT threads per run (the irregular kernels' full partition count).
pub const THREADS: usize = 4;

/// Run the sweep: one normalized stall profile per irregular kernel.
pub fn run(scale: Scale) -> Result<Experiment, SuiteError> {
    let x: Vec<String> = StallCause::ALL.iter().map(|c| c.name().to_string()).collect();
    let mut e = Experiment::new(
        "irregular_stalls",
        "Irregular kernels — stall-cause composition (V4-CMT, 4 threads)",
        "% of attributed stall cycles",
    );
    for w in irregular_suite() {
        let built = w.build(THREADS, scale);
        let result = run_built(SystemConfig::v4_cmt(), &built, THREADS, w.name())?;
        e.push(Series::new(w.name(), &x, shares(&result)));
    }
    Ok(e)
}

/// A result's stall breakdown as percentage shares over all causes.
fn shares(result: &SimResult) -> Vec<f64> {
    let stalls = result.stalls();
    let total = stalls.total().max(1) as f64;
    StallCause::ALL.iter().map(|&c| 100.0 * stalls.get(c) as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_kernels_and_sum_to_100() {
        let e = run(Scale::Test).expect("irregular kernels profile cleanly");
        assert_eq!(e.series.len(), 4);
        for s in &e.series {
            assert_eq!(s.x.len(), StallCause::ALL.len());
            let sum: f64 = s.values.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "{}: shares sum to {sum}", s.label);
        }
    }
}
