//! Workload characterization — the measured side of Table 4.
//!
//! A functional replay yields the operation-level counts (its
//! [`RunSummary`], from which % vectorization, average vector length and
//! common VLs derive); a timed run on the base processor yields the %
//! opportunity (fraction of execution time inside `region` markers, which
//! tag each workload's VLT-eligible parallel phases).

use vlt_core::{System, SystemConfig};
use vlt_exec::{FuncSim, RunSummary};

use crate::common::Scale;
use crate::suite::Workload;

/// Measured Table 4 row.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Workload name.
    pub name: &'static str,
    /// The functional replay's counts.
    pub summary: RunSummary,
    /// Measured % opportunity (cycles in marked regions on base timing).
    pub opportunity: f64,
}

/// Characterize one workload at the given scale (single-threaded, as the
/// paper measures the original application on the base processor).
pub fn characterize(w: &dyn Workload, scale: Scale) -> Result<Characterization, String> {
    let built = w.build(1, scale);

    // Functional metrics.
    let mut sim = FuncSim::new(&built.program, 1);
    let summary = sim.run_to_completion(2_000_000_000).map_err(|e| e.to_string())?;
    (built.verifier)(&sim)?;

    // Timed opportunity on the base 8-lane processor.
    let mut system = System::new(SystemConfig::base(8), &built.program, 1);
    let result = system.run(2_000_000_000).map_err(|e| e.to_string())?;

    Ok(Characterization { name: w.name(), summary, opportunity: result.opportunity() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::workload;

    #[test]
    fn mxm_is_highly_vectorized() {
        let s = characterize(workload("mxm").unwrap(), Scale::Test).unwrap().summary;
        assert!(s.pct_vectorization() > 85.0, "mxm: {:.1}%", s.pct_vectorization());
        assert!(s.avg_vl() > 60.0, "mxm avg VL: {:.1}", s.avg_vl());
        assert_eq!(s.common_vls(4)[0], 64);
    }

    #[test]
    fn bt_is_half_vectorized_with_short_vls() {
        let s = characterize(workload("bt").unwrap(), Scale::Test).unwrap().summary;
        assert!(
            (30.0..65.0).contains(&s.pct_vectorization()),
            "bt should be ~46% vectorized: {:.1}%",
            s.pct_vectorization()
        );
        assert!(s.avg_vl() < 12.0, "bt avg VL: {:.1}", s.avg_vl());
        assert!(s.common_vls(4).contains(&5));
    }

    #[test]
    fn radix_is_barely_vectorized() {
        let c = characterize(workload("radix").unwrap(), Scale::Test).unwrap();
        let pct = c.summary.pct_vectorization();
        assert!(pct < 25.0, "radix: {pct:.1}%");
        assert!(c.opportunity > 60.0, "radix opportunity: {:.1}%", c.opportunity);
    }

    #[test]
    fn ocean_and_barnes_have_no_vectors() {
        for name in ["ocean", "barnes"] {
            let c = characterize(workload(name).unwrap(), Scale::Test).unwrap();
            assert_eq!(c.summary.pct_vectorization(), 0.0, "{name}");
            assert!(c.opportunity > 75.0, "{name} opportunity: {:.1}%", c.opportunity);
        }
    }

    #[test]
    fn trfd_has_table4_vls() {
        let c = characterize(workload("trfd").unwrap(), Scale::Test).unwrap();
        for vl in c.summary.common_vls(3) {
            assert!([4usize, 20, 30, 35].contains(&vl), "unexpected VL {vl}");
        }
        let avg_vl = c.summary.avg_vl();
        assert!((15.0..30.0).contains(&avg_vl), "trfd avg VL: {avg_vl:.1}");
        assert!(c.opportunity > 85.0, "trfd opportunity: {:.1}%", c.opportunity);
    }
}
