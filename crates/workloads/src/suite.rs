//! The workload registry and the Table 4 reference data.

use crate::common::{Built, Scale};

/// The paper's Table 4 row for a workload (reference values to reproduce).
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRow {
    /// "% Vect": percentage of operations that are vector element ops.
    pub pct_vect: Option<f64>,
    /// "Avg VL": average vector length.
    pub avg_vl: Option<f64>,
    /// "Common VLs".
    pub common_vls: &'static [u16],
    /// "% Opportunity": fraction of base execution time VLT can accelerate.
    pub opportunity: Option<f64>,
    /// Paper description column.
    pub description: &'static str,
}

/// One of the nine applications.
pub trait Workload: Sync {
    /// Table 4 name.
    fn name(&self) -> &'static str;

    /// True if the main loops vectorize (false for radix/ocean/barnes).
    fn vectorizable(&self) -> bool;

    /// The paper's reference characteristics.
    fn paper_row(&self) -> PaperRow;

    /// Build the SPMD program for `threads` threads at `scale` using the
    /// legacy flat `vltcfg` encoding (equivalent to
    /// [`build_spread`](Workload::build_spread) with one cluster).
    ///
    /// Vector workloads accept 1, 2, or 4 threads (the VLT partitions);
    /// scalar workloads accept 1..=8.
    fn build(&self, threads: usize, scale: Scale) -> Built {
        self.build_spread(threads, 1, scale)
    }

    /// Build the SPMD program with its `vltcfg` spread over `clusters`
    /// lane clusters (the hierarchical packed encoding). `clusters <= 1`
    /// emits the flat legacy operand — bit-identical to
    /// [`build`](Workload::build). Spreading over `clusters >= 2` raises
    /// the per-thread MVL to `64 * clusters / threads`, which is what lets
    /// vector workloads run at 8 VLT threads on an ultra-wide machine
    /// (fixed-VL phases up to 16 elements need MVL >= 16). Scalar
    /// workloads ignore the spread — they configure no vector state.
    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built;

    /// Maximum thread count this workload parallelizes to.
    fn max_threads(&self) -> usize {
        if self.vectorizable() {
            4
        } else {
            8
        }
    }
}

/// All nine workloads, in Table 4 order.
///
/// ```
/// let names: Vec<&str> = vlt_workloads::suite().iter().map(|w| w.name()).collect();
/// assert_eq!(names.len(), 9);
/// assert_eq!(names[0], "mxm");
/// ```
pub fn suite() -> Vec<&'static dyn Workload> {
    vec![
        &crate::mxm::Mxm,
        &crate::sage::Sage,
        &crate::mpenc::Mpenc,
        &crate::trfd::Trfd,
        &crate::multprec::Multprec,
        &crate::bt::Bt,
        &crate::radix::Radix,
        &crate::ocean::Ocean,
        &crate::barnes::Barnes,
    ]
}

/// The four irregular kernels: gather/scatter-heavy SPMD programs whose
/// data-dependent addressing the race walk must certify without any
/// `vlint.allow.*` annotation. Kept out of [`suite`] — they are
/// verification workloads, not Table 4 rows.
pub fn irregular_suite() -> Vec<&'static dyn Workload> {
    vec![&crate::spmv::Spmv, &crate::histo::Histo, &crate::hashjoin::HashJoin, &crate::sweep::Sweep]
}

/// Regenerate an irregular kernel's assembly source by name (the lint
/// driver feeds these straight to `vlt lint`). `None` for unknown names —
/// the Table 4 workloads are not exposed this way.
pub fn irregular_source(
    name: &str,
    threads: usize,
    clusters: usize,
    scale: Scale,
) -> Option<String> {
    match name {
        "spmv" => Some(crate::spmv::source(threads, clusters, scale)),
        "histo" => Some(crate::histo::source(threads, clusters, scale)),
        "hashjoin" => Some(crate::hashjoin::source(threads, clusters, scale)),
        "sweep" => Some(crate::sweep::source(threads, clusters, scale)),
        _ => None,
    }
}

/// Look up a workload by name, searching the Table 4 suite and then the
/// irregular suite.
pub fn workload(name: &str) -> Option<&'static dyn Workload> {
    suite().into_iter().chain(irregular_suite()).find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nine_in_table4_order() {
        let names: Vec<&str> = suite().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            ["mxm", "sage", "mpenc", "trfd", "multprec", "bt", "radix", "ocean", "barnes"]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload("mxm").is_some());
        assert!(workload("spmv").is_some());
        assert!(workload("nope").is_none());
    }

    #[test]
    fn irregular_suite_has_four_vector_kernels() {
        let names: Vec<&str> = irregular_suite().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["spmv", "histo", "hashjoin", "sweep"]);
        for w in irregular_suite() {
            assert!(w.vectorizable(), "{}", w.name());
            assert!(irregular_source(w.name(), 2, 1, Scale::Test).is_some(), "{}", w.name());
        }
        assert!(irregular_source("mxm", 1, 1, Scale::Test).is_none());
    }

    #[test]
    fn vectorizability_matches_table4() {
        for w in suite() {
            let expect = !matches!(w.name(), "radix" | "ocean" | "barnes");
            assert_eq!(w.vectorizable(), expect, "{}", w.name());
            assert_eq!(w.max_threads(), if expect { 4 } else { 8 });
        }
    }

    #[test]
    fn paper_rows_match_table4() {
        let get = |n: &str| workload(n).unwrap().paper_row();
        assert_eq!(get("mxm").pct_vect, Some(96.0));
        assert_eq!(get("sage").avg_vl, Some(63.8));
        assert_eq!(get("mpenc").common_vls, &[8, 16, 64]);
        assert_eq!(get("trfd").opportunity, Some(99.0));
        assert_eq!(get("multprec").pct_vect, Some(71.0));
        assert_eq!(get("bt").avg_vl, Some(7.0));
        assert_eq!(get("radix").pct_vect, Some(6.0));
        assert_eq!(get("ocean").pct_vect, None);
        assert_eq!(get("barnes").opportunity, Some(98.0));
    }

    /// A single-cluster spread is the same program as the flat build, byte
    /// for byte — the hierarchical path cannot perturb legacy binaries.
    #[test]
    fn single_cluster_spread_is_bit_identical() {
        for w in suite() {
            for threads in [1, w.max_threads()] {
                let flat = w.build(threads, Scale::Test).program;
                let spread = w.build_spread(threads, 1, Scale::Test).program;
                assert_eq!(flat.text, spread.text, "{} x{threads} text", w.name());
                assert_eq!(flat.data, spread.data, "{} x{threads} data", w.name());
            }
        }
    }

    /// The hierarchical spread restores enough MVL for ultra-wide VLT:
    /// every vector workload verifies functionally at 8 threads spread
    /// over 2 and 8 clusters (per-thread MVL 16 and 64).
    #[test]
    fn vector_workloads_verify_spread_at_eight_threads() {
        for w in suite().into_iter().filter(|w| w.vectorizable()) {
            for clusters in [2usize, 8] {
                let built = w.build_spread(8, clusters, Scale::Test);
                built
                    .run_functional(8, 80_000_000)
                    .unwrap_or_else(|e| panic!("{} x8 over {clusters}: {e}", w.name()));
            }
        }
    }

    /// Every workload runs functionally and verifies at Test scale, single
    /// thread and at its max thread count.
    #[test]
    fn all_workloads_verify_functionally() {
        for w in suite() {
            for threads in [1, w.max_threads()] {
                let built = w.build(threads, Scale::Test);
                built
                    .run_functional(threads, 80_000_000)
                    .unwrap_or_else(|e| panic!("{} x{threads}: {e}", w.name()));
            }
        }
    }
}
