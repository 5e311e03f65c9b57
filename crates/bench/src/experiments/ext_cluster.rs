//! Extension study (DESIGN.md §11): multi-cluster ultra-wide VLT. A
//! monolithic vector machine keeps getting wider lanes, but short-vector
//! applications cannot fill them; VLT over *clustered* lanes (8 threads
//! spread across 2/4/8 clusters of 8 lanes) keeps every cluster busy at
//! the cost of replicated control logic and an inter-cluster network. At
//! each total width (16/32/64 lanes) we compare the 8-thread clustered
//! machine against the same-width single-thread base processor, and price
//! both with the Table 1 area model extended with router ports.
//!
//! The VLT side runs on a clustered config, so the suite runner builds it
//! with [`vlt_workloads::Workload::build_spread`]: the hierarchical
//! `vltcfg` operand raises per-thread MVL to `8 * clusters`, which is what
//! makes 8 VLT threads viable (fixed-VL phases like bt's 10/12-element
//! relaxation need MVL >= 12, impossible under the flat encoding's
//! `64 / 8 = 8`).

use vlt_area::{v8_clustered_area, AreaModel};
use vlt_core::SystemConfig;
use vlt_stats::{Experiment, Series};
use vlt_workloads::{workload, Scale};

use crate::harness::{run_suite_parallel, RunSpec, SuiteError};

use super::fig3::APPS;

/// Total-lane sweep as cluster counts (8 lanes per cluster).
pub const CLUSTERS: [usize; 3] = [2, 4, 8];

/// Per app and cluster count: the same-width base x1, then the clustered
/// VLT machine x8.
fn specs(scale: Scale) -> Vec<RunSpec> {
    APPS.iter()
        .flat_map(|name| {
            let w = workload(name).unwrap();
            CLUSTERS.iter().flat_map(move |&c| {
                [(SystemConfig::base(8 * c), 1), (SystemConfig::v8_clustered(c), 8)]
                    .map(|(config, threads)| RunSpec { workload: w, config, threads, scale })
            })
        })
        .collect()
}

/// Run the ultra-wide VLT-vs-monolithic comparison at 16/32/64 lanes.
pub fn run(scale: Scale) -> Result<Experiment, SuiteError> {
    let mut e = Experiment::new(
        "ext_cluster",
        "Extension: 8-thread clustered VLT vs the same-width monolithic base",
        "V8-CMT-{c}x8 speedup over same-width base",
    );
    let x: Vec<String> = CLUSTERS.iter().map(|c| format!("{} lanes ({c}x8)", 8 * c)).collect();

    let results = run_suite_parallel(specs(scale))?;

    let per_app = 2 * CLUSTERS.len();
    for (i, name) in APPS.iter().enumerate() {
        let mut speedups = Vec::with_capacity(CLUSTERS.len());
        for j in 0..CLUSTERS.len() {
            let base = &results[i * per_app + 2 * j];
            let vlt = &results[i * per_app + 2 * j + 1];
            // Multi-cluster runs must carry network statistics — enforced
            // here so the full suite cannot silently lose the network.
            let net = vlt.mem.net.as_ref().expect("clustered run lost its network stats");
            assert!(net.transfers > 0, "{name}: no traffic crossed the cluster network");
            speedups.push(base.cycles as f64 / vlt.cycles as f64);
        }
        e.push(Series::new(*name, &x, speedups));
    }

    // Area pricing: the clustered machine replicates VCLs and adds router
    // ports but shares the scalar units and L2; the monolithic base grows
    // only lanes. Both curves in mm² for the area-efficiency comparison.
    let m = AreaModel::default();
    e.push(Series::new(
        "area: monolithic base (mm^2)",
        &x,
        CLUSTERS.iter().map(|&c| m.base_processor(8 * c)).collect(),
    ));
    e.push(Series::new(
        "area: clustered VLT (mm^2)",
        &x,
        CLUSTERS.iter().map(|&c| v8_clustered_area(&m, 8, c)).collect(),
    ));
    Ok(e)
}
