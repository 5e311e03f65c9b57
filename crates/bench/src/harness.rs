//! Shared experiment-runner infrastructure.
//!
//! Simulations are single-threaded and deterministic; independent runs fan
//! out across a bounded worker pool (`available_parallelism` OS threads
//! pulling specs from a shared queue). Failures — simulation errors,
//! golden-model verification mismatches, or stall-cause books that do not
//! balance — propagate to the caller as [`SuiteError`]s instead of
//! panicking inside a worker.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use vlt_core::{SimError, SimResult, System, SystemConfig};
use vlt_workloads::{Built, Scale, Workload};

/// Default cycle budget per simulation.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Where JSON records land: `results/` under the working directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Every figure/table record the full suite must leave in [`results_dir`].
/// `vlt repro all` checks this set after writing and exits nonzero when
/// one is absent — a silently-skipped experiment would otherwise look like
/// a passing suite.
pub const EXPECTED_RESULTS: [&str; 16] = [
    "irregular_stalls",
    "table1",
    "table2",
    "table3",
    "table4",
    "table4_static",
    "table4_dynamic",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ext_lanes",
    "ext_chaining",
    "ext_cluster",
    "ablations",
];

/// The expected result records missing from `dir`, as `<id>.json` names
/// (empty when the suite output is complete).
pub fn missing_result_files(dir: &Path) -> Vec<String> {
    EXPECTED_RESULTS
        .iter()
        .map(|id| format!("{id}.json"))
        .filter(|f| !dir.join(f).is_file())
        .collect()
}

/// A failed run within a suite: which run, and what went wrong.
#[derive(Debug)]
pub enum SuiteError {
    /// The timing simulation itself errored (exec fault or cycle timeout).
    Sim {
        /// `"<workload> on <config> x<threads>"`.
        run: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// The run finished but the memory image failed golden verification,
    /// or its stall-cause attribution does not conserve.
    Verify {
        /// `"<workload> on <config> x<threads>"`.
        run: String,
        /// The verifier's mismatch report.
        message: String,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Sim { run, source } => write!(f, "simulation failed on {run}: {source}"),
            SuiteError::Verify { run, message } => {
                write!(f, "verification failed on {run}: {message}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// Run one built workload on a configuration, verifying the memory image
/// and the stall-cause conservation of the result. `label` names the
/// workload in error messages.
pub fn run_built(
    cfg: SystemConfig,
    built: &Built,
    threads: usize,
    label: &str,
) -> Result<SimResult, SuiteError> {
    let run = format!("{label} on {} x{threads}", cfg.name);
    let mut system = System::new(cfg, &built.program, threads);
    let result =
        system.run(MAX_CYCLES).map_err(|source| SuiteError::Sim { run: run.clone(), source })?;
    (built.verifier)(system.funcsim())
        .and_then(|()| result.check_stall_conservation())
        .map_err(|message| SuiteError::Verify { run, message })?;
    Ok(result)
}

/// `(workload, threads, clusters, scale)`: what a build depends on.
type BuildKey = (&'static str, usize, usize, Scale);

/// One simulation to schedule: a workload at a thread count on a config.
/// The program is built with its `vltcfg` spread over the config's
/// clusters ([`Workload::build_spread`]); on a one-cluster config that is
/// the flat [`Workload::build`].
pub struct RunSpec {
    /// Workload to build.
    pub workload: &'static dyn Workload,
    /// Configuration to run on.
    pub config: SystemConfig,
    /// Software threads.
    pub threads: usize,
    /// Problem scale.
    pub scale: Scale,
}

impl RunSpec {
    /// The build-memoization key: two specs with the same key produce
    /// identical [`Built`]s (workload builders are pure functions of
    /// `(threads, clusters, scale)`), so the suite runner builds each key
    /// once.
    fn build_key(&self) -> BuildKey {
        (self.workload.name(), self.threads, self.config.clusters, self.scale)
    }

    fn build(&self) -> Built {
        self.workload.build_spread(self.threads, self.config.clusters, self.scale)
    }

    fn execute(&self, built: &Built) -> Result<SimResult, SuiteError> {
        run_built(self.config.clone(), built, self.threads, self.workload.name())
    }
}

/// Execute all specs on a bounded worker pool, preserving spec order in the
/// result vector. The pool never spawns more than `available_parallelism`
/// OS threads (and never more than there are specs); the first failure (in
/// spec order) is returned after all in-flight work drains.
///
/// Builds are memoized by `(workload, threads, clusters, scale)` and shared
/// across the pool via `Arc`: a config sweep over one workload
/// (the common suite shape) assembles the program once instead of once per
/// config. Builds happen up front on the calling thread — they are cheap
/// (assembly) next to the simulations they feed.
pub fn run_suite_parallel(specs: Vec<RunSpec>) -> Result<Vec<SimResult>, SuiteError> {
    if specs.is_empty() {
        return Ok(Vec::new());
    }
    let workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(specs.len());

    let mut cache: HashMap<BuildKey, Arc<Built>> = HashMap::new();
    let builds: Vec<Arc<Built>> = specs
        .iter()
        .map(|s| Arc::clone(cache.entry(s.build_key()).or_insert_with(|| Arc::new(s.build()))))
        .collect();

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<SimResult, SuiteError>)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let specs = &specs;
            let builds = &builds;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                if tx.send((i, spec.execute(&builds[i]))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<Result<SimResult, SuiteError>>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("worker pool filled every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_exec::ExecError;
    use vlt_workloads::{workload, PaperRow};

    #[test]
    fn suite_preserves_spec_order() {
        // More specs than any sane worker count, with distinguishable
        // configs, to check index-preserving collection.
        let w = workload("radix").unwrap();
        let specs: Vec<RunSpec> = [1usize, 2, 4, 8, 1, 2, 4, 8]
            .iter()
            .map(|&lanes| RunSpec {
                workload: w,
                config: SystemConfig::base(lanes),
                threads: 1,
                scale: Scale::Test,
            })
            .collect();
        let lane_counts: Vec<usize> = specs.iter().map(|s| s.config.lanes).collect();
        let results = run_suite_parallel(specs).expect("suite runs");
        assert_eq!(results.len(), 8);
        // Same workload, same config ⇒ deterministic ⇒ identical cycles.
        for (i, j) in [(0usize, 4usize), (1, 5), (2, 6), (3, 7)] {
            assert_eq!(lane_counts[i], lane_counts[j]);
            assert_eq!(results[i].cycles, results[j].cycles, "slot {i} vs {j}");
        }
    }

    /// The Table 4 row of a test double: no paper data.
    fn no_paper_row(description: &'static str) -> PaperRow {
        PaperRow { pct_vect: None, avg_vl: None, common_vls: &[], opportunity: None, description }
    }

    #[test]
    fn suite_memoizes_builds_across_configs() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        struct Counting;
        impl Workload for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn vectorizable(&self) -> bool {
                false
            }
            fn paper_row(&self) -> PaperRow {
                no_paper_row("build-counting test double")
            }
            fn build_spread(
                &self,
                threads: usize,
                _clusters: usize,
                scale: Scale,
            ) -> vlt_workloads::Built {
                BUILDS.fetch_add(1, Ordering::Relaxed);
                workload("radix").unwrap().build(threads, scale)
            }
        }
        static COUNTING: Counting = Counting;

        // Four configs over the same (workload, threads, scale): one build.
        let specs: Vec<RunSpec> = [1usize, 2, 4, 8]
            .iter()
            .map(|&lanes| RunSpec {
                workload: &COUNTING,
                config: SystemConfig::base(lanes),
                threads: 1,
                scale: Scale::Test,
            })
            .collect();
        let results = run_suite_parallel(specs).expect("suite runs");
        assert_eq!(results.len(), 4);
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1, "identical specs must share one build");
    }

    #[test]
    fn committed_results_are_complete() {
        let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let missing = missing_result_files(&committed);
        assert!(
            missing.is_empty(),
            "results/ is missing {missing:?} — run `cargo run --release --bin vlt -- repro all` and commit"
        );
    }

    #[test]
    fn missing_results_are_reported() {
        let empty = std::env::temp_dir().join("vlt-no-results-here");
        let missing = missing_result_files(&empty);
        assert_eq!(missing.len(), EXPECTED_RESULTS.len());
        assert!(missing.contains(&"table3.json".to_string()));
    }

    #[test]
    fn empty_suite_is_ok() {
        assert!(run_suite_parallel(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn failures_are_reported_not_panicked() {
        // A workload that requests a zero vector length faults in the
        // functional layer. Run among passing specs, the pool must hand
        // back the first failing spec's fault in spec order instead of
        // panicking in a worker.
        struct ZeroVl;
        impl Workload for ZeroVl {
            fn name(&self) -> &'static str {
                "zero-vl"
            }
            fn vectorizable(&self) -> bool {
                true
            }
            fn paper_row(&self) -> PaperRow {
                no_paper_row("faulting test double")
            }
            fn build_spread(&self, _threads: usize, _clusters: usize, _scale: Scale) -> Built {
                let program = vlt_isa::asm::assemble("li x1, 0\nsetvl x2, x1\nhalt\n").unwrap();
                Built { program, verifier: Box::new(|_| Ok(())) }
            }
        }
        static ZERO_VL: ZeroVl = ZeroVl;

        let radix = workload("radix").unwrap();
        let spec = |workload: &'static dyn Workload, config| RunSpec {
            workload,
            config,
            threads: 1,
            scale: Scale::Test,
        };
        let specs = vec![
            spec(radix, SystemConfig::base(8)),
            spec(&ZERO_VL, SystemConfig::v2_cmp()),
            spec(radix, SystemConfig::base(8)),
            spec(&ZERO_VL, SystemConfig::v4_cmp()),
        ];
        match run_suite_parallel(specs) {
            Err(SuiteError::Sim { run, source: SimError::Exec(ExecError::ZeroVl { .. }) }) => {
                assert_eq!(run, "zero-vl on V2-CMP x1")
            }
            other => panic!("expected the V2-CMP run's zero-vl fault, got {other:?}"),
        }
    }
}
