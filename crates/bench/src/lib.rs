#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§7), per
//! extension study, and for the ablations of DESIGN.md §4, each producing
//! a [`vlt_stats::Experiment`] record (or a [`vlt_stats::Table`]) plus an
//! ASCII table. The `vlt repro` subcommand of the root crate's `vlt`
//! binary runs them:
//!
//! ```text
//! cargo run --release --bin vlt -- repro fig1       # lane-count scaling
//! cargo run --release --bin vlt -- repro table1     # component areas
//! cargo run --release --bin vlt -- repro table2     # VLT area overheads
//! cargo run --release --bin vlt -- repro table3     # base configuration echo
//! cargo run --release --bin vlt -- repro table4     # workload characteristics
//! cargo run --release --bin vlt -- repro fig3       # VLT vector-thread speedup
//! cargo run --release --bin vlt -- repro fig4       # datapath utilization
//! cargo run --release --bin vlt -- repro fig5       # SU design space
//! cargo run --release --bin vlt -- repro fig6       # scalar threads on lanes
//! cargo run --release --bin vlt -- repro ablations  # DESIGN.md §4, in cycles
//! cargo run --release --bin vlt -- advise           # static DLP advisor
//! cargo run --release --bin vlt -- repro all        # everything
//! ```
//!
//! Every experiment writes `results/<id>.json` with measured *and* paper
//! values, which EXPERIMENTS.md summarizes. The records hold simulated
//! outcomes only; the simulator's host time is vlbench's to measure.

pub mod experiments;
pub mod harness;

pub use harness::{
    missing_result_files, results_dir, run_built, run_suite_parallel, RunSpec, SuiteError,
    EXPECTED_RESULTS,
};
