#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-stats — reporting utilities for the experiment harness
//!
//! * [`table::Table`] — aligned ASCII tables matching the paper's layout,
//! * [`report`] — machine-readable per-experiment records (JSON), written
//!   next to the text output so EXPERIMENTS.md can be regenerated and
//!   diffed.

pub mod json;
pub mod metrics;
pub mod report;
pub mod table;

pub use metrics::{Histogram, MetricsRegistry, METRICS_SCHEMA_VERSION};
pub use report::{Experiment, Series};
pub use table::Table;
