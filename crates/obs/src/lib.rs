#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # vlt-obs — the observability layer
//!
//! Turns the [`vlt_core::SimObserver`] spine into a full observability
//! stack without touching the timing model:
//!
//! * [`MetricsObserver`] — publishes counters and fixed-bucket histograms
//!   (vector lengths per region, bank conflicts per bank, barrier-wait
//!   distributions per thread, repartition drain latencies, per-region
//!   stall-cause breakdowns) into a [`vlt_stats::MetricsRegistry`],
//!   serialized as versioned JSON by `vlt-stats`;
//! * [`PerfettoObserver`] — records a Chrome-trace / Perfetto timeline
//!   (`trace.json`): per-thread barrier-wait slices, per-partition vector
//!   issues, per-bank L2 activity, barrier epochs as async spans, and
//!   repartitions as instant events;
//! * [`CpiObserver`] — per-region, per-barrier-epoch, and whole-run CPI
//!   stacks: top-down cycle attribution per unit with an exact
//!   conservation invariant (components sum to the measured budget),
//!   the causal layer `vlt prof --whatif` cross-checks against;
//! * [`Multi`] — a composite adapter that fans every hook out to several
//!   observers so metrics, tracing, and CPI stacks share one simulation
//!   pass.
//!
//! Observing a run leaves it byte-identical to an unobserved one
//! (enforced by `tests/equivalence.rs`).

pub mod cpi;
pub mod metrics;
pub mod multi;
pub mod perfetto;

pub use cpi::CpiObserver;
pub use metrics::MetricsObserver;
pub use multi::Multi;
pub use perfetto::PerfettoObserver;
