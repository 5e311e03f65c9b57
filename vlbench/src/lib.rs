//! `vlbench`: the simulator's host-time benchmark.
//!
//! Four workloads (see [`points::Bench`]) each run a fixed point list in a
//! seed-shuffled order, one simulation at a time on one thread: an untimed
//! warm-up pass, timed passes filling the run's seconds, and optionally one
//! traced pass. Every point-run is checked against golden models, the stall
//! conservation invariants and the exact results in `expected.json`. The
//! benchmark reaches the simulator only through its public API.

pub mod exec;
pub mod expected;
pub mod host;
pub mod points;
pub mod record;
pub mod rng;
pub mod run;
pub mod stats;
pub mod synth;
pub mod trace;

use std::path::PathBuf;

/// The benchmark package's directory (where `expected.json` lives).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}
