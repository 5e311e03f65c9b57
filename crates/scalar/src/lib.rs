#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-scalar — scalar-unit timing models
//!
//! Two core models drive the evaluation:
//!
//! * [`OooCore`] — the scalar unit (SU) of the vector processor: a wide-issue
//!   out-of-order superscalar with branch prediction, a unified instruction
//!   window + ROB, L1 caches, and optional 2-way SMT (paper §2, §4.1,
//!   Table 3). It fetches *both* scalar and vector instructions; vector
//!   instructions are dispatched to the vector unit through the
//!   [`VectorSink`] trait and tracked in the ROB for in-order retirement.
//! * [`InOrderCore`] — a vector lane re-engineered as a 2-way in-order
//!   processor with a 4 KB I-cache for VLT scalar threads (paper §5).
//!
//! Both consume the correct-path dynamic instruction stream of
//! [`vlt_exec::FuncSim`] through the [`FetchSource`] trait; branch
//! mispredictions charge a front-end redirect penalty (DESIGN.md §8).

pub mod config;
pub mod cpi;
pub mod inorder;
pub mod ooo;
pub mod predictor;
pub mod stall;
pub mod traits;

pub use config::{CoreConfig, LaneCoreConfig};
pub use cpi::CpiStack;
pub use inorder::InOrderCore;
pub use ooo::{CoreStats, OooCore};
pub use predictor::Predictor;
pub use stall::{StallBreakdown, StallCause};
pub use traits::{
    fold_event, thread_bit, DepSet, FetchResult, FetchSource, NullVectorSink, VecDispatch,
    VecToken, VectorSink, MAX_SRCS,
};
