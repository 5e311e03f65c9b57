#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # vlt-core — Vector Lane Threading
//!
//! The paper's primary contribution: a multi-lane vector unit whose lanes
//! can be **partitioned across threads** (VLT), plus the full-system timing
//! simulator that composes it with the scalar units and memory hierarchy.
//!
//! * [`VuConfig`] / [`VectorUnit`] — the vector control logic (VIQ, window,
//!   2-way out-of-order issue) and the lanes (3 arithmetic datapaths + 2
//!   memory ports each). With `threads > 1`, the lanes, register file, VIQ,
//!   window, and issue bandwidth are statically partitioned (paper §3.2).
//! * [`SystemConfig`] — named design points: `base`, `V2-SMT`, `V2-CMP`,
//!   `V2-CMP-h`, `V4-SMT`, `V4-CMT`, `V4-CMP`, `V4-CMP-h`, the `CMT`
//!   scalar baseline, and VLT scalar-thread mode on the lanes (§4–§5).
//! * [`System`] — the machine: scalar units, vector unit or lane cores,
//!   shared L2, SPMD barriers, and per-region cycle attribution.
//!
//! ```no_run
//! use vlt_core::{System, SystemConfig};
//! use vlt_isa::asm::assemble;
//!
//! let prog = assemble("li x1, 8\nsetvl x2, x1\nvid v1\nhalt\n").unwrap();
//! let result = System::new(SystemConfig::base(8), &prog, 1).run(1_000_000).unwrap();
//! println!("{} cycles", result.cycles);
//! ```

pub mod config;
pub mod result;
pub mod system;
pub mod vu;

pub use config::{IdealizeConfig, SystemConfig, VclConfig};
pub use result::{SimError, SimResult, Utilization};
pub use system::{
    CycleView, DriverMode, NullObserver, RepartitionEvent, SimObserver, System, Work,
};
pub use vlt_exec::EngineMode;
pub use vlt_mem::{NetConfig, NetStats};
pub use vlt_scalar::{CpiStack, StallBreakdown, StallCause};
pub use vu::{VecIssue, VectorUnit, VuConfig};
