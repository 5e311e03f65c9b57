#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-exec — the functional simulator
//!
//! Executes VLT-ISA programs with full architectural fidelity and produces
//! the *dynamic instruction stream* that drives the timing models
//! (functional-first, timing-replay — see DESIGN.md §1).
//!
//! * [`Memory`] — a sparse, paged byte-addressable memory image.
//! * [`ArchState`] — one thread's architectural state (scalar, FP, and
//!   vector registers; `vl`; the mask register; the VLT-partitioned
//!   maximum vector length).
//! * [`DecodedProgram`] — pre-decoded text with per-instruction defs/uses.
//! * [`FuncSim`] — a multi-threaded SPMD driver with `barrier` rendezvous;
//!   the timing models pull one [`DynInst`] at a time per thread.
//!
//! ```
//! use vlt_exec::FuncSim;
//! use vlt_isa::asm::assemble;
//!
//! let prog = assemble(r#"
//!     li   x1, 6
//!     li   x2, 7
//!     mul  x3, x1, x2
//!     halt
//! "#).unwrap();
//! let mut sim = FuncSim::new(&prog, 1);
//! sim.run_to_completion(10_000).unwrap();
//! assert_eq!(sim.thread(0).x[3], 42);
//! ```

pub mod arena;
pub mod block;
pub mod checker;
pub mod error;
pub mod funcsim;
pub mod interp;
pub mod memory;
pub mod program;
pub mod race;
pub mod state;
pub mod trace;

pub use arena::{AddrArena, AddrRange};
pub use block::BlockCache;
pub use checker::{CheckConfig, Checker, DynFault, FaultRecord};
pub use error::ExecError;
pub use funcsim::{EngineMode, FuncSim, RunSummary, Step};
pub use memory::Memory;
pub use program::{DecodedProgram, StaticInst};
pub use race::{RaceChecker, RaceConfig, RaceRecord, RaceSite};
pub use state::ArchState;
pub use trace::{DynInst, DynKind};
