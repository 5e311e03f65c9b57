//! Functional-simulation errors.

use std::fmt;

/// Errors raised by the functional simulator.
///
/// The machine is deliberately forgiving about data accesses (reads of
/// unmapped memory return zero, writes allocate), matching the flat physical
/// memory of the simulated system; only control-flow escapes are fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment (fell off the end, jumped wild).
    BadPc {
        /// Faulting thread.
        tid: usize,
        /// The wild program counter.
        pc: u64,
    },
    /// An instruction-count budget was exhausted before all threads halted
    /// (almost always an infinite loop in a workload kernel).
    Budget {
        /// Instructions executed when the budget ran out.
        executed: u64,
    },
    /// `vltcfg` with an operand that is not a valid threads × clusters
    /// encoding (see `vlt_isa::vltcfg`): thread count not 1, 2, 4, or 8,
    /// cluster count not 0, 1, 2, 4, or 8, more clusters than threads, or
    /// reserved bits set.
    BadVltCfg {
        /// Faulting thread.
        tid: usize,
        /// The rejected raw register value.
        threads: u64,
    },
    /// `setvl` request of zero (would make vector ops no-ops silently).
    ZeroVl {
        /// Faulting thread.
        tid: usize,
        /// PC of the offending `setvl`.
        pc: u64,
    },
    /// A vector instruction on a machine without a vector unit (the CMP/CMT
    /// baselines, VLT scalar-thread mode). Raised by the timing simulator's
    /// fetch; the functional simulator executes vector code on any machine.
    NoVectorUnit {
        /// Faulting thread.
        tid: usize,
        /// PC of the vector instruction.
        pc: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadPc { tid, pc } => {
                write!(f, "thread {tid}: PC {pc:#x} outside text segment")
            }
            ExecError::Budget { executed } => {
                write!(f, "instruction budget exhausted after {executed} instructions")
            }
            ExecError::BadVltCfg { tid, threads } => {
                write!(f, "thread {tid}: vltcfg with invalid operand {threads:#x}")
            }
            ExecError::ZeroVl { tid, pc } => {
                write!(f, "thread {tid}: setvl of 0 at {pc:#x}")
            }
            ExecError::NoVectorUnit { tid, pc } => write!(
                f,
                "thread {tid}: vector instruction at {pc:#x} on a machine without a vector unit"
            ),
        }
    }
}

impl std::error::Error for ExecError {}
