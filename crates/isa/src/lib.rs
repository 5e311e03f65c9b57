#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-isa — the instruction set of the VLT vector processor
//!
//! A from-scratch, Cray-X1-flavoured vector ISA used by the Vector Lane
//! Threading (ICPP 2006) reproduction. The ISA defines:
//!
//! * 32 integer scalar registers (`x0`..`x31`, `x0` hardwired to zero),
//! * 32 floating-point scalar registers (`f0`..`f31`),
//! * 32 vector registers (`v0`..`v31`) of [`MAX_VL`] 64-bit elements,
//! * a vector-length register (`vl`) and a single vector-mask register (`vm`),
//! * the `vltcfg` instruction the paper adds for Vector Lane Threading
//!   (associates the running thread group with a lane partition), and
//! * a `barrier` instruction used by the SPMD threading runtime.
//!
//! All instructions encode to a fixed 32-bit word ([`encode()`]) and a two-pass
//! assembler ([`asm`]) turns readable kernels into [`Program`]s.
//!
//! ```
//! use vlt_isa::asm::assemble;
//! let prog = assemble(r#"
//!     .text
//!     li      x1, 64
//!     setvl   x2, x1          # vl = min(64, MVL)
//!     vid     v1              # v1 = [0, 1, 2, ...]
//!     vadd.vv v2, v1, v1      # v2 = v1 + v1
//!     halt
//! "#).unwrap();
//! assert_eq!(prog.text.len(), 5);
//! ```

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod error;
pub mod inst;
pub mod opcode;
pub mod program;
pub mod reg;
pub mod vltcfg;

pub use disasm::disasm;
pub use encode::{decode, encode};
pub use error::IsaError;
pub use inst::Inst;
pub use opcode::{Effect, Format, Op, OpClass, OperandSig, RegField, VMemPattern};
pub use program::{
    access_regions, Program, DATA_BASE, READ_SLACK, STACK_BASE, STACK_END, STACK_SIZE, TEXT_BASE,
};
pub use reg::{FReg, IReg, RegRef, VReg};

/// Maximum hardware vector length: elements per vector register when a single
/// thread owns all lanes (Cray X1: 32 vector registers x 64 64-bit elements).
pub const MAX_VL: usize = 64;
/// Number of integer scalar registers.
pub const NUM_IREGS: usize = 32;
/// Number of floating-point scalar registers.
pub const NUM_FREGS: usize = 32;
/// Number of architectural vector registers.
pub const NUM_VREGS: usize = 32;
