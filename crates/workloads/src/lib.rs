#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-workloads — the applications of the paper's evaluation
//!
//! Nine SPMD kernels reproducing the *structure* of the applications in
//! Table 4 — the same algorithmic skeletons, vector-length profiles,
//! vectorization fractions, and threading opportunity — written in the VLT
//! ISA and verified against golden Rust implementations:
//!
//! | name       | structure                           | profile            |
//! |------------|-------------------------------------|--------------------|
//! | `mxm`      | dense matrix multiply               | long VL (64)       |
//! | `sage`     | hydrodynamics-style stencil sweeps  | long VL (64)       |
//! | `mpenc`    | video encoding (block SAD search)   | VL 8/16/64         |
//! | `trfd`     | triangular two-electron transform   | VL 4/20/30/35      |
//! | `multprec` | multiprecision array arithmetic     | VL 23/24/64        |
//! | `bt`       | 5x5 block-tridiagonal kernels       | VL 5/10/12         |
//! | `radix`    | parallel LSD radix sort             | scalar (6% vect)   |
//! | `ocean`    | Jacobi relaxation on a grid         | scalar parallel    |
//! | `barnes`   | N-body with irregular walks         | scalar parallel    |
//!
//! Each workload builds at a chosen thread count and [`Scale`]; the
//! returned [`Built`] bundles the program with a verifier that replays the
//! exact arithmetic in Rust and compares the final memory image.
//!
//! Alongside the nine Table-4 applications, an **irregular suite**
//! ([`irregular_suite`]) of four gather/scatter-heavy kernels exercises
//! the race walk on data-dependent addressing, which the verifier must
//! certify without any `vlint.allow.*` annotation:
//!
//! | name       | structure                              | data-dependent accesses          |
//! |------------|----------------------------------------|----------------------------------|
//! | `spmv`     | CSR sparse matrix-vector product       | row-pointer-steered gathers      |
//! | `histo`    | histogram + permutation scatter        | scatter through rank offsets     |
//! | `hashjoin` | hash build + vectorized indexed probe  | masked gathers through hashes    |
//! | `sweep`    | multi-sweep stencil, permuted schedule | row stores through a schedule    |
//!
//! The epoch-synchronous observed walk certifies all four: it runs each
//! barrier epoch concretely and finds every thread's writes clear of the
//! bytes the other threads touch in that epoch.

pub mod characterize;
pub mod common;
pub mod suite;

pub mod barnes;
pub mod bt;
pub mod mpenc;
pub mod multprec;
pub mod mxm;
pub mod ocean;
pub mod radix;
pub mod sage;
pub mod trfd;

pub mod hashjoin;
pub mod histo;
pub mod spmv;
pub mod sweep;

pub use common::{Built, Scale};
pub use suite::{irregular_source, irregular_suite, suite, workload, PaperRow, Workload};
