//! `spmv` — sparse matrix-vector product in CSR form (irregular suite).
//!
//! `y = A * x` over the wrapping `u64` (+, *) semiring. `A` is stored as
//! textbook CSR with one twist that matches the machine: the row-pointer
//! and column-index arrays hold *byte offsets* (pre-scaled by 8), so the
//! kernel indexes with plain adds and the `vldx` gather consumes the
//! column vector directly. Rows are block-partitioned across threads; the
//! per-row nonzero run is walked in `setvl`-sized chunks — unit-stride
//! loads of the column offsets and values, an indexed gather of `x`, a
//! `vmul.vv`/`vredsum` dot-product accumulation.
//!
//! Verification interest: the gather's addresses are data-dependent
//! (loaded column offsets) and the CSR cursors come from the row-pointer
//! image. The race walk certifies the kernel: in every epoch each thread
//! writes only its own rows of `y`, which no other thread reads — no
//! `vlint.allow.*` anywhere.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_dwords, expect_u64s, read_u64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Spmv;

const SEED: u64 = 0x5134;

/// Deterministic CSR instance: `rowptr` (byte offsets into `colidx` /
/// `vals`, length `rows + 1`), `colidx` (byte offsets into `x`), `vals`.
fn csr(rows: usize, cols: usize, max_nnz: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let counts = rng_stream(SEED, rows);
    let nnz: Vec<usize> = counts.iter().map(|&c| 1 + (c as usize % max_nnz)).collect();
    let total: usize = nnz.iter().sum();
    let mut rowptr = Vec::with_capacity(rows + 1);
    let mut off = 0u64;
    for &k in &nnz {
        rowptr.push(off * 8);
        off += k as u64;
    }
    rowptr.push(off * 8);
    let colidx: Vec<u64> =
        rng_stream(SEED ^ 0xC01, total).iter().map(|&c| (c % cols as u64) * 8).collect();
    let vals = rng_stream(SEED ^ 0x7A1, total);
    (rowptr, colidx, vals)
}

fn xvec(cols: usize) -> Vec<u64> {
    rng_stream(SEED ^ 0x0EC, cols)
}

fn golden(rows: usize, cols: usize, max_nnz: usize) -> Vec<u64> {
    let (rowptr, colidx, vals) = csr(rows, cols, max_nnz);
    let x = xvec(cols);
    (0..rows)
        .map(|r| {
            let (s, e) = (rowptr[r] as usize / 8, rowptr[r + 1] as usize / 8);
            (s..e).fold(0u64, |acc, k| {
                acc.wrapping_add(vals[k].wrapping_mul(x[colidx[k] as usize / 8]))
            })
        })
        .collect()
}

fn dims(scale: Scale) -> (usize, usize, usize) {
    // (rows, cols, max nonzeros per row); rows divide by 8, and the total
    // nonzero count stays within the content analysis' fold window.
    match scale {
        Scale::Test => (32, 64, 8),
        Scale::Small => (192, 128, 16),
        Scale::Full => (512, 512, 16),
    }
}

/// The kernel source (exposed so the lint driver can regenerate it).
pub fn source(threads: usize, clusters: usize, scale: Scale) -> String {
    let (rows, cols, max_nnz) = dims(scale);
    assert!(rows.is_multiple_of(threads), "rows must divide across threads");
    let vltcfg = crate::common::vltcfg_operand(threads, clusters);
    let (rowptr, colidx, vals) = csr(rows, cols, max_nnz);
    format!(
        r#"
        .eq vlint.threads, {threads}
        .data
    {rowptr_data}
    {colidx_data}
    {vals_data}
    {x_data}
    y:
        .zero {ybytes}
        .text
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        li      x11, {rows_per_thread}
        mul     x12, x10, x11      # r
        add     x13, x12, x11      # r_end
        la      x20, rowptr
        la      x21, colidx
        la      x22, vals
        la      x23, x
        la      x24, y
        region  1
    rowloop:
        slli    x5, x12, 3
        add     x5, x5, x20
        ld      x6, 0(x5)          # run start (byte offset)
        ld      x7, 8(x5)          # run end
        li      x16, 0             # dot accumulator
    nnzloop:
        sub     x8, x7, x6
        srli    x8, x8, 3
        setvl   x2, x8             # vl = min(remaining, mvl)
        add     x9, x21, x6
        vld     v1, x9             # column byte offsets
        add     x9, x22, x6
        vld     v2, x9             # matrix values
        vldx    v3, x23, v1        # gather x[col]
        vmul.vv v4, v2, v3
        vredsum x15, v4
        add     x16, x16, x15
        slli    x17, x2, 3
        add     x6, x6, x17
        blt     x6, x7, nnzloop
        slli    x5, x12, 3
        add     x5, x5, x24
        sd      x16, 0(x5)         # y[r]
        addi    x12, x12, 1
        blt     x12, x13, rowloop
        region  0
        barrier
        halt
    "#,
        rowptr_data = data_dwords("rowptr", &rowptr),
        colidx_data = data_dwords("colidx", &colidx),
        vals_data = data_dwords("vals", &vals),
        x_data = data_dwords("x", &xvec(cols)),
        ybytes = 8 * rows,
        rows_per_thread = rows / threads,
    )
}

impl Workload for Spmv {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn vectorizable(&self) -> bool {
        true
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: None,
            avg_vl: None,
            common_vls: &[],
            opportunity: None,
            description: "CSR sparse matrix-vector product (irregular suite)",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let (rows, cols, max_nnz) = dims(scale);
        let src = source(threads, clusters, scale);
        let program = assemble(&src).unwrap_or_else(|e| panic!("spmv: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            expect_u64s(&read_u64s(sim, "y", rows), &golden(rows, cols, max_nnz), "spmv y")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Spmv.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Spmv.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn csr_is_well_formed() {
        let (rows, cols, max_nnz) = dims(Scale::Test);
        let (rowptr, colidx, vals) = csr(rows, cols, max_nnz);
        assert_eq!(rowptr.len(), rows + 1);
        assert_eq!(colidx.len(), vals.len());
        assert_eq!(*rowptr.last().unwrap() as usize, 8 * colidx.len());
        // Every row has at least one nonzero (the kernel's inner loop
        // requires a nonempty run — `setvl 0` is an architectural error).
        for w in rowptr.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Column offsets are in-bounds, 8-aligned byte offsets.
        for &c in &colidx {
            assert!(c % 8 == 0 && (c as usize) < 8 * cols);
        }
    }

    #[test]
    fn golden_spot_check() {
        let (rows, cols, max_nnz) = dims(Scale::Test);
        let (rowptr, colidx, vals) = csr(rows, cols, max_nnz);
        let x = xvec(cols);
        let g = golden(rows, cols, max_nnz);
        let r = rows / 2;
        let manual = (rowptr[r] as usize / 8..rowptr[r + 1] as usize / 8)
            .fold(0u64, |a, k| a.wrapping_add(vals[k].wrapping_mul(x[colidx[k] as usize / 8])));
        assert_eq!(g[r], manual);
    }
}
