//! `sweep` — multi-sweep vertical stencil over a permuted row schedule
//! (irregular suite).
//!
//! Four Jacobi-style sweeps over an `f64` grid with ping-ponged
//! source/destination buffers. Each sweep updates every interior row as
//! `0.25 * (above + 2*mid + below)`, vectorized across columns — but the
//! rows are *not* walked in order: a schedule table in `.data` holds
//! pre-scaled row byte offsets, permuted within each thread's contiguous
//! row block (the visit order a tiling or NUMA-aware scheduler would
//! produce).
//!
//! Verification interest: the destination addresses are loaded from
//! memory, and the rows are visited in scrambled order. The race walk
//! certifies the kernel: in every epoch each thread writes only its own
//! row block. Zero allows.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_doubles, data_dwords, expect_f64s, read_f64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Sweep;

const SEED: u64 = 0x53EE;
const SWEEPS: usize = 4;
/// Finest partition granularity: the schedule permutes rows only within
/// each eighth of the interior, so every thread count in {1,2,4,8} gets
/// contiguous (if scrambled) row blocks.
const GROUPS: usize = 8;

fn dims(scale: Scale) -> (usize, usize) {
    // (interior rows, columns); interior rows divide by 8.
    match scale {
        Scale::Test => (16, 64),
        Scale::Small => (64, 128),
        Scale::Full => (128, 256),
    }
}

fn init_val(r: usize, c: usize) -> f64 {
    ((3 * r + 5 * c) % 17) as f64
}

fn grid(rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols).map(|x| init_val(x / cols, x % cols)).collect()
}

/// The row schedule: byte offsets of the interior rows (1..=irows),
/// Fisher-Yates-shuffled within each of the [`GROUPS`] equal blocks.
fn schedule(irows: usize, cols: usize) -> Vec<u64> {
    let mut perm: Vec<u64> = (1..=irows as u64).collect();
    let per = irows / GROUPS;
    let rnd = rng_stream(SEED, irows);
    for g in 0..GROUPS {
        let block = &mut perm[g * per..(g + 1) * per];
        for i in (1..block.len()).rev() {
            block.swap(i, rnd[g * per + i] as usize % (i + 1));
        }
    }
    perm.into_iter().map(|r| r * 8 * cols as u64).collect()
}

/// Replay the sweeps: row visit order never matters (rows are independent
/// within a sweep), but the per-element operation order must match the
/// kernel bit for bit: `((above + below) + mid + mid) * 0.25`.
fn golden(irows: usize, cols: usize) -> Vec<f64> {
    let rows = irows + 2;
    let mut a = grid(rows, cols);
    let mut b = a.clone();
    for _ in 0..SWEEPS {
        for r in 1..=irows {
            for c in 0..cols {
                let s = ((a[(r - 1) * cols + c] + a[(r + 1) * cols + c])
                    + a[r * cols + c]
                    + a[r * cols + c])
                    * 0.25;
                b[r * cols + c] = s;
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// The kernel source (exposed so the lint driver can regenerate it).
pub fn source(threads: usize, clusters: usize, scale: Scale) -> String {
    let (irows, cols) = dims(scale);
    assert!(irows.is_multiple_of(threads), "interior rows must divide across threads");
    let vltcfg = crate::common::vltcfg_operand(threads, clusters);
    let rows = irows + 2;
    format!(
        r#"
        .eq vlint.threads, {threads}
        .data
    {ga_data}
    {gb_data}
    {sched_data}
    qconst:
        .double 0.25
        .text
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        li      x11, {rows_per_thread}
        mul     x12, x10, x11      # j0 (schedule index)
        add     x13, x12, x11      # j_end
        la      x20, ga            # src
        la      x21, gb            # dst
        la      x22, sched
        la      x23, qconst
        fld     f1, 0(x23)
        li      x26, 0             # sweep
    sweeploop:
        region  1
        mv      x4, x12            # j
    rowloop:
        slli    x5, x4, 3
        add     x5, x5, x22
        ld      x6, 0(x5)          # row byte offset (from the schedule)
        add     x7, x20, x6        # src row
        add     x8, x21, x6        # dst row
        li      x9, {rowbytes}
        sub     x15, x7, x9        # src row above
        add     x16, x7, x9        # src row below
        li      x17, {cols}
        li      x5, 0              # columns done
    colloop:
        sub     x18, x17, x5
        setvl   x2, x18
        vld     v1, x15            # above
        vld     v2, x7             # mid
        vld     v3, x16            # below
        vfadd.vv v4, v1, v3
        vfadd.vv v4, v4, v2
        vfadd.vv v4, v4, v2
        vfmul.vs v4, v4, f1
        vst     v4, x8
        slli    x18, x2, 3
        add     x15, x15, x18
        add     x7, x7, x18
        add     x16, x16, x18
        add     x8, x8, x18
        add     x5, x5, x2
        blt     x5, x17, colloop
        addi    x4, x4, 1
        blt     x4, x13, rowloop
        region  0
        barrier
        # ping-pong the buffers
        mv      x5, x20
        mv      x20, x21
        mv      x21, x5
        addi    x26, x26, 1
        slti    x5, x26, {sweeps}
        bnez    x5, sweeploop
        halt
    "#,
        ga_data = data_doubles("ga", &grid(rows, cols)),
        gb_data = data_doubles("gb", &grid(rows, cols)),
        sched_data = data_dwords("sched", &schedule(irows, cols)),
        rows_per_thread = irows / threads,
        rowbytes = 8 * cols,
        cols = cols,
        sweeps = SWEEPS,
    )
}

impl Workload for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
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
            description: "multi-sweep stencil, permuted row schedule (irregular suite)",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let (irows, cols) = dims(scale);
        let src = source(threads, clusters, scale);
        let program = assemble(&src).unwrap_or_else(|e| panic!("sweep: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            // SWEEPS is even, so the final interior lands back in `ga`.
            let n = (irows + 2) * cols;
            expect_f64s(&read_f64s(sim, "ga", n), &golden(irows, cols), "sweep ga")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Sweep.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Sweep.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn schedule_is_a_blockwise_permutation() {
        let (irows, cols) = dims(Scale::Test);
        let s = schedule(irows, cols);
        assert_eq!(s.len(), irows);
        // Every interior row appears exactly once...
        let mut rows: Vec<u64> = s.iter().map(|&b| b / (8 * cols as u64)).collect();
        rows.sort();
        assert_eq!(rows, (1..=irows as u64).collect::<Vec<_>>());
        // ...and stays inside its group's contiguous row block.
        let per = irows / GROUPS;
        for (i, &b) in s.iter().enumerate() {
            let r = (b / (8 * cols as u64)) as usize;
            let g = i / per;
            assert!(r > g * per && r < 1 + (g + 1) * per, "row {r} escaped group {g}");
        }
        // It is actually scrambled, not the identity.
        let ident: Vec<u64> = (1..=irows as u64).map(|r| r * 8 * cols as u64).collect();
        assert_ne!(s, ident);
    }

    #[test]
    fn golden_boundaries_never_move() {
        let (irows, cols) = dims(Scale::Test);
        let g = golden(irows, cols);
        for c in 0..cols {
            assert_eq!(g[c], init_val(0, c));
            assert_eq!(g[(irows + 1) * cols + c], init_val(irows + 1, c));
        }
    }
}
