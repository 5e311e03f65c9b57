//! `histo` — histogram build + vectorized permutation scatter
//! (irregular suite).
//!
//! A counting sort written the way the paper's applications thread: each
//! thread histograms its slice of the keys into a *private* bucket block
//! (data-dependent read-modify-writes steered by the key image), thread 0
//! turns the per-thread histograms into exclusive starting offsets in
//! `(bucket, thread)` order, and each thread then ranks its keys through
//! its private offset block and retires them with a `vstx` permutation
//! scatter.
//!
//! Keys are stored pre-scaled by 8 (bucket byte offsets), so bucket
//! indexing and the final scatter need no shifts in the hot loops.
//!
//! Verification interest: the scatter's destinations come through memory
//! (the rank scratch), steered by offsets another thread wrote, so every
//! thread's destinations may span all of `out`. The race walk certifies
//! it: the threads' destination sets within the epoch are disjoint
//! pieces of one permutation of `out`. Zero allows.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_dwords, expect_u64s, read_u64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Histo;

const SEED: u64 = 0x415C;

fn dims(scale: Scale) -> (usize, usize) {
    // (keys, buckets); keys divide by 8.
    match scale {
        Scale::Test => (512, 64),
        Scale::Small => (4096, 256),
        Scale::Full => (16384, 256),
    }
}

/// Keys as bucket *byte offsets*: `bucket * 8` for a random bucket.
fn keys(n: usize, buckets: usize) -> Vec<u64> {
    rng_stream(SEED, n).iter().map(|&k| (k % buckets as u64) * 8).collect()
}

/// Per-thread bucket counts, thread-major (`hist[t * buckets + b]`).
fn golden_hist(n: usize, buckets: usize, threads: usize) -> Vec<u64> {
    let ks = keys(n, buckets);
    let per = n / threads;
    let mut h = vec![0u64; threads * buckets];
    for (i, &k) in ks.iter().enumerate() {
        h[(i / per) * buckets + k as usize / 8] += 1;
    }
    h
}

/// The scatter result: scatter order is `(bucket, thread, in-slice
/// index)`, and thread slices are contiguous in original order, so the
/// output is exactly the stable sort of the keys.
fn golden_out(n: usize, buckets: usize) -> Vec<u64> {
    let mut ks = keys(n, buckets);
    ks.sort();
    ks
}

/// The kernel source (exposed so the lint driver can regenerate it).
pub fn source(threads: usize, clusters: usize, scale: Scale) -> String {
    let (n, buckets) = dims(scale);
    assert!(n.is_multiple_of(threads), "keys must divide across threads");
    let vltcfg = crate::common::vltcfg_operand(threads, clusters);
    format!(
        r#"
        .eq vlint.threads, {threads}
        .data
    {keys_data}
    hist:
        .zero {hbytes}
    offs:
        .zero {hbytes}
    rank:
        .zero {nbytes}
    out:
        .zero {nbytes}
        .text
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        nthr    x19
        li      x11, {keys_per_thread}
        mul     x12, x10, x11      # i0
        add     x13, x12, x11      # i_end
        la      x20, keys
        la      x22, hist
        la      x23, offs
        la      x26, out
        la      x27, rank
        # private bucket blocks: hist/offs + tid * buckets * 8
        li      x5, {bbytes}
        mul     x5, x10, x5
        add     x24, x22, x5       # my hist block
        add     x25, x23, x5       # my offs block

        # ---- phase 1: private histogram (bounded data-dependent RMW) ----
        region  1
        slli    x5, x12, 3
        add     x5, x5, x20        # &keys[i]
        mv      x4, x12
    count:
        ld      x6, 0(x5)          # key (bucket byte offset)
        add     x7, x24, x6
        ld      x8, 0(x7)
        addi    x8, x8, 1
        sd      x8, 0(x7)
        addi    x5, x5, 8
        addi    x4, x4, 1
        blt     x4, x13, count
        region  0
        barrier

        # ---- phase 2 (thread 0): exclusive prefix in (bucket, thread)
        # order; `offs` values are byte offsets into `out` ----
        bnez    x10, merge_done
        li      x5, 0              # bucket byte index
        li      x6, 0              # running offset (bytes)
    merge_b:
        li      x7, 0              # thread
    merge_t:
        li      x8, {bbytes}
        mul     x9, x7, x8
        add     x9, x9, x5
        add     x15, x22, x9       # &hist[t][b]
        add     x16, x23, x9       # &offs[t][b]
        sd      x6, 0(x16)
        ld      x17, 0(x15)
        slli    x17, x17, 3
        add     x6, x6, x17
        addi    x7, x7, 1
        blt     x7, x19, merge_t
        addi    x5, x5, 8
        li      x8, {bucketbytes}
        blt     x5, x8, merge_b
    merge_done:
        barrier

        # ---- phase 3a: rank my keys through my private offset block ----
        region  1
        slli    x5, x12, 3
        add     x5, x5, x20        # &keys[i]
        slli    x9, x12, 3
        add     x9, x9, x27        # &rank[i]
        mv      x4, x12
    rankloop:
        ld      x6, 0(x5)
        add     x7, x25, x6        # my offs slot for this bucket
        ld      x8, 0(x7)
        sd      x8, 0(x9)          # rank[i] = destination byte offset
        addi    x8, x8, 8
        sd      x8, 0(x7)
        addi    x5, x5, 8
        addi    x9, x9, 8
        addi    x4, x4, 1
        blt     x4, x13, rankloop

        # ---- phase 3b: vectorized permutation scatter ----
        slli    x5, x12, 3
        add     x5, x5, x20        # key cursor
        slli    x9, x12, 3
        add     x9, x9, x27        # rank cursor
        mv      x4, x12
    scatter:
        sub     x8, x13, x4
        setvl   x2, x8
        vld     v1, x5             # keys
        vld     v2, x9             # destination byte offsets
        vstx    v1, x26, v2        # out[rank] = key
        add     x4, x4, x2
        slli    x8, x2, 3
        add     x5, x5, x8
        add     x9, x9, x8
        blt     x4, x13, scatter
        region  0
        barrier
        halt
    "#,
        keys_data = data_dwords("keys", &keys(n, buckets)),
        hbytes = 8 * buckets * threads,
        nbytes = 8 * n,
        bbytes = 8 * buckets,
        bucketbytes = 8 * buckets,
        keys_per_thread = n / threads,
    )
}

impl Workload for Histo {
    fn name(&self) -> &'static str {
        "histo"
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
            description: "histogram + permutation scatter (irregular suite)",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let (n, buckets) = dims(scale);
        let src = source(threads, clusters, scale);
        let program = assemble(&src).unwrap_or_else(|e| panic!("histo: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            expect_u64s(&read_u64s(sim, "out", n), &golden_out(n, buckets), "histo out")?;
            expect_u64s(
                &read_u64s(sim, "hist", threads * buckets),
                &golden_hist(n, buckets, threads),
                "histo hist",
            )
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Histo.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Histo.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn golden_out_is_sorted_and_conserves_keys() {
        let (n, buckets) = dims(Scale::Test);
        let g = golden_out(n, buckets);
        assert!(g.windows(2).all(|w| w[0] <= w[1]));
        let mut ks = keys(n, buckets);
        ks.sort();
        assert_eq!(g, ks);
    }

    #[test]
    fn hist_counts_sum_to_n() {
        let (n, buckets) = dims(Scale::Test);
        for threads in [1, 4, 8] {
            let h = golden_hist(n, buckets, threads);
            assert_eq!(h.iter().sum::<u64>(), n as u64);
        }
    }
}
