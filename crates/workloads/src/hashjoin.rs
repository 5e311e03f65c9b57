//! `hashjoin` — partitioned hash-join build + vectorized indexed probe
//! (irregular suite).
//!
//! Both relations are pre-partitioned across threads. Each thread builds
//! a private direct-mapped hash table over its build slice (scalar
//! multiply-shift-mask hashing, collisions overwrite — a real
//! direct-mapped table), then probes its probe slice vectorized: hash the
//! probe keys with `vmul.vs`/`vsrl.vs`/`vand.vs`, gather the table slots
//! with `vldx`, compare with `vseq`, and `vmerge` a payload or zero into
//! the per-probe output. A `vpopc` per chunk accumulates the match count.
//!
//! Verification interest: the probe's gather indices are hashes of loaded
//! keys — arbitrary values — masked by `vand.vs` to byte offsets in
//! `[0, mask]`, which lands the gather inside the thread's own table
//! block. The race walk certifies that no thread's partition meets
//! another's within an epoch. Zero allows.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_dwords, expect_u64s, read_u64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct HashJoin;

const SEED: u64 = 0x104A;
/// Direct-mapped table slots per thread.
const SLOTS: usize = 256;
/// Byte mask for a hashed slot offset: `(SLOTS - 1) * 8`, low bits clear.
const MASKB: u64 = (SLOTS as u64 - 1) * 8;
/// Hash multiplier (fits a short immediate).
const HPRIME: u64 = 0x9E37;
/// Hash downshift: slot bits are taken from bits 16 and up.
const HSHIFT: u32 = 16;
/// Payload multiplier.
const PPRIME: u64 = 0x85EB;

fn dims(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Small => 4096,
        Scale::Full => 16384,
    }
}

fn build_keys(n: usize) -> Vec<u64> {
    rng_stream(SEED, n)
}

/// Probe keys: even slots repeat the build key at the same index (same
/// thread slice for every thread count that divides `n`, so they can
/// hit), odd slots are fresh random keys (mostly misses).
fn probe_keys(n: usize) -> Vec<u64> {
    let b = build_keys(n);
    let r = rng_stream(SEED ^ 0xF00D, n);
    (0..n).map(|i| if i % 2 == 0 { b[i] } else { r[i] }).collect()
}

fn slot(k: u64) -> usize {
    ((k.wrapping_mul(HPRIME) >> HSHIFT) & MASKB) as usize / 8
}

/// Replay: per-thread table build (sequential overwrite), then the probe.
/// Returns (per-probe payloads, per-thread match counts).
fn golden(n: usize, threads: usize) -> (Vec<u64>, Vec<u64>) {
    let (bk, pk) = (build_keys(n), probe_keys(n));
    let per = n / threads;
    let mut out = vec![0u64; n];
    let mut matches = vec![0u64; threads];
    for t in 0..threads {
        let mut table = vec![0u64; SLOTS];
        for &k in &bk[t * per..(t + 1) * per] {
            table[slot(k)] = k;
        }
        for (i, &p) in pk.iter().enumerate().take((t + 1) * per).skip(t * per) {
            if table[slot(p)] == p {
                out[i] = p.wrapping_mul(PPRIME);
                matches[t] += 1;
            }
        }
    }
    (out, matches)
}

/// The kernel source (exposed so the lint driver can regenerate it).
pub fn source(threads: usize, clusters: usize, scale: Scale) -> String {
    let n = dims(scale);
    assert!(n.is_multiple_of(threads), "keys must divide across threads");
    let vltcfg = crate::common::vltcfg_operand(threads, clusters);
    format!(
        r#"
        .eq vlint.threads, {threads}
        .data
    {bkeys_data}
    {pkeys_data}
    table:
        .zero {tbytes}
    outj:
        .zero {nbytes}
    matches:
        .zero 64
        .text
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        li      x11, {keys_per_thread}
        mul     x12, x10, x11      # i0
        add     x13, x12, x11      # i_end
        la      x20, bkeys
        la      x21, pkeys
        la      x22, table
        la      x23, outj
        la      x28, matches
        # my private table block
        li      x5, {tblbytes}
        mul     x5, x10, x5
        add     x24, x22, x5
        li      x29, {hprime}
        li      x17, {hshift}
        li      x19, {maskb}

        # ---- build: scalar multiply-shift-mask into my table ----
        region  1
        slli    x5, x12, 3
        add     x5, x5, x20        # &bkeys[i]
        mv      x4, x12
    build:
        ld      x6, 0(x5)
        mul     x7, x6, x29
        srli    x7, x7, {hshift}
        and     x7, x7, x19        # slot byte offset in [0, maskb]
        add     x7, x7, x24
        sd      x6, 0(x7)          # table[h] = key (collisions overwrite)
        addi    x5, x5, 8
        addi    x4, x4, 1
        blt     x4, x13, build
        region  0
        barrier

        # ---- probe: vector hash, gather, compare, merge ----
        region  1
        li      x18, {pprime}
        li      x16, 0             # match count
        slli    x5, x12, 3
        add     x5, x5, x21        # probe key cursor
        slli    x9, x12, 3
        add     x9, x9, x23        # output cursor
        mv      x4, x12
    probe:
        sub     x8, x13, x4
        setvl   x2, x8
        vld     v1, x5             # probe keys
        vmul.vs v2, v1, x29
        vsrl.vs v2, v2, x17
        vand.vs v2, v2, x19        # slot byte offsets in [0, maskb]
        vldx    v3, x24, v2        # gather my table slots
        vseq.vv v3, v1             # mask: slot holds this key
        vmul.vs v4, v1, x18        # payload
        vxor.vv v5, v5, v5
        vmerge  v6, v4, v5         # hit ? payload : 0
        vst     v6, x9
        vpopc   x15
        add     x16, x16, x15
        add     x4, x4, x2
        slli    x8, x2, 3
        add     x5, x5, x8
        add     x9, x9, x8
        blt     x4, x13, probe
        slli    x5, x10, 3
        add     x5, x5, x28
        sd      x16, 0(x5)         # matches[tid]
        region  0
        barrier
        halt
    "#,
        bkeys_data = data_dwords("bkeys", &build_keys(n)),
        pkeys_data = data_dwords("pkeys", &probe_keys(n)),
        tbytes = 8 * SLOTS * threads,
        nbytes = 8 * n,
        tblbytes = 8 * SLOTS,
        keys_per_thread = n / threads,
        hprime = HPRIME,
        hshift = HSHIFT,
        maskb = MASKB,
        pprime = PPRIME,
    )
}

impl Workload for HashJoin {
    fn name(&self) -> &'static str {
        "hashjoin"
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
            description: "hash-join build + indexed probe (irregular suite)",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let n = dims(scale);
        let src = source(threads, clusters, scale);
        let program = assemble(&src).unwrap_or_else(|e| panic!("hashjoin: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            let (out, matches) = golden(n, threads);
            expect_u64s(&read_u64s(sim, "outj", n), &out, "hashjoin outj")?;
            expect_u64s(&read_u64s(sim, "matches", threads), &matches, "hashjoin matches")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        HashJoin.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        HashJoin.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn probe_actually_hits_and_misses() {
        let n = dims(Scale::Test);
        for threads in [1, 4] {
            let (out, matches) = golden(n, threads);
            let hits: u64 = matches.iter().sum();
            // Even-index probes repeat build keys; at low thread counts the
            // table is oversubscribed, so only part of them survive
            // collisions — but far more than chance.
            assert!(hits > n as u64 / 8, "too few matches: {hits}");
            assert!(hits < n as u64, "everything matched: {hits}");
            assert_eq!(out.iter().filter(|&&v| v != 0).count() as u64, hits);
        }
    }

    #[test]
    fn slot_mask_stays_in_table() {
        for &k in build_keys(64).iter() {
            assert!(slot(k) < SLOTS);
        }
    }
}
