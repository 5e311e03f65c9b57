//! Race-mutant corpus: seeded concurrency defects, each of which the
//! static race analysis must flag with the expected diagnostic code. The
//! unmutated base kernel must be race-clean at every tested thread count,
//! so every finding below is attributable to the seeded defect.
//!
//! The base kernel is a two-phase SPMD reduction in the same shape the
//! nine workloads use: phase 1 strip-mines `y += a*x` over a per-thread
//! contiguous slice and scatters per-thread partials into an interleaved
//! (strided) table; a `barrier` publishes the writes; phase 2 reads the
//! *whole* shared array and stores one result per thread. Every mutant
//! perturbs exactly one line of it.
//!
//! The opposite direction sits beside the corpus: race-free programs whose
//! address hulls overlap, or whose control flow is indirect, which the
//! analysis must still clear.

use vlt_isa::asm::assemble;
use vlt_verify::{check_races, Code, Report};

/// Threads the corpus is checked at (the base is clean at both).
const THREADS: [usize; 2] = [2, 4];

/// The race-free base kernel: 64 doubles, 16 per thread at 4 threads.
const BASE: &str = r#"
    .data
xs: .double 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
    .zero 448
ys: .double 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    .zero 448
tab:
    .zero 512
out:
    .zero 64
    .text
    tid     x10
    li      x11, 16            # elems per thread
    mul     x12, x10, x11      # lo
    add     x13, x12, x11      # hi
    la      x20, xs
    la      x21, ys
    li      x4, 2
    fcvt.f.x f1, x4            # a = 2.0
    mv      x14, x12           # i
loop:
    sub     x3, x13, x14
    setvl   x2, x3
    slli    x4, x14, 3
    add     x5, x20, x4
    vld     v1, x5             # x[i..]
    add     x6, x21, x4
    vld     v2, x6             # y[i..]
    vfma.vs v2, v1, f1         # y += a*x
    vst     v2, x6
    add     x14, x14, x2
    blt     x14, x13, loop
    # interleaved partial table: tab[t + 4*e], one strided store per thread
    li      x3, 16
    setvl   x2, x3
    la      x7, tab
    slli    x4, x10, 3
    add     x7, x7, x4         # tab + 8*tid
    li      x8, 32             # byte stride = 8 * nthr_max
    vsts    v2, x7, x8
    barrier
    # phase 2: every thread reduces the whole of ys into its own out slot
    li      x3, 64
    setvl   x2, x3
    vxor.vv v3, v3, v3
    li      x14, 0
    li      x13, 64
loop2:
    sub     x3, x13, x14
    setvl   x2, x3
    slli    x4, x14, 3
    add     x5, x21, x4
    vld     v1, x5             # ys[i..] (written by all threads in epoch 0)
    vadd.vv v3, v3, v1
    add     x14, x14, x2
    blt     x14, x13, loop2
    vredsum x4, v3
    la      x5, out
    slli    x6, x10, 3
    add     x5, x5, x6
    sd      x4, 0(x5)          # out[tid]
    halt
"#;

fn races(src: &str, threads: usize) -> Report {
    let prog = assemble(src).unwrap_or_else(|e| panic!("assembly failed: {e}"));
    check_races(&prog, threads)
}

#[test]
fn base_kernel_is_race_clean() {
    for t in THREADS {
        let r = races(BASE, t);
        assert_eq!(
            r.diags.len(),
            0,
            "base kernel must be race-clean at {t} threads:\n{}",
            r.diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
        );
    }
}

/// Apply a single textual mutation to the base kernel.
fn mutate(from: &str, to: &str) -> String {
    assert!(BASE.contains(from), "mutation site `{from}` not in base");
    BASE.replacen(from, to, 1)
}

/// Verify a mutant at every thread count and assert the expected code fires.
fn expect_race(src: &str, code: Code, what: &str) {
    for t in THREADS {
        let r = races(src, t);
        assert!(
            r.diags.iter().any(|d| d.code == code),
            "{what}: expected {code} to fire at {t} threads, got {} diags:\n{}",
            r.diags.len(),
            r.diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
        );
    }
}

/// Like [`expect_race`], and every diagnostic is anchored at `anchor`.
fn expect_race_at(src: &str, code: Code, anchor: &str, what: &str) {
    expect_race(src, code, what);
    for t in THREADS {
        let r = races(src, t);
        assert!(
            r.diags.iter().all(|d| d.disasm == anchor),
            "{what}: expected every diagnostic at `{anchor}` at {t} threads:\n{}",
            r.diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
        );
    }
}

// --- partitioning defects ----------------------------------------------

#[test]
fn tid_offset_off_by_one() {
    // One extra element per slice: thread t's last write lands on thread
    // t+1's first element.
    let src = mutate("add     x13, x12, x11      # hi", "addi    x13, x12, 17       # hi");
    expect_race(&src, Code::RaceWw, "slice hi off by one");
}

#[test]
fn wrong_induction_start() {
    // Every thread strips from 0 instead of its own lo: full overlap.
    let src = mutate("mv      x14, x12           # i", "li      x14, 0             # i");
    expect_race(&src, Code::RaceWw, "induction starts at 0 on every thread");
}

#[test]
fn overlapping_strided_writes() {
    // The partial-table stride collapses from 8*nthr to 8: the interleave
    // becomes a dense overlap of every thread's 16 elements.
    let src = mutate("li      x8, 32             # byte stride = 8 * nthr_max", "li      x8, 8");
    expect_race_at(&src, Code::RaceWw, "vsts v2, x7, x8", "strided scatter with collapsed stride");
}

#[test]
fn vector_overrun_via_setvl() {
    // The strip request ignores the remaining count: vl jumps to the full
    // MVL and the stores run far past the thread's slice.
    let src = mutate(
        "    sub     x3, x13, x14\n    setvl   x2, x3\n    slli    x4, x14, 3",
        "    li      x3, 64\n    setvl   x2, x3\n    slli    x4, x14, 3",
    );
    expect_race(&src, Code::RaceWw, "setvl request ignores remaining count");
}

// --- synchronization defects -------------------------------------------

#[test]
fn missing_barrier() {
    // Phase 2 reads the whole of ys with nothing separating it from the
    // other threads' phase-1 writes.
    let src = mutate("    barrier\n", "");
    expect_race(&src, Code::RaceRw, "missing barrier between phases");
}

#[test]
fn neighbor_read_without_barrier() {
    // The y-load slips one element up: the top of each strip reads the
    // neighbor thread's first element while the neighbor is writing it.
    let src = mutate(
        "    vld     v2, x6             # y[i..]\n",
        "    addi    x7, x6, 8\n    vld     v2, x7\n",
    );
    expect_race(&src, Code::RaceRw, "shifted read crosses the slice seam");
}

#[test]
fn racy_reduction() {
    // Every thread stores its reduction to out[0] instead of out[tid].
    let src = mutate("    slli    x6, x10, 3\n    add     x5, x5, x6\n", "");
    expect_race_at(&src, Code::RaceWw, "sd x4, 0(x5)", "shared accumulator store");
}

// --- data-dependent addressing -----------------------------------------

#[test]
fn loaded_index_scatter() {
    // The partial table is scattered through an index vector loaded from
    // the table itself. The loaded offsets are all 0, so each thread's
    // scatter hits its own first slot, which its neighbours' index loads
    // read in the same epoch: a read/write race.
    let src = mutate(
        "    li      x8, 32             # byte stride = 8 * nthr_max\n    vsts    v2, x7, x8\n",
        "    vld     v4, x7\n    vstx    v2, x7, v4\n",
    );
    expect_race(&src, Code::RaceRw, "scatter through loaded indices");
}

// --- race-free shapes only the observed walk can certify ---------------

/// Each thread scatters through its own row of a read-only offsets table.
/// Row 0 holds 0, 16, …, 112 and row 1 holds 8, 24, …, 120, so the two
/// scatters interleave in `out` without sharing a byte, yet each thread's
/// destination hull spans nearly all of it.
const INTERLEAVED_TABLE: &str = r#"
    .data
tbl:
    .dword 0, 16, 32, 48, 64, 80, 96, 112
    .dword 8, 24, 40, 56, 72, 88, 104, 120
out:
    .zero 128
    .text
    tid     x10
    li      x3, 8
    setvl   x2, x3
    la      x4, tbl
    slli    x5, x10, 6         # row = tbl + 64*tid
    add     x4, x4, x5
    vld     v1, x4             # this thread's byte offsets
    vid     v2
    la      x6, out
    vstx    v2, x6, v1         # out[offset] = lane
    barrier
    halt
"#;

#[test]
fn interleaved_table_scatter_is_race_free() {
    use vlt_exec::{FuncSim, RaceConfig};
    use vlt_verify::predicted_race_sites;

    let prog = assemble(INTERLEAVED_TABLE).unwrap();
    let r = races(INTERLEAVED_TABLE, 2);
    assert!(
        r.diags.is_empty(),
        "an interleaved table scatter is race-free:\n{}",
        r.diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
    let predicted = predicted_race_sites(&prog, 2);
    assert!(predicted.is_empty(), "{predicted:?}");
    let mut sim = FuncSim::new(&prog, 2);
    sim.enable_race_checker(RaceConfig {
        predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
    });
    sim.run_to_completion(1_000_000).unwrap();
    assert!(sim.race_checker().unwrap().is_clean());
}

/// Every thread calls a store routine through `jalr` and returns through
/// `jr`; the routine stores the thread's own slot of `slots`.
const INDIRECT_STORE: &str = r#"
    .data
slots:
    .zero 64
    .text
    tid     x10
    la      x5, store
    jalr    x1, x5             # call store
    barrier
    halt
store:
    la      x6, slots
    slli    x7, x10, 3
    add     x6, x6, x7         # slots + 8*tid
    sd      x10, 0(x6)
    jr      x1
"#;

#[test]
fn indirect_call_to_disjoint_slots_is_race_free() {
    for t in THREADS {
        let r = races(INDIRECT_STORE, t);
        assert!(
            r.diags.is_empty(),
            "disjoint stores behind `jalr` at {t} threads:\n{}",
            r.diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
        );
    }
}

#[test]
fn indirect_call_to_a_shared_slot_races() {
    // Without the slot offset every thread stores slot 0.
    let src = INDIRECT_STORE.replacen("    add     x6, x6, x7         # slots + 8*tid\n", "", 1);
    assert_ne!(src, INDIRECT_STORE);
    expect_race_at(&src, Code::RaceWw, "sd x10, 0(x6)", "shared slot behind `jalr`");
}

// --- the dynamic side sees the same defects ----------------------------

/// The two mutants whose races actually fire on the canonical schedule
/// must also be caught by the dynamic epoch checker, and every dynamic
/// conflict must be statically predicted (the `debug_assert` inside the
/// checker aborts a debug build otherwise).
#[test]
fn dynamic_checker_confirms_static_verdicts() {
    use vlt_exec::{FuncSim, RaceConfig};
    use vlt_verify::predicted_race_sites;

    let overlap = mutate("mv      x14, x12           # i", "li      x14, 0             # i");
    let no_barrier = mutate("    barrier\n", "");
    for (src, what) in [(&overlap, "wrong induction start"), (&no_barrier, "missing barrier")] {
        let prog = assemble(src).unwrap();
        let predicted = predicted_race_sites(&prog, 4);
        let mut sim = FuncSim::new(&prog, 4);
        sim.enable_race_checker(RaceConfig {
            predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
        });
        sim.run_to_completion(1_000_000).unwrap();
        let rc = sim.race_checker().unwrap();
        assert!(!rc.is_clean(), "{what}: dynamic checker saw no conflict");
    }
}
