//! OOO core timing tests, driven end-to-end: assemble → functional sim →
//! core timing model.

use std::sync::Arc;

use vlt_exec::{DecodedProgram, ExecError, FuncSim, Step};
use vlt_isa::asm::assemble;
use vlt_mem::{MemConfig, MemSystem};

use crate::config::CoreConfig;
use crate::ooo::OooCore;
use crate::traits::{FetchResult, FetchSource, NullVectorSink};

/// Adapter: the functional simulator as a fetch source.
struct SimSource(FuncSim);

impl FetchSource for SimSource {
    fn fetch(&mut self, thread: usize) -> Result<FetchResult, ExecError> {
        Ok(match self.0.step_thread(thread)? {
            Step::Inst(d) => FetchResult::Inst(d),
            Step::AtBarrier => FetchResult::AtBarrier,
            Step::Halted => FetchResult::Halted,
        })
    }
}

/// Run `src` on a single core with `threads` software threads bound to its
/// SMT contexts; returns (cycles, committed).
fn run_core(asm: &str, cfg: CoreConfig, threads: usize) -> (u64, u64) {
    let prog = assemble(asm).unwrap();
    let sim = FuncSim::new(&prog, threads);
    let decoded = Arc::clone(&sim.prog);
    let mut source = SimSource(sim);
    let mut mem = MemSystem::new(MemConfig::default(), 1, 0);
    let mut core = OooCore::new(cfg, 0, decoded);
    for t in 0..threads {
        core.bind(t, t, t);
    }
    let mut vu = NullVectorSink;
    let mut now = 0u64;
    while !core.done() {
        core.tick(now, &mut mem, &mut source, &mut vu).unwrap();
        now += 1;
        assert!(now < 2_000_000, "core did not finish");
    }
    (now, core.stats.committed)
}

fn straightline(body: &str, n: usize) -> String {
    let mut s = String::from("li x2, 3\nli x3, 4\nli x4, 1\n");
    for _ in 0..n {
        s.push_str(body);
        s.push('\n');
    }
    s.push_str("halt\n");
    s
}

/// A loop repeating `body` (one instruction per line) `iters` times; the
/// I-cache is warm after the first iteration, exposing steady-state IPC.
fn looped(body: &str, iters: usize) -> String {
    format!(
        "li x2, 3\nli x3, 4\nli x20, 0\nli x21, {iters}\nloop:\n{body}\naddi x20, x20, 1\nblt x20, x21, loop\nhalt\n"
    )
}

#[test]
fn commits_every_instruction() {
    let src = straightline("add x1, x2, x3", 50);
    let (_, committed) = run_core(&src, CoreConfig::four_way(), 1);
    assert_eq!(committed, 54); // 3 li + 50 adds + halt
}

/// 16 independent adds per iteration (WAW removed by renaming).
fn indep_body() -> String {
    vec!["add x1, x2, x3"; 16].join("\n")
}

#[test]
fn independent_adds_reach_high_ipc() {
    let src = looped(&indep_body(), 200);
    let (cycles, committed) = run_core(&src, CoreConfig::four_way(), 1);
    let ipc = committed as f64 / cycles as f64;
    assert!(ipc > 2.2, "expected near-width IPC, got {ipc:.2} ({committed} in {cycles})");
}

#[test]
fn dependent_chain_is_serial() {
    // Each add reads its own output: at most 1 IPC on the chain.
    let src = looped(&vec!["add x2, x2, x3"; 16].join("\n"), 100);
    let (cycles, committed) = run_core(&src, CoreConfig::four_way(), 1);
    assert!(cycles >= 1600, "dependent chain must serialize: {committed} insts in {cycles} cycles");
}

#[test]
fn two_way_core_is_slower() {
    let src = looped(&indep_body(), 200);
    let (c4, _) = run_core(&src, CoreConfig::four_way(), 1);
    let (c2, _) = run_core(&src, CoreConfig::two_way(), 1);
    assert!(c2 as f64 > 1.4 * c4 as f64, "2-way ({c2}) should be much slower than 4-way ({c4})");
}

#[test]
fn div_serializes_on_one_unit() {
    let src = straightline("div x1, x2, x3", 20);
    let (cycles, _) = run_core(&src, CoreConfig::four_way(), 1);
    // Unpipelined divider: >= 20 * 12 cycles.
    assert!(cycles >= 20 * 12, "divider must be unpipelined: {cycles}");
}

#[test]
fn fp_latency_respected() {
    // Dependent FMA chain: >= n * 4 cycles.
    let src = straightline("fma f1, f2, f3", 50);
    let (cycles, _) = run_core(&src, CoreConfig::four_way(), 1);
    assert!(cycles >= 200, "dependent FP chain too fast: {cycles}");
}

#[test]
fn load_use_latency() {
    // Pointer-chase: 64 dependent loads, all L1 hits after the first.
    let src = r#"
        .data
    cell:
        .dword cell
        .text
        la x1, cell
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        ld x1, 0(x1)
        halt
    "#;
    let (cycles, _) = run_core(src, CoreConfig::four_way(), 1);
    // 8 dependent loads at >= 2 cycles each plus a cold miss.
    assert!(cycles >= 16, "load-use latency ignored: {cycles}");
}

/// A loop that branches on successive bytes of a data table; identical code
/// for both variants, only the table contents differ.
fn data_branch_loop(bytes: &[u8]) -> String {
    let data: Vec<String> = bytes.iter().map(|b| b.to_string()).collect();
    format!(
        r#"
        .data
    tbl:
        .byte {}
        .text
        li   x1, 0
        li   x2, {}
        la   x3, tbl
    loop:
        add  x4, x3, x1
        lbu  x5, 0(x4)
        beqz x5, skip
        addi x6, x6, 1
    skip:
        addi x1, x1, 1
        blt  x1, x2, loop
        halt
    "#,
        data.join(", "),
        bytes.len()
    )
}

#[test]
fn random_branches_cost_redirects() {
    // Pseudo-random outcomes are unpredictable; an all-ones table is free.
    let mut state = 0x9E3779B97F4A7C15u64;
    let random: Vec<u8> = (0..600)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 1) as u8
        })
        .collect();
    let biased = vec![1u8; 600];
    let (cr, nr) = run_core(&data_branch_loop(&random), CoreConfig::four_way(), 1);
    let (cb, nb) = run_core(&data_branch_loop(&biased), CoreConfig::four_way(), 1);
    let cpi_r = cr as f64 / nr as f64;
    let cpi_b = cb as f64 / nb as f64;
    assert!(cpi_r > 1.3 * cpi_b, "random branches should cost redirects: {cpi_r:.2} vs {cpi_b:.2}");
}

#[test]
fn smt_shares_issue_bandwidth() {
    // An issue-bound loop (near-width IPC single-threaded): two SMT threads
    // must contend, landing between 1.3x and 2.5x the single-thread time.
    let src = looped(&indep_body(), 150);
    let (c1, n1) = run_core(&src, CoreConfig::four_way(), 1);
    let (c2, n2) = run_core(&src, CoreConfig::four_way().with_smt(2), 2);
    assert_eq!(n2, 2 * n1, "both SMT threads must commit fully");
    assert!(c2 as f64 > 1.3 * c1 as f64, "issue-bound threads must contend: {c2} vs {c1}");
    assert!((c2 as f64) < 2.5 * c1 as f64, "SMT should overlap threads: {c2} vs {c1}");
}

#[test]
fn smt_overlaps_latency_bound_threads() {
    // A serial dependence chain leaves issue slots idle; a second SMT
    // thread fills them almost for free.
    let src = looped("add x5, x5, x3", 500);
    let (c1, _) = run_core(&src, CoreConfig::four_way(), 1);
    let (c2, n2) = run_core(&src, CoreConfig::four_way().with_smt(2), 2);
    assert!(n2 > 2000);
    assert!((c2 as f64) < 1.5 * c1 as f64, "latency-bound threads should overlap: {c2} vs {c1}");
}

#[test]
fn barrier_synchronizes_smt_threads() {
    // One thread spins 1000 iterations before the barrier, the other goes
    // straight to it; both must still finish.
    let src = r#"
        tid  x1
        bnez x1, fast
        li   x2, 0
        li   x3, 1000
    spin:
        addi x2, x2, 1
        blt  x2, x3, spin
    fast:
        barrier
        halt
    "#;
    let (cycles, committed) = run_core(src, CoreConfig::four_way().with_smt(2), 2);
    assert!(committed > 2000, "both threads committed: {committed}");
    assert!(cycles > 500, "must wait for the slow thread: {cycles}");
}

#[test]
fn vltcfg_serializes() {
    let with_cfg = r#"
        li x1, 1
        vltcfg x1
        li x2, 2
        vltcfg x2
        li x1, 1
        vltcfg x1
        halt
    "#;
    let (c, _) = run_core(with_cfg, CoreConfig::four_way(), 1);
    // Three serializations at >= serialize_penalty each.
    assert!(c >= 60, "vltcfg drain penalty missing: {c}");
}

#[test]
fn core_reports_done_only_when_drained() {
    let prog = assemble("halt\n").unwrap();
    let sim = FuncSim::new(&prog, 1);
    let decoded = Arc::clone(&sim.prog);
    let mut source = SimSource(sim);
    let mut mem = MemSystem::new(MemConfig::default(), 1, 0);
    let mut core = OooCore::new(CoreConfig::four_way(), 0, decoded);
    core.bind(0, 0, 0);
    assert!(!core.done());
    let mut vu = NullVectorSink;
    let mut now = 0;
    while !core.done() {
        core.tick(now, &mut mem, &mut source, &mut vu).unwrap();
        now += 1;
        assert!(now < 1000);
    }
    assert_eq!(core.stats.committed, 1);
}

#[test]
#[should_panic]
fn double_bind_rejected() {
    let prog = assemble("halt\n").unwrap();
    let decoded = DecodedProgram::new(&prog);
    let mut core = OooCore::new(CoreConfig::four_way(), 0, decoded);
    core.bind(0, 0, 0);
    core.bind(0, 1, 1);
}

/// `li x2, 30; li x3, 4`, then `body`, then six dependent multiplies on
/// `x7` (so the cycle `x7` becomes ready shows in the total), then `halt`:
/// straight-line code on one 4-way context, cycles to the last commit.
fn cycles_of(body: &str) -> u64 {
    let tail = "mul x7, x7, x7\n".repeat(6);
    run_core(&format!("li x2, 30\nli x3, 4\n{body}\n{tail}halt\n"), CoreConfig::four_way(), 1).0
}

#[test]
fn consumer_of_two_producers_issues_at_the_later_completion() {
    // The divide (12 cycles) completes after the multiply (3 cycles); a
    // consumer of both waits for the divide alone.
    let both = cycles_of("div x5, x2, x3\nmul x6, x2, x3\nadd x7, x5, x6");
    let div_only = cycles_of("div x5, x2, x3\nmul x6, x2, x3\nadd x7, x5, x3");
    let mul_only = cycles_of("div x5, x2, x3\nmul x6, x2, x3\nadd x7, x6, x3");
    assert_eq!((both, div_only, mul_only), (146, 146, 137));
}

#[test]
fn repeated_source_is_one_dependence() {
    // `x1` read twice from one in-flight producer: one dependence, one
    // wake-up, the same timing as reading it once.
    let twice = cycles_of("div x1, x2, x3\nadd x7, x1, x1");
    let once = cycles_of("div x1, x2, x3\nadd x7, x1, x3");
    assert_eq!((twice, once), (146, 146));
}

#[test]
fn smt_contexts_issue_oldest_first() {
    // Thread 1 (context 1) runs a serial chain; thread 0 floods the 2-way
    // core's two slots with independent adds. Picking ready entries by
    // context instead of by age would starve the chain.
    let src = r#"
        li   x2, 3
        li   x3, 4
        li   x20, 0
        li   x21, 40
        tid  x1
        bnez x1, chain
    flood:
        add  x5, x2, x3
        add  x6, x2, x3
        add  x7, x2, x3
        add  x8, x2, x3
        addi x20, x20, 1
        blt  x20, x21, flood
        halt
    chain:
        add  x5, x5, x3
        add  x5, x5, x3
        add  x5, x5, x3
        add  x5, x5, x3
        addi x20, x20, 1
        blt  x20, x21, chain
        halt
    "#;
    let (cycles, committed) = run_core(src, CoreConfig::two_way().with_smt(2), 2);
    assert_eq!((cycles, committed), (411, 494));
}

#[test]
fn consumer_dispatched_after_its_producer_issued_waits_for_its_completion() {
    // Eight independent adds push the consumer two fetch groups past the
    // divide's, so it dispatches after the divide has issued and reads its
    // known completion cycle instead of recording a dependence. Sixteen
    // instructions: one I-cache line, so the divide's latency shows.
    let adds = "add x10, x2, x3\n".repeat(8);
    let tail = "mul x7, x7, x7\n".repeat(3);
    let run = |body: String| {
        run_core(&format!("li x2, 30\nli x3, 4\n{body}{tail}halt\n"), CoreConfig::four_way(), 1)
    };
    let late = run(format!("div x5, x2, x3\n{adds}add x7, x5, x3\n"));
    let early = run(format!("div x5, x2, x3\nadd x7, x5, x3\n{adds}"));
    assert_eq!((late, early), ((137, 16), (137, 16)));
}
