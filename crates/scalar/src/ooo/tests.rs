//! OOO core timing tests, driven end-to-end: assemble → functional sim →
//! core timing model.

use std::sync::Arc;

use vlt_exec::{DecodedProgram, ExecError, FuncSim, Step};
use vlt_isa::asm::assemble;
use vlt_mem::{MemConfig, MemSystem};

use crate::config::CoreConfig;
use crate::ooo::OooCore;
use crate::traits::{FetchResult, FetchSource, NullVectorSink, VecDispatch, VecToken, VectorSink};

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

/// A vector sink as the harness drives it: told the cycle before the core
/// ticks, and ticked after it, like the system driver's vector units.
trait TestSink: VectorSink {
    fn cycle(&mut self, _now: u64) {}
    fn tick(&mut self, _now: u64) {}
}

impl TestSink for NullVectorSink {}

/// Run `src` on a single core with `threads` software threads bound to its
/// SMT contexts; returns (cycles, committed).
fn run_core(asm: &str, cfg: CoreConfig, threads: usize) -> (u64, u64) {
    run_core_with(asm, cfg, threads, &mut NullVectorSink)
}

/// [`run_core`] with the core's vector traffic going to `vu`.
fn run_core_with(asm: &str, cfg: CoreConfig, threads: usize, vu: &mut dyn TestSink) -> (u64, u64) {
    let prog = assemble(asm).unwrap();
    let sim = FuncSim::new(&prog, threads);
    let decoded = Arc::clone(&sim.prog);
    let mut source = SimSource(sim);
    let mut mem = MemSystem::new(MemConfig::default(), 1, 0);
    let mut core = OooCore::new(cfg, 0, decoded);
    for t in 0..threads {
        core.bind(t, t, t);
    }
    let mut now = 0u64;
    while !core.done() {
        vu.cycle(now);
        core.tick(now, &mut mem, &mut source, vu).unwrap();
        vu.tick(now);
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

// ---------------------------------------------------------------------------
// The scalar unit's traffic to the vector unit. The cycle counts below are
// those of a core that resolved every producer to the vector unit and
// polled it every cycle: keeping that traffic to what can matter must not
// move them.
// ---------------------------------------------------------------------------

/// Cycles from a fake vector issue to its completion.
const FAKE_LATENCY: u64 = 6;

/// One vector instruction in [`FakeVu`]'s window.
struct FakeEntry {
    vthread: usize,
    seq: u64,
    deps: Vec<u64>,
    ready_base: u64,
    dispatched_at: u64,
    done: Option<u64>,
    polled: bool,
}

/// A vector unit stand-in: one window, unbounded issue, a fixed latency,
/// consumers in the window resolved at their producer's full completion.
/// It records the traffic and checks the scalar unit's two promises as
/// they happen: `resolve` names only a seq some dispatched vector
/// instruction named (as its own seq or in its deps), and a pass of polls
/// comes only after an issue since the previous pass.
#[derive(Default)]
struct FakeVu {
    now: u64,
    /// Issue a dep-free instruction during its dispatch, not at a tick.
    eager: bool,
    entries: Vec<FakeEntry>,
    issues: u64,
    last_issue: Option<u64>,
    last_pass: Option<u64>,
    /// (vthread, seq) a dispatched instruction's deps named.
    named: Vec<(usize, u64)>,
    /// (vthread, seq) of the dispatched instructions.
    dispatched: Vec<(usize, u64)>,
    /// (vthread, seq, done) of each resolve the scalar unit sent.
    resolves: Vec<(usize, u64, u64)>,
    /// (vthread, seq, issue cycle, done) of each issue.
    issue_log: Vec<(usize, u64, u64, u64)>,
}

impl FakeVu {
    fn issue(&mut self, i: usize, now: u64) {
        let e = &mut self.entries[i];
        if e.done.is_some() || !e.deps.is_empty() {
            return;
        }
        let start = now.max(e.ready_base);
        if !self.eager && (start > now || e.dispatched_at >= now) {
            return;
        }
        let done = start + FAKE_LATENCY;
        e.done = Some(done);
        let (vthread, seq) = (e.vthread, e.seq);
        self.issues += 1;
        self.last_issue = Some(now);
        self.issue_log.push((vthread, seq, start, done));
        self.wake(vthread, seq, done);
    }

    fn wake(&mut self, vthread: usize, seq: u64, done: u64) {
        for e in self.entries.iter_mut().filter(|e| e.done.is_none() && e.vthread == vthread) {
            if let Some(pos) = e.deps.iter().position(|&d| d == seq) {
                e.deps.swap_remove(pos);
                e.ready_base = e.ready_base.max(done);
            }
        }
    }

    /// Scalar producers whose resolution reached this unit.
    fn scalar_resolves(&self) -> usize {
        let vector = |r: &&(usize, u64, u64)| self.dispatched.contains(&(r.0, r.1));
        self.resolves.iter().filter(|r| !vector(r)).count()
    }

    /// The issue cycle and completion of `vthread`'s vector instruction
    /// with seq `seq`.
    fn issued_at(&self, vthread: usize, seq: u64) -> (u64, u64) {
        let e = self.issue_log.iter().find(|e| (e.0, e.1) == (vthread, seq)).unwrap();
        (e.2, e.3)
    }
}

impl VectorSink for FakeVu {
    fn try_dispatch(&mut self, d: VecDispatch, now: u64) -> Option<VecToken> {
        self.named.extend(d.deps.iter().map(|&s| (d.vthread, s)));
        self.dispatched.push((d.vthread, d.seq));
        self.entries.push(FakeEntry {
            vthread: d.vthread,
            seq: d.seq,
            deps: d.deps.to_vec(),
            ready_base: d.ready_base,
            dispatched_at: now,
            done: None,
            polled: false,
        });
        let token = self.entries.len() - 1;
        if self.eager {
            self.issue(token, now);
        }
        Some(VecToken(token as u64))
    }

    fn resolve(&mut self, vthread: usize, seq: u64, done_at: u64) {
        let key = (vthread, seq);
        assert!(
            self.named.contains(&key) || self.dispatched.contains(&key),
            "cycle {}: resolve of seq {seq}, which no dispatched vector instruction names",
            self.now
        );
        self.resolves.push((vthread, seq, done_at));
        self.wake(vthread, seq, done_at);
    }

    fn poll(&mut self, token: VecToken) -> Option<u64> {
        if self.last_pass != Some(self.now) {
            // Issues come after the cycle's polls, so an issue in the cycle
            // of the previous pass is new to this one.
            let fresh = self.last_issue.is_some_and(|i| self.last_pass.is_none_or(|p| i >= p));
            assert!(fresh, "cycle {}: a poll pass with no issue since the last", self.now);
            self.last_pass = Some(self.now);
        }
        let e = &mut self.entries[token.0 as usize];
        let done = e.done.filter(|_| !e.polled)?;
        e.polled = true;
        Some(done)
    }

    fn issued(&self) -> u64 {
        self.issues
    }
}

impl TestSink for FakeVu {
    fn cycle(&mut self, now: u64) {
        self.now = now;
    }

    fn tick(&mut self, now: u64) {
        for i in 0..self.entries.len() {
            self.issue(i, now);
        }
    }
}

#[test]
fn smt_contexts_with_interleaved_seqs_keep_their_dependences() {
    // Both contexts dispatch in the same cycles, so their seqs interleave,
    // while each numbers its own entries: scalar -> vector (vsplat),
    // vector -> vector, vector -> scalar (the reduction's destination) and
    // scalar -> scalar edges in both, for forty iterations.
    let src = r#"
        tid   x1
        li    x2, 8
        setvl x3, x2
        li    x20, 0
        li    x21, 40
    loop:
        addi  x4, x1, 5
        mul   x4, x4, x4
        vsplat v1, x4
        vadd.vv v2, v1, v1
        vredsum x5, v2
        add   x6, x5, x4
        mul   x7, x6, x6
        vsplat v3, x7
        addi  x20, x20, 1
        blt   x20, x21, loop
        halt
    "#;
    let mut vu = FakeVu::default();
    let run = run_core_with(src, CoreConfig::four_way().with_smt(2), 2, &mut vu);
    let mut order = vu.dispatched.clone();
    order.sort_unstable_by_key(|d| d.1);
    let switches = order.windows(2).filter(|w| w[0].0 != w[1].0).count();
    let last = |t: usize| vu.issued_at(t, vu.dispatched.iter().rev().find(|d| d.0 == t).unwrap().1);
    assert_eq!((run, vu.issue_log.len(), switches), ((474, 812), 320, 65));
    assert_eq!((last(0), last(1)), ((472, 478), (349, 355)));
    // 158 of the 812 instructions are scalar producers a vsplat names.
    assert_eq!(vu.scalar_resolves(), 158);
}

#[test]
fn a_vector_consumer_waits_for_an_unissued_scalar_producer() {
    // The second divide waits on the first, so the vsplat naming x4
    // dispatches long before x4's producer issues; the producer's issue
    // must reach the vector unit. Of the scalar producers, only it and the
    // setvl (the vsplat reads vl) are named, so only their resolutions
    // reach the unit.
    let src = r#"
        li    x2, 30
        li    x3, 4
        li    x9, 8
        setvl x8, x9
        div   x5, x2, x3
        div   x4, x5, x3
        add   x10, x2, x3
        vsplat v1, x4
        vredsum x6, v1
        add   x7, x6, x10
        mul   x7, x7, x7
        halt
    "#;
    let mut vu = FakeVu::default();
    let run = run_core_with(src, CoreConfig::four_way(), 1, &mut vu);
    let (setvl, div, splat, red) = (3, 5, 7, 8);
    assert_eq!(vu.dispatched, [(0, splat), (0, red)]);
    assert_eq!(vu.named, [(0, div), (0, setvl), (0, splat)]);
    assert_eq!(vu.resolves, [(0, setvl, 115), (0, div, 138), (0, splat, 144), (0, red, 150)]);
    assert_eq!((run, vu.issued_at(0, splat)), ((155, 12), (138, 144)));
}

#[test]
fn a_vector_consumer_named_after_its_producer_issued_waits_for_its_completion() {
    // An eager unit issues the vid during its dispatch, before the vadd
    // behind it in the same fetch group names it: the unit never sees the
    // vid issue with the vadd in its window, so only the scalar unit's
    // resolution at the vid's poll releases the vadd, at the vid's full
    // completion.
    let src = r#"
        li    x9, 8
        setvl x8, x9
        add   x1, x9, x9
        add   x2, x9, x9
        add   x3, x9, x9
        add   x4, x9, x9
        add   x5, x9, x9
        add   x6, x9, x9
        vid   v1
        vadd.vv v2, v1, v1
        vredsum x7, v2
        add   x7, x7, x7
        halt
    "#;
    let mut vu = FakeVu { eager: true, ..FakeVu::default() };
    let run = run_core_with(src, CoreConfig::four_way(), 1, &mut vu);
    let (vid, vadd) = (vu.dispatched[0].1, vu.dispatched[1].1);
    assert_eq!(vu.named, [(0, vid), (0, vadd)]);
    let (vid_issue, vid_done) = vu.issued_at(0, vid);
    let (vadd_issue, _) = vu.issued_at(0, vadd);
    assert_eq!(vu.resolves.iter().find(|r| r.1 == vid), Some(&(0, vid, vid_done)));
    assert!(vadd_issue >= vid_done, "the vadd issued at {vadd_issue}, before {vid_done}");
    assert_eq!((run, vid_issue, vid_done, vadd_issue), ((135, 13), 115, 121, 121));
}
