//! A vector lane re-engineered as a 2-way in-order scalar processor
//! (paper §5): a small per-lane instruction cache with misses forwarded to
//! the owning scalar unit, direct L2 data access with decoupling queues
//! (non-blocking loads, stall-on-use), and a small branch predictor.

use std::sync::Arc;

use vlt_exec::{DecodedProgram, DynInst, DynKind, ExecError};
use vlt_isa::{OpClass, RegRef};
use vlt_mem::MemSystem;

use crate::config::LaneCoreConfig;
use crate::ooo::latency;
use crate::predictor::Predictor;
use crate::stall::{StallBreakdown, StallCause};
use crate::traits::{FetchResult, FetchSource};

/// Per-lane-core statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles spent with the front end stalled.
    pub stall_cycles: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Why each stall cycle was lost. Conservation invariant:
    /// `stalls.total() == stall_cycles` at all times, under both drivers.
    pub stalls: StallBreakdown,
}

const REG_SPACE: usize = 64; // 32 int + 32 fp (lane cores run scalar threads)

#[inline]
fn reg_index(r: RegRef) -> Option<usize> {
    match r {
        RegRef::I(i) => Some(i as usize),
        RegRef::F(i) => Some(32 + i as usize),
        _ => None,
    }
}

/// One lane operating as a 2-way in-order processor.
#[derive(Debug)]
pub struct InOrderCore {
    cfg: LaneCoreConfig,
    lane_id: usize,
    owner_core: usize,
    thread: usize,
    prog: Arc<DecodedProgram>,
    pred: Predictor,
    /// Scoreboard: cycle each register's value becomes available.
    ready: Vec<u64>,
    stall_until: u64,
    last_line: u64,
    pending: Option<DynInst>,
    outstanding: Vec<u64>,
    halted: bool,
    /// Statistics counters.
    pub stats: LaneStats,
}

impl InOrderCore {
    /// Build a lane core for `thread`, running on `lane_id`, with I-cache
    /// misses forwarded through scalar unit `owner_core`.
    pub fn new(
        cfg: LaneCoreConfig,
        lane_id: usize,
        owner_core: usize,
        thread: usize,
        prog: Arc<DecodedProgram>,
    ) -> Self {
        InOrderCore {
            cfg,
            lane_id,
            owner_core,
            thread,
            prog,
            pred: Predictor::small(),
            ready: vec![0; REG_SPACE],
            stall_until: 0,
            last_line: u64::MAX,
            pending: None,
            outstanding: Vec::new(),
            halted: false,
            stats: LaneStats::default(),
        }
    }

    /// True once the thread has halted (in-order: nothing left in flight).
    pub fn done(&self) -> bool {
        self.halted
    }

    /// The software thread this lane runs.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Instructions committed so far. The driver asks a lane core whose
    /// tick committed nothing for its [`InOrderCore::next_event`].
    pub fn progress(&self) -> u64 {
        self.stats.committed
    }

    /// Earliest cycle `>= from` at which this lane core can next make
    /// progress: its stall window expires, a stashed instruction's operands
    /// (or a load-queue slot) become ready, or the front end can pull a new
    /// instruction. `None` when halted or parked at a barrier — only
    /// another thread's release can wake it then. Never later than the true
    /// next state change; `Some(from)` simply means "cannot sleep".
    pub fn next_event(&self, from: u64, src: &dyn FetchSource) -> Option<u64> {
        if self.halted {
            return None;
        }
        let base = from.max(self.stall_until);
        let Some(d) = &self.pending else {
            return if src.parked(self.thread) { None } else { Some(base) };
        };
        let si = self.prog.get(d.sidx as usize);
        let mut t = base;
        for u in &si.uses {
            if let Some(i) = reg_index(*u) {
                t = t.max(self.ready[i]);
            }
        }
        if si.class == OpClass::Load && self.outstanding.len() >= self.cfg.load_queue {
            // Also blocked on a load-queue slot: the oldest outstanding
            // load's completion frees one.
            if let Some(min_done) = self.outstanding.iter().copied().min() {
                t = t.max(min_done);
            }
        }
        Some(t)
    }

    /// Credit a span `[from, from + cycles)` the lane core slept through
    /// to the stall counters, as per-cycle ticks would have (see
    /// [`InOrderCore::stats_after_idle`]).
    pub fn credit_idle_span(&mut self, from: u64, cycles: u64) {
        self.stats = self.stats_after_idle(from, cycles);
    }

    /// The statistics as they read once an idle span `[from, from +
    /// cycles)` is credited: every persistent quiescent state of a live
    /// lane core (stall window, operand wait, full load queue, barrier
    /// park) charges exactly one stall cycle per cycle. Port-conflict
    /// stashes are the only stall-free quiescent-looking states, and they
    /// cannot persist across a cycle boundary (ports replenish every tick),
    /// so [`InOrderCore::next_event`] never lets a span cover one.
    ///
    /// Cause attribution splits the span exactly as the per-cycle path
    /// would: first the front-end stall window ([`StallCause::IssueWidth`]),
    /// then — all predicates being constant over the span — either a
    /// barrier park, an operand wait, or a full load queue. A live lane
    /// core with nothing stashed sleeps only while its thread is parked, so
    /// the span's park state is the core's own. The operand-wait phase ends
    /// at the latest unready operand's ready time, which is exactly where
    /// [`InOrderCore::next_event`] ends the span unless a full load queue
    /// extends it, so the three-way split reproduces the cycle-by-cycle
    /// tags byte for byte.
    pub fn stats_after_idle(&self, from: u64, cycles: u64) -> LaneStats {
        let mut stats = self.stats.clone();
        if self.halted {
            return stats;
        }
        stats.stall_cycles += cycles;
        let bubble = self.stall_until.saturating_sub(from).min(cycles);
        stats.stalls.add(StallCause::IssueWidth, bubble);
        let rem = cycles - bubble;
        if rem == 0 {
            return stats;
        }
        let s = from + bubble;
        match &self.pending {
            // A live, pending-less lane only sleeps parked at a barrier
            // (otherwise the front end would fetch).
            None => stats.stalls.add(StallCause::BarrierWait, rem),
            Some(d) => {
                let si = self.prog.get(d.sidx as usize);
                // Per-cycle order: operand wait is checked before the load
                // queue, so cycles below the latest operand-ready time tag
                // ScalarDep and only the remainder can be queue pressure.
                let max_ready = si
                    .uses
                    .iter()
                    .filter_map(|u| reg_index(*u))
                    .map(|i| self.ready[i])
                    .max()
                    .unwrap_or(0);
                let dep = max_ready.saturating_sub(s).min(rem);
                stats.stalls.add(StallCause::ScalarDep, dep);
                let rest = rem - dep;
                if rest > 0 {
                    let qfull = si.class == OpClass::Load
                        && self.outstanding.iter().filter(|done| **done > s).count()
                            >= self.cfg.load_queue;
                    debug_assert!(qfull, "slept span past operand-ready without queue stall");
                    let cause =
                        if qfull { StallCause::BankConflict } else { StallCause::ScalarDep };
                    stats.stalls.add(cause, rest);
                }
            }
        }
        stats
    }

    /// Advance one cycle.
    pub fn tick(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
        src: &mut dyn FetchSource,
    ) -> Result<(), ExecError> {
        if self.halted {
            return Ok(());
        }
        if self.stall_until > now {
            self.stats.stall_cycles += 1;
            self.stats.stalls.add(StallCause::IssueWidth, 1);
            return Ok(());
        }
        self.outstanding.retain(|d| *d > now);

        let mut mem_ports = 2usize;
        for slot in 0..self.cfg.width {
            let d = match self.pending.take() {
                Some(d) => d,
                None => match src.fetch(self.thread)? {
                    FetchResult::Inst(d) => d,
                    FetchResult::AtBarrier => {
                        if slot == 0 {
                            self.stats.stall_cycles += 1;
                            self.stats.stalls.add(StallCause::BarrierWait, 1);
                        }
                        return Ok(());
                    }
                    FetchResult::Halted => {
                        self.halted = true;
                        return Ok(());
                    }
                },
            };

            // Per-lane I-cache, one probe per line transition.
            let line = d.pc >> 6;
            if line != self.last_line {
                let t = mem.lane_inst_fetch(self.lane_id, self.owner_core, d.pc, now);
                self.last_line = line;
                if t > now + 1 {
                    self.stall_until = t;
                    self.pending = Some(d);
                    return Ok(());
                }
            }

            // The system driver refuses vector code at fetch on a lane-thread
            // machine, so this is an internal invariant.
            let si = self.prog.get(d.sidx as usize);
            assert!(
                !si.class.is_vector(),
                "vector instruction on a lane core running a scalar thread"
            );

            // In-order: stall the whole front end on an unready operand.
            let operands_ready =
                si.uses.iter().filter_map(|u| reg_index(*u)).all(|i| self.ready[i] <= now);
            if !operands_ready {
                self.pending = Some(d);
                self.stats.stall_cycles += 1;
                self.stats.stalls.add(StallCause::ScalarDep, 1);
                return Ok(());
            }

            match (&d.kind, si.class) {
                (DynKind::Halt, _) => {
                    self.halted = true;
                    self.stats.committed += 1;
                    return Ok(());
                }
                (DynKind::Barrier, _) => {
                    self.stats.committed += 1;
                    // Next fetch returns AtBarrier until released.
                    return Ok(());
                }
                (DynKind::Mem { addr, .. }, OpClass::Load) => {
                    if self.outstanding.len() >= self.cfg.load_queue || mem_ports == 0 {
                        self.pending = Some(d);
                        self.stats.stall_cycles += 1;
                        self.stats.stalls.add(StallCause::BankConflict, 1);
                        return Ok(());
                    }
                    mem_ports -= 1;
                    let done = mem.l2_access(*addr, false, now);
                    self.outstanding.push(done);
                    for def in &si.defs {
                        if let Some(i) = reg_index(*def) {
                            self.ready[i] = done;
                        }
                    }
                }
                (DynKind::Mem { addr, .. }, OpClass::Store) => {
                    if mem_ports == 0 {
                        self.pending = Some(d);
                        return Ok(());
                    }
                    mem_ports -= 1;
                    mem.l2_access(*addr, true, now);
                }
                (DynKind::Branch { taken, target }, _) => {
                    let correct = self.pred.observe(d.pc, si.inst.op, *taken, *target);
                    for def in &si.defs {
                        if let Some(i) = reg_index(*def) {
                            self.ready[i] = now + 1;
                        }
                    }
                    self.stats.committed += 1;
                    if !correct {
                        self.stats.mispredicts += 1;
                        self.stall_until = now + self.cfg.branch_penalty;
                        self.last_line = u64::MAX;
                    } else if *taken {
                        // Taken branch: redirected fetch resumes next cycle.
                        self.stall_until = now + 1;
                        self.last_line = u64::MAX;
                    }
                    if !correct || *taken {
                        return Ok(());
                    }
                    continue;
                }
                _ => {
                    let lat = latency(si.class);
                    for def in &si.defs {
                        if let Some(i) = reg_index(*def) {
                            self.ready[i] = now + lat;
                        }
                    }
                }
            }
            self.stats.committed += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_exec::{FuncSim, Step};
    use vlt_isa::asm::assemble;
    use vlt_mem::MemConfig;

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

    fn run_lane(asm: &str) -> (u64, LaneStats) {
        let prog = assemble(asm).unwrap();
        let sim = FuncSim::new(&prog, 1);
        let decoded = Arc::clone(&sim.prog);
        let mut src = SimSource(sim);
        let mut mem = MemSystem::new(MemConfig::default(), 1, 8);
        let mut core = InOrderCore::new(LaneCoreConfig::default(), 0, 0, 0, decoded);
        let mut now = 0;
        while !core.done() {
            core.tick(now, &mut mem, &mut src).unwrap();
            now += 1;
            assert!(now < 1_000_000, "lane core did not finish");
        }
        (now, core.stats.clone())
    }

    #[test]
    fn runs_to_completion() {
        let (_, stats) = run_lane("li x1, 1\nli x2, 2\nadd x3, x1, x2\nhalt\n");
        assert_eq!(stats.committed, 4); // li + li + add + halt
    }

    fn lane_loop(body: &str, iters: usize) -> String {
        format!(
            "li x20, 0\nli x21, {iters}\nli x2, 1\nli x3, 2\nli x5, 3\nli x6, 4\nloop:\n{body}\naddi x20, x20, 1\nblt x20, x21, loop\nhalt\n"
        )
    }

    #[test]
    fn dual_issue_needs_independence() {
        // Independent pairs can dual-issue; a dependent chain cannot.
        // (Loops keep the lane I-cache warm so steady state dominates.)
        let indep = lane_loop(&["add x1, x2, x3\nadd x4, x5, x6"; 8].join("\n"), 100);
        let chain = lane_loop(&["add x1, x1, x2\nadd x1, x1, x3"; 8].join("\n"), 100);
        let (ci, _) = run_lane(&indep);
        let (cc, _) = run_lane(&chain);
        assert!(
            cc as f64 > 1.5 * ci as f64,
            "chain ({cc}) should be much slower than independent ({ci})"
        );
    }

    #[test]
    fn loads_hit_l2_latency() {
        // Dependent load chain through the L2 (10-cycle hits after warmup).
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
            halt
        "#;
        let (cycles, _) = run_lane(src);
        assert!(cycles >= 4 * 10, "lane loads bypass L1; L2 latency applies: {cycles}");
    }

    #[test]
    fn independent_loads_overlap() {
        // Per iteration: 4 independent loads vs 4 chained loads. The
        // decoupling queue overlaps the independent ones.
        let indep = r#"
            .data
        arr:
            .dword 1, 2, 3, 4
            .text
            li x20, 0
            li x21, 200
            la x1, arr
        loop:
            ld x2, 0(x1)
            ld x3, 8(x1)
            ld x4, 16(x1)
            ld x5, 24(x1)
            addi x20, x20, 1
            blt x20, x21, loop
            halt
        "#;
        let chain = r#"
            .data
        cell:
            .dword cell
            .text
            li x20, 0
            li x21, 200
            la x1, cell
        loop:
            ld x1, 0(x1)
            ld x1, 0(x1)
            ld x1, 0(x1)
            ld x1, 0(x1)
            addi x20, x20, 1
            blt x20, x21, loop
            halt
        "#;
        let (ci, _) = run_lane(indep);
        let (cc, _) = run_lane(chain);
        assert!(
            cc as f64 > 2.0 * ci as f64,
            "chained loads ({cc}) must serialize vs independent ({ci})"
        );
    }

    #[test]
    fn taken_branches_cost_a_bubble() {
        let loopy = r#"
            li x1, 0
            li x2, 300
        loop:
            addi x1, x1, 1
            blt x1, x2, loop
            halt
        "#;
        let (cycles, stats) = run_lane(loopy);
        // 2 insts per iteration but the taken branch bubbles: > 2 cycles/iter.
        assert!(cycles >= 600, "taken-branch bubble missing: {cycles}");
        assert!(stats.mispredicts < 20, "loop branch should be learned");
    }

    #[test]
    fn barrier_waits_for_release() {
        let src = "barrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let sim = FuncSim::new(&prog, 2);
        let decoded = Arc::clone(&sim.prog);
        let mut src2 = SimSource(sim);
        let mut mem = MemSystem::new(MemConfig::default(), 1, 8);
        let mut a = InOrderCore::new(LaneCoreConfig::default(), 0, 0, 0, Arc::clone(&decoded));
        let mut b = InOrderCore::new(LaneCoreConfig::default(), 1, 0, 1, decoded);
        let mut now = 0;
        while !(a.done() && b.done()) {
            a.tick(now, &mut mem, &mut src2).unwrap();
            b.tick(now, &mut mem, &mut src2).unwrap();
            now += 1;
            assert!(now < 10_000);
        }
    }

    #[test]
    #[should_panic]
    fn vector_instruction_panics() {
        run_lane("li x1, 8\nsetvl x2, x1\nvid v1\nhalt\n");
    }
}
