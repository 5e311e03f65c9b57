//! Multi-threaded SPMD functional simulation driver.
//!
//! All threads run the same program (they branch on `tid`) against a shared
//! memory. Threads rendezvous at `barrier` instructions: a thread that has
//! executed `barrier` yields [`Step::AtBarrier`] until every other live
//! thread has also arrived. Workloads only communicate across barriers
//! (disjoint writes in between), so any interleaving of the per-thread
//! streams between barriers is architecturally equivalent — this is what
//! lets the timing models pull instructions on their own schedule.

use std::collections::VecDeque;
use std::sync::Arc;

use vlt_isa::{OpClass, Program, MAX_VL};

use crate::arena::{AddrArena, AddrRange};
use crate::block::BlockCache;
use crate::checker::{CheckConfig, Checker};
use crate::error::ExecError;
use crate::interp;
use crate::memory::Memory;
use crate::program::DecodedProgram;
use crate::race::{RaceChecker, RaceConfig};
use crate::state::ArchState;
use crate::trace::{DynInst, DynKind};

/// Which execution engine drives the functional simulation.
///
/// Both engines execute every instruction through the same function,
/// [`crate::interp::exec`], and produce byte-identical [`DynInst`]
/// streams, final memory images, and run summaries. [`EngineMode::Interp`]
/// is retained as the cross-validation oracle for the block engine's
/// chaining, links and run-ahead, exactly as the timing side keeps
/// `DriverMode::CycleByCycle` as the oracle for event-driven skipping.
///
/// The block engine executes ahead of the per-instruction hand-off by up
/// to one compiled block per thread (bounded by
/// [`crate::block::MAX_BLOCK_INSTS`]). For barrier-disciplined programs — the
/// memory model every workload is verified against (`vlt lint --races`) —
/// this is architecturally invisible. The dynamic checkers observe
/// pre-execution state per instruction, so enabling either one routes
/// execution through the interpreter regardless of the configured mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Single-step the instruction interpreter (the oracle).
    Interp,
    /// Chained superblocks of the interpreter's per-instruction executor
    /// (default).
    #[default]
    Block,
}

/// Result of stepping one thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// The thread executed this instruction.
    Inst(DynInst),
    /// The thread is parked at a barrier waiting for the others.
    AtBarrier,
    /// The thread has executed `halt`.
    Halted,
}

/// Aggregate statistics from a functional run (Table 4 inputs).
///
/// [`RunSummary::record`] is the one definition of what an executed
/// instruction adds to these counts: both engines' runs and the static DLP
/// walk (`vlt_verify::dlp`) count through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Total dynamic instructions across all threads.
    pub insts: u64,
    /// Dynamic instructions per thread.
    pub per_thread: Vec<u64>,
    /// Dynamic vector instructions (arith + memory + VCL ops).
    pub vector_insts: u64,
    /// Total vector *element* operations (sum of effective VL).
    pub elem_ops: u64,
    /// Scalar operations (non-vector, non-system instructions).
    pub scalar_ops: u64,
    /// Histogram of vector lengths (index = VL, 0..=64).
    pub vl_histogram: Vec<u64>,
}

impl Default for RunSummary {
    /// No instructions, no threads, and a histogram bucket for every VL.
    fn default() -> Self {
        RunSummary {
            insts: 0,
            per_thread: Vec::new(),
            vector_insts: 0,
            elem_ops: 0,
            scalar_ops: 0,
            vl_histogram: vec![0; MAX_VL + 1],
        }
    }
}

impl RunSummary {
    /// Count one executed instruction of class `class`. Here and in
    /// [`RunSummary::merge`], `per_thread` is the caller's to attribute.
    #[inline]
    pub fn record(&mut self, class: OpClass, d: &DynInst) {
        self.insts += 1;
        if class.is_vector() {
            self.vector_insts += 1;
            self.elem_ops += d.elems() as u64;
            if d.vl > 0 {
                self.vl_histogram[(d.vl as usize).min(MAX_VL)] += 1;
            }
        } else if !matches!(d.kind, DynKind::Barrier | DynKind::Halt | DynKind::VltCfg { .. }) {
            self.scalar_ops += 1;
        }
    }

    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: &RunSummary) {
        self.insts += other.insts;
        self.vector_insts += other.vector_insts;
        self.elem_ops += other.elem_ops;
        self.scalar_ops += other.scalar_ops;
        for (a, b) in self.vl_histogram.iter_mut().zip(&other.vl_histogram) {
            *a += b;
        }
    }

    /// Percentage of operations that are vector element operations —
    /// the paper's "% Vect" (Table 4), measured in operations.
    pub fn pct_vectorization(&self) -> f64 {
        let total = (self.scalar_ops + self.elem_ops) as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.elem_ops as f64 / total
        }
    }

    /// Average vector length over vector instructions with a VL.
    pub fn avg_vl(&self) -> f64 {
        let count: u64 = self.vl_histogram.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let weighted: u64 = self.vl_histogram.iter().enumerate().map(|(vl, n)| vl as u64 * n).sum();
        weighted as f64 / count as f64
    }

    /// The most frequent vector lengths, most common first (up to `k`).
    pub fn common_vls(&self, k: usize) -> Vec<usize> {
        let mut pairs: Vec<(usize, u64)> = self
            .vl_histogram
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(vl, n)| (vl, *n))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.into_iter().take(k).map(|(vl, _)| vl).collect()
    }
}

/// The functional simulator: shared memory + per-thread state + barriers.
#[derive(Debug)]
pub struct FuncSim {
    /// Pre-decoded program (shared with the timing models).
    pub prog: Arc<DecodedProgram>,
    /// Shared memory image.
    pub mem: Memory,
    threads: Vec<ArchState>,
    waiting: Vec<bool>,
    arena: AddrArena,
    releases: u64,
    checker: Option<Checker>,
    race: Option<RaceChecker>,
    engine: EngineMode,
    cache: BlockCache,
    /// Per-thread queue of block-executed instructions not yet handed out.
    pending: Vec<VecDeque<DynInst>>,
    /// Total instructions executed so far.
    pub executed: u64,
}

impl FuncSim {
    /// Most software threads one simulation runs.
    pub const MAX_THREADS: usize = 64;

    /// Set up `nthr` threads at the program entry point; `nthr` must lie in
    /// `1..=MAX_THREADS`.
    pub fn new(prog: &Program, nthr: usize) -> Self {
        assert!((1..=Self::MAX_THREADS).contains(&nthr), "thread count out of range");
        let decoded = DecodedProgram::new(prog);
        let mem = Memory::load(prog);
        let threads = (0..nthr).map(|t| ArchState::new(prog.entry, t, nthr)).collect();
        let cache = BlockCache::new(decoded.len());
        FuncSim {
            prog: decoded,
            mem,
            threads,
            waiting: vec![false; nthr],
            arena: AddrArena::new(nthr),
            releases: 0,
            checker: None,
            race: None,
            engine: EngineMode::default(),
            cache,
            pending: vec![VecDeque::new(); nthr],
            executed: 0,
        }
    }

    /// Select the execution engine. Switch before running; switching to
    /// [`EngineMode::Interp`] mid-run still drains instructions the block
    /// engine already executed.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.engine = engine;
    }

    /// Builder-style [`FuncSim::set_engine`].
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.set_engine(engine);
        self
    }

    /// The configured execution engine.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// True when the block engine actually drives execution: configured,
    /// and no per-instruction observer (checker/race checker) needs to see
    /// pre-execution state.
    fn block_ok(&self) -> bool {
        self.engine == EngineMode::Block && self.checker.is_none() && self.race.is_none()
    }

    /// Turn on checked mode: every subsequently executed instruction is
    /// observed by a [`Checker`] that records undefined reads and
    /// out-of-bounds/misaligned accesses the forgiving memory system never
    /// faults on. See [`crate::checker`] for the cross-validation contract
    /// with the static verifier.
    pub fn enable_checker(&mut self, cfg: CheckConfig) {
        let nthr = self.threads.len();
        let data_len = self.prog.program.data.len();
        self.checker = Some(Checker::new(nthr, data_len, cfg));
    }

    /// The checked-mode observer, if [`FuncSim::enable_checker`] was called.
    pub fn checker(&self) -> Option<&Checker> {
        self.checker.as_ref()
    }

    /// Turn on the dynamic barrier-epoch race checker: every subsequently
    /// executed memory access is recorded against its thread's barrier
    /// epoch, and same-epoch cross-thread overlaps with at least one write
    /// are reported. See [`crate::race`] for the cross-validation contract
    /// with the static race analysis.
    pub fn enable_race_checker(&mut self, cfg: RaceConfig) {
        self.race = Some(RaceChecker::new(self.threads.len(), cfg));
    }

    /// The race-checker observer, if [`FuncSim::enable_race_checker`] was
    /// called.
    pub fn race_checker(&self) -> Option<&RaceChecker> {
        self.race.as_ref()
    }

    /// The element-address arena backing `DynKind::VMem` ranges.
    pub fn arena(&self) -> &AddrArena {
        &self.arena
    }

    /// Resolve a vector memory instruction's element addresses.
    #[inline]
    pub fn addrs(&self, r: AddrRange) -> &[u64] {
        self.arena.slice(r)
    }

    /// Number of barrier rendezvous completed so far. Counted exactly at
    /// the moment a barrier opens (every live thread arrived), so it is
    /// correct even when thread counts don't divide evenly into fetch
    /// totals or when threads halt before a later barrier.
    pub fn barrier_releases(&self) -> u64 {
        self.releases
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// True when thread `t`'s next [`FuncSim::step_thread`] is guaranteed to
    /// return [`Step::AtBarrier`] with no side effects: the thread is parked
    /// at a barrier that has not opened, and only *another* thread's progress
    /// can change that. A released-but-unconsumed barrier reports `false`
    /// (the flags clear lazily at the next `step_thread`, which does make
    /// progress). Non-mutating, for the timing driver's idle-cycle skipping.
    pub fn thread_parked(&self, t: usize) -> bool {
        !self.threads[t].halted && self.waiting[t] && !self.barrier_released()
    }

    /// Immutable view of a thread's architectural state.
    pub fn thread(&self, t: usize) -> &ArchState {
        &self.threads[t]
    }

    /// True when every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Advance thread `t` by one instruction (or report its parked state).
    pub fn step_thread(&mut self, t: usize) -> Result<Step, ExecError> {
        if self.threads[t].halted {
            return Ok(Step::Halted);
        }
        // Hand out block-executed instructions first. `executed` counts at
        // hand-out, not at block-execution time, so it advances exactly as
        // under the interpreter.
        if let Some(d) = self.pending[t].pop_front() {
            self.executed += 1;
            return Ok(Step::Inst(d));
        }
        if !self.unpark(t) {
            return Ok(Step::AtBarrier);
        }
        if self.block_ok() {
            let Self { threads, mem, prog, arena, cache, pending, .. } = self;
            let st = &mut threads[t];
            let q = &mut pending[t];
            let ran = cache.run(st, mem, prog, arena, false, &mut |d| {
                q.push_back(d);
                Ok(())
            })?;
            if ran {
                let d = self.pending[t].pop_front().expect("a block always emits");
                self.executed += 1;
                return Ok(Step::Inst(d));
            }
            // No block at this PC (barrier/halt/vltcfg or a wild jump):
            // fall through to one interpreter step.
        }
        if let Some(ck) = self.checker.as_mut() {
            if let Some(sidx) = self.prog.index_of(self.threads[t].pc) {
                ck.observe(t, &self.threads[t], self.prog.get(sidx), sidx);
            }
        }
        let d = interp::step(&mut self.threads[t], &mut self.mem, &self.prog, &mut self.arena)?;
        self.executed += 1;
        if let Some(rc) = self.race.as_mut() {
            rc.observe(t, &d, &self.arena, &self.prog);
        }
        if d.kind == DynKind::Barrier {
            self.waiting[t] = true;
        }
        Ok(Step::Inst(d))
    }

    /// A barrier opens once every live (non-halted) thread is waiting.
    fn barrier_released(&self) -> bool {
        self.threads.iter().zip(&self.waiting).all(|(st, w)| st.halted || *w)
    }

    /// Clear thread `t`'s barrier wait if its rendezvous has completed.
    /// Returns `false` while the thread stays parked.
    fn unpark(&mut self, t: usize) -> bool {
        if self.waiting[t] {
            if !self.barrier_released() {
                return false;
            }
            for w in self.waiting.iter_mut() {
                *w = false;
            }
            // Exactly one rendezvous completed: the flags clear once
            // per barrier, however many threads participate.
            self.releases += 1;
        }
        true
    }

    /// Round-robin all threads to completion, collecting summary statistics.
    ///
    /// `budget` bounds total instructions to catch runaway kernels.
    pub fn run_to_completion(&mut self, budget: u64) -> Result<RunSummary, ExecError> {
        let n = self.num_threads();
        let mut summary = RunSummary { per_thread: vec![0; n], ..RunSummary::default() };
        // Batch per thread between scheduling points to keep this fast while
        // still interleaving at barriers.
        while !self.all_halted() {
            let mut progressed = false;
            for t in 0..n {
                if self.block_ok() {
                    progressed |= self.run_thread_block(t, budget, &mut summary)?;
                    continue;
                }
                while let Step::Inst(d) = self.step_thread(t)? {
                    progressed = true;
                    count(&self.prog, t, &d, &mut summary, budget)?;
                    if matches!(d.kind, DynKind::Barrier | DynKind::Halt) {
                        break;
                    }
                }
            }
            if !progressed && !self.all_halted() {
                // All live threads are parked and the barrier never opened:
                // impossible by construction, but guard against hangs.
                unreachable!("barrier deadlock with live threads");
            }
        }
        Ok(summary)
    }

    /// Block-engine inner loop of [`FuncSim::run_to_completion`]: chain
    /// compiled blocks (accounting instructions straight into `summary`,
    /// with no hand-off queue) until this thread parks at a barrier or
    /// halts. Scheduling points are identical to the interpreter loop —
    /// threads batch between barriers either way. Returns whether the
    /// thread made progress.
    fn run_thread_block(
        &mut self,
        t: usize,
        budget: u64,
        summary: &mut RunSummary,
    ) -> Result<bool, ExecError> {
        let mut progressed = false;
        // Drain anything a prior single-step phase left queued.
        while let Some(d) = self.pending[t].pop_front() {
            self.executed += 1;
            progressed = true;
            count(&self.prog, t, &d, summary, budget)?;
        }
        loop {
            if self.threads[t].halted {
                return Ok(progressed);
            }
            if !self.unpark(t) {
                return Ok(progressed);
            }
            let Self { threads, mem, prog, arena, cache, executed, .. } = self;
            let prog: &DecodedProgram = prog;
            let st = &mut threads[t];
            let ran = cache.run(st, mem, prog, arena, true, &mut |d| {
                *executed += 1;
                count(prog, t, &d, summary, budget)
            })?;
            progressed |= ran;
            // The next instruction has no block: barrier, halt, vltcfg, or
            // a wild PC. One interpreter step handles it (and its driver
            // state), then blocks resume.
            match self.step_thread(t)? {
                Step::Inst(d) => {
                    progressed = true;
                    count(&self.prog, t, &d, summary, budget)?;
                    if matches!(d.kind, DynKind::Barrier | DynKind::Halt) {
                        return Ok(true);
                    }
                }
                Step::AtBarrier | Step::Halted => return Ok(progressed),
            }
        }
    }
}

/// Count one instruction thread `t` executed, and fail the run past its
/// instruction `budget` (a free function, so the block engine's sink can
/// count while `FuncSim` is split-borrowed). Always inlined: called out of
/// line once per instruction, it cut the block replay's rate by a third.
#[inline(always)]
fn count(
    prog: &DecodedProgram,
    t: usize,
    d: &DynInst,
    s: &mut RunSummary,
    budget: u64,
) -> Result<(), ExecError> {
    s.per_thread[t] += 1;
    s.record(prog.get(d.sidx as usize).class, d);
    if s.insts > budget {
        return Err(ExecError::Budget { executed: s.insts });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    #[test]
    fn single_thread_halts() {
        let p = assemble("li x1, 5\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 1);
        let s = sim.run_to_completion(100).unwrap();
        assert!(sim.all_halted());
        assert_eq!(sim.thread(0).x[1], 5);
        assert_eq!(s.insts, 2);
    }

    #[test]
    fn budget_catches_infinite_loops() {
        let p = assemble("loop:\nj loop\n").unwrap();
        let mut sim = FuncSim::new(&p, 1);
        assert!(matches!(sim.run_to_completion(1000), Err(ExecError::Budget { .. })));
    }

    #[test]
    fn barrier_rendezvous_two_threads() {
        // Each thread stores its tid, barriers, then reads the other's slot.
        let src = r#"
            .data
        slots:
            .dword 0, 0
            .text
            tid   x1
            la    x2, slots
            slli  x3, x1, 3
            add   x2, x2, x3
            sd    x1, 0(x2)
            barrier
            # read the sibling slot: (1 - tid) * 8 + slots
            li    x4, 1
            sub   x4, x4, x1
            slli  x4, x4, 3
            la    x5, slots
            add   x5, x5, x4
            ld    x6, 0(x5)
            halt
        "#;
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p, 2);
        sim.run_to_completion(10_000).unwrap();
        // Thread 0 saw thread 1's store and vice versa.
        assert_eq!(sim.thread(0).x[6], 1);
        assert_eq!(sim.thread(1).x[6], 0);
    }

    #[test]
    fn step_thread_parks_at_barrier() {
        let p = assemble("barrier\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 2);
        // Thread 0 executes the barrier...
        assert!(matches!(sim.step_thread(0).unwrap(), Step::Inst(_)));
        // ...and is now parked.
        assert_eq!(sim.step_thread(0).unwrap(), Step::AtBarrier);
        assert_eq!(sim.step_thread(0).unwrap(), Step::AtBarrier);
        // Thread 1 arrives; barrier opens.
        assert!(matches!(sim.step_thread(1).unwrap(), Step::Inst(_)));
        assert!(matches!(sim.step_thread(0).unwrap(), Step::Inst(_))); // halt
        assert!(matches!(sim.step_thread(1).unwrap(), Step::Inst(_))); // halt
        assert!(sim.all_halted());
    }

    #[test]
    fn halted_thread_does_not_block_barrier() {
        let src = r#"
            tid  x1
            bnez x1, worker
            halt
        worker:
            barrier
            halt
        "#;
        // With 2 threads: thread 0 halts immediately; thread 1 barriers alone.
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p, 2);
        sim.run_to_completion(1000).unwrap();
        assert!(sim.all_halted());
    }

    #[test]
    fn summary_counts_vector_work() {
        let src = r#"
            li      x1, 16
            setvl   x2, x1
            vid     v1
            vadd.vv v2, v1, v1
            vadd.vv v3, v2, v1
            halt
        "#;
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p, 1);
        let s = sim.run_to_completion(1000).unwrap();
        assert_eq!(s.vl_histogram[16], 3); // vid + 2 vadds
        assert_eq!(s.elem_ops, 48);
        assert!(s.pct_vectorization() > 50.0);
        assert_eq!(s.common_vls(1), vec![16]);
        assert!((s.avg_vl() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn bad_pc_reported() {
        let p = assemble("jr x5\n").unwrap(); // x5 = 0 -> wild jump
        let mut sim = FuncSim::new(&p, 1);
        sim.step_thread(0).unwrap();
        assert!(matches!(sim.step_thread(0), Err(ExecError::BadPc { .. })));
    }
}
