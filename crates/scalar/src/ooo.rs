//! The out-of-order superscalar scalar unit (SU).
//!
//! Pipeline model (one `tick` per cycle):
//!
//! 1. **Poll** — every vector instruction retires from the ROB at
//!    dispatch, so the vector unit is polled for the instructions handed
//!    to it, in dispatch order; a completion publishes the instruction's
//!    register effects and resolves dependent consumers. Only an issue
//!    makes a poll succeed, so the pass runs only in a cycle after the
//!    vector units' issue count ([`VectorSink::issued`]) moved.
//! 2. **Commit** — in-order per context, total width shared across SMT
//!    contexts.
//! 3. **Issue** — oldest-ready-first across contexts, bounded by issue
//!    width, arithmetic units, memory ports, and an unpipelined divider.
//!    Issue reads only the core's ready list: an entry joins it at
//!    dispatch when none of its producers is outstanding, or when the
//!    last one resolves. A context keeps one (producer, consumer) edge
//!    per outstanding dependence, and a resolving producer visits only
//!    those edges, so a cycle costs O(ready + woken), not a window scan.
//!    A scalar producer's resolution reaches the vector unit only when a
//!    dispatched vector instruction named it.
//! 4. **Fetch/dispatch** — one context per cycle (ICOUNT-style choice),
//!    up to `width` instructions; branch predictor consulted against the
//!    known outcome, charging a redirect penalty on mispredicts; vector
//!    instructions are handed to the vector unit in program order with a
//!    dependence snapshot.
//!
//! Each context numbers its dispatches densely: an entry's *ordinal* is
//! its ROB slot plus the entries committed before it, so the register map,
//! the edges and the ready list reach an entry in O(1). Seqs, unique per
//! core, give the age order across contexts and name producers to the
//! vector unit.
//!
//! Register renaming is modeled as unlimited physical registers: only true
//! (RAW) dependences constrain issue, while the window bounds run-ahead
//! (DESIGN.md §8).

use std::collections::VecDeque;
use std::sync::Arc;

use vlt_exec::{DecodedProgram, DynInst, DynKind, ExecError};
use vlt_isa::{OpClass, RegRef};
use vlt_mem::MemSystem;

use crate::config::CoreConfig;
use crate::predictor::Predictor;
use crate::stall::{StallBreakdown, StallCause};
use crate::traits::{
    fold_event, thread_bit, DepSet, FetchResult, FetchSource, VecDispatch, VecToken, VectorSink,
    MAX_SRCS,
};

/// Execution latency by class (cycles from issue to result availability).
pub fn latency(class: OpClass) -> u64 {
    match class {
        OpClass::IntAlu | OpClass::Sys => 1,
        OpClass::IntMul => 3,
        OpClass::IntDiv => 12,
        OpClass::FpAdd => 4,
        OpClass::FpMul => 4,
        OpClass::FpDiv => 16,
        OpClass::Branch | OpClass::Jump => 1,
        // Memory and vector classes are timed elsewhere.
        _ => 1,
    }
}

/// The unpipelined divider's classes.
#[inline]
fn is_div(class: OpClass) -> bool {
    matches!(class, OpClass::IntDiv | OpClass::FpDiv)
}

/// Aggregated per-core statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions committed (all contexts).
    pub committed: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Vector instructions dispatched to the vector unit.
    pub vec_dispatched: u64,
    /// Cycles the front end was stalled on redirects or I-cache misses.
    pub fetch_stall_cycles: u64,
    /// Cycles with at least one in-flight instruction.
    pub busy_cycles: u64,
    /// Branch mispredictions charged.
    pub mispredicts: u64,
    /// Why each fetch-stall cycle was lost. Conservation invariant:
    /// `stalls.total() == fetch_stall_cycles` at all times, under both
    /// drivers.
    pub stalls: StallBreakdown,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EKind {
    /// Scalar computation, branches, system ops.
    Alu,
    /// Scalar memory access.
    Mem { addr: u64, write: bool },
    /// Vector instruction handed to the vector unit. It is complete in the
    /// ROB from dispatch (the VU window tracks it — paper §2's decoupled
    /// vector execution); its register effects, scalar destinations of
    /// reductions included, publish when the VU reports its completion.
    Vector,
    /// Barrier marker (completes immediately; fetch gating enforces order).
    Barrier,
    /// Serializing instruction (`vltcfg`): drains the ROB.
    Serialize,
    /// Commits immediately (halt marker).
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    sidx: u32,
    class: OpClass,
    kind: EKind,
    /// Producers still unresolved, one edge each in the context's `edges`.
    waiting: u8,
    /// Max completion cycle of already-resolved producers.
    ready_base: u64,
    /// Completion cycle, known from issue (from dispatch for entries that
    /// never issue: barriers, halts and vector instructions).
    done_at: Option<u64>,
    /// A dispatched vector instruction named this unissued scalar entry as
    /// a producer, so its resolution must reach the vector unit.
    vec_consumer: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Producer {
    Ready(u64),
    /// Not yet resolved: the producer's seq (its name to the vector unit)
    /// and its ordinal in the context (its ROB slot while it is there).
    InFlight {
        seq: u64,
        ord: u64,
    },
}

/// A dispatched, unissued entry with no unresolved producer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ready {
    seq: u64,
    ci: usize,
    ord: u64,
    ready_base: u64,
}

/// A vector instruction handed to the vector unit, awaiting its
/// completion.
#[derive(Debug, Clone, Copy)]
struct PendingVec {
    ci: usize,
    seq: u64,
    ord: u64,
    sidx: u32,
    token: VecToken,
}

#[derive(Debug)]
struct Ctx {
    /// Bound software thread (None = context unused).
    thread: Option<usize>,
    /// VLT thread id for vector-unit scoping.
    vthread: usize,
    /// In dispatch order: the entry with ordinal `ord` sits at
    /// `ord - popped`.
    rob: VecDeque<Entry>,
    /// Entries committed so far, which is the ordinal of the ROB's head.
    popped: u64,
    /// (producer ordinal, consumer ordinal) for every unresolved dependence
    /// of an unissued entry; the producer may already have left the ROB for
    /// the vector unit.
    edges: Vec<(u64, u64)>,
    /// Latest producer per architectural register.
    reg_map: Vec<Producer>,
    fetch_ready: u64,
    last_fetch_line: u64,
    /// An instruction pulled from the source but not yet accepted
    /// (window full, I-cache miss, or VIQ full).
    pending: Option<DynInst>,
    /// The vector unit refused `pending` at its last dispatch attempt.
    /// Only another unit can make room (a freed window slot, an applied
    /// repartition), and the driver wakes the core when one does.
    refused: bool,
    halted: bool,
    draining: bool,
}

/// Most hardware contexts one core holds ([`CoreConfig::with_smt`]).
const MAX_CONTEXTS: usize = 4;

/// Flatten a register reference into the `reg_map` index space.
#[inline]
fn reg_index(r: RegRef) -> usize {
    match r {
        RegRef::I(i) => i as usize,
        RegRef::F(i) => 32 + i as usize,
        RegRef::V(i) => 64 + i as usize,
        RegRef::Vl => 96,
        RegRef::Vm => 97,
    }
}
const REG_SPACE: usize = 98;

impl Ctx {
    fn new() -> Self {
        Ctx {
            thread: None,
            vthread: 0,
            rob: VecDeque::new(),
            popped: 0,
            edges: Vec::new(),
            reg_map: vec![Producer::Ready(0); REG_SPACE],
            fetch_ready: 0,
            last_fetch_line: u64::MAX,
            pending: None,
            refused: false,
            halted: false,
            draining: false,
        }
    }

    fn active(&self) -> bool {
        self.thread.is_some() && !(self.halted && self.rob.is_empty() && self.pending.is_none())
    }

    /// ROB position of the entry with ordinal `ord`, which has not
    /// committed.
    #[inline]
    fn pos(&self, ord: u64) -> usize {
        (ord - self.popped) as usize
    }

    /// The entry with ordinal `ord`, or `None` once it has committed.
    #[inline]
    fn entry(&self, ord: u64) -> Option<&Entry> {
        self.rob.get(usize::try_from(ord.checked_sub(self.popped)?).ok()?)
    }
}

/// The out-of-order scalar unit.
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    core_id: usize,
    prog: Arc<DecodedProgram>,
    pred: Predictor,
    ctxs: Vec<Ctx>,
    /// Vector instructions awaiting VU completion, in dispatch order.
    pending_vec: Vec<PendingVec>,
    /// Completions one poll picked up, with their cycles; a buffer reused
    /// across cycles.
    completed: Vec<(PendingVec, u64)>,
    /// Every dispatched, unissued entry with no unresolved producer, in no
    /// particular order.
    ready: Vec<Ready>,
    /// The vector units' [`VectorSink::issued`] count at the last poll
    /// pass.
    polled_issues: u64,
    seq_next: u64,
    div_free: u64,
    /// Statistics counters.
    pub stats: CoreStats,
}

impl OooCore {
    /// Build a core; contexts are bound with [`OooCore::bind`].
    pub fn new(cfg: CoreConfig, core_id: usize, prog: Arc<DecodedProgram>) -> Self {
        assert!(cfg.smt_contexts <= MAX_CONTEXTS, "at most {MAX_CONTEXTS} contexts per core");
        let ctxs = (0..cfg.smt_contexts).map(|_| Ctx::new()).collect();
        OooCore {
            cfg,
            core_id,
            prog,
            pred: Predictor::default_su(),
            ctxs,
            pending_vec: Vec::new(),
            completed: Vec::new(),
            ready: Vec::new(),
            polled_issues: 0,
            seq_next: 0,
            div_free: 0,
            stats: CoreStats::default(),
        }
    }

    /// Bind hardware context `ctx` to software thread `thread`, tagged with
    /// VLT thread id `vthread` for vector-unit scoping.
    pub fn bind(&mut self, ctx: usize, thread: usize, vthread: usize) {
        let c = &mut self.ctxs[ctx];
        assert!(c.thread.is_none(), "context already bound");
        c.thread = Some(thread);
        c.vthread = vthread;
    }

    /// True when every bound context has drained and halted (including
    /// early-retired vector instructions still executing in the VU).
    pub fn done(&self) -> bool {
        self.pending_vec.is_empty() && self.ctxs.iter().all(|c| !c.active())
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Branch predictor statistics access.
    pub fn predictor(&self) -> &Predictor {
        &self.pred
    }

    /// Instructions committed, issued and dispatched so far: a count that
    /// moves in every tick that does the core's main work. The driver asks
    /// a core whose tick left it unchanged for its [`OooCore::next_event`].
    pub fn progress(&self) -> u64 {
        self.stats.committed + self.stats.issued + self.seq_next
    }

    /// Some vector instruction this core handed over awaits its
    /// completion, and one of `threads` (a set of [`thread_bit`]s) runs
    /// here: an issue for those threads may complete it.
    pub fn awaits_vector(&self, threads: u64) -> bool {
        !self.pending_vec.is_empty()
            && self.ctxs.iter().filter_map(|c| c.thread).any(|t| thread_bit(t) & threads != 0)
    }

    /// Some context holds a vector instruction the vector unit refused: a
    /// freed window slot or an applied repartition may admit it.
    pub fn refused(&self) -> bool {
        self.ctxs.iter().any(|c| c.refused)
    }

    /// Earliest cycle `>= from` at which this core can next change state:
    /// a head entry becomes committable, a ready-listed entry reaches its
    /// `ready_base`, a redirect/I-cache penalty expires, or the front end can
    /// pull a new instruction. `None` means the core is inert until some
    /// other unit acts: it is drained, its contexts are parked at a
    /// barrier, it awaits vector completions, or the vector unit refused
    /// its stashed vector instruction. The driver wakes the core on each of
    /// those acts (DESIGN.md §6).
    ///
    /// The contract shared by all `next_event` implementations: the returned
    /// cycle is never *later* than the true first state change — reporting
    /// too early merely costs a tick (`Some(from)` means "cannot sleep").
    /// Completed non-head ROB entries are inert here because producers
    /// broadcast their completion cycle at issue time, not at commit.
    /// `fetch_ready` is reported for every bound context so the
    /// fetch-eligibility predicate (and with it the `fetch_stall_cycles`
    /// accounting in [`OooCore::credit_idle_span`]) is constant over any
    /// span the core sleeps through.
    pub fn next_event(&self, from: u64, src: &dyn FetchSource) -> Option<u64> {
        if self.done() {
            return None;
        }
        let mut ev: Option<u64> = None;
        // Ready entries issue at `ready_base`; entries still waiting on a
        // producer wake through that producer's own event.
        for r in &self.ready {
            fold_event(&mut ev, r.ready_base.max(from));
        }
        for c in &self.ctxs {
            let Some(thread) = c.thread else { continue };
            if let Some(head) = c.rob.front() {
                if let Some(d) = head.done_at {
                    fold_event(&mut ev, d.max(from));
                }
            }
            if c.halted {
                continue; // drains through commit events alone
            }
            if c.fetch_ready > from {
                fold_event(&mut ev, c.fetch_ready);
                continue;
            }
            if c.draining {
                continue; // cleared by the Serialize commit (head event)
            }
            if c.pending.is_some() {
                // Stashed instruction retried while the window has room,
                // unless the vector unit refused it: then the unit that
                // makes room wakes the core.
                if !c.refused && c.rob.len() < self.cfg.window_per_ctx() {
                    fold_event(&mut ev, from);
                }
                continue;
            }
            if c.rob.len() < self.cfg.window_per_ctx() && !src.parked(thread) {
                fold_event(&mut ev, from); // front end can fetch right now
            }
        }
        ev
    }

    /// Credit a span of `cycles` cycles starting at `from` that the core
    /// slept through to the per-cycle counters, exactly as cycle-by-cycle
    /// ticks would have (see [`OooCore::stats_after_idle`]).
    pub fn credit_idle_span(&mut self, from: u64, cycles: u64) {
        self.stats = self.stats_after_idle(from, cycles);
    }

    /// The statistics as they read once an idle span of `cycles` cycles
    /// from `from` is credited: `busy_cycles` accrues while any context
    /// holds in-flight work, and `fetch_stall_cycles` accrues while no
    /// context is fetch-eligible but some context is still active. Both
    /// predicates are constant across a span the core sleeps through —
    /// [`OooCore::next_event`] ends the span at anything that could flip
    /// them.
    pub fn stats_after_idle(&self, from: u64, cycles: u64) -> CoreStats {
        let mut stats = self.stats.clone();
        if self.ctxs.iter().any(|c| !c.rob.is_empty()) {
            stats.busy_cycles += cycles;
        }
        let any_eligible = self.ctxs.iter().any(|c| {
            c.thread.is_some()
                && !c.halted
                && !c.draining
                && c.fetch_ready <= from
                && (c.rob.len() < self.cfg.window_per_ctx() || c.pending.is_some())
        });
        if !any_eligible && self.ctxs.iter().any(|c| c.active()) {
            stats.fetch_stall_cycles += cycles;
            stats.stalls.add(self.fetch_stall_cause(from), cycles);
        }
        stats
    }

    /// Classify *why* no context is fetch-eligible this cycle, for
    /// stall-cause attribution. Called from the per-cycle fetch stage and
    /// from [`OooCore::stats_after_idle`]; every predicate it reads is
    /// constant across a slept span ([`OooCore::next_event`] folds each
    /// context's `fetch_ready`, the head entry's completion, and the
    /// `ready_base` of every ready-listed entry, and ROB membership only
    /// changes inside `tick`), so both paths tag identically.
    ///
    /// Priority (fixed, so attribution is deterministic): a draining
    /// context ([`StallCause::Drain`]), then a front-end redirect/I-cache
    /// penalty ([`StallCause::IssueWidth`]), then a full window classified
    /// by the oldest uncompleted entry — an in-flight vector producer
    /// ([`StallCause::ChainDepth`]), a memory access
    /// ([`StallCause::BankConflict`]), or a scalar dependence chain
    /// ([`StallCause::ScalarDep`]). A full window of *completed* entries is
    /// commit-bandwidth pressure and tags [`StallCause::IssueWidth`].
    fn fetch_stall_cause(&self, now: u64) -> StallCause {
        let (mut drain, mut redirect, mut chain, mut bank, mut scalar, mut commit_bw) =
            (false, false, false, false, false, false);
        for c in &self.ctxs {
            if c.thread.is_none() || !c.active() {
                continue;
            }
            if c.draining {
                drain = true;
                continue;
            }
            if !c.halted && c.fetch_ready > now {
                redirect = true;
                continue;
            }
            // Window full (or halted and draining through commit): classify
            // by the oldest entry that has not completed yet.
            match c.rob.iter().find(|e| e.done_at.is_none_or(|d| d > now)) {
                Some(e) => match e.kind {
                    EKind::Vector => chain = true,
                    EKind::Mem { .. } => bank = true,
                    _ => scalar = true,
                },
                None => commit_bw = true,
            }
        }
        if drain {
            StallCause::Drain
        } else if redirect {
            StallCause::IssueWidth
        } else if chain {
            StallCause::ChainDepth
        } else if bank {
            StallCause::BankConflict
        } else if scalar {
            StallCause::ScalarDep
        } else if commit_bw {
            StallCause::IssueWidth
        } else {
            // Unreachable when the caller established an active context with
            // none fetch-eligible; keep the counters conserved regardless.
            StallCause::ScalarDep
        }
    }

    /// Advance one cycle.
    pub fn tick(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
        src: &mut dyn FetchSource,
        vu: &mut dyn VectorSink,
    ) -> Result<(), ExecError> {
        if self.ctxs.iter().any(|c| !c.rob.is_empty()) {
            self.stats.busy_cycles += 1;
        }
        self.poll_vector(vu);
        self.commit(now);
        self.issue(now, mem, vu);
        self.fetch(now, mem, src, vu)?;
        #[cfg(debug_assertions)]
        self.check_schedule();
        Ok(())
    }

    /// The scheduling state matches the ROB: every in-flight producer in
    /// the register map names, by seq and ordinal, its ROB entry or (once
    /// committed) a vector instruction awaiting its poll; every edge joins
    /// such a producer to an unissued consumer in the ROB; each entry's
    /// `waiting` equals the edges naming it as consumer; and the ready list
    /// holds each unissued entry with no unresolved producer exactly once,
    /// with its `ready_base`.
    #[cfg(debug_assertions)]
    fn check_schedule(&self) {
        let mut listed = 0;
        for (ci, c) in self.ctxs.iter().enumerate() {
            let holds = |seq: u64, ord: u64| match c.entry(ord) {
                Some(e) => e.seq == seq,
                None => {
                    ord < c.popped
                        && self.pending_vec.iter().any(|p| (p.ci, p.seq, p.ord) == (ci, seq, ord))
                }
            };
            for &r in &c.reg_map {
                if let Producer::InFlight { seq, ord } = r {
                    assert!(
                        holds(seq, ord),
                        "reg_map: seq {seq} at ordinal {ord} names no producer"
                    );
                }
            }
            let mut edges = vec![0usize; c.rob.len()];
            for &(p, q) in &c.edges {
                let e =
                    c.entry(q).unwrap_or_else(|| panic!("edge {p} -> {q}: consumer out of range"));
                assert!(e.done_at.is_none(), "edge {p} -> {q}: consumer issued");
                assert!(p < q, "edge {p} -> {q}: producer not older");
                assert!(
                    c.entry(p).is_some()
                        || self.pending_vec.iter().any(|v| (v.ci, v.ord) == (ci, p)),
                    "edge {p} -> {q}: producer neither in the ROB nor pending in the VU"
                );
                edges[c.pos(q)] += 1;
            }
            for (k, (e, &n)) in c.rob.iter().zip(&edges).enumerate() {
                assert_eq!(usize::from(e.waiting), n, "seq {}: waiting != edges", e.seq);
                if e.done_at.is_none() && e.waiting == 0 {
                    let hits: Vec<_> = self.ready.iter().filter(|r| r.seq == e.seq).collect();
                    let want = Ready {
                        seq: e.seq,
                        ci,
                        ord: c.popped + k as u64,
                        ready_base: e.ready_base,
                    };
                    assert_eq!(hits, [&want], "seq {}: ready list", e.seq);
                    listed += 1;
                }
            }
        }
        assert_eq!(self.ready.len(), listed, "ready list holds entries that are not ready");
    }

    /// Stage 1: pick up vector-unit completions in dispatch order (the
    /// VU's stall attribution depends on the order of its resolutions).
    /// A pass runs only after an issue, the one event that makes a poll
    /// succeed ([`VectorSink::issued`]).
    fn poll_vector(&mut self, vu: &mut dyn VectorSink) {
        let issued = vu.issued();
        if issued == self.polled_issues {
            return;
        }
        self.polled_issues = issued;
        let completed = &mut self.completed;
        self.pending_vec.retain(|&p| match vu.poll(p.token) {
            Some(t) => {
                completed.push((p, t));
                false
            }
            None => true,
        });
        let mut completed = std::mem::take(&mut self.completed);
        for (p, t) in completed.drain(..) {
            // Publish register effects now that the completion is known.
            let c = &mut self.ctxs[p.ci];
            for d in &self.prog.get(p.sidx as usize).defs {
                let r = &mut c.reg_map[reg_index(*d)];
                if *r == (Producer::InFlight { seq: p.seq, ord: p.ord }) {
                    *r = Producer::Ready(t);
                }
            }
            // A vector consumer may have named this producer after it
            // issued in the vector unit: it waits for this resolution.
            self.resolve_producer(p.ci, p.ord, p.seq, t, true, vu);
        }
        self.completed = completed;
    }

    /// Broadcast a producer's completion to waiting consumers: this
    /// context's, through its edges, and the vector unit's when `to_vu`.
    /// A consumer whose last producer this was joins the ready list.
    fn resolve_producer(
        &mut self,
        ci: usize,
        ord: u64,
        seq: u64,
        done_at: u64,
        to_vu: bool,
        vu: &mut dyn VectorSink,
    ) {
        let Ctx { rob, popped, edges, vthread, .. } = &mut self.ctxs[ci];
        let ready = &mut self.ready;
        edges.retain(|&(p, q)| {
            if p != ord {
                return true;
            }
            // A consumer stays in the ROB until it issues.
            let e = &mut rob[(q - *popped) as usize];
            e.waiting -= 1;
            e.ready_base = e.ready_base.max(done_at);
            if e.waiting == 0 {
                ready.push(Ready { seq: e.seq, ci, ord: q, ready_base: e.ready_base });
            }
            false
        });
        if to_vu {
            vu.resolve(*vthread, seq, done_at);
        }
    }

    /// Stage 2: in-order commit per context, shared width.
    fn commit(&mut self, now: u64) {
        let mut budget = self.cfg.width;
        let n = self.ctxs.len();
        for k in 0..n {
            let ci = (now as usize + k) % n;
            while budget > 0 {
                let Some(head) = self.ctxs[ci].rob.front() else { break };
                let Some(done) = head.done_at else { break };
                if done > now {
                    break;
                }
                let c = &mut self.ctxs[ci];
                let e = c.rob.pop_front().unwrap();
                let ord = c.popped;
                c.popped += 1;
                // Retire register state: later fetches read Ready(done).
                // Vector entries publish at VU completion (their `done`
                // here is only the dispatch cycle).
                if e.kind != EKind::Vector {
                    for d in &self.prog.get(e.sidx as usize).defs {
                        let r = &mut c.reg_map[reg_index(*d)];
                        if *r == (Producer::InFlight { seq: e.seq, ord }) {
                            *r = Producer::Ready(done);
                        }
                    }
                }
                if e.kind == EKind::Serialize {
                    // Pipeline drained; pay the reconfiguration penalty.
                    self.ctxs[ci].draining = false;
                    self.ctxs[ci].fetch_ready =
                        self.ctxs[ci].fetch_ready.max(now + self.cfg.serialize_penalty);
                }
                self.stats.committed += 1;
                budget -= 1;
            }
        }
    }

    /// Stage 3: issue ready scalar instructions, oldest first.
    fn issue(&mut self, now: u64, mem: &mut MemSystem, vu: &mut dyn VectorSink) {
        let mut slots = self.cfg.width;
        let mut arith = self.cfg.arith_units;
        let mut ports = self.cfg.mem_ports;

        // Global age order: seqs are unique per core. Consumers an issue
        // wakes are appended past `n` and wait for the next cycle.
        self.ready.sort_unstable_by_key(|r| r.seq);
        let n = self.ready.len();
        let mut kept = 0;
        for i in 0..n {
            let r = self.ready[i];
            let issue = if slots == 0 || r.ready_base > now {
                None
            } else {
                let pos = self.ctxs[r.ci].pos(r.ord);
                let (class, kind) = {
                    let e = &self.ctxs[r.ci].rob[pos];
                    (e.class, e.kind)
                };
                let done = match kind {
                    EKind::Alu if arith == 0 => None,
                    EKind::Alu if is_div(class) && self.div_free > now => None,
                    EKind::Alu => {
                        if is_div(class) {
                            self.div_free = now + latency(class);
                        }
                        arith -= 1;
                        Some(now + latency(class))
                    }
                    EKind::Mem { .. } if ports == 0 => None,
                    EKind::Mem { addr, write } => {
                        ports -= 1;
                        let t = mem.data_access(self.core_id, addr, write, now);
                        // Stores complete via the store buffer.
                        Some(if write { now + 1 } else { t })
                    }
                    EKind::Serialize => Some(now + 1),
                    EKind::Barrier | EKind::Done | EKind::Vector => {
                        unreachable!("complete from dispatch, never ready-listed")
                    }
                };
                done.map(|done| (pos, done))
            };
            let Some((pos, done)) = issue else {
                self.ready[kept] = r;
                kept += 1;
                continue;
            };
            slots -= 1;
            self.stats.issued += 1;
            let e = &mut self.ctxs[r.ci].rob[pos];
            e.done_at = Some(done);
            let to_vu = e.vec_consumer;
            self.resolve_producer(r.ci, r.ord, r.seq, done, to_vu, vu);
        }
        self.ready.drain(kept..n);
    }

    /// Stage 4: fetch and dispatch. ICOUNT-ordered, 2.4-style: up to two
    /// contexts share the fetch width each cycle (Tullsen-style fetch
    /// partitioning, which is what lets an SMT SU keep two vector threads
    /// fed nearly as well as replicated SUs — paper §7.1).
    fn fetch(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
        src: &mut dyn FetchSource,
        vu: &mut dyn VectorSink,
    ) -> Result<(), ExecError> {
        // Eligible contexts, fewest in-flight first (a stable sort: ties
        // keep context order).
        let mut eligible = [0usize; MAX_CONTEXTS];
        let mut n = 0;
        for (ci, c) in self.ctxs.iter().enumerate() {
            if c.thread.is_some()
                && !c.halted
                && !c.draining
                && c.fetch_ready <= now
                && (c.rob.len() < self.cfg.window_per_ctx() || c.pending.is_some())
            {
                eligible[n] = ci;
                n += 1;
            }
        }
        let order = &mut eligible[..n];
        order.sort_by_key(|&ci| self.ctxs[ci].rob.len());
        if order.is_empty() {
            if self.ctxs.iter().any(|c| c.active()) {
                self.stats.fetch_stall_cycles += 1;
                self.stats.stalls.add(self.fetch_stall_cause(now), 1);
            }
            return Ok(());
        }

        // Up to two *productive* contexts share the width each cycle. A
        // context parked at a barrier (empty ROB, fetch yields AtBarrier)
        // must not count toward the limit, or it would starve the contexts
        // still working toward that barrier.
        let mut budget = self.cfg.width;
        let mut productive = 0usize;
        for &ci in order.iter() {
            if productive == 2 || budget == 0 {
                break;
            }
            let budget_before = budget;
            let thread = self.ctxs[ci].thread.unwrap();
            while budget > 0 {
                if self.ctxs[ci].rob.len() >= self.cfg.window_per_ctx() {
                    break;
                }
                if self.ctxs[ci].fetch_ready > now || self.ctxs[ci].draining {
                    break;
                }
                // Take the stashed instruction or pull a new one.
                let d = if let Some(p) = self.ctxs[ci].pending.take() {
                    p
                } else {
                    match src.fetch(thread)? {
                        FetchResult::Inst(d) => d,
                        FetchResult::AtBarrier => break,
                        FetchResult::Halted => {
                            self.ctxs[ci].halted = true;
                            break;
                        }
                    }
                };

                // Instruction cache: one access per line transition.
                let line = d.pc >> 6;
                if line != self.ctxs[ci].last_fetch_line {
                    let t = mem.inst_fetch(self.core_id, d.pc, now);
                    self.ctxs[ci].last_fetch_line = line;
                    if t > now + 1 {
                        self.ctxs[ci].fetch_ready = t;
                        self.ctxs[ci].pending = Some(d);
                        break;
                    }
                }

                if !self.dispatch(ci, d, now, vu) {
                    // VIQ full or draining: retry once there is room.
                    break;
                }
                budget -= 1;
            }
            if budget < budget_before {
                productive += 1;
            }
        }
        Ok(())
    }

    /// Rename + dispatch one instruction into the window (and the VU for
    /// vector instructions). Returns false if the VU refused (VIQ full);
    /// the instruction is stashed for retry.
    fn dispatch(&mut self, ci: usize, d: DynInst, now: u64, vu: &mut dyn VectorSink) -> bool {
        let si = self.prog.get(d.sidx as usize);
        let seq = self.seq_next;

        // Dependence snapshot: the producers' seqs (the vector unit's names
        // for them) and ordinals (for this context's edges). An in-flight
        // producer may already have issued (completion cycle known): fold it
        // into `ready_base` instead of recording a dependence whose
        // resolution broadcast already happened.
        let c = &self.ctxs[ci];
        let mut deps = DepSet::EMPTY;
        let mut dep_ords = [0u64; MAX_SRCS];
        let mut scalar_deps = DepSet::EMPTY;
        let mut scalar_ords = [0u64; MAX_SRCS];
        let mut ready_base = 0u64;
        for u in &si.uses {
            match c.reg_map[reg_index(*u)] {
                Producer::Ready(t) => ready_base = ready_base.max(t),
                Producer::InFlight { seq: s, ord } => {
                    let producer = c.entry(ord);
                    match producer {
                        // Vector producers have a placeholder done_at (the
                        // dispatch cycle); they wait for the VU instead.
                        Some(&Entry { kind, done_at: Some(done), .. }) if kind != EKind::Vector => {
                            ready_base = ready_base.max(done)
                        }
                        _ => {
                            debug_assert!(
                                producer.is_some()
                                    || self.pending_vec.iter().any(|p| (p.ci, p.seq) == (ci, s)),
                                "in-flight producer {s} is neither in the ROB nor pending in the VU"
                            );
                            if deps.insert(s) {
                                dep_ords[deps.len() - 1] = ord;
                                // Producers absent from the ROB retired into
                                // the VU; ROB-resident vector entries are
                                // vector producers too. Everything else is a
                                // scalar producer (attribution metadata, read
                                // only by the VU).
                                let vector_producer =
                                    producer.is_none_or(|e| e.kind == EKind::Vector);
                                if !vector_producer && si.class.is_vector() {
                                    scalar_deps.insert(s);
                                    scalar_ords[scalar_deps.len() - 1] = ord;
                                }
                            }
                        }
                    }
                }
            }
        }
        let ord = c.popped + c.rob.len() as u64;

        let kind = match (&d.kind, si.class) {
            (DynKind::Barrier, _) => EKind::Barrier,
            (DynKind::Halt, _) => {
                self.ctxs[ci].halted = true;
                EKind::Done
            }
            (DynKind::VltCfg { .. }, _) => {
                self.ctxs[ci].draining = true;
                EKind::Serialize
            }
            (DynKind::Mem { addr, size: _ }, _) => {
                EKind::Mem { addr: *addr, write: si.class == OpClass::Store }
            }
            (_, c) if c.is_vector() => {
                let addrs = match &d.kind {
                    DynKind::VMem { addrs } => *addrs,
                    _ => vlt_exec::AddrRange::EMPTY,
                };
                // The VU takes the dependence lists: the ROB entry is
                // complete from dispatch and records no edges.
                let disp = VecDispatch {
                    vthread: self.ctxs[ci].vthread,
                    sidx: d.sidx,
                    vl: d.vl,
                    class: si.class,
                    addrs,
                    seq,
                    deps,
                    scalar_deps,
                    ready_base,
                };
                let admitted = vu.try_dispatch(disp, now);
                self.ctxs[ci].refused = admitted.is_none();
                match admitted {
                    Some(token) => {
                        self.stats.vec_dispatched += 1;
                        // All vector instructions retire from the ROB at
                        // dispatch (Cray X1-style: past the point of no
                        // exception, the VU tracks them); register effects
                        // — including scalar destinations of reductions —
                        // publish when the VU completes (poll_vector).
                        self.pending_vec.push(PendingVec { ci, seq, ord, sidx: d.sidx, token });
                        // The scalar producers it waits on now report their
                        // issue to the VU.
                        let c = &mut self.ctxs[ci];
                        for &p in &scalar_ords[..scalar_deps.len()] {
                            let pos = c.pos(p);
                            c.rob[pos].vec_consumer = true;
                        }
                        EKind::Vector
                    }
                    None => {
                        self.ctxs[ci].pending = Some(d);
                        return false;
                    }
                }
            }
            (DynKind::Branch { taken, target }, _) => {
                let correct = self.pred.observe(d.pc, si.inst.op, *taken, *target);
                if !correct {
                    self.stats.mispredicts += 1;
                    self.ctxs[ci].fetch_ready = now + self.cfg.mispredict_penalty;
                    self.ctxs[ci].last_fetch_line = u64::MAX;
                } else if *taken {
                    // Taken branch ends the fetch group and moves the line.
                    self.ctxs[ci].last_fetch_line = *target >> 6;
                    let t = d.pc >> 6;
                    if t != *target >> 6 {
                        // Force an I-cache probe at the target next cycle.
                        self.ctxs[ci].last_fetch_line = u64::MAX;
                    }
                }
                EKind::Alu
            }
            _ => EKind::Alu,
        };

        self.seq_next += 1;
        let c = &mut self.ctxs[ci];
        for def in &si.defs {
            c.reg_map[reg_index(*def)] = Producer::InFlight { seq, ord };
        }
        // Barriers, halts and vector instructions are complete from
        // dispatch: nothing waits for their producers here.
        let done_at = match kind {
            EKind::Barrier | EKind::Done | EKind::Vector => Some(now),
            _ => None,
        };
        let mut waiting = 0;
        if done_at.is_none() {
            c.edges.extend(dep_ords[..deps.len()].iter().map(|&p| (p, ord)));
            waiting = deps.len();
            if waiting == 0 {
                self.ready.push(Ready { seq, ci, ord, ready_base });
            }
        }
        c.rob.push_back(Entry {
            seq,
            sidx: d.sidx,
            class: si.class,
            kind,
            waiting: waiting as u8,
            ready_base,
            done_at,
            vec_consumer: false,
        });
        true
    }
}

#[cfg(test)]
mod tests;
