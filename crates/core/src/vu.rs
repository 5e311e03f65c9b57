//! The vector unit: vector control logic + lanes, with VLT partitioning.
//!
//! With `threads == 1` this is the base vector unit of Table 3: a 32-entry
//! window fed by the SU, 2-way out-of-order issue, and `lanes` lanes each
//! holding three arithmetic datapaths (add/logical, multiply, divide/misc)
//! and two memory ports into the banked L2.
//!
//! With `threads ∈ {2, 4}` the unit is statically partitioned (paper §3.2):
//! each VLT thread owns `lanes/threads` lanes, `window/threads` window
//! entries, and a share of the 2-per-cycle issue bandwidth — the
//! "multiplexed VCL" the paper finds performs as well as a replicated one.
//!
//! On a multi-cluster machine (DESIGN.md §11) one `VectorUnit` models one
//! lane *cluster*: the system instantiates several and routes each VLT
//! thread to `cluster = thread % active_clusters`. The unit then works in
//! *local* thread indices (`thread / active_clusters`); the mapping is set
//! with [`VectorUnit::set_thread_map`] and global observation inputs (the
//! parked mask, the thread count) are translated internally. Vector memory
//! traffic of a clustered unit crosses the inter-cluster network
//! ([`ClusterNet`]) on its way to the shared L2.
//!
//! Per-cycle utilization of every arithmetic datapath is classified as
//! busy / partly-idle (short VL) / stalled / all-idle, reproducing the
//! taxonomy of Figure 4.

use std::collections::VecDeque;
use std::sync::Arc;

use vlt_exec::{AddrArena, AddrRange, DecodedProgram};
use vlt_isa::{Op, OpClass};
use vlt_mem::{ClusterNet, MemSystem};
use vlt_scalar::{
    fold_event, thread_bit, DepSet, StallBreakdown, StallCause, VecDispatch, VecToken, VectorSink,
};

use crate::result::Utilization;

/// Vector-unit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VuConfig {
    /// Total vector lanes (8 in the base design).
    pub lanes: usize,
    /// VLT threads the lanes are partitioned across (1, 2, or 4).
    pub threads: usize,
    /// Total VCL issue bandwidth per cycle (2 in the base design).
    pub issue_width: usize,
    /// Total vector instruction window entries (32 in the base design).
    pub window: usize,
    /// Chain dependent vector instructions element-wise (Cray-style). When
    /// false, consumers wait for the producer's full completion — the
    /// ablation for DESIGN.md §4.
    pub chaining: bool,
}

impl VuConfig {
    /// The base (Table 3) vector unit with a given lane count.
    pub fn base(lanes: usize) -> Self {
        VuConfig { lanes, threads: 1, issue_width: 2, window: 32, chaining: true }
    }

    /// Partition for `threads` VLT threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(matches!(threads, 1 | 2 | 4), "VLT vector threads must be 1, 2, or 4");
        assert!(self.lanes.is_multiple_of(threads), "lanes must divide evenly across threads");
        self.threads = threads;
        self
    }

    /// Lanes owned by each partition.
    pub fn lanes_per_thread(&self) -> usize {
        self.lanes / self.threads
    }

    /// Window entries per partition.
    pub fn window_per_thread(&self) -> usize {
        (self.window / self.threads).max(1)
    }
}

/// Pipeline startup latency per arithmetic class. Kept small: the modeled
/// machine chains dependent vector instructions (Cray X1 style), so the
/// effective dead time between dependent ops is a few cycles, not the full
/// pipeline depth.
fn startup(class: OpClass) -> u64 {
    match class {
        OpClass::VAdd => 2,
        OpClass::VMul => 3,
        OpClass::VDiv => 6,
        _ => 1,
    }
}

/// Per-element occupancy cost. Only true divides and square roots are
/// multi-cycle; everything else on the divide/misc unit (conversions,
/// reductions, inserts/extracts) is pipelined at one element per cycle.
fn elem_cost(op: Op) -> u64 {
    match op {
        Op::VfdivVV | Op::VfdivVS | Op::Vfsqrt => 4,
        _ => 1,
    }
}

/// Index of the arithmetic datapath class (0 = add, 1 = mul, 2 = div/misc).
fn fu_index(class: OpClass) -> Option<usize> {
    match class {
        OpClass::VAdd => Some(0),
        OpClass::VMul => Some(1),
        OpClass::VDiv => Some(2),
        _ => None,
    }
}

/// Where a token stands in the hand-off to the scalar unit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Report {
    /// Dispatched, not yet issued to a functional unit.
    Pending,
    /// Issued with this completion cycle; not yet polled.
    Ready(u64),
    /// Polled; the window slot is released at the end of the next tick.
    Taken,
}

/// What kind of producer a dep-free entry's future `ready_base` traces back
/// to — attribution metadata only (timing reads `ready_base` alone).
#[derive(Debug, Clone, Copy, PartialEq)]
enum WaitSrc {
    /// A scalar producer (the dispatch-time snapshot, or a scalar-unit
    /// resolution of a scalar instruction).
    Scalar,
    /// An in-flight vector arithmetic producer (chaining position).
    Vector,
    /// An in-flight vector memory producer (bank-bound wait).
    VectorMem,
    /// An in-flight vector memory producer whose access waited for a busy
    /// inter-cluster link (network-bound wait).
    VectorNet,
}

#[derive(Debug)]
struct VuEntry {
    token: VecToken,
    /// Originating VLT thread (dep scoping — seqs are only unique per SU).
    vthread: usize,
    seq: u64,
    sidx: u32,
    class: OpClass,
    vl: u16,
    addrs: AddrRange,
    deps: DepSet,
    /// Subset of `deps` with scalar producers (attribution only).
    scalar_deps: DepSet,
    ready_base: u64,
    dispatched_at: u64,
    /// Issued to a functional unit (its completion awaits or has had the
    /// scalar unit's poll).
    issued: bool,
    /// Producer kind behind the current `ready_base` (attribution only).
    wait: WaitSrc,
}

/// One functional-unit pipeline inside a partition: occupied for a window
/// of cycles by the vector instruction it is executing.
#[derive(Debug, Clone, Copy, Default)]
struct Fu {
    busy_until: u64,
    /// (start, duration, vl, per-element-group cost) of the current op.
    cur: Option<(u64, u64, u16, u64)>,
}

impl Fu {
    /// Datapaths of this unit doing element work at cycle `now`, given the
    /// partition owns `lanes` lanes.
    fn busy_datapaths(&self, now: u64, lanes: usize) -> Option<usize> {
        let (start, dur, vl, step) = self.cur?;
        if now < start || now >= start + dur {
            return None;
        }
        // Elements retire `lanes` per `step` cycles; the final group may
        // use fewer than `lanes` datapaths (short-VL partial idling).
        let group = ((now - start) / step) as usize;
        let done_before = group * lanes;
        Some((vl as usize - done_before.min(vl as usize)).min(lanes))
    }
}

#[derive(Debug)]
struct Partition {
    lanes: usize,
    window: Vec<VuEntry>,
    /// Window entries not yet issued, so the per-cycle accounting knows
    /// whether work waits without scanning the window.
    unissued: usize,
    arith: [Fu; 3],
    vmem: [Fu; 2],
}

impl Partition {
    fn new(lanes: usize) -> Self {
        Partition {
            lanes,
            window: Vec::new(),
            unissued: 0,
            arith: [Fu::default(); 3],
            vmem: [Fu::default(); 2],
        }
    }
}

/// One vector instruction issued to a functional unit this cycle — logged
/// (when event logging is on) for the observability layer; never read by
/// the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecIssue {
    /// Lane cluster the instruction issued in (0 on single-cluster
    /// machines).
    pub cluster: u32,
    /// Lane partition (within the cluster) the instruction issued in.
    pub partition: u32,
    /// Originating VLT thread (global software thread id).
    pub vthread: u32,
    /// Static instruction index.
    pub sidx: u32,
    /// Effective vector length.
    pub vl: u16,
    /// Lane count of the issuing partition (fixes the per-lane track
    /// geometry: lane `j` of the partition is active iff `j < vl`).
    pub lanes: u16,
    /// Resource class.
    pub class: OpClass,
    /// Issue cycle.
    pub start: u64,
    /// Full-completion cycle.
    pub done: u64,
}

/// The vector unit.
#[derive(Debug)]
pub struct VectorUnit {
    cfg: VuConfig,
    partitions: Vec<Partition>,
    /// Global VLT threads with `thread % stride == offset` feed this unit;
    /// `(1, 0)` (the default) is the single-cluster identity mapping.
    /// `offset >= stride` marks a cluster outside the active set (its lanes
    /// idle). See [`VectorUnit::set_thread_map`].
    stride: usize,
    /// This unit's cluster id in the thread mapping.
    offset: usize,
    /// Hand-off state of every token from `token_base` on, indexed by
    /// `token - token_base`. Tokens are handed out densely, so a poll is one
    /// lookup; the front is popped once its window slot is released.
    reports: VecDeque<Report>,
    /// The token `reports[0]` describes; every lower token has left the
    /// window.
    token_base: u64,
    /// A token was polled since the last tick (its slot releases at the
    /// tick's end).
    taken: bool,
    /// Window slots released so far.
    released: u64,
    /// The software threads whose instructions issued since the driver
    /// last took them (a set of [`thread_bit`]s).
    issued_threads: u64,
    /// Same-partition resolutions of one issue pass, `(vthread, seq,
    /// ready, producer kind)`; a buffer reused across cycles.
    resolutions: Vec<(usize, u64, u64, WaitSrc)>,
    /// Aggregate datapath utilization (Figure 4 categories).
    pub util: Utilization,
    /// Why each stalled/all-idle datapath-cycle was lost. Conservation
    /// invariant: `stalls.total() == util.stalled + util.all_idle` at all
    /// times, under both drivers.
    pub stalls: StallBreakdown,
    /// Total vector instructions issued to functional units.
    pub issued: u64,
    /// Per-physical-lane busy datapath-cycles on the arithmetic pipes,
    /// credited inside the same per-cycle accounting pass as the aggregate
    /// taxonomy (spans the unit sleeps through carry no arithmetic
    /// occupancy, so the bulk-credit path never touches these). Indexed by
    /// physical lane; survives repartitioning. Conservation: sums to
    /// `util.busy`.
    lane_busy: Vec<u64>,
    /// Per-physical-lane partly-idle datapath-cycles (occupied arithmetic
    /// pipe, lane masked off by a short VL). Sums to `util.partly_idle`.
    lane_partly: Vec<u64>,
    /// When true, every functional-unit issue is appended to `issue_log`
    /// (drained by the system driver each cycle). Observation only.
    log_issues: bool,
    /// Issues logged since the driver last drained them.
    issue_log: Vec<VecIssue>,
    prog: Arc<DecodedProgram>,
}

impl VectorUnit {
    /// Build the unit for the given configuration.
    pub fn new(cfg: VuConfig, prog: Arc<DecodedProgram>) -> Self {
        let partitions = (0..cfg.threads).map(|_| Partition::new(cfg.lanes_per_thread())).collect();
        VectorUnit {
            cfg,
            partitions,
            stride: 1,
            offset: 0,
            reports: VecDeque::new(),
            token_base: 0,
            taken: false,
            released: 0,
            issued_threads: 0,
            resolutions: Vec::new(),
            util: Utilization::default(),
            stalls: StallBreakdown::default(),
            issued: 0,
            lane_busy: vec![0; cfg.lanes],
            lane_partly: vec![0; cfg.lanes],
            log_issues: false,
            issue_log: Vec::new(),
            prog,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VuConfig {
        &self.cfg
    }

    /// Enable or disable functional-unit issue logging (observer support).
    pub fn set_issue_logging(&mut self, on: bool) {
        self.log_issues = on;
        if !on {
            self.issue_log.clear();
        }
    }

    /// Issues logged since the last [`VectorUnit::clear_issue_log`] call.
    pub fn issue_log(&self) -> &[VecIssue] {
        &self.issue_log
    }

    /// Discard consumed issue events, keeping the buffer capacity.
    pub fn clear_issue_log(&mut self) {
        self.issue_log.clear();
    }

    /// Per-physical-lane arithmetic-datapath occupancy counters, as
    /// `(busy, partly_idle)` slices of length `lanes` in datapath-cycles.
    /// Busy sums to `util.busy` and partly-idle to `util.partly_idle`
    /// over the whole unit (the per-lane decomposition of Figure 4's
    /// occupied categories).
    pub fn lane_occupancy(&self) -> (&[u64], &[u64]) {
        (&self.lane_busy, &self.lane_partly)
    }

    /// Map global VLT threads onto this unit: threads with
    /// `thread % stride == offset` feed it, renumbered locally as
    /// `thread / stride`. The system driver keeps this in sync with the
    /// active cluster count; `offset >= stride` parks the whole cluster
    /// outside the active set.
    pub fn set_thread_map(&mut self, stride: usize, offset: usize) {
        assert!(stride >= 1, "thread-map stride must be at least 1");
        self.stride = stride;
        self.offset = offset;
    }

    /// This unit's cluster id in the thread mapping.
    pub fn cluster(&self) -> usize {
        self.offset
    }

    /// Window slots released so far, a count that never falls: it moves
    /// in every tick that frees room for a dispatch.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// The software threads whose instructions issued since the last call,
    /// as a set of [`thread_bit`]s.
    pub fn take_issued_threads(&mut self) -> u64 {
        std::mem::take(&mut self.issued_threads)
    }

    /// Translate the global parked mask and thread count into this unit's
    /// local thread space (identity on single-cluster machines; empty for a
    /// cluster outside the active set).
    fn localize(&self, parked_threads: u64, nthreads: usize) -> (u64, usize) {
        if self.stride == 1 {
            return (parked_threads, nthreads);
        }
        if self.offset >= self.stride {
            return (0, 0);
        }
        let ln =
            if nthreads > self.offset { (nthreads - self.offset).div_ceil(self.stride) } else { 0 };
        let mut lp = 0u64;
        for j in 0..ln.min(64) {
            let g = j * self.stride + self.offset;
            if g < 64 && parked_threads & (1u64 << g) != 0 {
                lp |= 1u64 << j;
            }
        }
        (lp, ln)
    }

    /// Advance one cycle: issue ready entries, then account utilization
    /// (so work started this cycle is classified as busy, not stalled).
    ///
    /// The multiplexed VCL time-shares its issue bandwidth: `issue_width`
    /// slots total per cycle, offered to the partitions in rotating priority
    /// order, work-conserving — an idle partition's slots flow to the
    /// others. This is the paper's finding that a multiplexed VCL performs
    /// as fast as a replicated one (§3.2).
    ///
    /// `net` is the inter-cluster network on multi-cluster machines (`None`
    /// routes vector memory traffic straight into the L2, the classic
    /// single-cluster path). `parked_threads` is a bitmask of software
    /// threads currently parked at a barrier and `nthreads` the software
    /// thread count — observation-only inputs for stall-cause attribution
    /// (a partition whose feeding threads are all parked idles as
    /// `BarrierWait`, not `NoDlp`). `draining` marks a machine-wide pending
    /// repartition (idling attributes as `Drain`); the repartition itself
    /// is applied by the system driver via [`VectorUnit::repartition`].
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
        mut net: Option<&mut ClusterNet>,
        arena: &AddrArena,
        parked_threads: u64,
        nthreads: usize,
        draining: bool,
    ) {
        let t = self.cfg.threads;
        let mut budget = self.cfg.issue_width;
        for k in 0..t {
            if budget == 0 {
                break;
            }
            let pi = (now as usize + k) % t;
            budget = self.issue_partition(pi, budget, now, mem, net.as_deref_mut(), arena);
        }

        let (parked_local, local_threads) = self.localize(parked_threads, nthreads);
        self.account(now, parked_local, local_threads, draining);

        if self.taken {
            self.taken = false;
            let (reports, base) = (&self.reports, self.token_base);
            for p in &mut self.partitions {
                let held = p.window.len();
                p.window.retain(|e| reports[(e.token.0 - base) as usize] != Report::Taken);
                self.released += (held - p.window.len()) as u64;
            }
            while self.reports.front() == Some(&Report::Taken) {
                self.reports.pop_front();
                self.token_base += 1;
            }
        }
        #[cfg(debug_assertions)]
        for p in &self.partitions {
            let unissued = p.window.iter().filter(|e| !e.issued).count();
            assert_eq!(p.unissued, unissued, "a partition's unissued count left its window");
        }
    }

    /// Issue from one partition; returns the unused budget.
    fn issue_partition(
        &mut self,
        pi: usize,
        mut budget: usize,
        now: u64,
        mem: &mut MemSystem,
        mut net: Option<&mut ClusterNet>,
        arena: &AddrArena,
    ) -> usize {
        {
            let prog = &self.prog;
            let p = &mut self.partitions[pi];
            if p.unissued == 0 {
                return budget;
            }
            let lanes = p.lanes;
            for i in 0..p.window.len() {
                if budget == 0 {
                    break;
                }
                let e = &p.window[i];
                if e.issued || !e.deps.is_empty() || e.ready_base > now || e.dispatched_at >= now {
                    continue;
                }
                let class = e.class;
                let op = prog.get(e.sidx as usize).inst.op;
                let mut net_contended = false;
                // `done` is full completion (what the SU polls and what the
                // ROB retires on); `chain_ready` is when the first element
                // group is available — dependent vector instructions in the
                // same partition chain from it, Cray-style (the consumer's
                // own occupancy then finishes no earlier than the producer).
                let (done, chain_ready) = match class {
                    OpClass::VMask => (now + 1, now + 1),
                    OpClass::VAdd | OpClass::VMul | OpClass::VDiv => {
                        let f = fu_index(class).unwrap();
                        if p.arith[f].busy_until > now {
                            continue;
                        }
                        let vl = e.vl.max(1) as u64;
                        let step = elem_cost(op);
                        let dur = vl.div_ceil(lanes as u64) * step;
                        p.arith[f].busy_until = now + dur;
                        p.arith[f].cur = Some((now, dur, e.vl, step));
                        (now + startup(class) + dur, now + startup(class) + step)
                    }
                    OpClass::VLoad | OpClass::VStore => {
                        let Some(f) = p.vmem.iter().position(|f| f.busy_until <= now) else {
                            continue;
                        };
                        let addrs = arena.slice(e.addrs);
                        let n = addrs.len().max(1) as u64;
                        let dur = n.div_ceil(lanes as u64);
                        let write = class == OpClass::VStore;
                        let mut last = now + dur;
                        let mut first_group = now + 1;
                        for (i, a) in addrs.iter().enumerate() {
                            let at = now + (i / lanes) as u64;
                            let t = match net.as_deref_mut() {
                                Some(n) => {
                                    let (t, contended) = n.access(mem, self.offset, *a, write, at);
                                    net_contended |= contended;
                                    t
                                }
                                None => mem.l2_access(*a, write, at),
                            };
                            if !write {
                                last = last.max(t);
                                if i < lanes {
                                    first_group = first_group.max(t);
                                }
                            }
                        }
                        p.vmem[f].busy_until = now + dur;
                        p.vmem[f].cur = Some((now, dur, e.vl, 1));
                        (last + 1, first_group + 1)
                    }
                    other => unreachable!("non-vector class {other:?} in the vector unit"),
                };
                budget -= 1;
                self.issued += 1;
                let seq = e.seq;
                let vthread = e.vthread;
                // Entries hold local thread ids; the set holds global ones.
                let global = vthread * self.stride + self.offset;
                self.issued_threads |= thread_bit(global);
                self.reports[(e.token.0 - self.token_base) as usize] = Report::Ready(done);
                if self.log_issues {
                    self.issue_log.push(VecIssue {
                        cluster: self.offset as u32,
                        partition: pi as u32,
                        vthread: global as u32,
                        sidx: e.sidx,
                        vl: e.vl,
                        lanes: lanes as u16,
                        class,
                        start: now,
                        done,
                    });
                }
                let src = if matches!(class, OpClass::VLoad | OpClass::VStore) {
                    if net_contended {
                        WaitSrc::VectorNet
                    } else {
                        WaitSrc::VectorMem
                    }
                } else {
                    WaitSrc::Vector
                };
                p.window[i].issued = true;
                p.unissued -= 1;
                self.resolutions.push((
                    vthread,
                    seq,
                    if self.cfg.chaining { chain_ready } else { done },
                    src,
                ));
            }
        }
        // Wake same-partition consumers (vector-vector chaining through the
        // window happens at completion granularity).
        let mut resolutions = std::mem::take(&mut self.resolutions);
        for (vthread, seq, done, src) in resolutions.drain(..) {
            self.resolve_from(vthread, seq, done, Some(src));
        }
        self.resolutions = resolutions;
        budget
    }

    /// Per-cycle Figure-4 accounting across all arithmetic datapaths, with
    /// stall-cause attribution: each non-busy datapath group charges
    /// `lanes` datapath-cycles both to the coarse stalled/all-idle bucket
    /// and to this cycle's partition-level [`StallCause`].
    fn account(&mut self, now: u64, parked_threads: u64, nthreads: usize, draining: bool) {
        let pcount = self.partitions.len();
        for pi in 0..pcount {
            let parked = Self::partition_parked(pi, pcount, parked_threads, nthreads);
            let p = &self.partitions[pi];
            let waiting = p.unissued > 0;
            let mut cause = None;
            for f in 0..3 {
                match p.arith[f].busy_datapaths(now, p.lanes) {
                    Some(busy) => {
                        self.util.busy += busy as u64;
                        self.util.partly_idle += (p.lanes - busy) as u64;
                        // Per-lane occupancy, credited in the same pass: an
                        // element group occupies the partition's first `busy`
                        // physical lanes (lane `j` executes element
                        // `g * lanes + j`, in range exactly when `j < busy`),
                        // so the split conserves against the aggregate by
                        // construction — including spans truncated by run end
                        // or a repartition, which simulate (and charge) only
                        // the cycles that actually elapsed.
                        let base = pi * p.lanes;
                        for j in 0..busy {
                            self.lane_busy[base + j] += 1;
                        }
                        for j in busy..p.lanes {
                            self.lane_partly[base + j] += 1;
                        }
                    }
                    None => {
                        if waiting {
                            self.util.stalled += p.lanes as u64;
                        } else {
                            self.util.all_idle += p.lanes as u64;
                        }
                        let c = *cause
                            .get_or_insert_with(|| Self::partition_cause(p, now, draining, parked));
                        self.stalls.add(c, p.lanes as u64);
                    }
                }
            }
        }
    }

    /// True when partition `pi` has at least one feeding software thread and
    /// all of them are parked at a barrier. Thread `t` feeds partition
    /// `t % pcount` (the [`VectorSink::try_dispatch`] mapping).
    fn partition_parked(pi: usize, pcount: usize, parked_threads: u64, nthreads: usize) -> bool {
        let mut any = false;
        let mut t = pi;
        while t < nthreads.min(64) {
            any = true;
            if parked_threads & (1u64 << t) == 0 {
                return false;
            }
            t += pcount;
        }
        any
    }

    /// Why a partition's non-busy datapath groups are losing this cycle.
    /// Every input is constant across a span the unit sleeps through: the
    /// driver credits the unit before a dispatch or resolution changes its
    /// window and before the pending repartition or the park state changes,
    /// and a dep-free entry that is ready right now forces `Some(from)` in
    /// [`VectorUnit::next_event`]. So the per-cycle and bulk-credit paths
    /// tag identically.
    fn partition_cause(p: &Partition, now: u64, draining: bool, parked: bool) -> StallCause {
        if p.unissued == 0 {
            return if draining {
                StallCause::Drain
            } else if parked {
                StallCause::BarrierWait
            } else {
                StallCause::NoDlp
            };
        }
        let mut ready_now = false;
        let mut scalar_dep = false;
        let mut any_dep = false;
        let mut mem_wait = false;
        let mut net_wait = false;
        for e in p.window.iter().filter(|e| !e.issued) {
            if e.deps.is_empty() {
                if e.ready_base <= now && e.dispatched_at < now {
                    ready_now = true;
                } else {
                    match e.wait {
                        WaitSrc::VectorMem => mem_wait = true,
                        WaitSrc::VectorNet => net_wait = true,
                        WaitSrc::Scalar => scalar_dep = true,
                        WaitSrc::Vector => {}
                    }
                }
            } else {
                any_dep = true;
                if !e.scalar_deps.is_empty() {
                    scalar_dep = true;
                }
            }
        }
        // Stalled: fixed priority so attribution is deterministic.
        if ready_now {
            StallCause::IssueWidth
        } else if scalar_dep {
            StallCause::ScalarDep
        } else if net_wait {
            StallCause::NetworkContention
        } else if mem_wait {
            StallCause::BankConflict
        } else if any_dep {
            StallCause::ChainDepth
        } else {
            // Dep-free entries waiting out a vector producer's chain
            // position (or their own dispatch cycle).
            StallCause::ChainDepth
        }
    }

    /// Earliest cycle `>= from` at which the vector unit can change state:
    /// an in-flight arithmetic op's per-cycle datapath occupancy is still
    /// evolving (no sleep — the utilization taxonomy varies cycle to
    /// cycle), a completed entry awaits the scalar unit's poll, or a
    /// dep-free entry can issue. `None` when every window entry is blocked
    /// on an unresolved producer — the resolution that unblocks one then
    /// wakes the unit. Never later than the true next change; `Some(from)`
    /// means "cannot sleep".
    pub fn next_event(&self, from: u64) -> Option<u64> {
        let mut ev: Option<u64> = None;
        for p in &self.partitions {
            for f in &p.arith {
                if let Some((start, dur, _, _)) = f.cur {
                    if start + dur > from {
                        return Some(from);
                    }
                }
            }
            for e in &p.window {
                if e.issued {
                    // The SU consumes completions at its next poll.
                    return Some(from);
                }
                if e.deps.is_empty() {
                    fold_event(&mut ev, from.max(e.ready_base).max(e.dispatched_at + 1));
                }
            }
        }
        ev
    }

    /// Credit `cycles` cycles from `from` that the unit slept through to
    /// the utilization taxonomy, exactly as per-cycle [`VectorUnit::tick`]
    /// accounting would have (see [`VectorUnit::counters_after_idle`]).
    pub fn account_idle_span(
        &mut self,
        from: u64,
        cycles: u64,
        parked_threads: u64,
        nthreads: usize,
        draining: bool,
    ) {
        (self.util, self.stalls) =
            self.counters_after_idle(from, cycles, parked_threads, nthreads, draining);
    }

    /// The utilization and stall counters as they read once an idle span
    /// of `cycles` cycles from `from` is credited, under the park state,
    /// thread count and drain flag that held over it. No datapath does
    /// element work while the unit sleeps ([`VectorUnit::next_event`]
    /// keeps it awake while any arithmetic pipeline is occupied), so each
    /// partition's three datapath groups accrue `stalled` when work is
    /// waiting in its window and `all_idle` otherwise, all under one
    /// [`StallCause`] (see [`VectorUnit`]'s `partition_cause`).
    pub fn counters_after_idle(
        &self,
        from: u64,
        cycles: u64,
        parked_threads: u64,
        nthreads: usize,
        draining: bool,
    ) -> (Utilization, StallBreakdown) {
        let (mut util, mut stalls) = (self.util, self.stalls);
        let (parked_threads, nthreads) = self.localize(parked_threads, nthreads);
        let pcount = self.partitions.len();
        for pi in 0..pcount {
            let parked = Self::partition_parked(pi, pcount, parked_threads, nthreads);
            let p = &self.partitions[pi];
            let add = 3 * p.lanes as u64 * cycles;
            if p.unissued > 0 {
                util.stalled += add;
            } else {
                util.all_idle += add;
            }
            stalls.add(Self::partition_cause(p, from, draining, parked), add);
        }
        (util, stalls)
    }

    /// True when no vector instructions are in flight.
    pub fn drained(&self) -> bool {
        self.partitions.iter().all(|p| p.window.is_empty())
    }

    /// Repartition the lanes across a new VLT thread count (paper §3.3:
    /// programs switch the partition at region boundaries where the unit
    /// is drained and the vector registers hold no live values).
    ///
    /// Panics if instructions are still in flight — callers gate on
    /// [`VectorUnit::drained`].
    pub fn repartition(&mut self, threads: usize) {
        assert!(self.drained(), "repartition requires a drained vector unit");
        assert!(matches!(threads, 1 | 2 | 4), "VLT vector threads must be 1, 2, or 4");
        assert!(self.cfg.lanes.is_multiple_of(threads));
        self.cfg.threads = threads;
        self.partitions =
            (0..threads).map(|_| Partition::new(self.cfg.lanes_per_thread())).collect();
    }

    /// The current number of lane partitions.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Producer-completion broadcast with an attribution hint: `src` is the
    /// producer kind when the resolver knows it (the VU's own issue loop),
    /// `None` for scalar-unit broadcasts (classified per consumer through
    /// its `scalar_deps` snapshot). The hint never affects timing.
    fn resolve_from(&mut self, vthread: usize, seq: u64, done_at: u64, src: Option<WaitSrc>) {
        let pi = vthread % self.partitions.len();
        let p = &mut self.partitions[pi];
        if p.unissued == 0 {
            return;
        }
        for e in p.window.iter_mut() {
            if !e.issued && e.vthread == vthread && e.deps.remove(seq) {
                let scalar = e.scalar_deps.remove(seq);
                let kind = src.unwrap_or(if scalar { WaitSrc::Scalar } else { WaitSrc::Vector });
                if done_at >= e.ready_base {
                    e.wait = kind;
                }
                e.ready_base = e.ready_base.max(done_at);
            }
        }
    }
}

impl VectorSink for VectorUnit {
    fn try_dispatch(&mut self, d: VecDispatch, now: u64) -> Option<VecToken> {
        // NOTE: dispatch backpressure while a repartition drains is enforced
        // by the system driver's router (it spans all clusters), not here.
        let cap = self.cfg.window_per_thread();
        // Under a narrower partitioning than the thread count (a wide-DLP
        // phase after `vltcfg 1`), thread groups share a partition.
        let pi = d.vthread % self.partitions.len();
        let p = &mut self.partitions[pi];
        if p.window.len() >= cap {
            return None;
        }
        let token = VecToken(self.token_base + self.reports.len() as u64);
        self.reports.push_back(Report::Pending);
        p.unissued += 1;
        p.window.push(VuEntry {
            token,
            vthread: d.vthread,
            seq: d.seq,
            sidx: d.sidx,
            class: d.class,
            vl: d.vl,
            addrs: d.addrs,
            deps: d.deps,
            scalar_deps: d.scalar_deps,
            ready_base: d.ready_base,
            dispatched_at: now,
            issued: false,
            wait: WaitSrc::Scalar,
        });
        Some(token)
    }

    fn resolve(&mut self, vthread: usize, seq: u64, done_at: u64) {
        self.resolve_from(vthread, seq, done_at, None);
    }

    fn poll(&mut self, token: VecToken) -> Option<u64> {
        let i = token.0.checked_sub(self.token_base)?;
        let r = self.reports.get_mut(usize::try_from(i).ok()?)?;
        let Report::Ready(t) = *r else { return None };
        *r = Report::Taken;
        self.taken = true;
        Some(t)
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests;
