//! The full-system timing simulator: scalar units + vector unit (or lane
//! cores) + memory hierarchy, driven cycle by cycle over the functional
//! simulator's instruction streams.
//!
//! There is exactly **one** driver loop, [`System::run_observed`];
//! [`System::run`] plugs the [`NullObserver`] into it, so profiling and any
//! future instrumentation cannot drift from the plain run path. Observers
//! only watch: the driver takes no input from them.
//!
//! The driver calls each unit class directly: the OoO scalar units, the
//! in-order lane cores and the per-cluster vector units tick; the
//! inter-cluster network and the memory system are passive (their state
//! changes only inside the other units' accesses) and only deliver L2
//! events.
//!
//! Time advances event-driven by default: each unit sleeps on its own.
//! After a tick that left a unit's work unchanged, the driver asks that unit
//! alone for its `next_event` and does not tick it again before then,
//! unless another unit acts on it (a wake edge); the slept span is credited
//! in bulk when the unit wakes. When every unit sleeps, the driver jumps to
//! the earliest wake (or the cycle budget). Results are byte-identical to
//! the naive cycle-by-cycle oracle, which stays selectable via
//! [`DriverMode::CycleByCycle`]. That oracle is also what catches a unit
//! class left out of one of the driver's walks or a missing wake edge.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use vlt_exec::{DecodedProgram, DynKind, ExecError, FuncSim, Step};
use vlt_isa::{Op, Program};
use vlt_mem::{BankEvent, ClusterNet, MemSystem};
use vlt_scalar::{
    FetchResult, FetchSource, InOrderCore, LaneCoreConfig, OooCore, StallBreakdown, VecDispatch,
    VecToken, VectorSink,
};

use crate::config::SystemConfig;
use crate::result::{SimError, SimResult, Utilization};
use crate::vu::{VecIssue, VectorUnit, VuConfig};

/// Wraps the functional simulator as a [`FetchSource`], tracking the current
/// `region` marker (for % opportunity attribution) and any `vltcfg` observed
/// this cycle.
struct TrackedSource {
    sim: FuncSim,
    prog: Arc<DecodedProgram>,
    cur_region: u32,
    /// A `vltcfg` observed this cycle: requested `(threads, clusters)`
    /// hierarchy (clusters `0` = unspecified).
    vlt_request: Option<(u8, u8)>,
    /// The machine has a vector unit; without one a vector instruction is a
    /// fault ([`ExecError::NoVectorUnit`]), not work for a scalar unit.
    has_vu: bool,
    /// Barriers and halts fetched so far: only these can open a barrier
    /// (it opens once every live thread waits at it).
    arrivals: u64,
}

impl FetchSource for TrackedSource {
    fn fetch(&mut self, thread: usize) -> Result<FetchResult, ExecError> {
        Ok(match self.sim.step_thread(thread)? {
            Step::Inst(d) => {
                if !self.has_vu && self.prog.get(d.sidx as usize).class.is_vector() {
                    return Err(ExecError::NoVectorUnit { tid: thread, pc: d.pc });
                }
                match d.kind {
                    DynKind::VltCfg { threads, clusters } => {
                        self.vlt_request = Some((threads, clusters))
                    }
                    DynKind::Barrier | DynKind::Halt => self.arrivals += 1,
                    _ => {}
                }
                if thread == 0 {
                    let si = self.prog.get(d.sidx as usize);
                    if si.inst.op == Op::Region {
                        self.cur_region = si.inst.imm as u32;
                    }
                }
                FetchResult::Inst(d)
            }
            Step::AtBarrier => FetchResult::AtBarrier,
            Step::Halted => FetchResult::Halted,
        })
    }

    fn parked(&self, thread: usize) -> bool {
        self.sim.thread_parked(thread)
    }
}

/// How [`System::run_observed`] advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// Let each unit sleep until its own next event or until another unit
    /// acts on it, credit the slept cycles in bulk, and jump over cycles in
    /// which every unit sleeps. Produces byte-identical [`SimResult`]s (and
    /// observer hook streams and views) to [`DriverMode::CycleByCycle`];
    /// `tests/driver_props.rs` enforces it.
    #[default]
    EventDriven,
    /// Tick every unit on every cycle — the naive oracle the event-driven
    /// fast path is validated against.
    CycleByCycle,
}

/// A `vltcfg` repartition observed by the driver, after validation against
/// the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepartitionEvent {
    /// VLT thread count the instruction asked for.
    pub requested: u8,
    /// Cluster spread the instruction asked for (`0` = unspecified — the
    /// machine picks; see [`vlt_isa::vltcfg`]).
    pub requested_clusters: u8,
    /// Total VLT thread count actually handed to the vector unit(s).
    pub applied: usize,
    /// Active cluster count actually applied (1 on single-cluster
    /// machines).
    pub applied_clusters: usize,
    /// Whether the request was invalid for this machine and got clamped.
    pub clamped: bool,
}

/// Events one call to `System::step` produced, reported back to the driver
/// so observer hooks fire outside the mutable-borrow of the machine.
#[derive(Debug, Default, Clone, Copy)]
struct CycleEvents {
    /// Cumulative barrier-release count, if a rendezvous completed.
    barrier_releases: Option<u64>,
    /// A `vltcfg` reached the vector unit this cycle.
    repartition: Option<RepartitionEvent>,
    /// A pending repartition took effect this cycle, after draining for
    /// this many cycles.
    applied_latency: Option<u64>,
}

/// Read-only view of the machine handed to [`SimObserver::on_cycle`].
/// Aggregates (`utilization`, `stalls`) are computed lazily so a no-op
/// observer pays nothing per cycle. Its counters cover every cycle before
/// `at`: a sleeping unit's uncredited cycles are added as the credit its
/// wake-up will make, computed without touching the unit.
pub struct CycleView<'a> {
    sys: &'a System,
    at: u64,
}

impl CycleView<'_> {
    /// Cumulative datapath utilization, summed across lane clusters (zeros
    /// without a vector unit).
    pub fn utilization(&self) -> Utilization {
        self.sys.vu_counters(self.at).0
    }

    /// Region marker active on thread 0.
    pub fn region(&self) -> u32 {
        self.sys.src.cur_region
    }

    /// Cumulative machine-wide stall-cause breakdown: the vector unit's
    /// datapath-cycles merged with every scalar unit's and lane core's
    /// stall cycles. Units differ across contributors (datapath-cycles vs
    /// core cycles), so treat this as a composition profile, not a single
    /// count; per-unit breakdowns are on the final [`SimResult`].
    pub fn stalls(&self) -> StallBreakdown {
        let mut b = self.vu_stalls();
        for (_, s) in self.core_stalls().iter().chain(&self.lane_stalls()) {
            b.merge(s);
        }
        b
    }

    /// Cumulative vector-unit stall-cause breakdown, merged across lane
    /// clusters (zeros without a vector unit). Datapath-cycles.
    pub fn vu_stalls(&self) -> StallBreakdown {
        self.sys.vu_counters(self.at).1
    }

    /// Datapath slots the vector units charge per machine cycle: three
    /// arithmetic datapath groups × lanes, summed over clusters. The
    /// Figure-4 budget — `utilization().total()` grows by exactly this
    /// much per simulated cycle. Zero without a vector unit.
    pub fn vu_datapaths(&self) -> u64 {
        self.sys.vus.iter().map(|v| 3 * v.config().lanes as u64).sum()
    }

    /// Per-scalar-unit `(fetch_stall_cycles, stalls)` snapshots, in core
    /// order — the raw material for windowed CPI stacks.
    pub fn core_stalls(&self) -> Vec<(u64, StallBreakdown)> {
        let at = self.at;
        let stats = |c: &Slot<OooCore>| match c.uncredited(at) {
            Some((from, n)) => c.stats_after_idle(from, n),
            None => c.stats.clone(),
        };
        self.sys.cores.iter().map(stats).map(|s| (s.fetch_stall_cycles, s.stalls)).collect()
    }

    /// Per-lane-core `(stall_cycles, stalls)` snapshots, in lane order
    /// (empty outside VLT scalar-thread mode).
    pub fn lane_stalls(&self) -> Vec<(u64, StallBreakdown)> {
        let at = self.at;
        let stats = |l: &Slot<InOrderCore>| match l.uncredited(at) {
            Some((from, n)) => l.stats_after_idle(from, n),
            None => l.stats.clone(),
        };
        self.sys.lane_cores.iter().map(stats).map(|s| (s.stall_cycles, s.stalls)).collect()
    }
}

/// Hooks into the driver loop. All methods default to no-ops, so an
/// implementation only pays for what it overrides.
///
/// Ordering contract, per simulated cycle:
/// 1. `on_cycle(now, view)` — *before* the machine advances, so a snapshot
///    at cycle `n` sees the state entering `n`;
/// 2. the machine steps;
/// 3. `on_barrier` / `on_repartition` for events that cycle produced.
///
/// `on_finish` fires once, after the machine drains, with the final result.
///
/// Observers only watch: nothing an observer does reaches the driver's
/// schedule. Under the default [`DriverMode::EventDriven`] driver, a cycle
/// in which every unit sleeps is *not* simulated, so `on_cycle` does not
/// fire for it. A view counts exactly the cycles before `n` (`on_cycle`)
/// or through `n` (the other hooks), sleeping units included, so it reads
/// as the cycle-by-cycle driver's does at the same cycle. Every other hook
/// reports machine activity, which a skipped cycle holds none of, so both
/// drivers fire it at the same cycle with the same payload.
pub trait SimObserver {
    /// Start of a simulated cycle, before any unit ticks.
    fn on_cycle(&mut self, _now: u64, _view: &CycleView<'_>) {}
    /// A barrier rendezvous completed; `releases` is the cumulative count.
    /// The view snapshots the machine *after* the releasing cycle — the
    /// epoch boundary for barrier-epoch CPI windows.
    fn on_barrier(&mut self, _now: u64, _releases: u64, _view: &CycleView<'_>) {}
    /// A `vltcfg` was requested (possibly clamped) of the vector unit; the
    /// unit drains before applying it (see
    /// [`SimObserver::on_repartition_applied`]).
    fn on_repartition(&mut self, _now: u64, _ev: &RepartitionEvent) {}
    /// A requested repartition finished draining and took effect this
    /// cycle; `drain_latency` is the cycles it waited for the vector unit
    /// to drain.
    fn on_repartition_applied(&mut self, _now: u64, _drain_latency: u64) {}
    /// Thread 0 entered a new region (the `region` marker changed). Fires
    /// at the region boundary with the machine state entering the new
    /// region, so cumulative counters snapshot per-region deltas exactly.
    fn on_region(&mut self, _now: u64, _region: u32, _view: &CycleView<'_>) {}
    /// Software thread `thread` parked at a barrier (`parked == true`) or
    /// resumed from one (`parked == false`). Fires on transitions only.
    fn on_park(&mut self, _now: u64, _thread: usize, _parked: bool) {}
    /// A vector instruction issued to a functional unit. Only delivered
    /// when [`SimObserver::wants_vec_events`] returned true at run start.
    fn on_vec_issue(&mut self, _now: u64, _ev: &VecIssue) {}
    /// Opt-in for [`SimObserver::on_vec_issue`] delivery. Checked once per
    /// run; event logging in the vector unit is off otherwise so the plain
    /// run path pays nothing.
    fn wants_vec_events(&self) -> bool {
        false
    }
    /// An L2 bank serviced an access. Only delivered when
    /// [`SimObserver::wants_mem_events`] returned true at run start.
    fn on_mem_access(&mut self, _now: u64, _ev: &BankEvent) {}
    /// Opt-in for [`SimObserver::on_mem_access`] delivery. Checked once per
    /// run; the L2 records no events otherwise.
    fn wants_mem_events(&self) -> bool {
        false
    }
    /// The run completed; `result` is what the caller will receive.
    fn on_finish(&mut self, _result: &SimResult) {}
}

/// The do-nothing observer; `System::run` is `run_observed` with this.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// A repartition accepted by the driver, waiting for every vector unit to
/// drain before it takes effect machine-wide.
#[derive(Debug, Clone, Copy)]
struct PendingRepartition {
    /// Total VLT thread count to apply.
    threads: usize,
    /// Active cluster count to apply.
    clusters: usize,
    /// Cycle the request was accepted (drain-latency attribution).
    since: u64,
}

/// A unit's wake cycle while it waits for another unit to act on it.
const NEVER: u64 = u64::MAX;

/// A unit and its place in the event-driven schedule.
struct Slot<U> {
    unit: U,
    /// The next cycle the unit ticks ([`NEVER`] while only another unit
    /// can wake it).
    wake: u64,
    /// The unit's per-cycle counters cover every cycle before this one.
    credited: u64,
}

impl<U> Slot<U> {
    fn new(unit: U) -> Self {
        Slot { unit, wake: 0, credited: 0 }
    }

    /// Tick the unit no later than cycle `t`.
    fn wake_at(&mut self, t: u64) {
        self.wake = self.wake.min(t);
    }

    /// The span `(from, cycles)` the unit slept through before `at` and has
    /// not been credited with.
    fn uncredited(&self, at: u64) -> Option<(u64, u64)> {
        (self.credited < at).then(|| (self.credited, at - self.credited))
    }

    /// Credit the span before `now` the unit slept through, through
    /// `credit(unit, from, cycles)`.
    fn catch_up(&mut self, now: u64, credit: impl FnOnce(&mut U, u64, u64)) {
        if let Some((from, cycles)) = self.uncredited(now) {
            credit(&mut self.unit, from, cycles);
            self.credited = now;
        }
    }

    /// After the unit's tick at `now`: tick again at `now + 1` if the tick
    /// moved its work (`busy`), else at its own next event.
    fn ticked(&mut self, now: u64, busy: bool, next_event: impl FnOnce(&U) -> Option<u64>) {
        self.credited = now + 1;
        self.wake = if busy { now + 1 } else { next_event(&self.unit).unwrap_or(NEVER) };
    }
}

impl<U> Deref for Slot<U> {
    type Target = U;

    fn deref(&self) -> &U {
        &self.unit
    }
}

impl<U> DerefMut for Slot<U> {
    fn deref_mut(&mut self) -> &mut U {
        &mut self.unit
    }
}

/// What a vector unit's per-cycle accounting reads from the rest of the
/// machine. The driver credits every sleeping vector unit before any of it
/// changes, so a slept span is credited with the inputs that held over it.
#[derive(Debug, Clone, Copy)]
struct VuInputs {
    /// Software threads parked at a barrier, as of the last stepped cycle.
    parked: u64,
    nthreads: usize,
    /// A repartition is draining.
    draining: bool,
}

impl Slot<VectorUnit> {
    fn catch_up_vu(&mut self, now: u64, i: VuInputs) {
        self.catch_up(now, |v, from, n| {
            v.account_idle_span(from, n, i.parked, i.nthreads, i.draining)
        });
    }
}

/// How much work a run's driver did: the cycles it stepped and the ticks
/// of each unit class. Deterministic for a given program, machine and
/// [`DriverMode`], but different between the two modes by design, so it is
/// kept out of [`SimResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Cycles the driver stepped (`on_cycle` calls).
    pub stepped: u64,
    /// OoO scalar-unit ticks.
    pub core_ticks: u64,
    /// Lane-core ticks.
    pub lane_ticks: u64,
    /// Vector-unit ticks.
    pub vu_ticks: u64,
}

/// Routes scalar-unit vector traffic to the per-cluster vector units:
/// thread `t` lives in cluster `t % active` under local id `t / active`
/// (injective per cluster). Tokens carry the cluster in their top byte, so
/// on a single-cluster machine (`active == 1`) every field — local ids and
/// tokens alike — is bit-identical to the pre-cluster driver.
///
/// A dispatch or a resolution changes the unit's window, so the router
/// first credits a sleeping unit through the previous cycle and then wakes
/// it: the vector units tick after the scalar units, so it ticks this
/// cycle. A refused dispatch changes nothing and wakes no one.
struct VecRouter<'a> {
    vus: &'a mut [Slot<VectorUnit>],
    active: usize,
    /// What the vector units' accounting read before this cycle (its
    /// `draining` refuses dispatch machine-wide: the natural backpressure
    /// on the scalar units while a repartition drains).
    inputs: VuInputs,
    now: u64,
}

/// Bits of a [`VecToken`] holding the within-cluster token.
const TOKEN_MASK: u64 = (1u64 << 56) - 1;

impl VecRouter<'_> {
    /// Vector unit `c`, credited through the previous cycle.
    fn credited(&mut self, c: usize) -> &mut Slot<VectorUnit> {
        let v = &mut self.vus[c];
        v.catch_up_vu(self.now, self.inputs);
        v
    }
}

impl VectorSink for VecRouter<'_> {
    fn try_dispatch(&mut self, mut d: VecDispatch, now: u64) -> Option<VecToken> {
        if self.inputs.draining {
            return None; // draining toward a repartition
        }
        let c = d.vthread % self.active;
        d.vthread /= self.active;
        let v = self.credited(c);
        let t = v.try_dispatch(d, now)?;
        v.wake_at(now);
        debug_assert!(t.0 <= TOKEN_MASK);
        Some(VecToken(((c as u64) << 56) | t.0))
    }

    fn resolve(&mut self, vthread: usize, seq: u64, done_at: u64) {
        let (c, local, now) = (vthread % self.active, vthread / self.active, self.now);
        let v = self.credited(c);
        v.resolve(local, seq, done_at);
        v.wake_at(now);
    }

    fn poll(&mut self, token: VecToken) -> Option<u64> {
        // A taken report frees its slot at the unit's next tick, and an
        // issued entry keeps the unit awake until then.
        let c = (token.0 >> 56) as usize;
        self.vus[c].poll(VecToken(token.0 & TOKEN_MASK))
    }

    /// Issues summed over every cluster, active or not: a poll of any
    /// token can only newly succeed once this sum moves.
    fn issued(&self) -> u64 {
        self.vus.iter().map(|v| v.issued).sum()
    }
}

/// A configured machine ready to run one program.
pub struct System {
    cfg: SystemConfig,
    src: TrackedSource,
    cores: Vec<Slot<OooCore>>,
    lane_cores: Vec<Slot<InOrderCore>>,
    /// One vector unit per lane cluster (empty without a vector unit).
    vus: Vec<Slot<VectorUnit>>,
    /// Inter-cluster network (multi-cluster machines only; passive).
    net: Option<ClusterNet>,
    /// The memory hierarchy (passive).
    mem: MemSystem,
    /// Clusters currently holding VLT threads (`vus[..active_clusters]`).
    active_clusters: usize,
    /// An accepted repartition draining toward application.
    vu_pending: Option<PendingRepartition>,
    /// Software threads loaded into the functional simulator.
    nthreads: usize,
    /// Bitmask of software threads parked at a barrier, as of the last
    /// stepped cycle.
    parked: u64,
    /// Barrier releases already flushed, against the funcsim's exact count.
    flushed_releases: u64,
    driver: DriverMode,
    work: Work,
}

impl System {
    /// Build the machine for `cfg`, loading `prog` with `nthreads` SPMD
    /// threads. Vector-mode configurations require
    /// `nthreads <= cfg.vlt_threads` (one lane partition per thread);
    /// lane-thread mode requires `nthreads <= lanes`.
    pub fn new(cfg: SystemConfig, prog: &Program, nthreads: usize) -> Self {
        assert!(
            nthreads <= cfg.max_threads(),
            "{} threads exceed the {} contexts of {}",
            nthreads,
            cfg.max_threads(),
            cfg.name
        );
        if cfg.has_vu {
            assert!(
                nthreads <= cfg.vlt_threads,
                "{} vector threads need {} lane partitions ({} configured)",
                nthreads,
                nthreads,
                cfg.vlt_threads
            );
        }
        assert!(cfg.clusters >= 1, "at least one lane cluster is required");
        if cfg.clusters > 1 {
            assert!(cfg.clusters.is_power_of_two(), "cluster count must be a power of two");
            assert!(cfg.has_vu, "multi-cluster machines require a vector unit");
            assert!(!cfg.lane_threads, "lane-thread mode is single-cluster only");
        }

        let sim = FuncSim::new(prog, nthreads);
        let decoded = Arc::clone(&sim.prog);
        let mut mem = MemSystem::new(cfg.mem, cfg.cores.len(), cfg.lanes);
        if cfg.ideal.zero_conflict_l2 {
            mem.l2.set_ideal(true);
        }

        let mut cores: Vec<OooCore> = cfg
            .cores
            .iter()
            .enumerate()
            .map(|(i, cc)| OooCore::new(*cc, i, Arc::clone(&decoded)))
            .collect();
        let mut lane_cores = Vec::new();

        if cfg.lane_threads {
            // Threads run on the lanes; the SUs only serve I-cache misses.
            for t in 0..nthreads {
                let owner = t * cfg.cores.len() / cfg.lanes.max(1);
                lane_cores.push(InOrderCore::new(
                    LaneCoreConfig::default(),
                    t,
                    owner.min(cfg.cores.len() - 1),
                    t,
                    Arc::clone(&decoded),
                ));
            }
        } else {
            // Bind software thread t to hardware context t (core-major).
            let mut flat = 0usize;
            'outer: for (ci, cc) in cfg.cores.iter().enumerate() {
                for ctx in 0..cc.smt_contexts {
                    if flat >= nthreads {
                        break 'outer;
                    }
                    cores[ci].bind(ctx, flat, flat);
                    flat += 1;
                }
            }
        }

        let mut vus = Vec::new();
        let mut net = None;
        let mut active_clusters = 1;
        if cfg.has_vu {
            // Initial partitioning: spread the configured VLT threads over
            // as many clusters as can hold them, local thread counts equal
            // across active clusters. Clusters beyond the active set start
            // undivided (and idle until a `vltcfg` pulls them in).
            active_clusters = cfg.clusters.min(cfg.vlt_threads).max(1);
            assert!(
                cfg.vlt_threads.is_multiple_of(active_clusters)
                    && matches!(cfg.vlt_threads / active_clusters, 1 | 2 | 4),
                "{} VLT threads do not partition evenly over {} clusters",
                cfg.vlt_threads,
                cfg.clusters
            );
            let t0 = cfg.vlt_threads / active_clusters;
            for c in 0..cfg.clusters {
                // Each cluster replicates the full VCL (per-cluster window
                // and issue bandwidth) — replication is priced by the area
                // model, not hidden.
                let vcfg = VuConfig {
                    lanes: cfg.lanes,
                    threads: if c < active_clusters { t0 } else { 1 },
                    // `infinite_issue` idealization: lift the VCL issue
                    // limit far beyond any window size; functional-unit
                    // structural hazards still bound issue.
                    issue_width: if cfg.ideal.infinite_issue {
                        1 << 20
                    } else {
                        cfg.vcl.issue_width
                    },
                    window: cfg.vcl.window,
                    chaining: cfg.vcl.chaining,
                };
                let mut v = VectorUnit::new(vcfg, Arc::clone(&decoded));
                v.set_thread_map(active_clusters, c);
                vus.push(v);
            }
            if cfg.clusters > 1 {
                let mut n = ClusterNet::new(&cfg.net, cfg.clusters);
                if cfg.ideal.zero_hop_net {
                    n.set_ideal(true);
                }
                net = Some(n);
            }
        }

        let has_vu = cfg.has_vu;
        System {
            cfg,
            src: TrackedSource {
                sim,
                prog: decoded,
                cur_region: 0,
                vlt_request: None,
                has_vu,
                arrivals: 0,
            },
            cores: cores.into_iter().map(Slot::new).collect(),
            lane_cores: lane_cores.into_iter().map(Slot::new).collect(),
            vus: vus.into_iter().map(Slot::new).collect(),
            net,
            mem,
            active_clusters,
            vu_pending: None,
            nthreads,
            parked: 0,
            flushed_releases: 0,
            driver: DriverMode::default(),
            work: Work::default(),
        }
    }

    /// What the vector units' accounting reads, as it held through the
    /// last stepped cycle.
    fn vu_inputs(&self) -> VuInputs {
        VuInputs {
            parked: self.parked,
            nthreads: self.nthreads,
            draining: self.vu_pending.is_some(),
        }
    }

    /// Datapath utilization and vector stall causes summed across lane
    /// clusters, covering every cycle before `at`.
    fn vu_counters(&self, at: u64) -> (Utilization, StallBreakdown) {
        let inputs = self.vu_inputs();
        let mut u = Utilization::default();
        let mut b = StallBreakdown::default();
        for v in &self.vus {
            let (util, stalls) = match v.uncredited(at) {
                Some((from, n)) => {
                    v.counters_after_idle(from, n, inputs.parked, inputs.nthreads, inputs.draining)
                }
                None => (v.util, v.stalls),
            };
            u.busy += util.busy;
            u.partly_idle += util.partly_idle;
            u.stalled += util.stalled;
            u.all_idle += util.all_idle;
            b.merge(&stalls);
        }
        (u, b)
    }

    /// Bitmask of software threads currently parked at a barrier.
    fn parked_mask(&self) -> u64 {
        let mut m = 0u64;
        for t in 0..self.nthreads.min(64) {
            if self.src.sim.thread_parked(t) {
                m |= 1u64 << t;
            }
        }
        m
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Select how the driver advances time (default:
    /// [`DriverMode::EventDriven`]). [`DriverMode::CycleByCycle`] is the
    /// naive oracle — kept selectable so tests and benchmarks can compare.
    pub fn with_driver(mut self, mode: DriverMode) -> Self {
        self.driver = mode;
        self
    }

    /// Select the functional execution engine (default:
    /// [`vlt_exec::EngineMode::Block`]). [`vlt_exec::EngineMode::Interp`]
    /// is the cross-validation oracle, mirroring
    /// [`DriverMode::CycleByCycle`] on the timing side.
    pub fn with_engine(mut self, engine: vlt_exec::EngineMode) -> Self {
        self.src.sim.set_engine(engine);
        self
    }

    /// The functional simulator (memory image and architectural state) —
    /// for result verification after a run.
    pub fn funcsim(&self) -> &FuncSim {
        &self.src.sim
    }

    /// The driver's work so far: stepped cycles and unit ticks per class.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Every hardware context has drained. Only the scalar units and lane
    /// cores vote: a scalar unit is not done while a vector instruction it
    /// dispatched is in flight, and the passive units hold no pending work.
    fn done(&self) -> bool {
        self.cores.iter().all(|c| c.done()) && self.lane_cores.iter().all(|l| l.done())
    }

    /// Run to completion (all threads halted and pipelines drained).
    pub fn run(&mut self, max_cycles: u64) -> Result<SimResult, SimError> {
        self.run_observed(max_cycles, &mut NullObserver)
    }

    /// The one driver loop: run to completion (all threads halted and
    /// pipelines drained) with `obs` hooked into every simulated cycle.
    ///
    /// Under [`DriverMode::EventDriven`] (the default), a unit whose tick
    /// left its work unchanged sleeps until its `next_event` or until
    /// another unit acts on it, and the cycles it slept through are
    /// credited in bulk to its per-cycle counters when it wakes; a cycle in
    /// which every unit sleeps is not stepped at all (its region time is
    /// counted in bulk). Sleeping is sound because a `next_event` answer is
    /// never *later* than the unit's true next state change and every act
    /// of one unit on another wakes the target — so results stay
    /// byte-identical to [`DriverMode::CycleByCycle`] (see DESIGN.md
    /// §"Time advancement").
    pub fn run_observed<O: SimObserver + ?Sized>(
        &mut self,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<SimResult, SimError> {
        let mut region_cycles: BTreeMap<u32, u64> = BTreeMap::new();
        // Region time accrues into a (region, count) accumulator flushed on
        // region change, not a per-cycle BTreeMap probe.
        let mut acc_region = self.src.cur_region;
        let mut acc_cycles = 0u64;
        let mut clamped_repartitions = 0u64;
        let mut now = 0u64;
        // Event delivery is opt-in per run: the producing units record
        // nothing unless this observer asked, so `run` pays nothing.
        let vec_events = obs.wants_vec_events();
        let mem_events = obs.wants_mem_events();
        for v in &mut self.vus {
            v.set_issue_logging(vec_events);
        }
        self.mem.l2.set_recording(mem_events);
        // Park transitions are reported by diffing against the previous
        // stepped cycle's mask (threads start running, so the baseline is
        // empty).
        let mut parked_prev = 0u64;
        loop {
            if self.done() {
                break;
            }
            if now >= max_cycles {
                return Err(SimError::Timeout { cycles: now });
            }
            obs.on_cycle(now, &CycleView { sys: self, at: now });
            let ev = self.step(now)?;
            let after = CycleView { sys: self, at: now + 1 };
            if let Some(releases) = ev.barrier_releases {
                obs.on_barrier(now, releases, &after);
            }
            if let Some(rp) = &ev.repartition {
                if rp.clamped {
                    clamped_repartitions += 1;
                }
                obs.on_repartition(now, rp);
            }
            if let Some(latency) = ev.applied_latency {
                obs.on_repartition_applied(now, latency);
            }
            if self.parked != parked_prev {
                let diff = self.parked ^ parked_prev;
                for t in 0..self.nthreads.min(64) {
                    if diff & (1u64 << t) != 0 {
                        obs.on_park(now, t, self.parked & (1u64 << t) != 0);
                    }
                }
                parked_prev = self.parked;
            }
            if vec_events || mem_events {
                // Vector issues before L2 bank events, cluster by cluster;
                // a unit whose logging is off holds an empty log.
                for v in &mut self.vus {
                    for e in v.issue_log() {
                        obs.on_vec_issue(now, e);
                    }
                    v.clear_issue_log();
                }
                for e in self.mem.l2.recorded_events() {
                    obs.on_mem_access(now, e);
                }
                self.mem.l2.clear_events();
            }
            if self.src.cur_region != acc_region {
                if acc_cycles > 0 {
                    *region_cycles.entry(acc_region).or_insert(0) += acc_cycles;
                }
                acc_region = self.src.cur_region;
                acc_cycles = 0;
                obs.on_region(now, acc_region, &CycleView { sys: self, at: now + 1 });
            }
            acc_cycles += 1;
            now += 1;
            // Every unit sleeps past `now`: jump to the earliest wake, or to
            // the cycle budget, so a would-be hang times out at exactly
            // `max_cycles` like the oracle.
            let wake = self.next_wake().min(max_cycles);
            if wake > now && !self.done() {
                acc_cycles += wake - now;
                now = wake;
            }
        }
        if acc_cycles > 0 {
            *region_cycles.entry(acc_region).or_insert(0) += acc_cycles;
        }
        let result = self.finish(now, region_cycles, clamped_repartitions);
        obs.on_finish(&result);
        Ok(result)
    }

    /// The earliest cycle any unit ticks at.
    fn next_wake(&self) -> u64 {
        let cores = self.cores.iter().map(|c| c.wake);
        let lanes = self.lane_cores.iter().map(|l| l.wake);
        cores.chain(lanes).chain(self.vus.iter().map(|v| v.wake)).min().unwrap_or(NEVER)
    }

    /// Advance the whole machine by one cycle, ticking the units awake at
    /// `now` in a fixed order. The front end ticks first: the scalar units
    /// (their vector traffic routed to the vector units; on a machine
    /// without one, fetch refuses vector instructions, so the router over
    /// no units only ever answers `issued`), then the lane cores.
    /// At the boundary the driver snapshots park state and processes
    /// `vltcfg` requests ([`System::pre_backend`]); then the vector units
    /// tick. The network and the memory system are passive and never tick.
    ///
    /// A unit that acts on another wakes it: at `now` when the target comes
    /// later in the order (its tick this cycle sees the act, as the
    /// oracle's would), else at `now + 1`.
    fn step(&mut self, now: u64) -> Result<CycleEvents, SimError> {
        let mut ev = CycleEvents::default();
        let sleeps = self.driver == DriverMode::EventDriven;
        let inputs = self.vu_inputs();
        let System { cores, lane_cores, vus, mem, src, active_clusters, work, .. } = self;
        let mut arrivals = src.arrivals;
        let mut router = VecRouter { vus, active: *active_clusters, inputs, now };
        for i in 0..cores.len() {
            let c = &mut cores[i];
            if c.wake > now {
                continue;
            }
            c.catch_up(now, OooCore::credit_idle_span);
            work.core_ticks += 1;
            let mark = c.progress();
            c.tick(now, mem, src, &mut router)?;
            let busy = !sleeps || c.progress() != mark;
            c.ticked(now, busy, |c| c.next_event(now + 1, src));
            if src.arrivals != arrivals {
                arrivals = src.arrivals;
                wake_front_end(cores, lane_cores, i, now);
            }
        }
        for j in 0..lane_cores.len() {
            let l = &mut lane_cores[j];
            if l.wake > now {
                continue;
            }
            l.catch_up(now, InOrderCore::credit_idle_span);
            work.lane_ticks += 1;
            let mark = l.progress();
            l.tick(now, mem, src)?;
            let busy = !sleeps || l.progress() != mark;
            l.ticked(now, busy, |l| l.next_event(now + 1, src));
            if src.arrivals != arrivals {
                arrivals = src.arrivals;
                let by = cores.len() + j;
                wake_front_end(cores, lane_cores, by, now);
            }
        }

        self.pre_backend(now, &mut ev);
        let inputs = self.vu_inputs();
        let System { cores, vus, net, mem, src, work, .. } = self;
        let (mut issued, mut freed) = (0u64, false);
        for v in vus.iter_mut() {
            if v.wake > now {
                continue;
            }
            v.catch_up_vu(now, inputs);
            work.vu_ticks += 1;
            let mark = (v.issued, v.released());
            let (parked, nthreads, draining) = (inputs.parked, inputs.nthreads, inputs.draining);
            v.tick(now, mem, net.as_mut(), src.sim.arena(), parked, nthreads, draining);
            issued |= v.take_issued_threads();
            freed |= v.released() != mark.1;
            let busy = !sleeps || (v.issued, v.released()) != mark;
            v.ticked(now, busy, |v| v.next_event(now + 1));
        }
        // An issue may complete a vector instruction the core running its
        // thread awaits; a freed slot may admit one the unit refused. The
        // cores poll or retry next cycle.
        if issued != 0 || freed {
            for c in cores.iter_mut() {
                if c.awaits_vector(issued) || (freed && c.refused()) {
                    c.wake_at(now + 1);
                }
            }
        }

        // Barrier rendezvous completed: flush L1 data caches so post-barrier
        // reads observe other threads' writes. The functional simulator
        // counts releases exactly (once per rendezvous, at the moment the
        // waiting flags clear), so this is correct for thread counts that
        // don't divide the barrier population and for mid-run halts.
        let releases = self.src.sim.barrier_releases();
        if releases > self.flushed_releases {
            self.flushed_releases = releases;
            // `free_barriers` idealization: skip the coherence flush (the
            // post-barrier cold-miss cost), keeping the rendezvous itself —
            // residual BarrierWait is then pure software imbalance.
            if !self.cfg.ideal.free_barriers {
                self.mem.barrier_flush();
            }
            ev.barrier_releases = Some(releases);
        }
        self.work.stepped += 1;

        Ok(ev)
    }

    /// Front-end/back-end boundary work, once per stepped cycle: snapshot
    /// park state (observation inputs: VU stall-cause attribution and the
    /// `on_park` transition hook) and process per-phase lane repartitioning
    /// (paper §3.3, hierarchical per DESIGN.md §11): a fetched `vltcfg`
    /// requests it; the machine applies it once every vector unit has
    /// drained and refuses new dispatches meanwhile.
    ///
    /// The park state and the pending repartition are inputs of every
    /// vector unit's accounting, so before either changes each unit is
    /// credited through the previous cycle and woken to tick this cycle.
    fn pre_backend(&mut self, now: u64, ev: &mut CycleEvents) {
        let parked = self.parked_mask();
        let request = if self.vus.is_empty() { None } else { self.src.vlt_request.take() };
        if parked == self.parked && request.is_none() && self.vu_pending.is_none() {
            return;
        }
        let inputs = self.vu_inputs();
        for v in &mut self.vus {
            v.catch_up_vu(now, inputs);
        }
        let changed = parked != self.parked;
        self.parked = parked;
        let pending = self.vu_pending.is_some();
        if let Some((t_req, c_req)) = request {
            let rp = self.validate_request(t_req, c_req);
            let current = (self.active_clusters * self.vus[0].threads(), self.active_clusters);
            if (rp.applied, rp.applied_clusters) != current {
                self.vu_pending = Some(PendingRepartition {
                    threads: rp.applied,
                    clusters: rp.applied_clusters,
                    since: now,
                });
            }
            ev.repartition = Some(rp);
        }
        if let Some(p) = self.vu_pending {
            if self.vus.iter().all(|v| v.drained()) {
                self.apply_partition(p.threads, p.clusters);
                ev.applied_latency = Some(now.saturating_sub(p.since));
                self.vu_pending = None;
                // Dispatch reopens, into the new partitions.
                for c in &mut self.cores {
                    if c.refused() {
                        c.wake_at(now + 1);
                    }
                }
            }
        }
        if changed || ev.applied_latency.is_some() || self.vu_pending.is_some() != pending {
            for v in &mut self.vus {
                v.wake_at(now);
            }
        }
    }

    /// Validate a fetched `vltcfg` request against the machine shape.
    /// `c_req == 0` (a flat, pre-hierarchical operand) lets the machine
    /// pick: threads spread over as many clusters as can hold them.
    /// Invalid requests clamp to the machine's full configuration.
    fn validate_request(&self, t_req: u8, c_req: u8) -> RepartitionEvent {
        let t = t_req as usize;
        let c_active = if c_req == 0 { self.cfg.clusters.min(t.max(1)) } else { c_req as usize };
        let ok = c_active >= 1
            && c_active <= self.cfg.clusters
            && t <= self.cfg.vlt_threads
            && c_active <= t
            && t.is_multiple_of(c_active)
            && matches!(t / c_active, 1 | 2 | 4)
            && self.cfg.lanes.is_multiple_of(t / c_active);
        let (applied, applied_clusters) = if ok {
            (t, c_active)
        } else {
            // Thread counts or spreads beyond the configured machine (e.g.
            // a scalar-thread build's vltcfg 8) clamp to the machine's full
            // initial shape.
            (self.cfg.vlt_threads, self.cfg.clusters.min(self.cfg.vlt_threads).max(1))
        };
        RepartitionEvent {
            requested: t_req,
            requested_clusters: c_req,
            applied,
            applied_clusters,
            clamped: !ok,
        }
    }

    /// Apply a drained repartition machine-wide: `t_total` VLT threads over
    /// `c_active` clusters, local thread counts equal across active
    /// clusters; clusters outside the active set revert to one undivided
    /// (idle) partition. Callers gate on every unit being drained.
    fn apply_partition(&mut self, t_total: usize, c_active: usize) {
        let t_local = t_total / c_active;
        for (c, v) in self.vus.iter_mut().enumerate() {
            v.repartition(if c < c_active { t_local } else { 1 });
            v.set_thread_map(c_active, c);
        }
        self.active_clusters = c_active;
    }

    /// Credit every unit through the last cycle, then assemble the final
    /// result.
    fn finish(
        &mut self,
        cycles: u64,
        region_cycles: BTreeMap<u32, u64>,
        clamped_repartitions: u64,
    ) -> SimResult {
        for c in &mut self.cores {
            c.catch_up(cycles, OooCore::credit_idle_span);
        }
        for l in &mut self.lane_cores {
            l.catch_up(cycles, InOrderCore::credit_idle_span);
        }
        let inputs = self.vu_inputs();
        for v in &mut self.vus {
            v.catch_up_vu(cycles, inputs);
        }
        let committed = self.cores.iter().map(|c| c.stats.committed).sum::<u64>()
            + self.lane_cores.iter().map(|c| c.stats.committed).sum::<u64>();
        let mut mem = self.mem.stats();
        mem.net = self.net.as_ref().map(|n| n.stats.clone());
        let mut lane_busy = Vec::new();
        let mut lane_partly = Vec::new();
        for v in &self.vus {
            let (b, p) = v.lane_occupancy();
            lane_busy.extend_from_slice(b);
            lane_partly.extend_from_slice(p);
        }
        let (utilization, vu_stalls) = self.vu_counters(cycles);
        SimResult {
            cycles,
            committed,
            utilization,
            cores: self.cores.iter().map(|c| c.stats.clone()).collect(),
            lanes: self.lane_cores.iter().map(|c| c.stats.clone()).collect(),
            vu_stalls,
            mem,
            region_cycles,
            lane_busy,
            lane_partly,
            clamped_repartitions,
        }
    }
}

/// A thread arrived at a barrier or halted during the tick of front-end
/// unit `by` (the scalar units, then the lane cores, in tick order), which
/// may have opened a barrier that any live front-end unit waits on. They
/// all wake: those after `by` tick this cycle and see the release, the
/// rest tick the next.
fn wake_front_end(
    cores: &mut [Slot<OooCore>],
    lane_cores: &mut [Slot<InOrderCore>],
    by: usize,
    now: u64,
) {
    let at = |k: usize| if k > by { now } else { now + 1 };
    for (k, c) in cores.iter_mut().enumerate() {
        if !c.done() {
            c.wake_at(at(k));
        }
    }
    let n = cores.len();
    for (k, l) in lane_cores.iter_mut().enumerate() {
        if !l.done() {
            l.wake_at(at(n + k));
        }
    }
}

#[cfg(test)]
mod tests;
