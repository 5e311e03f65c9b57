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
//! in-order lane cores and the per-cluster vector units tick every stepped
//! cycle; the inter-cluster network and the memory system are passive (their
//! state changes only inside the other units' accesses) and only answer the
//! skip horizon and deliver L2 events.
//!
//! Time advances event-driven by default: when a cycle makes no progress,
//! the driver queries every unit's `next_event` and jumps straight to the
//! earliest future one (or the cycle budget), bulk-crediting the skipped
//! span — with results
//! byte-identical to the naive cycle-by-cycle oracle, which stays
//! selectable via [`DriverMode::CycleByCycle`]. That oracle is also what
//! catches a unit class left out of one of the driver's walks.

use std::collections::BTreeMap;
use std::sync::Arc;

use vlt_exec::{DecodedProgram, DynKind, ExecError, FuncSim, Step};
use vlt_isa::{Op, Program};
use vlt_mem::{BankEvent, ClusterNet, MemSystem};
use vlt_scalar::{
    FetchResult, FetchSource, InOrderCore, LaneCoreConfig, NullVectorSink, OooCore, StallBreakdown,
    VecDispatch, VecToken, VectorSink,
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
}

impl FetchSource for TrackedSource {
    fn fetch(&mut self, thread: usize) -> Result<FetchResult, ExecError> {
        Ok(match self.sim.step_thread(thread)? {
            Step::Inst(d) => {
                if !self.has_vu && self.prog.get(d.sidx as usize).class.is_vector() {
                    return Err(ExecError::NoVectorUnit { tid: thread, pc: d.pc });
                }
                if let DynKind::VltCfg { threads, clusters } = d.kind {
                    self.vlt_request = Some((threads, clusters));
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
    /// Skip provably-quiescent spans: query every unit's `next_event`,
    /// jump straight to the earliest one, and credit the skipped cycles in
    /// bulk. Produces byte-identical [`SimResult`]s (and observer hook
    /// streams) to [`DriverMode::CycleByCycle`]; `tests/driver_props.rs`
    /// enforces it.
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
    /// Bitmask of software threads parked at a barrier after this cycle.
    parked: u64,
    /// A pending repartition took effect this cycle, after draining for
    /// this many cycles.
    applied_latency: Option<u64>,
}

/// Read-only view of the machine handed to [`SimObserver::on_cycle`].
/// Aggregates (`utilization`, `stalls`) are computed lazily so a no-op
/// observer pays nothing per cycle.
pub struct CycleView<'a> {
    sys: &'a System,
}

impl CycleView<'_> {
    /// Cumulative datapath utilization, summed across lane clusters (zeros
    /// without a vector unit).
    pub fn utilization(&self) -> Utilization {
        self.sys.vu_utilization()
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
        let mut b = self.sys.vu_stalls();
        for c in &self.sys.cores {
            b.merge(&c.stats.stalls);
        }
        for l in &self.sys.lane_cores {
            b.merge(&l.stats.stalls);
        }
        b
    }

    /// Cumulative vector-unit stall-cause breakdown, merged across lane
    /// clusters (zeros without a vector unit). Datapath-cycles.
    pub fn vu_stalls(&self) -> StallBreakdown {
        self.sys.vu_stalls()
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
        self.sys.cores.iter().map(|c| (c.stats.fetch_stall_cycles, c.stats.stalls)).collect()
    }

    /// Per-lane-core `(stall_cycles, stalls)` snapshots, in lane order
    /// (empty outside VLT scalar-thread mode).
    pub fn lane_stalls(&self) -> Vec<(u64, StallBreakdown)> {
        self.sys.lane_cores.iter().map(|l| (l.stats.stall_cycles, l.stats.stalls)).collect()
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
/// schedule. Under the default [`DriverMode::EventDriven`] driver, cycles
/// inside a provably-quiescent span are *not* simulated, so `on_cycle` does
/// not fire for them; their per-cycle counters are credited in bulk before
/// the next `on_cycle`, so a view at cycle `n` counts exactly the cycles
/// before `n`. Every other hook reports machine activity, which a skipped
/// span holds none of, so both drivers fire it at the same cycle with the
/// same payload.
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

/// Routes scalar-unit vector traffic to the per-cluster vector units:
/// thread `t` lives in cluster `t % active` under local id `t / active`
/// (injective per cluster). Tokens carry the cluster in their top byte, so
/// on a single-cluster machine (`active == 1`) every field — local ids and
/// tokens alike — is bit-identical to the pre-cluster driver.
struct VecRouter<'a> {
    vus: &'a mut [VectorUnit],
    active: usize,
    /// A repartition is draining: refuse dispatch machine-wide (the natural
    /// backpressure on the scalar units).
    pending: bool,
}

/// Bits of a [`VecToken`] holding the within-cluster token.
const TOKEN_MASK: u64 = (1u64 << 56) - 1;

impl VectorSink for VecRouter<'_> {
    fn try_dispatch(&mut self, mut d: VecDispatch, now: u64) -> Option<VecToken> {
        if self.pending {
            return None; // draining toward a repartition
        }
        let c = d.vthread % self.active;
        d.vthread /= self.active;
        let t = self.vus[c].try_dispatch(d, now)?;
        debug_assert!(t.0 <= TOKEN_MASK);
        Some(VecToken(((c as u64) << 56) | t.0))
    }

    fn resolve(&mut self, vthread: usize, seq: u64, done_at: u64) {
        let c = vthread % self.active;
        self.vus[c].resolve(vthread / self.active, seq, done_at);
    }

    fn poll(&mut self, token: VecToken) -> Option<u64> {
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
    cores: Vec<OooCore>,
    lane_cores: Vec<InOrderCore>,
    /// One vector unit per lane cluster (empty without a vector unit).
    vus: Vec<VectorUnit>,
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
    /// Barrier releases already flushed, against the funcsim's exact count.
    flushed_releases: u64,
    driver: DriverMode,
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
            src: TrackedSource { sim, prog: decoded, cur_region: 0, vlt_request: None, has_vu },
            cores,
            lane_cores,
            vus,
            net,
            mem,
            active_clusters,
            vu_pending: None,
            nthreads,
            flushed_releases: 0,
            driver: DriverMode::default(),
        }
    }

    /// Datapath utilization summed across lane clusters.
    fn vu_utilization(&self) -> Utilization {
        let mut u = Utilization::default();
        for v in &self.vus {
            u.busy += v.util.busy;
            u.partly_idle += v.util.partly_idle;
            u.stalled += v.util.stalled;
            u.all_idle += v.util.all_idle;
        }
        u
    }

    /// Vector stall-cause breakdown merged across lane clusters.
    fn vu_stalls(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for v in &self.vus {
            b.merge(&v.stalls);
        }
        b
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
    /// Under [`DriverMode::EventDriven`] (the default), whenever a simulated
    /// cycle makes no observable progress the driver asks every unit for its
    /// next event cycle and jumps straight to the earliest one, crediting
    /// the skipped span in bulk to the per-cycle counters (region
    /// attribution, VU utilization, core busy/stall counters). The skip is
    /// sound because a `next_event` answer is never *later* than the unit's
    /// true next state change, so nothing that would have happened in the
    /// span is lost — and results stay byte-identical to
    /// [`DriverMode::CycleByCycle`] (see DESIGN.md §"Time advancement").
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
        let skipping = self.driver == DriverMode::EventDriven;
        let mut fingerprint = self.progress_fingerprint();
        // Event delivery is opt-in per run: the producing units record
        // nothing unless this observer asked, so `run` pays nothing.
        let vec_events = obs.wants_vec_events();
        let mem_events = obs.wants_mem_events();
        for v in &mut self.vus {
            v.set_issue_logging(vec_events);
        }
        self.mem.l2.set_recording(mem_events);
        // Park transitions are reported by diffing against the previous
        // cycle's mask (threads start running, so the baseline is empty).
        let mut parked_prev = 0u64;
        loop {
            if self.done() {
                break;
            }
            if now >= max_cycles {
                return Err(SimError::Timeout { cycles: now });
            }
            obs.on_cycle(now, &CycleView { sys: self });
            let ev = self.step(now)?;
            if let Some(releases) = ev.barrier_releases {
                obs.on_barrier(now, releases, &CycleView { sys: self });
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
            if ev.parked != parked_prev {
                let diff = ev.parked ^ parked_prev;
                for t in 0..self.nthreads.min(64) {
                    if diff & (1u64 << t) != 0 {
                        obs.on_park(now, t, ev.parked & (1u64 << t) != 0);
                    }
                }
                parked_prev = ev.parked;
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
                obs.on_region(now, acc_region, &CycleView { sys: self });
            }
            acc_cycles += 1;
            now += 1;
            if skipping {
                let fp = self.progress_fingerprint();
                let quiet = fp == fingerprint;
                fingerprint = fp;
                // Only a cycle that made no progress is worth a horizon
                // scan (a gate, not a soundness condition: a false "busy"
                // just defers the scan one cycle).
                if quiet && !self.done() {
                    if let Some(target) = self.quiescent_horizon(now, max_cycles) {
                        let span = target - now;
                        self.credit_idle_span(now, span);
                        acc_cycles += span;
                        now = target;
                    }
                }
            }
        }
        if acc_cycles > 0 {
            *region_cycles.entry(acc_region).or_insert(0) += acc_cycles;
        }
        let result = self.finish(now, region_cycles, clamped_repartitions);
        obs.on_finish(&result);
        Ok(result)
    }

    /// The latest cycle `> from` the driver may jump to without simulating
    /// the span in between, or `None` when no skip is possible: the minimum
    /// over every unit's `next_event` and the cycle budget (so a would-be
    /// hang times out at exactly `max_cycles`, like the naive driver).
    fn quiescent_horizon(&self, from: u64, max_cycles: u64) -> Option<u64> {
        let mut horizon = max_cycles;
        // A pending repartition over fully-drained vector units applies at
        // the very next step — driver-owned state the per-unit polls cannot
        // see, so it is guarded here.
        if self.vu_pending.is_some() && self.vus.iter().all(|v| v.drained()) {
            return None;
        }
        // The passive units (network, memory) answer advisorily (always
        // > `from`), so they only ever shorten a skip.
        let events = self
            .cores
            .iter()
            .map(|c| c.next_event(from, &self.src))
            .chain(self.lane_cores.iter().map(|l| l.next_event(from, &self.src)))
            .chain(self.vus.iter().map(|v| v.next_event(from)))
            .chain(self.net.iter().map(|n| n.next_event(from)))
            .chain(std::iter::once_with(|| self.mem.next_event(from)));
        for ev in events {
            match ev {
                Some(t) if t <= from => return None,
                Some(t) => horizon = horizon.min(t),
                None => {}
            }
        }
        (horizon > from).then_some(horizon)
    }

    /// Bulk-credit a skipped `[from, from + span)` window to every
    /// per-cycle counter, exactly as `span` naive ticks would have. Park
    /// state cannot change inside a quiescent span (parking and resuming
    /// are front-end activity), so one mask covers the whole window.
    fn credit_idle_span(&mut self, from: u64, span: u64) {
        let parked = self.parked_mask();
        let draining = self.vu_pending.is_some();
        for c in &mut self.cores {
            c.credit_idle_span(from, span);
        }
        for l in &mut self.lane_cores {
            l.credit_idle_span(from, span, self.src.sim.thread_parked(l.thread()));
        }
        for v in &mut self.vus {
            v.account_idle_span(from, span, parked, self.nthreads, draining);
        }
        // The passive units hold no per-cycle counters.
    }

    /// A cheap monotone digest of total forward progress; unchanged across
    /// a step means the machine (very likely) idled that cycle. Only a gate
    /// for the horizon scan — correctness rests on `quiescent_horizon`.
    fn progress_fingerprint(&self) -> u64 {
        let mut fp = self.src.sim.executed + self.src.sim.barrier_releases();
        for c in &self.cores {
            fp += c.stats.committed + c.stats.issued + c.stats.vec_dispatched;
        }
        for l in &self.lane_cores {
            fp += l.stats.committed;
        }
        for v in &self.vus {
            fp += v.issued;
        }
        fp
    }

    /// Advance the whole machine by one cycle. The front end ticks first:
    /// the scalar units (their vector traffic routed to the vector units,
    /// or to [`NullVectorSink`] on a machine without one), then the lane
    /// cores. At the boundary the driver snapshots park state and processes
    /// `vltcfg` requests ([`System::pre_backend`]); then the vector units
    /// tick. The network and the memory system are passive and never tick.
    fn step(&mut self, now: u64) -> Result<CycleEvents, SimError> {
        let mut ev = CycleEvents::default();
        let System { cores, lane_cores, vus, mem, src, active_clusters, vu_pending, .. } = self;
        if vus.is_empty() {
            for c in cores.iter_mut() {
                c.tick(now, mem, src, &mut NullVectorSink)?;
            }
        } else {
            let pending = vu_pending.is_some();
            let mut router = VecRouter { vus, active: *active_clusters, pending };
            for c in cores.iter_mut() {
                c.tick(now, mem, src, &mut router)?;
            }
        }
        for l in lane_cores.iter_mut() {
            l.tick(now, mem, src)?;
        }

        self.pre_backend(now, &mut ev);
        let draining = self.vu_pending.is_some();
        let System { vus, net, mem, src, nthreads, .. } = self;
        for v in vus.iter_mut() {
            v.tick(now, mem, net.as_mut(), src.sim.arena(), ev.parked, *nthreads, draining);
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

        Ok(ev)
    }

    /// Front-end/back-end boundary work, once per cycle: snapshot park
    /// state (observation inputs: VU stall-cause attribution and the
    /// `on_park` transition hook) and process per-phase lane repartitioning
    /// (paper §3.3, hierarchical per DESIGN.md §11): a fetched `vltcfg`
    /// requests it; the machine applies it once every vector unit has
    /// drained and refuses new dispatches meanwhile.
    fn pre_backend(&mut self, now: u64, ev: &mut CycleEvents) {
        ev.parked = self.parked_mask();
        if self.vus.is_empty() {
            return; // scalar machines never consume vltcfg requests
        }
        if let Some((t_req, c_req)) = self.src.vlt_request.take() {
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

    /// Assemble the final result after the machine drains.
    fn finish(
        &self,
        cycles: u64,
        region_cycles: BTreeMap<u32, u64>,
        clamped_repartitions: u64,
    ) -> SimResult {
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
        SimResult {
            cycles,
            committed,
            utilization: self.vu_utilization(),
            cores: self.cores.iter().map(|c| c.stats.clone()).collect(),
            lanes: self.lane_cores.iter().map(|c| c.stats.clone()).collect(),
            vu_stalls: self.vu_stalls(),
            mem,
            region_cycles,
            lane_busy,
            lane_partly,
            clamped_repartitions,
        }
    }
}

#[cfg(test)]
mod tests;
