//! [`MetricsObserver`]: publishes simulation activity into a
//! [`MetricsRegistry`] as named counters and fixed-bucket histograms.
//!
//! Everything recorded here is *event-sourced* from observer hooks (or
//! read off the final [`SimResult`]), never from extra per-cycle probing,
//! so the observer composes with event-driven idle skipping: cycles that
//! are never simulated produce no events, and the registry contents are
//! identical under both driver modes.
//!
//! ## Metric names
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `vu.issue.vl.region<r>` | histogram | vector length of each issue, per region |
//! | `vu.issues` | counter | vector instructions issued to functional units |
//! | `vu.repartition.drain` | histogram | cycles each `vltcfg` waited for the VU to drain |
//! | `vu.repartitions` / `vu.repartitions.clamped` | counter | repartition requests (and clamps) |
//! | `barrier.wait.thread<t>` | histogram | park-to-resume latency per software thread |
//! | `barrier.releases` | counter | completed barrier rendezvous |
//! | `stalls.region<r>.<cause>` | counter | stall-cause cycles accrued inside region `r` |
//! | `l2.conflicts.bank<b>` | counter | L2 bank conflicts per bank |
//! | `region<r>.cycles` | counter | cycles attributed to region `r` |
//! | `vu.lane.busy-pct` | histogram | per-lane busy share of the arithmetic datapath budget, in percent |
//! | `vu.lane<l>.busy` / `vu.lane<l>.partly` | counter | physical lane `l`'s busy / partly-idle datapath-cycles |
//! | `sim.cycles` / `sim.committed` | counter | headline run totals |
//!
//! Names are append-only under metrics schema v1: new names may be
//! added, existing names keep their meaning.

use vlt_core::{CycleView, RepartitionEvent, SimObserver, SimResult, StallBreakdown, VecIssue};
use vlt_stats::MetricsRegistry;

/// Vector-length buckets: powers of two up to the full 64-element MVL.
const VL_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Barrier-wait buckets, in cycles (geometric, 4x).
const WAIT_BOUNDS: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];
/// Repartition drain-latency buckets, in cycles.
const DRAIN_BOUNDS: [u64; 5] = [4, 16, 64, 256, 1024];
/// Lane busy-percentage buckets.
const PCT_BOUNDS: [u64; 7] = [5, 10, 25, 50, 75, 90, 100];

/// Collects counters and histograms over one simulation run.
#[derive(Debug)]
pub struct MetricsObserver {
    reg: MetricsRegistry,
    cur_region: u32,
    /// `vu.issue.vl.region<cur_region>`, formatted once per region change
    /// rather than once per vector issue.
    vl_hist: String,
    last_stalls: StallBreakdown,
    /// Per-thread park cycle, `None` while running.
    park_since: Vec<Option<u64>>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver {
            reg: MetricsRegistry::new(),
            cur_region: 0,
            vl_hist: vl_hist_name(0),
            last_stalls: StallBreakdown::default(),
            park_since: Vec::new(),
        }
    }
}

fn vl_hist_name(region: u32) -> String {
    format!("vu.issue.vl.region{region}")
}

impl MetricsObserver {
    /// A fresh observer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry collected so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Consume the observer, yielding the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.reg
    }

    fn credit_region_stalls(&mut self, stalls: StallBreakdown) {
        let delta = stalls.since(&self.last_stalls);
        for (cause, n) in delta.iter() {
            if n > 0 {
                self.reg.add(&format!("stalls.region{}.{}", self.cur_region, cause.name()), n);
            }
        }
        self.last_stalls = stalls;
    }

    fn end_wait(&mut self, thread: usize, now: u64) {
        if let Some(Some(since)) = self.park_since.get(thread).copied() {
            self.reg
                .histogram(&format!("barrier.wait.thread{thread}"), &WAIT_BOUNDS)
                .record(now.saturating_sub(since));
            self.park_since[thread] = None;
        }
    }
}

impl SimObserver for MetricsObserver {
    fn on_barrier(&mut self, _now: u64, _releases: u64, _view: &CycleView<'_>) {
        self.reg.add("barrier.releases", 1);
    }

    fn on_repartition(&mut self, _now: u64, ev: &RepartitionEvent) {
        self.reg.add("vu.repartitions", 1);
        if ev.clamped {
            self.reg.add("vu.repartitions.clamped", 1);
        }
    }

    fn on_repartition_applied(&mut self, _now: u64, drain_latency: u64) {
        self.reg.histogram("vu.repartition.drain", &DRAIN_BOUNDS).record(drain_latency);
    }

    fn on_region(&mut self, _now: u64, region: u32, view: &CycleView<'_>) {
        // Close the outgoing region's stall window before switching.
        self.credit_region_stalls(view.stalls());
        self.cur_region = region;
        self.vl_hist = vl_hist_name(region);
    }

    fn on_park(&mut self, now: u64, thread: usize, parked: bool) {
        if thread >= self.park_since.len() {
            self.park_since.resize(thread + 1, None);
        }
        if parked {
            self.park_since[thread] = Some(now);
        } else {
            self.end_wait(thread, now);
        }
    }

    fn on_vec_issue(&mut self, _now: u64, ev: &VecIssue) {
        self.reg.add("vu.issues", 1);
        self.reg.histogram(&self.vl_hist, &VL_BOUNDS).record(ev.vl as u64);
    }

    fn wants_vec_events(&self) -> bool {
        true
    }

    fn on_finish(&mut self, result: &SimResult) {
        // Threads still parked when the machine drains (a thread halted
        // while its peers never rejoined) close their waits at the end.
        for t in 0..self.park_since.len() {
            self.end_wait(t, result.cycles);
        }
        self.credit_region_stalls(result.stalls());
        for (bank, n) in result.mem.l2_bank_conflicts.iter().enumerate() {
            if *n > 0 {
                self.reg.add(&format!("l2.conflicts.bank{bank}"), *n);
            }
        }
        for (region, cycles) in &result.region_cycles {
            self.reg.add(&format!("region{region}.cycles"), *cycles);
        }
        if !result.lane_busy.is_empty() && result.cycles > 0 {
            // Each physical lane's datapath budget is 3 arithmetic pipes ×
            // cycles (the per-lane slice of the Figure-4 budget).
            let budget = 3 * result.cycles;
            let hist = self.reg.histogram("vu.lane.busy-pct", &PCT_BOUNDS);
            for busy in &result.lane_busy {
                hist.record(100 * busy / budget);
            }
            for (l, (busy, partly)) in result.lane_busy.iter().zip(&result.lane_partly).enumerate()
            {
                if *busy > 0 {
                    self.reg.add(&format!("vu.lane{l}.busy"), *busy);
                }
                if *partly > 0 {
                    self.reg.add(&format!("vu.lane{l}.partly"), *partly);
                }
            }
        }
        self.reg.add("sim.cycles", result.cycles);
        self.reg.add("sim.committed", result.committed);
    }
}
