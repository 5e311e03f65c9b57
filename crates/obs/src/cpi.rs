//! [`CpiObserver`]: windowed CPI stacks — per-region, per-barrier-epoch,
//! and whole-run top-down cycle attribution with exact conservation.
//!
//! The observer snapshots each unit's cumulative counters at window
//! boundaries (region changes, barrier releases, run end) through the
//! [`CycleView`] and differences consecutive snapshots into
//! [`CpiStack`]s. Everything is event-sourced — no per-cycle probing —
//! so it composes with event-driven idle skipping and never perturbs the
//! simulation.
//!
//! ## Window accounting
//!
//! A hook firing at cycle `t` observes counters that include cycle `t`'s
//! accounting, so a snapshot there represents `t + 1` elapsed cycles; the
//! run-end snapshot represents `result.cycles`. Window length is the
//! difference between consecutive snapshots, which makes every window
//! exactly conserving under both drivers (bulk-credited idle spans land
//! in whichever window observes them). One consequence: a region-change
//! cycle's accounting lands in the *outgoing* region's window (the
//! driver's `region_cycles` assigns that one cycle to the incoming
//! region), so window cycles can differ from `region_cycles` by ±1 per
//! transition — each attribution is self-consistent; they are not
//! interchangeable.
//!
//! ## Units and budgets
//!
//! * `vu` — the vector units merged, budgeted `3 × lanes × clusters`
//!   datapath-cycles per elapsed cycle (the Figure-4 taxonomy): `base` is
//!   busy datapaths, `partly-idle` short-VL idling, and the stall causes
//!   attribute `stalled + all_idle`.
//! * `core<i>` — scalar unit `i`, one cycle per elapsed cycle: `base` is
//!   cycles the front end was not stalled; the causes attribute
//!   `fetch_stall_cycles`.
//! * `lane<i>` — lane core `i` (VLT scalar-thread mode), same shape with
//!   `stall_cycles`.

use std::collections::BTreeMap;

use vlt_core::{CpiStack, CycleView, SimObserver, SimResult, StallBreakdown, Utilization};

/// One boundary snapshot of every unit's cumulative counters.
#[derive(Debug, Default, Clone)]
struct Snap {
    /// Elapsed cycles this snapshot represents.
    cycles: u64,
    /// The vector units' per-cycle datapath budget (`3 × lanes ×
    /// clusters`; 0 without a vector unit, which suppresses the `vu`
    /// stack).
    datapaths: u64,
    util: Utilization,
    vu_stalls: StallBreakdown,
    /// Per-scalar-unit `(fetch_stall_cycles, stalls)`.
    cores: Vec<(u64, StallBreakdown)>,
    /// Per-lane-core `(stall_cycles, stalls)`.
    lanes: Vec<(u64, StallBreakdown)>,
}

impl Snap {
    fn at(cycles: u64, view: &CycleView<'_>) -> Self {
        Snap {
            cycles,
            datapaths: view.vu_datapaths(),
            util: view.utilization(),
            vu_stalls: view.vu_stalls(),
            cores: view.core_stalls(),
            lanes: view.lane_stalls(),
        }
    }

    fn at_finish(result: &SimResult) -> Self {
        Snap {
            cycles: result.cycles,
            datapaths: 3 * result.lane_busy.len() as u64,
            util: result.utilization,
            vu_stalls: result.vu_stalls,
            cores: result.cores.iter().map(|c| (c.fetch_stall_cycles, c.stalls)).collect(),
            lanes: result.lanes.iter().map(|l| (l.stall_cycles, l.stalls)).collect(),
        }
    }
}

/// Difference two snapshots into per-unit stacks.
fn window_stacks(prev: &Snap, cur: &Snap) -> Vec<CpiStack> {
    let da = cur.cycles - prev.cycles;
    let mut out = Vec::with_capacity(1 + cur.cores.len() + cur.lanes.len());
    if cur.datapaths > 0 {
        let mut s = CpiStack::empty("vu");
        s.cycles = cur.datapaths * da;
        s.base = cur.util.busy - prev.util.busy;
        s.partly_idle = cur.util.partly_idle - prev.util.partly_idle;
        s.stalls = cur.vu_stalls.since(&prev.vu_stalls);
        out.push(s);
    }
    for (i, (stall_cycles, stalls)) in cur.cores.iter().enumerate() {
        let (p_sc, p_st) = prev.cores.get(i).cloned().unwrap_or_default();
        let mut s = CpiStack::empty(format!("core{i}"));
        s.cycles = da;
        s.base = da - (stall_cycles - p_sc);
        s.stalls = stalls.since(&p_st);
        out.push(s);
    }
    for (i, (stall_cycles, stalls)) in cur.lanes.iter().enumerate() {
        let (p_sc, p_st) = prev.lanes.get(i).cloned().unwrap_or_default();
        let mut s = CpiStack::empty(format!("lane{i}"));
        s.cycles = da;
        s.base = da - (stall_cycles - p_sc);
        s.stalls = stalls.since(&p_st);
        out.push(s);
    }
    out
}

/// Merge a window's stacks into an accumulator keyed by unit position
/// (the unit set is fixed for a run, so positions align).
fn merge_into(acc: &mut Vec<CpiStack>, window: &[CpiStack]) {
    if acc.is_empty() {
        acc.extend(window.iter().cloned());
        return;
    }
    for (a, w) in acc.iter_mut().zip(window) {
        a.merge(w);
    }
}

/// Collects per-region, per-barrier-epoch, and whole-run CPI stacks over
/// one simulation run (see module docs).
#[derive(Debug, Default)]
pub struct CpiObserver {
    region_snap: Snap,
    cur_region: u32,
    epoch_snap: Snap,
    by_region: BTreeMap<u32, Vec<CpiStack>>,
    by_epoch: Vec<Vec<CpiStack>>,
    total: Vec<CpiStack>,
    finished: bool,
}

impl CpiObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whole-run stacks, one per unit (empty before `on_finish`).
    pub fn total(&self) -> &[CpiStack] {
        &self.total
    }

    /// Per-region stacks (windows of the same region merged), one entry
    /// per unit per region visited.
    pub fn by_region(&self) -> &BTreeMap<u32, Vec<CpiStack>> {
        &self.by_region
    }

    /// Per-barrier-epoch stacks, in epoch order. Epoch `k` spans the
    /// release of barrier `k` (or run start for `k = 0`) to the next
    /// release (or run end).
    pub fn by_epoch(&self) -> &[Vec<CpiStack>] {
        &self.by_epoch
    }

    /// Check exact conservation on every collected stack — whole-run,
    /// every region, every epoch. Returns the first violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        for s in &self.total {
            s.check().map_err(|e| format!("total: {e}"))?;
        }
        for (r, stacks) in &self.by_region {
            for s in stacks {
                s.check().map_err(|e| format!("region {r}: {e}"))?;
            }
        }
        for (k, stacks) in self.by_epoch.iter().enumerate() {
            for s in stacks {
                s.check().map_err(|e| format!("epoch {k}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Export the whole-run and per-region stacks as metric counters:
    /// `cpi.<unit>.{cycles,base,partly-idle,<cause>}` and
    /// `cpi.region<r>.<unit>.<component>` (nonzero components only).
    /// Per-epoch stacks stay programmatic — epochs number in the
    /// thousands on barrier-heavy kernels.
    pub fn export_into(&self, reg: &mut vlt_stats::MetricsRegistry) {
        let emit = |reg: &mut vlt_stats::MetricsRegistry, prefix: &str, s: &CpiStack| {
            reg.add(&format!("{prefix}.cycles"), s.cycles);
            for (label, n) in s.components() {
                if n > 0 {
                    reg.add(&format!("{prefix}.{label}"), n);
                }
            }
        };
        for s in &self.total {
            emit(reg, &format!("cpi.{}", s.unit), s);
        }
        for (r, stacks) in &self.by_region {
            for s in stacks {
                emit(reg, &format!("cpi.region{r}.{}", s.unit), s);
            }
        }
    }

    fn close_windows(&mut self, cur: &Snap, region_done: bool, epoch_done: bool) {
        if region_done {
            let w = window_stacks(&self.region_snap, cur);
            merge_into(self.by_region.entry(self.cur_region).or_default(), &w);
            self.region_snap = cur.clone();
        }
        if epoch_done {
            self.by_epoch.push(window_stacks(&self.epoch_snap, cur));
            self.epoch_snap = cur.clone();
        }
    }
}

impl SimObserver for CpiObserver {
    fn on_region(&mut self, now: u64, region: u32, view: &CycleView<'_>) {
        let cur = Snap::at(now + 1, view);
        self.close_windows(&cur, true, false);
        self.cur_region = region;
    }

    fn on_barrier(&mut self, now: u64, _releases: u64, view: &CycleView<'_>) {
        let cur = Snap::at(now + 1, view);
        self.close_windows(&cur, false, true);
    }

    fn on_finish(&mut self, result: &SimResult) {
        if self.finished {
            return;
        }
        self.finished = true;
        let cur = Snap::at_finish(result);
        self.close_windows(&cur, true, true);
        self.total = window_stacks(&Snap::default(), &cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_core::StallCause;

    fn breakdown(entries: &[(StallCause, u64)]) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for &(c, n) in entries {
            b.add(c, n);
        }
        b
    }

    #[test]
    fn window_stacks_conserve_by_construction() {
        let prev = Snap {
            cycles: 10,
            datapaths: 24,
            util: Utilization { busy: 100, partly_idle: 20, stalled: 80, all_idle: 40 },
            vu_stalls: breakdown(&[(StallCause::NoDlp, 120)]),
            cores: vec![(4, breakdown(&[(StallCause::BankConflict, 4)]))],
            lanes: vec![],
        };
        let cur = Snap {
            cycles: 30,
            datapaths: 24,
            util: Utilization { busy: 300, partly_idle: 60, stalled: 90, all_idle: 30 },
            vu_stalls: breakdown(&[(StallCause::NoDlp, 310), (StallCause::BarrierWait, 50)]),
            cores: vec![(
                9,
                breakdown(&[(StallCause::BankConflict, 4), (StallCause::ScalarDep, 5)]),
            )],
            lanes: vec![],
        };
        let stacks = window_stacks(&prev, &cur);
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0].unit, "vu");
        assert_eq!(stacks[0].cycles, 24 * 20);
        assert_eq!(stacks[0].base, 200);
        stacks[0].check().unwrap();
        assert_eq!(stacks[1].unit, "core0");
        assert_eq!(stacks[1].cycles, 20);
        assert_eq!(stacks[1].base, 15);
        stacks[1].check().unwrap();
    }

    #[test]
    fn merge_accumulates_by_position() {
        let stack = |n: u64| {
            let mut s = CpiStack::empty("vu");
            s.cycles = n;
            s.base = n;
            s
        };
        let mut a = vec![stack(5)];
        merge_into(&mut a, &[stack(7)]);
        assert_eq!(a[0].cycles, 12);
        a[0].check().unwrap();
    }
}
