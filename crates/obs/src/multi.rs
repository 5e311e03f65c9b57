//! [`Multi`]: a composite observer that fans every driver hook out to a
//! set of member observers, so metrics collection, timeline tracing, and
//! CPI stacks share one simulation pass instead of three.
//!
//! Composition rules:
//!
//! * `wants_vec_events` / `wants_mem_events` are the **or** of the
//!   members' answers (a member that didn't ask still receives the
//!   deliveries — harmless, its default hooks are no-ops);
//! * every other hook fires on each member in registration order.

use vlt_core::{CycleView, RepartitionEvent, SimObserver, SimResult, VecIssue};
use vlt_mem::BankEvent;

/// Fans observer hooks out to several member observers (see module docs).
#[derive(Default)]
pub struct Multi<'a> {
    members: Vec<&'a mut dyn SimObserver>,
}

impl<'a> Multi<'a> {
    /// An empty composite (behaves like `NullObserver`).
    pub fn new() -> Self {
        Multi { members: Vec::new() }
    }

    /// Add a member; hooks fire in registration order.
    pub fn push(&mut self, obs: &'a mut dyn SimObserver) {
        self.members.push(obs);
    }

    /// Builder-style [`Multi::push`].
    pub fn with(mut self, obs: &'a mut dyn SimObserver) -> Self {
        self.push(obs);
        self
    }

    /// Number of member observers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl SimObserver for Multi<'_> {
    fn on_cycle(&mut self, now: u64, view: &CycleView<'_>) {
        for m in &mut self.members {
            m.on_cycle(now, view);
        }
    }

    fn on_barrier(&mut self, now: u64, releases: u64, view: &CycleView<'_>) {
        for m in &mut self.members {
            m.on_barrier(now, releases, view);
        }
    }

    fn on_repartition(&mut self, now: u64, ev: &RepartitionEvent) {
        for m in &mut self.members {
            m.on_repartition(now, ev);
        }
    }

    fn on_repartition_applied(&mut self, now: u64, drain_latency: u64) {
        for m in &mut self.members {
            m.on_repartition_applied(now, drain_latency);
        }
    }

    fn on_region(&mut self, now: u64, region: u32, view: &CycleView<'_>) {
        for m in &mut self.members {
            m.on_region(now, region, view);
        }
    }

    fn on_park(&mut self, now: u64, thread: usize, parked: bool) {
        for m in &mut self.members {
            m.on_park(now, thread, parked);
        }
    }

    fn on_vec_issue(&mut self, now: u64, ev: &VecIssue) {
        for m in &mut self.members {
            m.on_vec_issue(now, ev);
        }
    }

    fn wants_vec_events(&self) -> bool {
        self.members.iter().any(|m| m.wants_vec_events())
    }

    fn on_mem_access(&mut self, now: u64, ev: &BankEvent) {
        for m in &mut self.members {
            m.on_mem_access(now, ev);
        }
    }

    fn wants_mem_events(&self) -> bool {
        self.members.iter().any(|m| m.wants_mem_events())
    }

    fn on_finish(&mut self, result: &SimResult) {
        for m in &mut self.members {
            m.on_finish(result);
        }
    }
}
