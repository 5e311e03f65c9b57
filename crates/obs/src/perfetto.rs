//! [`PerfettoObserver`]: records a Chrome-trace (Perfetto-loadable)
//! timeline of one simulation run.
//!
//! Mapping of machine activity onto the trace model:
//!
//! * **pid 1 "threads"** — one track per software thread. Barrier waits
//!   are `B`/`E` duration slices; barrier *epochs* (the interval between
//!   consecutive rendezvous) are async `b`/`e` spans on the same process;
//!   repartition requests and applications are instant (`i`) events.
//! * **pid 2 "vector unit"** — one track per lane partition; every vector
//!   issue is a complete (`X`) slice spanning issue→writeback, with the
//!   vector length and issuing thread in `args`.
//! * **pid 3 "L2 banks"** — one track per bank; every access is an `X`
//!   slice (`hit`/`miss`/`conflict`) spanning its bank occupancy.
//! * **pid 4 "lanes"** — one track per physical lane (per cluster); each
//!   vector issue puts an `X` slice on every lane of the issuing
//!   partition, named after the op for active lanes (`lane < vl`) and
//!   `masked` for lanes the short vector length idles. Gaps are true lane
//!   idleness. The physical-lane tid stays stable across repartitions.
//!
//! Timestamps are simulated cycles (Chrome renders them as microseconds;
//! relative magnitudes are what matter). Output is produced by
//! [`PerfettoObserver::into_json`] after the run finishes and is
//! checkable with [`validate_chrome_trace`] — the same function the
//! golden-file tests and `vlt prof` use.

use std::collections::BTreeMap;

use vlt_core::{CycleView, RepartitionEvent, SimObserver, SimResult, VecIssue};
use vlt_mem::BankEvent;
use vlt_stats::json::Json;

const THREADS_PID: u64 = 1;
const VU_PID: u64 = 2;
const L2_PID: u64 = 3;
const LANES_PID: u64 = 4;

/// One Chrome-trace event, flattened to the fields this exporter uses.
#[derive(Debug, Clone)]
struct Ev {
    ph: char,
    name: String,
    cat: &'static str,
    ts: u64,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    /// Async-span id (`b`/`e` phases only).
    id: Option<u64>,
    args: Vec<(&'static str, f64)>,
}

impl Ev {
    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("ph".into(), Json::Str(self.ph.to_string()));
        m.insert("name".into(), Json::Str(self.name.clone()));
        m.insert("cat".into(), Json::Str(self.cat.into()));
        m.insert("ts".into(), Json::Num(self.ts as f64));
        m.insert("pid".into(), Json::Num(self.pid as f64));
        m.insert("tid".into(), Json::Num(self.tid as f64));
        if let Some(d) = self.dur {
            m.insert("dur".into(), Json::Num(d as f64));
        }
        if let Some(id) = self.id {
            m.insert("id".into(), Json::Num(id as f64));
        }
        if self.ph == 'i' {
            // Instants need a scope; "g" renders machine-wide.
            m.insert("s".into(), Json::Str("g".into()));
        }
        if !self.args.is_empty() {
            m.insert(
                "args".into(),
                Json::Obj(self.args.iter().map(|(k, v)| ((*k).into(), Json::Num(*v))).collect()),
            );
        }
        Json::Obj(m)
    }
}

/// Records a Chrome-trace timeline (see module docs for the mapping).
///
/// Passive like every observer in this crate: no `next_deadline`, so the
/// event-driven driver is unhindered and results stay byte-identical to
/// an unobserved run. High-rate slice events (`X`) are capped at
/// `max_events`; structural events (park `B`/`E`, epoch `b`/`e`,
/// instants, metadata) are never dropped, so the trace stays balanced
/// even when truncated — [`PerfettoObserver::dropped`] reports the loss.
#[derive(Debug)]
pub struct PerfettoObserver {
    events: Vec<Ev>,
    max_events: usize,
    dropped: u64,
    epoch: u64,
    park_open: Vec<bool>,
    /// Highest lane-partition and bank tids seen, for metadata naming.
    partitions_seen: u64,
    /// Highest lane cluster seen (+1); 1 on single-cluster machines, whose
    /// track naming stays exactly as before clusters existed.
    clusters_seen: u64,
    banks_seen: u64,
    threads_seen: u64,
    /// Highest physical lane seen (+1) per cluster, for pid-4 naming.
    lanes_seen: u64,
    finished: bool,
}

/// Vector-unit tracks are grouped per cluster:
/// `tid = cluster * CLUSTER_TID + partition`. On single-cluster machines
/// every cluster is 0, so tids (and golden traces) are unchanged.
const CLUSTER_TID: u64 = 256;

impl Default for PerfettoObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfettoObserver {
    /// A tracer with the default 2M-slice cap.
    pub fn new() -> Self {
        Self::with_capacity(2_000_000)
    }

    /// A tracer keeping at most `max_events` high-rate slices.
    pub fn with_capacity(max_events: usize) -> Self {
        let mut t = PerfettoObserver {
            events: Vec::new(),
            max_events,
            dropped: 0,
            epoch: 0,
            park_open: Vec::new(),
            partitions_seen: 0,
            clusters_seen: 1,
            banks_seen: 0,
            threads_seen: 0,
            lanes_seen: 0,
            finished: false,
        };
        // Epoch 0 opens at time zero.
        t.push_structural(Ev {
            ph: 'b',
            name: "epoch".into(),
            cat: "barrier-epoch",
            ts: 0,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: Some(0),
            args: vec![],
        });
        t
    }

    /// High-rate slices dropped to the event cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events recorded (excluding metadata, which is emitted on export).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push_capped(&mut self, ev: Ev) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    fn push_structural(&mut self, ev: Ev) {
        self.events.push(ev);
    }

    /// Consume the tracer, producing the Chrome-trace JSON document.
    /// Call after the run (the `on_finish` hook closes open spans).
    pub fn into_json(mut self) -> Json {
        let mut meta = Vec::new();
        let process = |name: &str, pid: u64| {
            Ev {
                ph: 'M',
                name: "process_name".into(),
                cat: "__metadata",
                ts: 0,
                dur: None,
                pid,
                tid: 0,
                id: None,
                args: vec![],
            }
            .named_arg(name)
        };
        meta.push(process("threads", THREADS_PID));
        meta.push(process("vector unit", VU_PID));
        meta.push(process("L2 banks", L2_PID));
        if self.lanes_seen > 0 {
            meta.push(process("lanes", LANES_PID));
        }
        let thread = |name: String, pid: u64, tid: u64| {
            Ev {
                ph: 'M',
                name: "thread_name".into(),
                cat: "__metadata",
                ts: 0,
                dur: None,
                pid,
                tid,
                id: None,
                args: vec![],
            }
            .named_arg(&name)
        };
        for t in 0..self.threads_seen {
            meta.push(thread(format!("thread {t}"), THREADS_PID, t));
        }
        if self.clusters_seen <= 1 {
            for p in 0..self.partitions_seen {
                meta.push(thread(format!("partition {p}"), VU_PID, p));
            }
        } else {
            // Per-cluster trace slices: each cluster's partitions group
            // under its own named tracks.
            for c in 0..self.clusters_seen {
                for p in 0..self.partitions_seen {
                    meta.push(thread(
                        format!("cluster {c} partition {p}"),
                        VU_PID,
                        c * CLUSTER_TID + p,
                    ));
                }
            }
        }
        for b in 0..self.banks_seen {
            meta.push(thread(format!("bank {b}"), L2_PID, b));
        }
        for c in 0..self.clusters_seen {
            for l in 0..self.lanes_seen {
                let name = if self.clusters_seen <= 1 {
                    format!("lane {l}")
                } else {
                    format!("cluster {c} lane {l}")
                };
                meta.push(thread(name, LANES_PID, c * CLUSTER_TID + l));
            }
        }
        // Chronological order (stable: same-cycle events keep the driver's
        // emission order, which nests B before E correctly).
        self.events.sort_by_key(|e| e.ts);
        let mut out: Vec<Json> = meta.iter().map(EvWithName::to_json).collect();
        out.extend(self.events.iter().map(Ev::to_json));
        let mut doc = BTreeMap::new();
        doc.insert("traceEvents".into(), Json::Arr(out));
        doc.insert("displayTimeUnit".into(), Json::Str("ns".into()));
        let mut other = BTreeMap::new();
        other.insert("clock".into(), Json::Str("simulated-cycles".into()));
        other.insert("droppedEvents".into(), Json::Num(self.dropped as f64));
        doc.insert("otherData".into(), Json::Obj(other));
        Json::Obj(doc)
    }
}

impl Ev {
    /// Attach a `{"name": ...}` args object (metadata events name their
    /// process/track this way, not through the event's own `name`).
    fn named_arg(mut self, name: &str) -> EvWithName {
        self.cat = "__metadata";
        EvWithName { ev: self, name: name.to_string() }
    }
}

/// A metadata event whose `args.name` is a string (the numeric-args
/// vector on [`Ev`] can't hold it).
#[derive(Debug, Clone)]
struct EvWithName {
    ev: Ev,
    name: String,
}

impl EvWithName {
    fn to_json(&self) -> Json {
        let mut j = self.ev.to_json();
        if let Json::Obj(m) = &mut j {
            let mut args = BTreeMap::new();
            args.insert("name".into(), Json::Str(self.name.clone()));
            m.insert("args".into(), Json::Obj(args));
        }
        j
    }
}

impl SimObserver for PerfettoObserver {
    fn on_barrier(&mut self, now: u64, _releases: u64, _view: &CycleView<'_>) {
        let id = self.epoch;
        self.push_structural(Ev {
            ph: 'e',
            name: "epoch".into(),
            cat: "barrier-epoch",
            ts: now,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: Some(id),
            args: vec![],
        });
        self.epoch += 1;
        let id = self.epoch;
        self.push_structural(Ev {
            ph: 'b',
            name: "epoch".into(),
            cat: "barrier-epoch",
            ts: now,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: Some(id),
            args: vec![],
        });
    }

    fn on_repartition(&mut self, now: u64, ev: &RepartitionEvent) {
        let clamp = if ev.clamped { " (clamped)" } else { "" };
        // Hierarchical requests (or multi-cluster outcomes) spell out the
        // spread; flat single-cluster ones keep the historical name.
        let name = if ev.requested_clusters > 1 || ev.applied_clusters > 1 {
            format!(
                "vltcfg {}x{} -> {}x{}{}",
                ev.requested, ev.requested_clusters, ev.applied, ev.applied_clusters, clamp
            )
        } else {
            format!("vltcfg {} -> {}{}", ev.requested, ev.applied, clamp)
        };
        self.push_structural(Ev {
            ph: 'i',
            name,
            cat: "repartition",
            ts: now,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: None,
            args: vec![],
        });
    }

    fn on_repartition_applied(&mut self, now: u64, drain_latency: u64) {
        self.push_structural(Ev {
            ph: 'i',
            name: format!("repartition applied (drained {drain_latency} cy)"),
            cat: "repartition",
            ts: now,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: None,
            args: vec![("drain", drain_latency as f64)],
        });
    }

    fn on_park(&mut self, now: u64, thread: usize, parked: bool) {
        if thread >= self.park_open.len() {
            self.park_open.resize(thread + 1, false);
        }
        self.threads_seen = self.threads_seen.max(thread as u64 + 1);
        // Transitions alternate by construction, but stay robust: never
        // emit an E without a matching B.
        if parked == self.park_open[thread] {
            return;
        }
        self.park_open[thread] = parked;
        self.push_structural(Ev {
            ph: if parked { 'B' } else { 'E' },
            name: "barrier-wait".into(),
            cat: "barrier",
            ts: now,
            dur: None,
            pid: THREADS_PID,
            tid: thread as u64,
            id: None,
            args: vec![],
        });
    }

    fn on_vec_issue(&mut self, _now: u64, ev: &VecIssue) {
        self.partitions_seen = self.partitions_seen.max(ev.partition as u64 + 1);
        self.clusters_seen = self.clusters_seen.max(ev.cluster as u64 + 1);
        self.push_capped(Ev {
            ph: 'X',
            name: format!("{:?}", ev.class),
            cat: "vu",
            ts: ev.start,
            dur: Some(ev.done.saturating_sub(ev.start).max(1)),
            pid: VU_PID,
            tid: ev.cluster as u64 * CLUSTER_TID + ev.partition as u64,
            id: None,
            args: vec![("vl", ev.vl as f64), ("vthread", ev.vthread as f64)],
        });
        // Per-lane tracks (pid 4): one slice per lane of the issuing
        // partition. `partition * lanes + j` is the *physical* lane — the
        // tid survives repartitioning, so one track shows one lane's whole
        // history.
        let dur = ev.done.saturating_sub(ev.start).max(1);
        for j in 0..ev.lanes {
            let active = j < ev.vl;
            self.lanes_seen =
                self.lanes_seen.max(ev.partition as u64 * ev.lanes as u64 + j as u64 + 1);
            self.push_capped(Ev {
                ph: 'X',
                name: if active { format!("{:?}", ev.class) } else { "masked".into() },
                cat: "lane",
                ts: ev.start,
                dur: Some(dur),
                pid: LANES_PID,
                tid: ev.cluster as u64 * CLUSTER_TID
                    + ev.partition as u64 * ev.lanes as u64
                    + j as u64,
                id: None,
                args: vec![("vl", ev.vl as f64), ("active", active as u64 as f64)],
            });
        }
    }

    fn wants_vec_events(&self) -> bool {
        true
    }

    fn on_mem_access(&mut self, _now: u64, ev: &BankEvent) {
        self.banks_seen = self.banks_seen.max(ev.bank as u64 + 1);
        let name = if ev.conflict {
            "conflict"
        } else if ev.miss {
            "miss"
        } else {
            "hit"
        };
        self.push_capped(Ev {
            ph: 'X',
            name: name.into(),
            cat: "l2",
            ts: ev.start,
            dur: Some(ev.done.saturating_sub(ev.start).max(1)),
            pid: L2_PID,
            tid: ev.bank as u64,
            id: None,
            args: vec![("write", ev.write as u64 as f64)],
        });
    }

    fn wants_mem_events(&self) -> bool {
        true
    }

    fn on_finish(&mut self, result: &SimResult) {
        if self.finished {
            return;
        }
        self.finished = true;
        let end = result.cycles;
        for t in 0..self.park_open.len() {
            if self.park_open[t] {
                self.park_open[t] = false;
                self.push_structural(Ev {
                    ph: 'E',
                    name: "barrier-wait".into(),
                    cat: "barrier",
                    ts: end,
                    dur: None,
                    pid: THREADS_PID,
                    tid: t as u64,
                    id: None,
                    args: vec![],
                });
            }
        }
        let id = self.epoch;
        self.push_structural(Ev {
            ph: 'e',
            name: "epoch".into(),
            cat: "barrier-epoch",
            ts: end,
            dur: None,
            pid: THREADS_PID,
            tid: 0,
            id: Some(id),
            args: vec![],
        });
    }
}

/// Validate a Chrome-trace document: `traceEvents` is an array whose
/// members carry the fields their phase requires, timestamps are
/// non-decreasing (metadata aside), every `B` has a matching `E` per
/// `(pid, tid)` track, and every async `b` span closes with an `e` of
/// the same `(cat, id)`. Returns the first violation.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("\"traceEvents\" is not an array")?;
    let mut last_ts = 0f64;
    let mut stacks: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut open_async: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: missing \"ph\""))?;
        let ts = ev.get("ts").and_then(Json::as_f64).ok_or(format!("event {i}: missing \"ts\""))?;
        let pid =
            ev.get("pid").and_then(Json::as_f64).ok_or(format!("event {i}: missing \"pid\""))?;
        let tid =
            ev.get("tid").and_then(Json::as_f64).ok_or(format!("event {i}: missing \"tid\""))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        if ph == "M" {
            continue; // metadata is untimed
        }
        if ts < last_ts {
            return Err(format!("event {i}: timestamp {ts} goes backwards (last {last_ts})"));
        }
        last_ts = ts;
        let track = (pid as u64, tid as u64);
        match ph {
            "B" => *stacks.entry(track).or_insert(0) += 1,
            "E" => {
                let depth = stacks.entry(track).or_insert(0);
                if *depth == 0 {
                    return Err(format!("event {i}: E without open B on track {track:?}"));
                }
                *depth -= 1;
            }
            "X" => {
                if ev.get("dur").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: X slice without \"dur\""));
                }
            }
            "b" | "e" => {
                let cat = ev
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: async span without \"cat\""))?;
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: async span without \"id\""))?;
                let key = (cat.to_string(), id as u64);
                if ph == "b" {
                    *open_async.entry(key).or_insert(0) += 1;
                } else {
                    let n = open_async.entry(key.clone()).or_insert(0);
                    if *n == 0 {
                        return Err(format!("event {i}: async e without open b for {key:?}"));
                    }
                    *n -= 1;
                }
            }
            "i" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    if let Some(((pid, tid), _)) = stacks.iter().find(|(_, d)| **d > 0) {
        return Err(format!("unbalanced B on track ({pid}, {tid})"));
    }
    if let Some((key, _)) = open_async.iter().find(|(_, d)| **d > 0) {
        return Err(format!("unclosed async span {key:?}"));
    }
    Ok(())
}
