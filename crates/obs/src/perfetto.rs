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
//!
//! Cost: recording an event allocates nothing but the name of a
//! repartition instant. Export moves each recorded event into its JSON
//! object, so the tree (about 1.7 KB and 15 allocations per `X` slice:
//! two map leaves, `String` keys and values) is the only per-event
//! allocation left. Validation walks each event's members once and
//! formats a message only for the violation it reports.

use std::borrow::Cow;
use std::collections::BTreeMap;

use vlt_core::{CycleView, RepartitionEvent, SimObserver, SimResult, VecIssue};
use vlt_isa::OpClass;
use vlt_mem::BankEvent;
use vlt_stats::json::Json;

const THREADS_PID: u64 = 1;
const VU_PID: u64 = 2;
const L2_PID: u64 = 3;
const LANES_PID: u64 = 4;

/// One recorded Chrome-trace event. It owns no heap data except the name
/// of a repartition instant, which carries numbers.
#[derive(Debug)]
struct Ev {
    ph: u8,
    name: Cow<'static, str>,
    cat: &'static str,
    ts: u64,
    /// `dur` of an `X` slice, `id` of an async `b`/`e` span, else 0.
    span: u64,
    pid: u64,
    tid: u64,
    args: Args,
}

/// The numeric `args` object of an event: a fixed kind of up to two values.
#[derive(Debug, Clone, Copy)]
enum Args {
    None,
    /// Cycles an applied repartition waited for the vector unit to drain.
    Drain(u64),
    /// A vector-unit slice's vector length and issuing thread.
    VlThread(u64, u64),
    /// A lane slice's vector length and whether the lane is active.
    VlActive(u64, bool),
    /// Whether an L2 access writes.
    Write(bool),
}

impl Ev {
    /// A barrier-epoch async span edge (`b` or `e`).
    fn epoch(ph: u8, ts: u64, id: u64) -> Ev {
        let (pid, tid, args) = (THREADS_PID, 0, Args::None);
        Ev { ph, name: "epoch".into(), cat: "barrier-epoch", ts, span: id, pid, tid, args }
    }

    /// A barrier-wait duration edge (`B` or `E`) on a thread's track.
    fn wait(ph: u8, ts: u64, thread: u64) -> Ev {
        let (pid, tid, args) = (THREADS_PID, thread, Args::None);
        Ev { ph, name: "barrier-wait".into(), cat: "barrier", ts, span: 0, pid, tid, args }
    }

    /// A repartition instant.
    fn instant(name: String, ts: u64, args: Args) -> Ev {
        let (pid, tid, name) = (THREADS_PID, 0, name.into());
        Ev { ph: b'i', name, cat: "repartition", ts, span: 0, pid, tid, args }
    }

    /// A complete (`X`) slice of `dur` cycles.
    fn slice(
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        track: (u64, u64),
        args: Args,
    ) -> Ev {
        let (pid, tid) = track;
        Ev { ph: b'X', name: name.into(), cat, ts, span: dur, pid, tid, args }
    }

    /// The event's JSON object. Consumes the event, so an owned name
    /// moves into the tree.
    fn into_json(self) -> Json {
        let (cat, name, ph) = (
            text(self.cat),
            Json::Str(self.name.into_owned()),
            Json::Str(char::from(self.ph).into()),
        );
        let (pid, tid, ts) = (num(self.pid), num(self.tid), num(self.ts));
        match (self.ph, self.args.into_json()) {
            (b'X', Some(args)) => obj([
                ("args", args),
                ("cat", cat),
                ("dur", num(self.span)),
                ("name", name),
                ("ph", ph),
                ("pid", pid),
                ("tid", tid),
                ("ts", ts),
            ]),
            (b'b' | b'e', _) => obj([
                ("cat", cat),
                ("id", num(self.span)),
                ("name", name),
                ("ph", ph),
                ("pid", pid),
                ("tid", tid),
                ("ts", ts),
            ]),
            // Instants need a scope; "g" renders machine-wide.
            (b'i', Some(args)) => obj([
                ("args", args),
                ("cat", cat),
                ("name", name),
                ("ph", ph),
                ("pid", pid),
                ("s", text("g")),
                ("tid", tid),
                ("ts", ts),
            ]),
            (b'i', None) => obj([
                ("cat", cat),
                ("name", name),
                ("ph", ph),
                ("pid", pid),
                ("s", text("g")),
                ("tid", tid),
                ("ts", ts),
            ]),
            // `B`/`E`: no span, no args.
            _ => obj([
                ("cat", cat),
                ("name", name),
                ("ph", ph),
                ("pid", pid),
                ("tid", tid),
                ("ts", ts),
            ]),
        }
    }
}

impl Args {
    fn into_json(self) -> Option<Json> {
        Some(match self {
            Args::None => return None,
            Args::Drain(cycles) => obj([("drain", num(cycles))]),
            Args::VlThread(vl, vthread) => obj([("vl", num(vl)), ("vthread", num(vthread))]),
            Args::VlActive(vl, active) => obj([("active", num(active.into())), ("vl", num(vl))]),
            Args::Write(write) => obj([("write", num(write.into()))]),
        })
    }
}

/// A JSON object from members given in key order (`BTreeMap::from` sorts
/// them again, which costs one comparison per member when they are).
fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(BTreeMap::from(members.map(|(k, v)| (k.to_owned(), v))))
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// The name of a vector or lane slice: `format!("{:?}", class)`, from a
/// static table instead of a fresh allocation per slice.
fn class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::IntAlu => "IntAlu",
        OpClass::IntMul => "IntMul",
        OpClass::IntDiv => "IntDiv",
        OpClass::FpAdd => "FpAdd",
        OpClass::FpMul => "FpMul",
        OpClass::FpDiv => "FpDiv",
        OpClass::Load => "Load",
        OpClass::Store => "Store",
        OpClass::Branch => "Branch",
        OpClass::Jump => "Jump",
        OpClass::VAdd => "VAdd",
        OpClass::VMul => "VMul",
        OpClass::VDiv => "VDiv",
        OpClass::VMask => "VMask",
        OpClass::VLoad => "VLoad",
        OpClass::VStore => "VStore",
        OpClass::Sys => "Sys",
    }
}

/// Records a Chrome-trace timeline (see module docs for the mapping).
///
/// A recorded event is a fixed-size record with a
/// static name and a fixed kind of numeric args; only the repartition
/// instants, whose names carry numbers, own a string.
///
/// The cap `max_events` counts every recorded event, structural ones
/// included, but only high-rate slices (`X`) are dropped once it is
/// reached: structural events (park `B`/`E`, epoch `b`/`e`, instants) are
/// kept past it and metadata is emitted on export, so the trace stays
/// balanced even when truncated — [`PerfettoObserver::dropped`] reports
/// the loss.
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
    /// A tracer with the default 2M-event cap.
    pub fn new() -> Self {
        Self::with_capacity(2_000_000)
    }

    /// A tracer that drops high-rate slices once `max_events` events are
    /// recorded.
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
        t.push_structural(Ev::epoch(b'b', 0, 0));
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
    ///
    /// Metadata events (`M`) name every process and track first; the
    /// recorded events follow in timestamp order, each moved into its
    /// object, built from members already in key order. `traceEvents` is
    /// allocated once.
    pub fn into_json(mut self) -> Json {
        let meta = |kind: &str, pid: u64, tid: u64, name: String| {
            obj([
                ("args", obj([("name", Json::Str(name))])),
                ("cat", text("__metadata")),
                ("name", text(kind)),
                ("ph", text("M")),
                ("pid", num(pid)),
                ("tid", num(tid)),
                ("ts", num(0)),
            ])
        };
        let tracks = 4
            + self.threads_seen
            + self.clusters_seen * (self.partitions_seen + self.lanes_seen)
            + self.banks_seen;
        let mut out = Vec::with_capacity(tracks as usize + self.events.len());
        let processes = [("threads", THREADS_PID), ("vector unit", VU_PID), ("L2 banks", L2_PID)];
        for (name, pid) in processes {
            out.push(meta("process_name", pid, 0, name.into()));
        }
        if self.lanes_seen > 0 {
            out.push(meta("process_name", LANES_PID, 0, "lanes".into()));
        }
        let mut thread =
            |name: String, pid: u64, tid: u64| out.push(meta("thread_name", pid, tid, name));
        for t in 0..self.threads_seen {
            thread(format!("thread {t}"), THREADS_PID, t);
        }
        if self.clusters_seen <= 1 {
            for p in 0..self.partitions_seen {
                thread(format!("partition {p}"), VU_PID, p);
            }
        } else {
            // Per-cluster trace slices: each cluster's partitions group
            // under its own named tracks.
            for c in 0..self.clusters_seen {
                for p in 0..self.partitions_seen {
                    thread(format!("cluster {c} partition {p}"), VU_PID, c * CLUSTER_TID + p);
                }
            }
        }
        for b in 0..self.banks_seen {
            thread(format!("bank {b}"), L2_PID, b);
        }
        for c in 0..self.clusters_seen {
            for l in 0..self.lanes_seen {
                let name = if self.clusters_seen <= 1 {
                    format!("lane {l}")
                } else {
                    format!("cluster {c} lane {l}")
                };
                thread(name, LANES_PID, c * CLUSTER_TID + l);
            }
        }
        // Chronological order (stable: same-cycle events keep the driver's
        // emission order, which nests B before E correctly).
        sort_by_ts(&mut self.events);
        out.extend(self.events.into_iter().map(Ev::into_json));
        let other =
            obj([("clock", text("simulated-cycles")), ("droppedEvents", num(self.dropped))]);
        obj([
            ("displayTimeUnit", text("ns")),
            ("otherData", other),
            ("traceEvents", Json::Arr(out)),
        ])
    }
}

/// Order `events` by timestamp, stably. They arrive nearly in order, over a
/// span of cycles about as long as the list, so a counting sort places each
/// one in a linear pass; a span more than [`SPAN_PER_EVENT`] times the
/// count, which would need a giant table, takes a comparison sort instead.
fn sort_by_ts(events: &mut [Ev]) {
    let (Some(lo), Some(hi)) =
        (events.iter().map(|e| e.ts).min(), events.iter().map(|e| e.ts).max())
    else {
        return;
    };
    if hi - lo > SPAN_PER_EVENT * events.len() as u64 {
        events.sort_by_key(|e| e.ts);
        return;
    }
    // `next[k]`: where the next event at cycle `lo + k` goes.
    let mut next = vec![0usize; (hi - lo) as usize + 1];
    for e in events.iter() {
        next[(e.ts - lo) as usize] += 1;
    }
    let mut at = 0;
    for n in &mut next {
        (*n, at) = (at, at + *n);
    }
    let mut dest: Vec<usize> = events
        .iter()
        .map(|e| {
            let n = &mut next[(e.ts - lo) as usize];
            *n += 1;
            *n - 1
        })
        .collect();
    drop(next);
    // Follow the permutation's cycles: each swap puts one event in place.
    for i in 0..events.len() {
        while dest[i] != i {
            let j = dest[i];
            events.swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// Most cycles per event in a span [`sort_by_ts`] counting-sorts: its
/// table then takes at most about as many bytes as the events themselves.
/// The widest of vlbench's `profiled` traces (ocean x4) spans 14.9.
const SPAN_PER_EVENT: u64 = 16;

impl SimObserver for PerfettoObserver {
    fn on_barrier(&mut self, now: u64, _releases: u64, _view: &CycleView<'_>) {
        self.push_structural(Ev::epoch(b'e', now, self.epoch));
        self.epoch += 1;
        self.push_structural(Ev::epoch(b'b', now, self.epoch));
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
        self.push_structural(Ev::instant(name, now, Args::None));
    }

    fn on_repartition_applied(&mut self, now: u64, drain_latency: u64) {
        let name = format!("repartition applied (drained {drain_latency} cy)");
        self.push_structural(Ev::instant(name, now, Args::Drain(drain_latency)));
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
        self.push_structural(Ev::wait(if parked { b'B' } else { b'E' }, now, thread as u64));
    }

    fn on_vec_issue(&mut self, _now: u64, ev: &VecIssue) {
        self.partitions_seen = self.partitions_seen.max(ev.partition as u64 + 1);
        self.clusters_seen = self.clusters_seen.max(ev.cluster as u64 + 1);
        let (name, vl) = (class_name(ev.class), ev.vl as u64);
        let dur = ev.done.saturating_sub(ev.start).max(1);
        let cluster = ev.cluster as u64 * CLUSTER_TID;
        let track = (VU_PID, cluster + ev.partition as u64);
        let args = Args::VlThread(vl, ev.vthread as u64);
        self.push_capped(Ev::slice(name, "vu", ev.start, dur, track, args));
        // Per-lane tracks (pid 4): one slice per lane of the issuing
        // partition. `partition * lanes + j` is the *physical* lane — the
        // tid survives repartitioning, so one track shows one lane's whole
        // history.
        for j in 0..ev.lanes {
            let active = j < ev.vl;
            let lane = ev.partition as u64 * ev.lanes as u64 + j as u64;
            self.lanes_seen = self.lanes_seen.max(lane + 1);
            let name = if active { name } else { "masked" };
            let (track, args) = ((LANES_PID, cluster + lane), Args::VlActive(vl, active));
            self.push_capped(Ev::slice(name, "lane", ev.start, dur, track, args));
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
        let dur = ev.done.saturating_sub(ev.start).max(1);
        let track = (L2_PID, ev.bank as u64);
        self.push_capped(Ev::slice(name, "l2", ev.start, dur, track, Args::Write(ev.write)));
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
                self.push_structural(Ev::wait(b'E', end, t as u64));
            }
        }
        self.push_structural(Ev::epoch(b'e', end, self.epoch));
    }
}

/// The members of one trace event that [`validate_chrome_trace`] reads,
/// each `None` when absent or of the wrong type, taken in one walk of
/// the event's map.
#[derive(Default)]
struct Members<'a> {
    ph: Option<&'a str>,
    name: Option<&'a str>,
    cat: Option<&'a str>,
    ts: Option<f64>,
    pid: Option<f64>,
    tid: Option<f64>,
    dur: Option<f64>,
    id: Option<f64>,
}

impl<'a> Members<'a> {
    fn of(ev: &'a Json) -> Self {
        let mut m = Members::default();
        if let Json::Obj(members) = ev {
            for (k, v) in members {
                match k.as_str() {
                    "ph" => m.ph = v.as_str(),
                    "name" => m.name = v.as_str(),
                    "cat" => m.cat = v.as_str(),
                    "ts" => m.ts = v.as_f64(),
                    "pid" => m.pid = v.as_f64(),
                    "tid" => m.tid = v.as_f64(),
                    "dur" => m.dur = v.as_f64(),
                    "id" => m.id = v.as_f64(),
                    _ => {}
                }
            }
        }
        m
    }
}

/// Validate a Chrome-trace document: `traceEvents` is an array whose
/// members carry the fields their phase requires, timestamps are
/// non-decreasing (metadata aside), every `B` has a matching `E` per
/// `(pid, tid)` track, and every async `b` span closes with an `e` of
/// the same `(cat, id)`. Returns the first violation.
///
/// Each event's members are read in one walk of its map; a message is
/// formatted only for the violation returned.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("\"traceEvents\" is not an array")?;
    let mut last_ts = 0f64;
    let mut stacks: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut open_async: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let m = Members::of(ev);
        let missing = |field: &str| Err(format!("event {i}: missing \"{field}\""));
        let Some(ph) = m.ph else { return missing("ph") };
        let Some(ts) = m.ts else { return missing("ts") };
        let Some(pid) = m.pid else { return missing("pid") };
        let Some(tid) = m.tid else { return missing("tid") };
        if m.name.is_none() {
            return missing("name");
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
                if m.dur.is_none() {
                    return Err(format!("event {i}: X slice without \"dur\""));
                }
            }
            "b" | "e" => {
                let Some(cat) = m.cat else {
                    return Err(format!("event {i}: async span without \"cat\""));
                };
                let Some(id) = m.id else {
                    return Err(format!("event {i}: async span without \"id\""));
                };
                let key = (cat, id as u64);
                let open = open_async.entry(key).or_insert(0);
                if ph == "b" {
                    *open += 1;
                } else if *open == 0 {
                    return Err(format!("event {i}: async e without open b for {key:?}"));
                } else {
                    *open -= 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vlt_isa::Op;

    #[test]
    fn static_class_names_match_their_debug_names() {
        let classes: HashSet<OpClass> = Op::ALL.iter().map(|op| op.class()).collect();
        assert_eq!(classes.len(), 17, "some op carries each of the 17 classes");
        for class in classes {
            assert_eq!(class_name(class), format!("{class:?}"));
        }
    }

    #[test]
    fn events_sort_stably_by_timestamp_over_any_span() {
        // Each event's tid tags its arrival, so a stable order is exactly
        // `sort_by_key` on the timestamp.
        let order = |ts: &[u64]| {
            let mut evs: Vec<Ev> =
                ts.iter().enumerate().map(|(i, &t)| Ev::wait(b'B', t, i as u64)).collect();
            sort_by_ts(&mut evs);
            evs.iter().map(|e| (e.ts, e.tid)).collect::<Vec<_>>()
        };
        let stable = |ts: &[u64]| {
            let mut v: Vec<(u64, u64)> =
                ts.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
            v.sort_by_key(|e| e.0);
            v
        };
        // Nearly in order with ties, as the driver emits them; a span far
        // wider than the count; one event; none.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let near: Vec<u64> = (0..2000u64)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1000 + i / 3 + state % 40
            })
            .collect();
        let wide = [5u64 << 40, 3, 1 << 40, 3, 0, 5u64 << 40];
        for ts in [&near[..], &wide[..], &[7], &[]] {
            assert_eq!(order(ts), stable(ts));
        }
    }
}
