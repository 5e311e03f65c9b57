//! Golden-file checks on the exporters. The `trace.json` and
//! `metrics.json` text `vlt prof` writes for a known program must match
//! the committed copies under `tests/golden/` byte for byte; every trace
//! must be valid Chrome-trace JSON (parseable back from its serialized
//! text, timestamps monotone, duration slices balanced, async spans
//! closed); and the validator's rejections keep their exact messages.

use vlt_core::{System, SystemConfig};
use vlt_obs::perfetto::validate_chrome_trace;
use vlt_obs::{CpiObserver, MetricsObserver, Multi, PerfettoObserver};
use vlt_stats::json::Json;
use vlt_stats::metrics::validate_metrics_json;
use vlt_workloads::{workload, Scale};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn trace_of(prog: &vlt_isa::Program, cfg: SystemConfig, threads: usize) -> Json {
    let mut sys = System::new(cfg, prog, threads);
    let mut obs = PerfettoObserver::new();
    sys.run_observed(2_000_000_000, &mut obs).unwrap();
    obs.into_json()
}

fn events(doc: &Json) -> &[Json] {
    doc.get("traceEvents").and_then(Json::as_arr).unwrap()
}

fn count_where(doc: &Json, pred: impl Fn(&Json) -> bool) -> usize {
    events(doc).iter().filter(|e| pred(e)).count()
}

/// The `trace.json` and `metrics.json` text of one run under `vlt prof`'s
/// observer stack, with `trace` as its tracer; both documents validated.
fn profile(
    prog: &vlt_isa::Program,
    cfg: SystemConfig,
    threads: usize,
    mut trace: PerfettoObserver,
) -> (String, String) {
    let (mut metrics, mut cpi) = (MetricsObserver::new(), CpiObserver::new());
    let mut sys = System::new(cfg, prog, threads);
    let mut multi = Multi::new().with(&mut metrics).with(&mut trace).with(&mut cpi);
    sys.run_observed(2_000_000_000, &mut multi).unwrap();
    drop(multi);
    let mut reg = metrics.into_registry();
    cpi.export_into(&mut reg);
    let metrics = reg.to_json();
    validate_metrics_json(&metrics).unwrap();
    let trace = trace.into_json();
    validate_chrome_trace(&trace).unwrap();
    (trace.pretty(), metrics.pretty())
}

/// `got` must equal the golden file `name` byte for byte; a mismatch
/// names the first differing line instead of printing both documents.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{GOLDEN}/{name}");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if got != want {
        let (n, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(want.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("texts differ in some line");
        panic!("{name} differs from its golden at line {}: got {g:?}, want {w:?}", n + 1);
    }
}

fn saxpy_repartitions() -> vlt_isa::Program {
    let src = std::fs::read_to_string(format!("{GOLDEN}/saxpy_repartitions.s")).unwrap();
    vlt_isa::asm::assemble(&src).unwrap()
}

/// `vlt prof saxpy_repartitions.s` (V4-CMT x4): a drained and a clamped
/// repartition, active and `masked` lane slices, barrier waits and epochs,
/// L2 bank slices, and every metadata track name of a one-cluster machine.
#[test]
fn saxpy_repartitions_on_v4_cmt_match_the_goldens() {
    let (trace, metrics) =
        profile(&saxpy_repartitions(), SystemConfig::v4_cmt(), 4, PerfettoObserver::new());
    for kind in [
        "\"ph\": \"M\"",
        "\"ph\": \"b\"",
        "\"ph\": \"e\"",
        "\"ph\": \"B\"",
        "\"ph\": \"E\"",
        "\"ph\": \"i\"",
        "\"ph\": \"X\"",
        "\"lane 1\"",
        "\"masked\"",
        "\"vltcfg 8 -> 4 (clamped)\"",
        "\"drain\": ",
        "\"vthread\": ",
        "\"write\": ",
    ] {
        assert!(trace.contains(kind), "the golden run no longer emits {kind}");
    }
    assert_golden("saxpy_v4cmt_x4.trace.json", &trace);
    assert_golden("saxpy_v4cmt_x4.metrics.json", &metrics);
}

/// The same program on V8-2x8 x8 under a tracer capped at 64 events:
/// cluster-named tracks, `vltcfg AxB -> CxD` instants, a non-zero
/// `droppedEvents`, and the structural events recorded past the cap.
#[test]
fn capped_saxpy_repartitions_on_v8_2x8_match_the_goldens() {
    let cap = 64;
    let (trace, metrics) = profile(
        &saxpy_repartitions(),
        SystemConfig::v8_clustered(2),
        8,
        PerfettoObserver::with_capacity(cap),
    );
    let doc = Json::parse(&trace).unwrap();
    let dropped = doc.get("otherData").and_then(|o| o.get("droppedEvents")).and_then(Json::as_f64);
    assert!(dropped > Some(0.0), "the cap dropped nothing");
    let recorded = count_where(&doc, |e| e.get("ph").and_then(Json::as_str) != Some("M"));
    let last = events(&doc).last().and_then(|e| e.get("ph")).and_then(Json::as_str);
    assert!(recorded > cap, "no structural event past the cap");
    assert_eq!(last, Some("e"), "the last epoch must close past the cap");
    for name in ["\"cluster 1 partition 1\"", "\"cluster 1 lane 7\"", "\"vltcfg 2x0 -> 2x2\""] {
        assert!(trace.contains(name), "the golden run no longer emits {name}");
    }
    assert_golden("saxpy_v8_2x8_x8_capped.trace.json", &trace);
    assert_golden("saxpy_v8_2x8_x8.metrics.json", &metrics);
}

#[test]
fn dot_example_trace_is_valid_chrome_json() {
    let src =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm/dot.s"))
            .unwrap();
    let prog = vlt_isa::asm::assemble(&src).unwrap();
    let doc = trace_of(&prog, SystemConfig::v4_cmp(), 4);

    // Round-trip through the serialized text, then validate the parse-back
    // (what an external consumer sees).
    let text = doc.pretty();
    let back = Json::parse(&text).unwrap();
    validate_chrome_trace(&back).unwrap();

    // dot.s: 4 threads, one barrier between the phases — expect vector
    // issues on the VU process, at least one barrier-wait slice pair, and
    // the epoch async spans around the rendezvous.
    fn is(ph: &'static str) -> impl Fn(&Json) -> bool {
        move |e| e.get("ph").and_then(Json::as_str) == Some(ph)
    }
    assert!(count_where(&back, is("X")) > 0, "no slices in dot.s trace");
    let b = count_where(&back, is("B"));
    let e = count_where(&back, is("E"));
    assert!(b > 0, "no barrier-wait slices");
    assert_eq!(b, e, "unbalanced barrier-wait slices");
    assert!(count_where(&back, is("b")) >= 2, "expected >= 2 barrier epochs");
    assert_eq!(count_where(&back, is("b")), count_where(&back, is("e")));
    // Repartition instants: dot.s issues one vltcfg.
    assert!(count_where(&back, is("i")) >= 1, "no repartition instants");
    // Metadata names every process.
    assert!(count_where(&back, is("M")) >= 3, "missing process metadata");
}

#[test]
fn full_workload_trace_is_valid_chrome_json() {
    let built = workload("mpenc").unwrap().build(2, Scale::Test);
    let doc = trace_of(&built.program, SystemConfig::v2_cmp(), 2);
    let back = Json::parse(&doc.pretty()).unwrap();
    validate_chrome_trace(&back).unwrap();
    // A vectorized workload must produce VU slices and L2 activity.
    let on_pid = |pid: f64| {
        move |e: &Json| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("pid").and_then(Json::as_f64) == Some(pid)
        }
    };
    assert!(count_where(&back, on_pid(2.0)) > 0, "no vector-issue slices");
    assert!(count_where(&back, on_pid(3.0)) > 0, "no L2 bank slices");
}

/// The validator guards `vlt prof`'s output in CI, so a vacuous pass
/// would be worse than none: each rejection, with its exact message.
#[test]
fn validator_rejects_malformed_traces() {
    let ev = |events: &str| format!(r#"{{"traceEvents": [{events}]}}"#);
    // An event of phase `ph` at cycle `ts` on track (`pid`, 0), plus `more`.
    let at = |ph: &str, ts: f64, pid: f64, more: &str| {
        format!(
            r#"{{"ph": "{ph}", "name": "w", "cat": "c", "ts": {ts}, "pid": {pid}, "tid": 0{more}}}"#
        )
    };
    let one = |ph: &str, more: &str| ev(&at(ph, 1.0, 1.0, more));
    let cases = [
        (r#"{"traceEvents": {}}"#.to_string(), r#""traceEvents" is not an array"#),
        (r#"{"other": []}"#.to_string(), r#""traceEvents" is not an array"#),
        (ev("[]"), r#"event 0: missing "ph""#),
        (ev(r#"{"name": "w", "ts": 1, "pid": 1, "tid": 0}"#), r#"event 0: missing "ph""#),
        (ev(r#"{"ph": 7, "name": "w", "ts": 1, "pid": 1, "tid": 0}"#), r#"event 0: missing "ph""#),
        (ev(r#"{"ph": "i", "name": "w", "pid": 1, "tid": 0}"#), r#"event 0: missing "ts""#),
        (ev(r#"{"ph": "M", "name": "w", "ts": 0, "tid": 0}"#), r#"event 0: missing "pid""#),
        (ev(r#"{"ph": "i", "name": "w", "ts": 1, "pid": 1}"#), r#"event 0: missing "tid""#),
        (ev(r#"{"ph": "M", "ts": 0, "pid": 1, "tid": 0}"#), r#"event 0: missing "name""#),
        (
            ev(r#"{"ph": "i", "name": 3, "ts": 1, "pid": 1, "tid": 0}"#),
            r#"event 0: missing "name""#,
        ),
        (
            ev(&[at("i", 5.0, 1.0, ""), at("i", 4.5, 1.0, "")].join(", ")),
            "event 1: timestamp 4.5 goes backwards (last 5)",
        ),
        (one("E", ""), "event 0: E without open B on track (1, 0)"),
        (one("X", ""), r#"event 0: X slice without "dur""#),
        (
            ev(r#"{"ph": "b", "name": "x", "ts": 1, "pid": 1, "tid": 0, "id": 7}"#),
            r#"event 0: async span without "cat""#,
        ),
        (one("e", ""), r#"event 0: async span without "id""#),
        (one("e", r#", "id": 7"#), r#"event 0: async e without open b for ("c", 7)"#),
        (one("Q", ""), r#"event 0: unexpected phase "Q""#),
        (
            ev(&[at("B", 1.0, 3.0, ""), at("B", 1.0, 1.0, "")].join(", ")),
            "unbalanced B on track (1, 0)",
        ),
        (one("b", r#", "id": 7"#), r#"unclosed async span ("c", 7)"#),
    ];
    for (text, want) in cases {
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
        assert_eq!(validate_chrome_trace(&doc), Err(want.to_string()), "{text}");
    }
    // Metadata is untimed: it may sit anywhere and never moves the clock.
    let ok = [at("i", 5.0, 1.0, ""), at("M", 0.0, 1.0, ""), at("i", 5.0, 1.0, "")].join(", ");
    assert_eq!(validate_chrome_trace(&Json::parse(&ev(&ok)).unwrap()), Ok(()));
}
