//! Golden-file checks on the Perfetto exporter: the trace it writes for
//! a known program must be valid Chrome-trace JSON — parseable back from
//! its serialized text, timestamps monotone, duration slices balanced,
//! async spans closed — with the expected structural events present.

use vlt_core::{System, SystemConfig};
use vlt_obs::perfetto::validate_chrome_trace;
use vlt_obs::PerfettoObserver;
use vlt_stats::json::Json;
use vlt_workloads::{workload, Scale};

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

/// The validator itself must reject broken traces (it guards `vlt prof`'s
/// output in CI, so a vacuous pass would be worse than none).
#[test]
fn validator_rejects_malformed_traces() {
    let bad_unbalanced = r#"{"traceEvents": [
        {"ph": "B", "name": "w", "cat": "c", "ts": 1.0, "pid": 1.0, "tid": 0.0}
    ]}"#;
    assert!(validate_chrome_trace(&Json::parse(bad_unbalanced).unwrap()).is_err());

    let bad_backwards = r#"{"traceEvents": [
        {"ph": "i", "name": "a", "cat": "c", "ts": 5.0, "pid": 1.0, "tid": 0.0, "s": "g"},
        {"ph": "i", "name": "b", "cat": "c", "ts": 4.0, "pid": 1.0, "tid": 0.0, "s": "g"}
    ]}"#;
    assert!(validate_chrome_trace(&Json::parse(bad_backwards).unwrap()).is_err());

    let bad_async = r#"{"traceEvents": [
        {"ph": "e", "name": "x", "cat": "c", "ts": 1.0, "pid": 1.0, "tid": 0.0, "id": 7.0}
    ]}"#;
    assert!(validate_chrome_trace(&Json::parse(bad_async).unwrap()).is_err());
}
