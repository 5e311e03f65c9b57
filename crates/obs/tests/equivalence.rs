//! Observability must be free of observer effects: running the full
//! metrics + tracing + CPI stack must leave the simulation
//! byte-identical — same `SimResult`, same final memory image — to an
//! unobserved run, for every workload (the nine Table 4 applications
//! plus the four irregular kernels) and thread configuration including
//! the clustered ultra-wide machine, under the event-driven driver and
//! under **both** functional engines (the block compiler and the
//! interpreter oracle), whose metrics and trace documents must match too.
//! And because event logging enables extra code
//! paths inside the vector unit and the L2, the event-driven and
//! cycle-by-cycle drivers are cross-checked *with logging on* too,
//! including the metrics registry and trace documents they produce, and
//! the full stack must not change which cycles the event-driven driver
//! steps.

use vlt_core::{
    CycleView, DriverMode, EngineMode, NullObserver, SimObserver, SimResult, System, SystemConfig,
};
use vlt_exec::Memory;
use vlt_obs::{CpiObserver, MetricsObserver, Multi, PerfettoObserver};
use vlt_stats::json::Json;
use vlt_workloads::{irregular_suite, suite, Scale, Workload};

const MAX: u64 = 2_000_000_000;

/// The thread configurations a workload supports: the paper's vector
/// design points for vectorizable kernels (plus the two-cluster
/// ultra-wide machine), the CMT scalar baseline and VLT lane-thread
/// mode for the scalar ones.
fn configs(w: &dyn Workload) -> Vec<(SystemConfig, usize)> {
    if w.vectorizable() {
        vec![
            (SystemConfig::base(8), 1),
            (SystemConfig::v2_cmp(), 2),
            (SystemConfig::v4_cmp(), 4),
            // Clustered: partitions spread over two clusters, so the
            // ClusterNet paths must be equally observer-transparent.
            (SystemConfig::v8_clustered(2), 4),
        ]
    } else {
        vec![
            // Single-thread builds may still vectorize their serial phases
            // (radix's 6% vect), so x1 runs on the base vector machine.
            (SystemConfig::base(8), 1),
            (SystemConfig::cmt(), 2),
            (SystemConfig::cmt(), 4),
            (SystemConfig::v4_cmt_lane_threads(), 8),
            (SystemConfig::v8_clustered(2), 1),
        ]
    }
}

fn run_plain(
    w: &dyn Workload,
    cfg: SystemConfig,
    threads: usize,
    engine: EngineMode,
) -> (SimResult, Memory) {
    let built = w.build(threads, Scale::Test);
    let mut sys = System::new(cfg, &built.program, threads).with_engine(engine);
    let r = sys.run_observed(MAX, &mut NullObserver).unwrap();
    (r, sys.funcsim().mem.clone())
}

/// Counts the cycles the driver steps (`on_cycle` calls).
#[derive(Default)]
struct Steps(u64);

impl SimObserver for Steps {
    fn on_cycle(&mut self, _now: u64, _view: &CycleView<'_>) {
        self.0 += 1;
    }
}

/// The stacked run's outputs: result, final memory, the metrics and trace
/// documents, and the number of cycles the driver stepped.
type Stacked = (SimResult, Memory, Json, Json, u64);

/// Run with the full stack: metrics + Perfetto + CPI fanned out through
/// `Multi`, beside a step counter.
fn run_stacked(
    w: &dyn Workload,
    cfg: SystemConfig,
    threads: usize,
    mode: DriverMode,
    engine: EngineMode,
) -> Stacked {
    let built = w.build(threads, Scale::Test);
    let mut sys = System::new(cfg, &built.program, threads).with_driver(mode).with_engine(engine);
    let mut steps = Steps::default();
    let mut metrics = MetricsObserver::new();
    let mut trace = PerfettoObserver::new();
    let mut cpi = CpiObserver::new();
    let mut multi =
        Multi::new().with(&mut steps).with(&mut metrics).with(&mut trace).with(&mut cpi);
    let r = sys.run_observed(MAX, &mut multi).unwrap();
    drop(multi);
    cpi.check_conservation().unwrap_or_else(|e| panic!("{} x{threads}: CPI {e}", w.name()));
    let (metrics, trace) = (metrics.into_registry().to_json(), trace.into_json());
    (r, sys.funcsim().mem.clone(), metrics, trace, steps.0)
}

/// Tentpole acceptance: observer-on and observer-off runs are
/// byte-identical (result and final memory) for all thirteen workloads
/// at every supported thread count, under the event-driven driver, for
/// both functional engines — and the two engines produce the same
/// metrics and trace documents.
#[test]
fn full_stack_is_invisible_to_the_simulation() {
    for w in suite().into_iter().chain(irregular_suite()) {
        for (cfg, threads) in configs(w) {
            let [block, interp] = [EngineMode::Block, EngineMode::Interp].map(|engine| {
                let name = format!("{} x{threads} ({}, {engine:?})", w.name(), cfg.name);
                let (plain, mem_plain) = run_plain(w, cfg.clone(), threads, engine);
                let (stacked, mem_stacked, metrics, trace, _) =
                    run_stacked(w, cfg.clone(), threads, DriverMode::EventDriven, engine);
                assert_eq!(plain, stacked, "{name}: SimResult diverged under observation");
                assert_eq!(
                    mem_plain, mem_stacked,
                    "{name}: final memory diverged under observation"
                );
                (metrics, trace)
            });
            let name = format!("{} x{threads} ({})", w.name(), cfg.name);
            assert!(block.0 == interp.0, "{name}: metrics diverged across engines");
            assert!(block.1 == interp.1, "{name}: trace diverged across engines");
        }
    }
}

/// With event logging enabled (the paths the null run never exercises),
/// the event-driven driver still matches the cycle-by-cycle oracle —
/// and so do the metrics registry and the trace document, which are
/// derived purely from delivered events. Observers only watch, so the
/// event-driven run steps exactly the cycles it steps under a bare step
/// counter. One vector, one scalar, and one clustered multi-threaded
/// workload keep the oracle's debug-build cost bounded.
#[test]
fn drivers_agree_with_event_logging_enabled() {
    let cases: [(&str, SystemConfig, usize); 3] = [
        ("mxm", SystemConfig::v2_cmp(), 2),
        ("radix", SystemConfig::cmt(), 4),
        ("spmv", SystemConfig::v8_clustered(2), 4),
    ];
    for (name, cfg, threads) in cases {
        let w = vlt_workloads::workload(name).unwrap();
        let engine = EngineMode::default();
        let (re, me, metrics_e, trace_e, steps_e) =
            run_stacked(w, cfg.clone(), threads, DriverMode::EventDriven, engine);
        let (rn, mn, metrics_n, trace_n, _) =
            run_stacked(w, cfg.clone(), threads, DriverMode::CycleByCycle, engine);
        let built = w.build(threads, Scale::Test);
        let mut bare = Steps::default();
        System::new(cfg.clone(), &built.program, threads).run_observed(MAX, &mut bare).unwrap();
        assert_eq!(steps_e, bare.0, "{name}: the observers changed which cycles were stepped");
        assert_eq!(re, rn, "{name}: SimResult diverged across drivers");
        assert_eq!(me, mn, "{name}: memory diverged across drivers");
        assert_eq!(metrics_e, metrics_n, "{name}: metrics diverged across drivers");
        assert_eq!(trace_e, trace_n, "{name}: trace diverged across drivers");
    }
}
