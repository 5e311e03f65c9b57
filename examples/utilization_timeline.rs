//! Phase analysis: record the datapath utilization over time while a
//! partially-vectorized workload runs, and render an ASCII timeline —
//! the per-phase view behind the paper's Figure 4 aggregates.
//!
//! ```text
//! cargo run --example utilization_timeline --release
//! ```

use vlt::core::{CycleView, SimObserver, System, SystemConfig, Utilization};
use vlt::workloads::{workload, Scale};

/// Cycles between timeline rows.
const INTERVAL: u64 = 512;

/// One timeline row: the cumulative utilization entering `cycle`.
#[derive(Clone, Copy)]
struct Row {
    cycle: u64,
    utilization: Utilization,
    region: u32,
}

/// Records a [`Row`] at the first stepped cycle at or after each
/// `INTERVAL`-cycle boundary.
///
/// The driver skips cycles in which every unit sleeps and fires `on_cycle`
/// only on the cycles it steps, so a row lands at or after its boundary,
/// not always on it. That costs no exactness: utilization is cumulative,
/// and a view counts every cycle before `c`, a sleeping unit's included,
/// so a row at cycle `c` reads as the cycle-by-cycle driver's would.
/// Percentages taken over each row's actual span are therefore exact.
#[derive(Default)]
struct Timeline {
    next: u64,
    rows: Vec<Row>,
}

impl SimObserver for Timeline {
    fn on_cycle(&mut self, now: u64, view: &CycleView<'_>) {
        if now >= self.next {
            self.rows.push(Row {
                cycle: now,
                utilization: view.utilization(),
                region: view.region(),
            });
            self.next = (now / INTERVAL + 1) * INTERVAL;
        }
    }
}

fn main() {
    let w = workload("multprec").unwrap();
    let built = w.build(1, Scale::Small);
    let mut sys = System::new(SystemConfig::base(8), &built.program, 1);
    let mut timeline = Timeline::default();
    let result = sys.run_observed(2_000_000_000, &mut timeline).expect("simulates");
    (built.verifier)(sys.funcsim()).expect("verifies");

    println!("multprec on the base 8-lane processor: {} cycles\n", result.cycles);
    println!("cycle      region  busy% of interval (24 datapaths)  |bar|");
    for pair in timeline.rows.windows(2) {
        let (prev, s) = (pair[0], pair[1]);
        let dp_cycles = (s.cycle - prev.cycle) * 24;
        let busy = s.utilization.busy - prev.utilization.busy;
        let stalled = s.utilization.stalled - prev.utilization.stalled;
        let busy_pct = 100.0 * busy as f64 / dp_cycles as f64;
        let stall_pct = 100.0 * stalled as f64 / dp_cycles as f64;
        let bar: String = std::iter::repeat_n('#', (busy_pct / 2.0) as usize).collect::<String>()
            + &std::iter::repeat_n('.', (stall_pct / 2.0) as usize).collect::<String>();
        println!(
            "{:>9}  r{}      {:5.1}% busy {:5.1}% stalled   |{bar}|",
            s.cycle, s.region, busy_pct, stall_pct
        );
    }
    println!("\n'#' = busy datapaths, '.' = stalled; watch the vector phases");
    println!("(region 1) light up and the serial tail (region 0) go dark.");
}
