//! One module per reproduced table/figure.

pub mod ext_chaining;
pub mod ext_cluster;
pub mod ext_lanes;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod irregular_stalls;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table4_static;

use vlt_stats::{Experiment, Table};

/// Render an experiment's series as an aligned table: one row per series,
/// one column per x point, with the paper's value in parentheses when
/// available.
pub fn render(e: &Experiment) -> Table {
    let xs: Vec<&str> =
        e.series.first().map(|s| s.x.iter().map(String::as_str).collect()).unwrap_or_default();
    let mut headers = vec![e.metric.as_str()];
    headers.extend(xs.iter());
    let mut t = Table::new(format!("{} — {}", e.id, e.title), &headers);
    for s in &e.series {
        let mut row = vec![s.label.clone()];
        for (i, v) in s.values.iter().enumerate() {
            let cell = match s.paper.get(i) {
                Some(p) => format!("{v:.2} (paper ~{p:.2})"),
                None => format!("{v:.2}"),
            };
            row.push(cell);
        }
        t.row(&row);
    }
    t
}

/// Standard binary body: run, print, persist.
pub fn emit(e: &Experiment) {
    println!("{}", render(e));
    match e.write_to(&crate::harness::results_dir()) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(err) => eprintln!("could not write results JSON: {err}"),
    }
}

/// Standard binary body for fallible sweeps: emit on success, exit(1) with
/// the failing run's diagnostic otherwise.
pub fn emit_result(r: Result<Experiment, crate::harness::SuiteError>) {
    match r {
        Ok(e) => emit(&e),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(1);
        }
    }
}
