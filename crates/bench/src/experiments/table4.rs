//! Table 4: workload characteristics — % vectorization, average VL, common
//! VLs, and % VLT opportunity, measured on this reproduction's kernels and
//! compared against the paper's application measurements. Both outputs
//! are built from one characterization per workload
//! ([`table4_static::dynamic_rows`](super::table4_static::dynamic_rows)).

use vlt_stats::{Experiment, Series, Table};
use vlt_workloads::characterize::Characterization;
use vlt_workloads::{workload, PaperRow};

/// The paper's Table 4 row for a characterized workload.
fn paper_row(c: &Characterization) -> PaperRow {
    workload(c.name).expect("characterized workloads are in the suite").paper_row()
}

/// The measured rows as the `table4` record, beside the paper's values.
pub fn run(rows: &[Characterization]) -> Experiment {
    let mut e = Experiment::new(
        "table4",
        "Workload characteristics (measured vs paper)",
        "pct_vect / avg_vl / opportunity",
    );
    let x = vec!["% vect".to_string(), "avg VL".to_string(), "% opportunity".to_string()];
    for c in rows {
        let s = &c.summary;
        let row = paper_row(c);
        e.push(
            Series::new(c.name, &x, vec![s.pct_vectorization(), s.avg_vl(), c.opportunity])
                .with_paper(vec![
                    row.pct_vect.unwrap_or(0.0),
                    row.avg_vl.unwrap_or(0.0),
                    row.opportunity.unwrap_or(0.0),
                ]),
        );
    }
    e
}

/// Render with the common-VL column (not representable in Series form).
pub fn render_full(rows: &[Characterization]) -> Table {
    let mut t = Table::new(
        "table4 — Workload characteristics",
        &["app", "% vect (paper)", "avg VL (paper)", "common VLs (paper)", "% opp (paper)"],
    );
    for c in rows {
        let s = &c.summary;
        let row = paper_row(c);
        let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or("-".into());
        let vls: Vec<String> = s.common_vls(4).iter().map(|v| v.to_string()).collect();
        let pvls: Vec<String> = row.common_vls.iter().map(|v| v.to_string()).collect();
        t.row(&[
            c.name.to_string(),
            format!("{:.1} ({})", s.pct_vectorization(), fmt_opt(row.pct_vect)),
            format!("{:.1} ({})", s.avg_vl(), fmt_opt(row.avg_vl)),
            format!(
                "{} ({})",
                vls.join(","),
                if pvls.is_empty() { "-".into() } else { pvls.join(",") }
            ),
            format!("{:.1} ({})", c.opportunity, fmt_opt(row.opportunity)),
        ]);
    }
    t
}
