//! Static Table 4: the workload characteristics of `table4`, predicted by
//! the static DLP analyzer (`vlt_verify::dlp`) without running a single
//! simulated instruction of the timing model — plus the VLTCFG partition
//! each kernel should run under, from the occupancy advisor.
//!
//! Two records come out of this module:
//!
//! * `table4_static` — the analyzer's per-workload profile and advice;
//! * `table4_dynamic` — the measured [`Characterization`] rows serialized
//!   through the same vlt-table v1 record form, so the static/dynamic pair
//!   can be diffed field-for-field by tooling.
//!
//! [`validate`] cross-checks the two exactly: every static walk must be
//! exact, and an exact walk's total must equal the replay's
//! [`RunSummary`](vlt_exec::RunSummary) field for field.

use vlt_stats::Table;
use vlt_verify::dlp::{advise, analyze, Advice, DlpOptions, DlpProfile};
use vlt_workloads::characterize::{characterize, Characterization};
use vlt_workloads::{irregular_suite, suite, Scale, Workload};

/// One workload's static analysis: profile plus partition advice.
pub struct StaticRow {
    /// Workload name.
    pub name: &'static str,
    /// The static DLP profile (single-threaded build, like `characterize`).
    pub profile: DlpProfile,
    /// The advisor's output over that profile.
    pub advice: Advice,
}

fn rows_over(ws: &[&'static dyn Workload], scale: Scale) -> Vec<StaticRow> {
    ws.iter()
        .map(|w| {
            let built = w.build(1, scale);
            let profile = analyze(&built.program, &DlpOptions::default());
            let advice = advise(&profile);
            StaticRow { name: w.name(), profile, advice }
        })
        .collect()
}

/// Statically analyze every workload in the suite.
pub fn run(scale: Scale) -> Vec<StaticRow> {
    rows_over(&suite(), scale)
}

/// Statically analyze the irregular kernels (SpMV, histogram, hash-join
/// probe, multi-sweep stencil) — the content-steered mix the analyzers
/// have to certify without annotations.
pub fn run_irregular(scale: Scale) -> Vec<StaticRow> {
    rows_over(&irregular_suite(), scale)
}

fn fmt_vls(vls: &[usize]) -> String {
    if vls.is_empty() {
        "-".into()
    } else {
        vls.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
    }
}

/// Render the static rows as the `table4_static` table.
pub fn static_table(rows: &[StaticRow]) -> Table {
    titled_static_table("table4_static — Workload characteristics (static DLP analysis)", rows)
}

/// Render the irregular-kernel rows as the `irregular_static` table.
pub fn irregular_static_table(rows: &[StaticRow]) -> Table {
    titled_static_table("irregular_static — Irregular kernel mix (static DLP analysis)", rows)
}

fn titled_static_table(title: &str, rows: &[StaticRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "app",
            "% vect",
            "avg VL",
            "common VLs",
            "% opp",
            "insts",
            "exact",
            "advice",
            "est speedup",
        ],
    );
    for r in rows {
        let p = &r.profile.total;
        t.row(&[
            r.name.to_string(),
            format!("{:.1}", p.pct_vectorization()),
            format!("{:.1}", p.avg_vl()),
            fmt_vls(&p.common_vls(4)),
            format!("{:.1}", r.advice.opportunity_pct),
            r.profile.total.insts.to_string(),
            if r.profile.exact { "yes".into() } else { "no".into() },
            format!("{}x{}", r.advice.best.threads, r.advice.best.mvl),
            format!("{:.2}", r.advice.best.speedup),
        ]);
    }
    t
}

/// Measure every workload dynamically: the rows behind `table4` and the
/// `table4_dynamic` table.
pub fn dynamic_rows(scale: Scale) -> Vec<Characterization> {
    dynamic_rows_over(&suite(), scale)
}

/// Measure the irregular kernels dynamically, for cross-checking the
/// static irregular rows with [`validate`].
pub fn dynamic_rows_irregular(scale: Scale) -> Vec<Characterization> {
    dynamic_rows_over(&irregular_suite(), scale)
}

fn dynamic_rows_over(ws: &[&'static dyn Workload], scale: Scale) -> Vec<Characterization> {
    ws.iter()
        .map(|&w| characterize(w, scale).unwrap_or_else(|err| panic!("{}: {err}", w.name())))
        .collect()
}

/// Render measured characterizations as the `table4_dynamic` table.
pub fn dynamic_table(rows: &[Characterization]) -> Table {
    let mut t = Table::new(
        "table4_dynamic — Workload characteristics (measured)",
        &["app", "% vect", "avg VL", "common VLs", "% opp", "insts"],
    );
    for c in rows {
        let s = &c.summary;
        t.row(&[
            c.name.to_string(),
            format!("{:.1}", s.pct_vectorization()),
            format!("{:.1}", s.avg_vl()),
            fmt_vls(&s.common_vls(4)),
            format!("{:.1}", c.opportunity),
            s.insts.to_string(),
        ]);
    }
    t
}

/// Cross-check each static profile against the measured characterization:
/// the walk must be exact, and its total must equal the replay's counts.
/// Returns the per-workload mismatch descriptions (empty = validated).
pub fn validate(stat: &[StaticRow], dyn_rows: &[Characterization]) -> Vec<String> {
    let mut errs = Vec::new();
    for r in stat {
        let Some(c) = dyn_rows.iter().find(|c| c.name == r.name) else {
            errs.push(format!("{}: no dynamic characterization row", r.name));
            continue;
        };
        if !r.profile.exact {
            errs.push(format!("{}: the static walk is not exact: {:?}", r.name, r.profile.notes));
        } else if r.profile.total != c.summary {
            errs.push(format!(
                "{}: the exact walk counted {:?} but the replay {:?}",
                r.name, r.profile.total, c.summary
            ));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_rows_cover_the_suite_and_are_exact() {
        let rows = run(Scale::Test);
        assert_eq!(rows.len(), suite().len());
        for r in &rows {
            assert!(r.profile.exact, "{} walk should be exact", r.name);
            assert!(!r.advice.ranking.is_empty(), "{} has no ranked partitions", r.name);
        }
    }

    #[test]
    fn static_table_has_one_row_per_workload() {
        let rows = run(Scale::Test);
        let t = static_table(&rows);
        assert_eq!(t.len(), suite().len());
        assert!(t.to_string().contains("mxm"));
    }

    #[test]
    fn irregular_rows_cover_the_irregular_suite() {
        let rows = run_irregular(Scale::Test);
        assert_eq!(rows.len(), irregular_suite().len());
        for r in &rows {
            assert!(r.profile.exact, "{} walk should be exact", r.name);
            assert!(!r.advice.ranking.is_empty(), "{} has no ranked partitions", r.name);
        }
        let t = irregular_static_table(&rows);
        assert_eq!(t.len(), rows.len());
        assert!(t.to_string().contains("spmv"));
    }

    #[test]
    fn validation_is_exact() {
        let ws = [vlt_workloads::workload("bt").unwrap()];
        let mut stat = rows_over(&ws, Scale::Test);
        let mut dyn_rows = dynamic_rows_over(&ws, Scale::Test);
        assert_eq!(validate(&stat, &dyn_rows), Vec::<String>::new());

        // One vector instruction counted at another VL is a mismatch.
        let hist = &mut dyn_rows[0].summary.vl_histogram;
        let vl = hist.iter().position(|&n| n > 0).unwrap();
        hist[vl] -= 1;
        hist[vl + 1] += 1;
        let errs = validate(&stat, &dyn_rows);
        assert!(errs.len() == 1 && errs[0].starts_with("bt: the exact walk"), "{errs:?}");

        // A walk that is not exact fails however close its counts are.
        stat[0].profile.exact = false;
        let errs = validate(&stat, &dyn_rows);
        assert!(errs.len() == 1 && errs[0].starts_with("bt: the static walk"), "{errs:?}");
        assert_eq!(validate(&stat, &[]), ["bt: no dynamic characterization row"]);
    }
}
