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
//! [`validate`] cross-checks the two within the advisor's published
//! tolerances (average VL within 10%, % vectorization within 5 points,
//! top common VL exact, instruction count exact when the walk is exact).

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

/// Measure every workload dynamically (the `table4` characterization) and
/// render the rows as the `table4_dynamic` table.
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
        t.row(&[
            c.name.to_string(),
            format!("{:.1}", c.pct_vect),
            format!("{:.1}", c.avg_vl),
            fmt_vls(&c.common_vls),
            format!("{:.1}", c.opportunity),
            c.insts.to_string(),
        ]);
    }
    t
}

/// Cross-check the static profile against the measured characterization.
/// Returns the per-workload mismatch descriptions (empty = validated).
pub fn validate(stat: &[StaticRow], dyn_rows: &[Characterization]) -> Vec<String> {
    let mut errs = Vec::new();
    for r in stat {
        let Some(c) = dyn_rows.iter().find(|c| c.name == r.name) else {
            errs.push(format!("{}: no dynamic characterization row", r.name));
            continue;
        };
        let p = &r.profile.total;
        let pv = p.pct_vectorization();
        if (pv - c.pct_vect).abs() > 5.0 {
            errs.push(format!(
                "{}: % vect static {pv:.1} vs dynamic {:.1} (tolerance 5 points)",
                r.name, c.pct_vect
            ));
        }
        let av = p.avg_vl();
        if (av - c.avg_vl).abs() > 0.10 * c.avg_vl.max(1.0) {
            errs.push(format!(
                "{}: avg VL static {av:.2} vs dynamic {:.2} (tolerance 10%)",
                r.name, c.avg_vl
            ));
        }
        if p.common_vls(1).first() != c.common_vls.first() {
            errs.push(format!(
                "{}: top common VL static {:?} vs dynamic {:?}",
                r.name,
                p.common_vls(1),
                c.common_vls
            ));
        }
        if r.profile.exact && p.insts != c.insts {
            errs.push(format!(
                "{}: exact walk predicted {} insts but the run retired {}",
                r.name, p.insts, c.insts
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
}
