//! One module per reproduced table/figure.

pub mod ablations;
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

/// Render an experiment's series as aligned tables: one row per series,
/// one column per x point, with the paper's value in parentheses when
/// available. Consecutive series that share an x axis share a table; a
/// series with other x points starts a new table under its own header.
pub fn render(e: &Experiment) -> Vec<Table> {
    let mut tables: Vec<(&[String], Table)> = Vec::new();
    for s in &e.series {
        if tables.last().is_none_or(|(x, _)| *x != s.x.as_slice()) {
            let mut headers = vec![e.metric.as_str()];
            headers.extend(s.x.iter().map(String::as_str));
            tables.push((&s.x, Table::new(format!("{} — {}", e.id, e.title), &headers)));
        }
        let mut row = vec![s.label.clone()];
        row.extend(s.values.iter().enumerate().map(|(i, v)| match s.paper.get(i) {
            Some(p) => format!("{v:.2} (paper ~{p:.2})"),
            None => format!("{v:.2}"),
        }));
        tables.last_mut().expect("pushed above").1.row(&row);
    }
    tables.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_stats::Series;

    #[test]
    fn each_x_axis_prints_under_its_own_header() {
        let (ab, c) = (["a".to_string(), "b".to_string()], ["c".to_string()]);
        let mut e = Experiment::new("id", "title", "metric");
        e.push(Series::new("one", &ab, vec![1.0, 2.0]));
        e.push(Series::new("two", &ab, vec![3.0, 4.0]));
        e.push(Series::new("three", &c, vec![5.0]));
        let tables = render(&e);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].headers(), ["metric", "a", "b"]);
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[1].headers(), ["metric", "c"]);
        assert_eq!(tables[1].rows(), [["three", "5.00"]]);
    }
}
