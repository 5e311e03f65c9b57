//! Aligned ASCII tables, with a versioned JSON record form so table
//! experiments persist to `results/` the same way figures do.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Version stamped into every serialized table (`"version"` field).
pub const TABLE_SCHEMA_VERSION: u64 = 1;

/// The `"schema"` field value identifying a table record.
pub const TABLE_SCHEMA_NAME: &str = "vlt-table";

/// A simple right-padded text table.
///
/// ```
/// use vlt_stats::Table;
/// let mut t = Table::new("Speedups", &["app", "x"]);
/// t.row(&["mxm".into(), "6.0".into()]);
/// assert!(t.to_string().contains("mxm | 6.0"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Serialize as a versioned JSON record: `{schema, version, id, title,
    /// headers, rows}` with string cells. `id` names the record (the
    /// `results/<id>.json` basename), mirroring `Experiment::id`.
    pub fn to_json(&self, id: &str) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(TABLE_SCHEMA_NAME.into()));
        m.insert("version".into(), Json::Num(TABLE_SCHEMA_VERSION as f64));
        m.insert("id".into(), Json::Str(id.into()));
        m.insert("title".into(), Json::Str(self.title.clone()));
        m.insert("headers".into(), strs(&self.headers));
        m.insert("rows".into(), Json::Arr(self.rows.iter().map(|r| strs(r)).collect()));
        Json::Obj(m)
    }

    /// Write the JSON record to `<dir>/<id>.json`, returning the path.
    pub fn write_to(&self, dir: &Path, id: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{id}.json"));
        std::fs::write(&path, self.to_json(id).pretty())?;
        Ok(path)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * (ncol - 1);
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(total.max(self.title.len())))?;
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{h:<w$}", w = widths[i])?;
        }
        writeln!(f)?;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{c:<w$}", w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("longer-name | 22"));
        assert!(s.contains("a           | 1"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_record_roundtrips() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        let doc = t.to_json("demo");
        let back = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(TABLE_SCHEMA_NAME));
        assert_eq!(back.get("id").and_then(Json::as_str), Some("demo"));
        let rows = back.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("1"));
    }
}
