//! `expected.json`: every point's exact simulated results at the default
//! seed — the benchmark's correctness gate.

use std::collections::BTreeMap;
use std::path::Path;

use vlt_stats::json::Json;

use crate::exec::Fields;
use crate::run::{Expected, DEFAULT_SEED};

const SCHEMA: &str = "vlbench-expected";

/// Serialize pinned results.
pub fn to_json(exp: &Expected) -> Json {
    let points = exp
        .iter()
        .map(|(id, f)| {
            let fields = f.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
            (id.clone(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(BTreeMap::from([
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("seed".to_string(), Json::Num(DEFAULT_SEED as f64)),
        ("points".to_string(), Json::Obj(points)),
    ]))
}

/// Parse pinned results.
pub fn from_json(doc: &Json) -> Result<Expected, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let Some(Json::Obj(points)) = doc.get("points") else {
        return Err("\"points\" is not an object".into());
    };
    let mut out = Expected::new();
    for (id, fields) in points {
        let Json::Obj(fields) = fields else {
            return Err(format!("point {id:?} is not an object"));
        };
        let mut f = Fields::new();
        for (k, v) in fields {
            let n = v
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53))
                .ok_or(format!("{id}.{k} is not an exact count"))?;
            f.insert(k.clone(), n as u64);
        }
        out.insert(id.clone(), f);
    }
    Ok(out)
}

/// Read and parse `path`.
pub fn load(path: &Path) -> Result<Expected, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_exact() {
        let mut exp = Expected::new();
        exp.insert(
            "vlt_dense/mxm.x4.V4-CMT.test".into(),
            Fields::from([("cycles".into(), 43_249), ("mem.l2.misses".into(), (1 << 53) - 1)]),
        );
        exp.insert("analyze/spmv.x1.small".into(), Fields::from([("dlp.exact".into(), 1)]));
        let text = to_json(&exp).pretty();
        assert_eq!(from_json(&Json::parse(&text).unwrap()).unwrap(), exp);
    }

    #[test]
    fn rejects_inexact_counts_and_foreign_documents() {
        let bad = r#"{"schema": "vlbench-expected", "points": {"a": {"x": 1.5}}}"#;
        assert!(from_json(&Json::parse(bad).unwrap()).is_err());
        assert!(from_json(&Json::parse(r#"{"points": {}}"#).unwrap()).is_err());
    }

    /// The committed file parses and pins every point of every workload.
    #[test]
    fn committed_file_covers_every_point() {
        let exp = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")).unwrap();
        for b in crate::points::Bench::ALL {
            for p in b.points(DEFAULT_SEED) {
                let id = format!("{}/{}", b.name(), p.key);
                assert!(exp.contains_key(&id), "expected.json lacks {id}");
            }
        }
    }
}
