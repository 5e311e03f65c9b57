//! Machine-readable diagnostics — the `vlt lint --json` schema.
//!
//! Version 1 of the schema is one JSON object per checked file:
//!
//! ```json
//! {
//!   "schema": "vlint-report",
//!   "version": 1,
//!   "path": "kernels/spmv.s",
//!   "errors": 0,
//!   "warnings": 1,
//!   "infos": 0,
//!   "suppressed": 0,
//!   "diagnostics": [
//!     {
//!       "code": "dead-write",
//!       "severity": "warning",
//!       "sidx": 12,
//!       "pc": 4144,
//!       "disasm": "addi x5, x5, 8",
//!       "msg": "register written but the value can never be read afterwards"
//!     }
//!   ]
//! }
//! ```
//!
//! `sidx`/`pc` are `null` for unanchored findings; `disasm` may be empty.
//! `errors`/`warnings`/`infos` are derived counts included for consumers
//! that do not want to walk the array. The schema is append-only: later
//! versions may add fields but never rename or remove these.
//!
//! `vlt lint --json` wraps these objects in one document,
//! `{"schema": "vlint", "version": 1, "files": [...]}`, in command-line
//! order ([`vlint_output_to_json`]). A file that fails to assemble is an
//! object with `schema`, `version`, `path` and an `assembly_error` string
//! in place of the counts and diagnostics.
//!
//! This module only writes the schema; the workspace reads it back with
//! `vlt_stats::json`. The byte golden in this module's tests pins every
//! byte of one document holding each kind of entry and every escape, and
//! is the schema-stability gate.

use std::fmt::Write as _;

use crate::diag::Report;

/// Current schema version emitted by [`report_to_json`].
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// Serialize one file's verification outcome to a schema-v1 JSON object.
pub fn report_to_json(path: &str, report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"vlint-report\",");
    let _ = writeln!(s, "  \"version\": {JSON_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"path\": {},", quote(path));
    let _ = writeln!(s, "  \"errors\": {},", report.errors());
    let _ = writeln!(s, "  \"warnings\": {},", report.warnings());
    let _ = writeln!(s, "  \"infos\": {},", report.infos());
    let _ = writeln!(s, "  \"suppressed\": {},", report.suppressed);
    s.push_str("  \"diagnostics\": [");
    for (i, d) in report.diags.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"code\": {},", quote(d.code.name()));
        let _ = writeln!(s, "      \"severity\": {},", quote(&d.severity.to_string()));
        match d.sidx {
            Some(i) => {
                let _ = writeln!(s, "      \"sidx\": {i},");
                let _ = writeln!(s, "      \"pc\": {},", d.pc().unwrap());
            }
            None => {
                let _ = writeln!(s, "      \"sidx\": null,");
                let _ = writeln!(s, "      \"pc\": null,");
            }
        }
        let _ = writeln!(s, "      \"disasm\": {},", quote(&d.disasm));
        let _ = writeln!(s, "      \"msg\": {}", quote(&d.msg));
        s.push_str("    }");
    }
    if !report.diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}

/// One file's outcome inside a `vlt lint --json` document.
#[derive(Debug)]
pub enum FileOutcome {
    /// The file assembled and was analyzed.
    Report(Report),
    /// The file failed to assemble (the message is the assembler error).
    AssemblyError(String),
}

/// Serialize a full `vlt lint --json` document: the top-level
/// `{"schema": "vlint", "version": 1, "files": [...]}` wrapper around one
/// `vlint-report` object per `(path, outcome)`, in order.
pub fn vlint_output_to_json(files: &[(String, FileOutcome)]) -> String {
    let body: Vec<String> = files
        .iter()
        .map(|(path, outcome)| {
            let file = match outcome {
                FileOutcome::Report(report) => report_to_json(path, report),
                FileOutcome::AssemblyError(err) => assembly_error_to_json(path, err),
            };
            file.lines().map(|l| format!("    {l}")).collect::<Vec<_>>().join("\n")
        })
        .collect();
    let mut s = format!(
        "{{\n  \"schema\": \"vlint\",\n  \"version\": {JSON_SCHEMA_VERSION},\n  \"files\": [\n"
    );
    if !body.is_empty() {
        s.push_str(&body.join(",\n"));
        s.push('\n');
    }
    s.push_str("  ]\n}");
    s
}

/// A file that failed to assemble, as a `vlint-report` object with an
/// `assembly_error` in place of the diagnostics (the assembler stops at
/// the first syntax error).
fn assembly_error_to_json(path: &str, err: &str) -> String {
    format!(
        "{{\n  \"schema\": \"vlint-report\",\n  \"version\": {JSON_SCHEMA_VERSION},\n  \
         \"path\": {},\n  \"assembly_error\": {}\n}}",
        quote(path),
        quote(err)
    )
}

/// JSON string literal with the escapes the schema needs.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic};

    fn diag(code: Code, sidx: Option<usize>, disasm: &str, msg: &str) -> Diagnostic {
        Diagnostic { code, severity: code.severity(), sidx, disasm: disasm.into(), msg: msg.into() }
    }

    /// Every kind of entry: anchored and unanchored findings of each
    /// severity, strings that need each escape and non-ASCII text, an
    /// empty report and an assembly error. The root package's
    /// `tests/cli.rs` reads the same document back through
    /// `vlt_stats::json`.
    fn document() -> Vec<(String, FileOutcome)> {
        let report = Report {
            diags: vec![
                diag(Code::ZeroVl, Some(4), "setvl x0, x3", "request is 0"),
                diag(Code::RaceWw, Some(17), "vstx v1, x2, v3", "quotes \" and \\ back\\slash"),
                diag(Code::RaceUnknown, None, "", "newline\nand tab\tand bell\u{7} and é"),
                diag(Code::DlpShortVl, Some(0), "vadd.vv v1, v2, v3", "短い VL"),
            ],
            suppressed: 3,
        };
        vec![
            ("dir/some file.s".to_string(), FileOutcome::Report(report)),
            ("empty.s".to_string(), FileOutcome::Report(Report::default())),
            ("b \"q\".s".to_string(), FileOutcome::AssemblyError("line 1: bad\tthing".into())),
        ]
    }

    /// The schema-stability gate: the exact bytes of a document.
    #[test]
    fn writer_bytes_are_pinned() {
        assert_eq!(vlint_output_to_json(&document()), GOLDEN);
        let empty = "{\n  \"schema\": \"vlint\",\n  \"version\": 1,\n  \"files\": [\n  ]\n}";
        assert_eq!(vlint_output_to_json(&[]), empty);
    }

    const GOLDEN: &str = r#"{
  "schema": "vlint",
  "version": 1,
  "files": [
    {
      "schema": "vlint-report",
      "version": 1,
      "path": "dir/some file.s",
      "errors": 1,
      "warnings": 2,
      "infos": 1,
      "suppressed": 3,
      "diagnostics": [
        {
          "code": "zero-vl",
          "severity": "error",
          "sidx": 4,
          "pc": 4112,
          "disasm": "setvl x0, x3",
          "msg": "request is 0"
        },
        {
          "code": "race-ww",
          "severity": "warning",
          "sidx": 17,
          "pc": 4164,
          "disasm": "vstx v1, x2, v3",
          "msg": "quotes \" and \\ back\\slash"
        },
        {
          "code": "race-unknown",
          "severity": "warning",
          "sidx": null,
          "pc": null,
          "disasm": "",
          "msg": "newline\nand tab\tand bell\u0007 and é"
        },
        {
          "code": "dlp-short-vl",
          "severity": "info",
          "sidx": 0,
          "pc": 4096,
          "disasm": "vadd.vv v1, v2, v3",
          "msg": "短い VL"
        }
      ]
    },
    {
      "schema": "vlint-report",
      "version": 1,
      "path": "empty.s",
      "errors": 0,
      "warnings": 0,
      "infos": 0,
      "suppressed": 0,
      "diagnostics": []
    },
    {
      "schema": "vlint-report",
      "version": 1,
      "path": "b \"q\".s",
      "assembly_error": "line 1: bad\tthing"
    }
  ]
}"#;
}
