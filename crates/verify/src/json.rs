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
//! [`report_to_json`] and [`report_from_json`] are exact inverses for
//! every representable report — the round-trip test in this module is the
//! schema-stability gate.

use std::fmt::Write as _;

use crate::diag::{Code, Diagnostic, Report, Severity};

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
/// `vlint-report` object per `(path, outcome)`, in order. The inverse of
/// [`vlint_output_from_json`].
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

/// Parse a full `vlt lint --json` document — the top-level
/// `{"schema": "vlint", "version": 1, "files": [...]}` wrapper — into
/// `(path, outcome)` pairs, in CLI order.
pub fn vlint_output_from_json(text: &str) -> Result<Vec<(String, FileOutcome)>, String> {
    let v = parse(text)?;
    let obj = v.obj().ok_or("top level is not an object")?;
    let schema = get(obj, "schema").and_then(Jv::str).ok_or("missing `schema`")?;
    if schema != "vlint" {
        return Err(format!("unknown schema `{schema}`"));
    }
    let version = get(obj, "version").and_then(Jv::num).ok_or("missing `version`")?;
    if version != JSON_SCHEMA_VERSION as i64 {
        return Err(format!("unsupported schema version {version}"));
    }
    let files = get(obj, "files").and_then(Jv::arr).ok_or("missing `files`")?;
    let mut out = Vec::new();
    for f in files {
        let fo = f.obj().ok_or("file entry is not an object")?;
        let path = get(fo, "path").and_then(Jv::str).ok_or("file entry missing `path`")?;
        let outcome = match get(fo, "assembly_error").and_then(Jv::str) {
            Some(e) => FileOutcome::AssemblyError(e.to_string()),
            None => FileOutcome::Report(report_from_obj(fo)?),
        };
        out.push((path.to_string(), outcome));
    }
    Ok(out)
}

/// Parse a schema-v1 JSON object back into `(path, Report)`.
///
/// Accepts exactly what [`report_to_json`] emits (any whitespace layout);
/// unknown fields are ignored so later append-only schema versions still
/// parse. Severities and codes must resolve to known names.
pub fn report_from_json(text: &str) -> Result<(String, Report), String> {
    let v = parse(text)?;
    let obj = v.obj().ok_or("top level is not an object")?;
    let schema = get(obj, "schema").and_then(Jv::str).ok_or("missing `schema`")?;
    if schema != "vlint-report" {
        return Err(format!("unknown schema `{schema}`"));
    }
    let version = get(obj, "version").and_then(Jv::num).ok_or("missing `version`")?;
    if version != JSON_SCHEMA_VERSION as i64 {
        return Err(format!("unsupported schema version {version}"));
    }
    let path = get(obj, "path").and_then(Jv::str).ok_or("missing `path`")?.to_string();
    let report = report_from_obj(obj)?;
    Ok((path, report))
}

/// Reconstruct a [`Report`] from an already-parsed `vlint-report` object.
fn report_from_obj(obj: &[(String, Jv)]) -> Result<Report, String> {
    let suppressed = get(obj, "suppressed").and_then(Jv::num).ok_or("missing `suppressed`")?;
    let diags = get(obj, "diagnostics").and_then(Jv::arr).ok_or("missing `diagnostics`")?;
    let mut report = Report {
        diags: Vec::new(),
        suppressed: usize::try_from(suppressed).map_err(|_| "negative `suppressed`")?,
    };
    for d in diags {
        let d = d.obj().ok_or("diagnostic is not an object")?;
        let code_name = get(d, "code").and_then(Jv::str).ok_or("diagnostic missing `code`")?;
        let code =
            Code::from_name(code_name).ok_or_else(|| format!("unknown lint code `{code_name}`"))?;
        let sev = get(d, "severity").and_then(Jv::str).ok_or("diagnostic missing `severity`")?;
        let severity = match sev {
            "info" => Severity::Info,
            "warning" => Severity::Warn,
            "error" => Severity::Error,
            other => return Err(format!("unknown severity `{other}`")),
        };
        let sidx = match get(d, "sidx") {
            Some(Jv::Null) | None => None,
            Some(v) => Some(
                v.num()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("diagnostic `sidx` is not a non-negative integer")?,
            ),
        };
        report.diags.push(Diagnostic {
            code,
            severity,
            sidx,
            disasm: get(d, "disasm").and_then(Jv::str).unwrap_or("").to_string(),
            msg: get(d, "msg").and_then(Jv::str).ok_or("diagnostic missing `msg`")?.to_string(),
        });
    }
    Ok(report)
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

/// Minimal JSON value — just enough to round-trip the schema (integers
/// only; the schema has no fractional numbers).
enum Jv {
    Null,
    Bool(#[allow(dead_code)] bool),
    Num(i64),
    Str(String),
    Arr(Vec<Jv>),
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    fn obj(&self) -> Option<&[(String, Jv)]> {
        match self {
            Jv::Obj(o) => Some(o),
            _ => None,
        }
    }
    fn arr(&self) -> Option<&[Jv]> {
        match self {
            Jv::Arr(a) => Some(a),
            _ => None,
        }
    }
    fn str(&self) -> Option<&str> {
        match self {
            Jv::Str(s) => Some(s),
            _ => None,
        }
    }
    fn num(&self) -> Option<i64> {
        match self {
            Jv::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn get<'a>(obj: &'a [(String, Jv)], key: &str) -> Option<&'a Jv> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse(text: &str) -> Result<Jv, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Jv) -> Result<Jv, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Jv, String> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Jv::Obj(fields));
                }
                loop {
                    let Jv::Str(k) = self.string()? else { unreachable!() };
                    self.expect(b':')?;
                    fields.push((k, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Jv::Obj(fields));
                        }
                        c => return Err(format!("expected `,` or `}}`, got `{}`", c as char)),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Jv::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Jv::Arr(items));
                        }
                        c => return Err(format!("expected `,` or `]`, got `{}`", c as char)),
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.lit("true", Jv::Bool(true)),
            b'f' => self.lit("false", Jv::Bool(false)),
            b'n' => self.lit("null", Jv::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
        }
    }

    fn number(&mut self) -> Result<Jv, String> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Jv::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<Jv, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(Jv::Str(out)),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // The emitter only writes \u for control chars;
                            // surrogate pairs are not part of the schema.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| "bad \\u codepoint".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape `\\{}`", e as char)),
                    }
                }
                _ => {
                    // Continue the UTF-8 sequence byte-for-byte: the input
                    // is a &str, so sequences are valid by construction.
                    let s = &self.bytes[self.pos - 1..];
                    let ch_len = utf8_len(b);
                    let ch =
                        std::str::from_utf8(&s[..ch_len]).map_err(|_| "bad UTF-8".to_string())?;
                    out.push_str(ch);
                    self.pos += ch_len - 1;
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code, sidx: Option<usize>, disasm: &str, msg: &str) -> Diagnostic {
        Diagnostic { code, severity: code.severity(), sidx, disasm: disasm.into(), msg: msg.into() }
    }

    /// The schema-stability gate: emit → parse is the identity on every
    /// field, including awkward characters in strings.
    #[test]
    fn report_round_trips() {
        let report = Report {
            diags: vec![
                diag(Code::ZeroVl, Some(4), "setvl x0, x3", "request is 0"),
                diag(Code::RaceWw, Some(17), "vstx v1, x2, v3", "quotes \" and \\ back\\slash"),
                diag(Code::RaceUnknown, None, "", "newline\nand tab\tand bell\u{7} and é"),
                diag(Code::DlpShortVl, Some(0), "vadd.vv v1, v2, v3", "短い VL"),
            ],
            suppressed: 3,
        };
        let text = report_to_json("dir/some file.s", &report);
        let (path, back) = report_from_json(&text).unwrap();
        assert_eq!(path, "dir/some file.s");
        assert_eq!(back.suppressed, report.suppressed);
        assert_eq!(back.diags.len(), report.diags.len());
        for (a, b) in report.diags.iter().zip(&back.diags) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.sidx, b.sidx);
            assert_eq!(a.disasm, b.disasm);
            assert_eq!(a.msg, b.msg);
        }
        // Derived counts were emitted consistently.
        assert!(text.contains("\"errors\": 1"));
        assert!(text.contains("\"warnings\": 2"));
        assert!(text.contains("\"infos\": 1"));
    }

    #[test]
    fn empty_report_round_trips() {
        let (path, back) = report_from_json(&report_to_json("x.s", &Report::default())).unwrap();
        assert_eq!(path, "x.s");
        assert!(back.diags.is_empty());
        assert_eq!(back.suppressed, 0);
    }

    /// The full `vlt lint --json` document round-trips too, assembly-error
    /// entries and the empty file list included.
    #[test]
    fn vlint_output_round_trips() {
        let report = Report {
            diags: vec![diag(Code::DeadWrite, Some(2), "li x1, 1", "m")],
            ..Default::default()
        };
        let files = vec![
            ("a.s".to_string(), FileOutcome::Report(report)),
            ("b \"q\".s".to_string(), FileOutcome::AssemblyError("line 1: bad\tthing".into())),
        ];
        let back = vlint_output_from_json(&vlint_output_to_json(&files)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a.s");
        let FileOutcome::Report(r) = &back[0].1 else { panic!("report expected") };
        assert_eq!(r.diags[0].code, Code::DeadWrite);
        assert_eq!(back[1].0, "b \"q\".s");
        let FileOutcome::AssemblyError(e) = &back[1].1 else { panic!("error expected") };
        assert_eq!(e, "line 1: bad\tthing");
        assert!(vlint_output_from_json(&vlint_output_to_json(&[])).unwrap().is_empty());
    }

    /// A frozen v1 document must keep parsing forever (the schema is
    /// append-only), including fields this version does not know about.
    #[test]
    fn frozen_v1_document_parses() {
        let doc = r#"{
            "schema": "vlint-report", "version": 1, "path": "a.s",
            "errors": 1, "warnings": 0, "infos": 0, "suppressed": 2,
            "future_field": [1, 2, {"x": true}],
            "diagnostics": [
                {"code": "oob-write", "severity": "error", "sidx": 3,
                 "pc": 4108, "disasm": "sd x1, 0(x2)", "msg": "out of bounds"}
            ]
        }"#;
        let (path, r) = report_from_json(doc).unwrap();
        assert_eq!(path, "a.s");
        assert_eq!(r.suppressed, 2);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::OobWrite);
        assert_eq!(r.diags[0].severity, Severity::Error);
        assert_eq!(r.diags[0].sidx, Some(3));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(report_from_json("").is_err());
        assert!(report_from_json("[]").is_err());
        assert!(report_from_json("{\"schema\": \"other\"}").is_err());
        assert!(report_from_json("{\"schema\": \"vlint-report\", \"version\": 99}").is_err());
        let bad_code = r#"{"schema": "vlint-report", "version": 1, "path": "a.s",
            "suppressed": 0, "diagnostics": [{"code": "nope", "severity": "error",
            "msg": "x"}]}"#;
        assert!(report_from_json(bad_code).is_err());
    }
}
