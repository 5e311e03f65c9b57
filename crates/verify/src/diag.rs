//! Diagnostics: lint codes, severities, and the verification report.

use std::collections::BTreeSet;
use std::fmt;

use vlt_isa::{Program, TEXT_BASE};

macro_rules! define_codes {
    ($(($variant:ident, $name:literal, $sev:ident, $doc:literal)),* $(,)?) => {
        /// Every diagnostic the verifier can emit, identified by a stable
        /// kebab-case name used by the allow mechanism and `vlt lint`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Code {
            $(#[doc = $doc] $variant),*
        }

        impl Code {
            /// All codes, for `vlt lint --list-codes`.
            pub const ALL: &'static [Code] = &[$(Code::$variant),*];

            /// The stable kebab-case name.
            pub fn name(self) -> &'static str {
                match self { $(Code::$variant => $name),* }
            }

            /// The default severity.
            pub fn severity(self) -> Severity {
                match self { $(Code::$variant => Severity::$sev),* }
            }

            /// One-line description (for `vlt lint --list-codes`).
            pub fn describe(self) -> &'static str {
                match self { $(Code::$variant => $doc),* }
            }

            /// Look up a code by name. Accepts `-` or `_` as separators so
            /// both CLI flags (`--allow dead-write`) and program-embedded
            /// allow symbols (`.eq vlint.allow.dead_write, 1`) resolve.
            pub fn from_name(s: &str) -> Option<Code> {
                let norm: String = s.trim().chars()
                    .map(|c| if c == '_' { '-' } else { c.to_ascii_lowercase() })
                    .collect();
                match norm.as_str() { $($name => Some(Code::$variant),)* _ => None }
            }
        }
    };
}

define_codes! {
    (BadEncoding,      "bad-encoding",      Error, "a text word does not decode to any instruction"),
    (UndefRead,        "undef-read",        Error, "register read but never written on any path from entry"),
    (MaybeUndefRead,   "maybe-undef-read",  Warn,  "register read but written on only some paths from entry"),
    (ZeroVl,           "zero-vl",           Error, "`setvl` with a request statically known to be zero (dynamic `ZeroVl` fault)"),
    (BadVltCfg,        "bad-vltcfg",        Error, "`vltcfg` with an operand statically known to be an invalid threads x clusters encoding"),
    (VlReset,          "vl-reset",          Warn,  "vector instruction reachable with `vl` never set by `setvl` (executes at the reset MVL)"),
    (VltcfgClampsVl,   "vltcfg-clamps-vl",  Warn,  "`vltcfg` shrinks MVL below the current `vl` (stale `vl` is silently clamped)"),
    (SetvlDiscardsClamp, "setvl-discards-clamp", Warn, "`setvl` requests more than the partition MVL and discards the clamped result (`rd = x0`)"),
    (MaskReset,        "mask-reset",        Warn,  "masked operation reachable with `vm` never written (reset mask enables every lane)"),
    (DivergentBarrier, "divergent-barrier", Warn,  "`barrier` reachable from only one side of a branch (threads may diverge around the rendezvous)"),
    (DivergentVltcfg,  "divergent-vltcfg",  Warn,  "`vltcfg` reachable from only one side of a branch (threads may configure different partitions)"),
    (OobRead,          "oob-read",          Error, "load from a statically-known address outside the data/stack layout (reads silent zeros)"),
    (OobWrite,         "oob-write",         Error, "store to a statically-known address outside the data/stack layout"),
    (Misaligned,       "misaligned",        Error, "access at a statically-known address not aligned to the element size"),
    (OffEnd,           "off-end",           Error, "execution can fall through past the end of the text segment (dynamic `BadPc` fault)"),
    (BadTarget,        "bad-target",        Error, "branch or jump target outside the text segment"),
    (Unreachable,      "unreachable",       Warn,  "instruction not reachable from the entry point"),
    (DeadWrite,        "dead-write",        Warn,  "register written but the value can never be read afterwards"),
    (IndirectFlow,     "indirect-flow",     Warn,  "`jr`/`jalr` present: indirect control flow is not statically tracked (analysis is partial)"),
    (RaceWw,           "race-ww",           Warn,  "two threads write the same byte within one barrier epoch (the first racy epoch of the race walk)"),
    (RaceRw,           "race-rw",           Warn,  "one thread reads a byte another thread writes within one barrier epoch (the first racy epoch of the race walk)"),
    (RaceUnknown,      "race-unknown",      Warn,  "the race walk gave no verdict (a fault, its step budget, or too many threads): any shared access may race"),
    (DlpInexact,       "dlp-inexact",       Warn,  "the static DLP walk could not stay exact (data-dependent control, indirect flow, or budget): the profile is a partial lower bound"),
    (DlpShortVl,       "dlp-short-vl",      Info,  "parallel region runs vector code at short average VL (<= half MVL): a VLT lane partition recovers the idle lanes"),
    (DlpScalarRegion,  "dlp-scalar-region", Info,  "parallel region executes no vector element operations: scalar VLT threads-on-lanes applies"),
    (DlpStrideConflict, "dlp-stride-conflict", Info, "strided/indexed vector memory access maps many elements to few L2 banks (bank-conflict prone)"),
    (DlpSetvlClamp,    "dlp-setvl-clamp",   Info,  "fixed setvl request exceeds the MVL of a smaller partition and the clamped result register is never read: the phase cannot re-chunk under VLT"),
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Diagnostic severity. `Error` marks defects that produce a dynamic fault
/// or a silently-wrong result; `Warn` marks structural smells and risks;
/// `Info` marks advisory performance observations (the `--dlp` pass) that
/// never affect `vlt lint`'s exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory observation (performance structure, not a defect).
    Info,
    /// Suspicious but not certainly wrong.
    Warn,
    /// A defect: dynamic fault or silent corruption on some input/path.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: a lint code anchored to a static instruction.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint code.
    pub code: Code,
    /// Severity (the code's default; kept explicit for report filtering).
    pub severity: Severity,
    /// Static instruction index into the text section, if anchored.
    pub sidx: Option<usize>,
    /// Disassembly of the offending instruction (empty when unanchored).
    pub disasm: String,
    /// Human-readable explanation.
    pub msg: String,
}

impl Diagnostic {
    /// Byte address of the offending instruction, if anchored.
    pub fn pc(&self) -> Option<u64> {
        self.sidx.map(|i| TEXT_BASE + 4 * i as u64)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(i) = self.sidx {
            write!(f, " {:#010x} #{i}", TEXT_BASE + 4 * i as u64)?;
        }
        if !self.disasm.is_empty() {
            write!(f, " `{}`", self.disasm)?;
        }
        write!(f, ": {}", self.msg)
    }
}

/// Verifier options: the allowed (suppressed) lints.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Lint codes to suppress for this program.
    pub allow: BTreeSet<Code>,
}

impl Options {
    /// Suppress one lint code.
    pub fn allow(mut self, code: Code) -> Self {
        self.allow.insert(code);
        self
    }

    /// Merge program-embedded allow symbols: a symbol (or `.eq` constant)
    /// named `vlint.allow.<code>` suppresses that code for the program,
    /// e.g. `.eq vlint.allow.dead_write, 1`.
    pub fn with_program_allows(mut self, prog: &Program) -> Self {
        for name in prog.symbols.keys() {
            if let Some(code) = name.strip_prefix("vlint.allow.").and_then(Code::from_name) {
                self.allow.insert(code);
            }
        }
        self
    }
}

/// The outcome of verifying one program.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in text order (unanchored findings last).
    pub diags: Vec<Diagnostic>,
    /// Findings suppressed by the allow mechanism.
    pub suppressed: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warn-severity findings.
    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Info).count()
    }

    /// True when no error-severity findings remain.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// True if some finding with `code` exists anywhere.
    pub fn flags(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(f, "{} error(s), {} warning(s)", self.errors(), self.warnings())?;
        if self.infos() > 0 {
            write!(f, ", {} note(s)", self.infos())?;
        }
        if self.suppressed > 0 {
            write!(f, ", {} suppressed", self.suppressed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_names_roundtrip() {
        for &c in Code::ALL {
            assert_eq!(Code::from_name(c.name()), Some(c));
            let underscored = c.name().replace('-', "_");
            assert_eq!(Code::from_name(&underscored), Some(c));
        }
        assert_eq!(Code::from_name("nope"), None);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    /// Info findings are advisory: they never make a report unclean and
    /// never count as warnings.
    #[test]
    fn info_findings_are_advisory() {
        let d = Diagnostic {
            code: Code::DlpShortVl,
            severity: Severity::Info,
            sidx: Some(0),
            disasm: String::new(),
            msg: "short".into(),
        };
        let r = Report { diags: vec![d], suppressed: 0 };
        assert!(r.is_clean());
        assert_eq!(r.warnings(), 0);
        assert_eq!(r.infos(), 1);
    }

    #[test]
    fn program_allow_symbols() {
        use vlt_isa::asm::assemble;
        let p = assemble(".eq vlint.allow.dead_write, 1\nhalt\n").unwrap();
        let opts = Options::default().with_program_allows(&p);
        assert!(opts.allow.contains(&Code::DeadWrite));
        assert!(!opts.allow.contains(&Code::OobRead));
    }

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic {
            code: Code::ZeroVl,
            severity: Severity::Error,
            sidx: Some(4),
            disasm: "setvl x0, x3".into(),
            msg: "request is 0".into(),
        };
        let s = d.to_string();
        assert!(s.contains("error[zero-vl]"));
        assert!(s.contains("0x00001010"));
        assert!(s.contains("setvl x0, x3"));
        assert_eq!(d.pc(), Some(TEXT_BASE + 16));
    }
}
