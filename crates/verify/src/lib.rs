#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Static verifier and lint pass (`vlint`) for assembled VLT programs.
//!
//! Every workload in this reproduction is a hand-written kernel, so the
//! only runtime defense against a silently-wrong program is a crash or a
//! bad number deep inside `vlt-exec`. This crate checks an assembled
//! [`vlt_isa::Program`] *before* it executes:
//!
//! 1. decodes the text section ([`Code::BadEncoding`]) and builds a CFG
//!    over it (module `cfg`),
//! 2. runs a forward abstract interpretation for def-before-use, constant
//!    propagation, and `vl`/`vltcfg`/`vm` state (module `absint`),
//! 3. statically checks memory accesses against the regions
//!    [`vlt_isa::access_regions`] allows (the dynamic checker's too):
//!    constant addresses exactly, including alignment, and other
//!    addresses when their whole interval misses,
//! 4. checks SPMD convergence of `barrier` and `vltcfg` against branch
//!    structure (module `structure`),
//! 5. runs a backward liveness pass for dead writes (module `liveness`).
//!
//! Findings are [`Diagnostic`]s with a stable [`Code`], a severity, the
//! offending instruction's index and disassembly, and a message. Programs
//! can suppress a lint by defining an assembler constant named
//! `vlint.allow.<code>` (see [`Options::with_program_allows`]).
//!
//! The entry points are [`verify`] (default options plus program-embedded
//! allows) and [`verify_with`]; [`verify_source`] assembles first. The
//! `vlt lint` subcommand wraps these for `.s` files on disk.

use std::collections::BTreeSet;

use vlt_isa::asm::assemble;
use vlt_isa::{decode, disasm, Inst, IsaError, Program};

mod absint;
mod cfg;
mod content;
mod diag;
pub mod dlp;
mod interval;
pub mod json;
mod liveness;
mod races;
mod structure;

pub use diag::{Code, Diagnostic, Options, Report, Severity};
pub use races::{check_races, check_races_with, predicted_race_sites};

/// The first text word that does not decode, named for a no-verdict
/// message: the analyses that run the program cannot load such a text
/// (`verify` reports it as [`Code::BadEncoding`]).
pub(crate) fn undecodable(prog: &Program) -> Option<String> {
    prog.text.iter().enumerate().find_map(|(i, &w)| {
        decode(w).err().map(|e| format!("text word #{i} ({w:#010x}) does not decode: {e}"))
    })
}

/// Verify an assembled program with default options plus any
/// program-embedded `vlint.allow.*` symbols.
pub fn verify(prog: &Program) -> Report {
    verify_with(prog, &Options::default().with_program_allows(prog))
}

/// Verify an assembled program under explicit options.
pub fn verify_with(prog: &Program, opts: &Options) -> Report {
    let mut raws: Vec<absint::RawDiag> = Vec::new();

    // Decode word by word so a bad encoding is a finding, not a panic.
    // Undecodable words analyze as `nop` to keep indices aligned.
    let mut insts = Vec::with_capacity(prog.text.len());
    for (i, &w) in prog.text.iter().enumerate() {
        match decode(w) {
            Ok(inst) => insts.push(inst),
            Err(e) => {
                raws.push((Code::BadEncoding, i, format!("text word {w:#010x}: {e}")));
                insts.push(Inst::NOP);
            }
        }
    }

    if insts.is_empty() {
        let d = Diagnostic {
            code: Code::OffEnd,
            severity: Code::OffEnd.severity(),
            sidx: None,
            disasm: String::new(),
            msg: "empty text section: execution faults at the entry point".to_string(),
        };
        return Report { diags: vec![d], suppressed: 0 };
    }

    let cfg = cfg::Cfg::build(insts);
    raws.extend(absint::run(&cfg, prog));
    raws.extend(liveness::dead_writes(&cfg));
    raws.extend(structure::check(&cfg));

    // Sort by site then code, drop exact duplicates, apply allows.
    raws.sort_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
    raws.dedup();
    let mut report = Report::default();
    for (code, sidx, msg) in raws {
        if opts.allow.contains(&code) {
            report.suppressed += 1;
            continue;
        }
        report.diags.push(Diagnostic {
            code,
            severity: code.severity(),
            sidx: Some(sidx),
            disasm: disasm(&cfg.insts[sidx]),
            msg,
        });
    }
    report
}

/// Assemble a source listing and verify the result.
pub fn verify_source(src: &str) -> Result<Report, IsaError> {
    Ok(verify(&assemble(src)?))
}

/// The static-instruction indices at which the verifier considers an
/// undefined-register read possible (`undef-read` or `maybe-undef-read`,
/// including allow-suppressed ones). The dynamic checked mode in
/// `vlt-exec` asserts that every undefined read it observes at runtime was
/// in this set — the static analysis is complete for definedness as long
/// as control flow is direct (`jr`/`jalr` break the guarantee, which is
/// why [`Code::IndirectFlow`] exists).
pub fn predicted_undef_reads(prog: &Program, opts: &Options) -> BTreeSet<usize> {
    let mut wide = opts.clone();
    wide.allow.remove(&Code::UndefRead);
    wide.allow.remove(&Code::MaybeUndefRead);
    verify_with(prog, &wide)
        .diags
        .iter()
        .filter(|d| matches!(d.code, Code::UndefRead | Code::MaybeUndefRead))
        .filter_map(|d| d.sidx)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_is_clean() {
        let r = verify_source(
            ".data\nxs: .dword 1, 2, 3, 4\n.text\n\
             li x1, 4\nsetvl x2, x1\nla x3, xs\nvld v1, x3\n\
             vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n",
        )
        .unwrap();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.diags.len(), 0, "{r}");
    }

    #[test]
    fn bad_encoding_reported() {
        let mut p = assemble("halt\n").unwrap();
        p.text.insert(0, 0xFF00_0000); // no opcode 0xFF
        let r = verify(&p);
        assert!(r.flags(Code::BadEncoding));
    }

    #[test]
    fn undecodable_text_gets_a_labelled_no_verdict() {
        let mut p =
            assemble(".data\nx: .dword 0\n.text\ntid x1\nla x2, x\nsd x1, 0(x2)\nhalt\n").unwrap();
        let mem_sites: BTreeSet<usize> =
            (0..p.text.len()).filter(|&i| decode(p.text[i]).unwrap().op.class().is_mem()).collect();
        assert_eq!(mem_sites.len(), 1);
        p.text.push(0xFF00_0000);
        let word = format!("#{} (0xff000000)", p.text.len() - 1);
        assert!(verify(&p).flags(Code::BadEncoding));

        let r = check_races(&p, 2);
        assert_eq!(r.diags.len(), 1, "{r}");
        assert_eq!((r.diags[0].code, r.diags[0].sidx), (Code::RaceUnknown, None));
        assert!(r.diags[0].msg.contains(&word), "{r}");
        assert_eq!(predicted_race_sites(&p, 2), mem_sites);

        let prof = dlp::analyze(&p, &dlp::DlpOptions { threads: 2, ..Default::default() });
        assert!(!prof.exact);
        assert!(prof.notes.iter().any(|n| n.contains(&word)), "{:?}", prof.notes);
        let diags = dlp::dlp_diagnostics(&p, &prof);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].code, diags[0].sidx), (Code::DlpInexact, None));
        assert!(diags[0].msg.contains(&word), "{diags:?}");
    }

    #[test]
    fn allows_suppress_and_count() {
        let src = "li x1, 7\nli x1, 8\nsd x1, -8(sp)\nhalt\n";
        let r = verify_source(src).unwrap();
        assert!(r.flags(Code::DeadWrite));
        let p = assemble(src).unwrap();
        let r2 = verify_with(&p, &Options::default().allow(Code::DeadWrite));
        assert!(!r2.flags(Code::DeadWrite));
        assert_eq!(r2.suppressed, 1);
    }

    #[test]
    fn program_embedded_allow() {
        let src = ".eq vlint.allow.dead_write, 1\nli x1, 7\nli x1, 8\nsd x1, -8(sp)\nhalt\n";
        let r = verify_source(src).unwrap();
        assert!(!r.flags(Code::DeadWrite));
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn predicted_undef_reads_include_maybe() {
        let p = assemble("beqz x0, skip\nli x5, 1\nskip:\nadd x1, x5, x0\nsd x1, -8(sp)\nhalt\n")
            .unwrap();
        let set = predicted_undef_reads(&p, &Options::default());
        assert!(set.contains(&2), "{set:?}"); // the `add` reading x5
    }

    #[test]
    fn diagnostics_are_ordered_and_deduped() {
        let r = verify_source("add x1, x2, x3\nadd x4, x2, x2\nhalt\n").unwrap();
        let sites: Vec<_> = r.diags.iter().map(|d| d.sidx).collect();
        let mut sorted = sites.clone();
        sorted.sort();
        assert_eq!(sites, sorted);
    }
}
