//! The barrier-epoch race analysis behind `vlt lint --races` (DESIGN.md
//! §7).
//!
//! The epoch-synchronous observed walk ([`crate::content`]) decides and
//! reports every race:
//!
//! * one thread, or an empty text section: nothing to check, no walk;
//! * a complete walk with no conflict proves every interleaving
//!   race-free: an empty report and no predicted site;
//! * the first conflict, in epoch `k`, is a race under every schedule: one
//!   `race-ww` (both accesses write) or `race-rw` diagnostic per distinct
//!   pair of sites, anchored at the lower-numbered thread's access and
//!   naming the other site, both threads and epoch `k`;
//! * a fault, a walk past [`OBSERVE_BUDGET`] steps, more threads than
//!   `FuncSim` runs, or a text word that does not decode gives no
//!   verdict: one unanchored `race-unknown` that names the cause.
//!
//! Past a race or without a verdict the walk proves nothing about other
//! schedules, so every memory-access site is a predicted race site.

use std::collections::BTreeSet;

use vlt_isa::{decode, disasm, Inst, Program};

use crate::content::{observe, Side, Walk};
use crate::diag::{Code, Diagnostic, Options, Report};

/// Race analysis with default options plus program-embedded allows.
pub fn check_races(prog: &Program, nthr: usize) -> Report {
    check_races_with(prog, nthr, &Options::default().with_program_allows(prog))
}

/// Race analysis under explicit options.
pub fn check_races_with(prog: &Program, nthr: usize, opts: &Options) -> Report {
    let raw = analyze(prog, nthr);
    let mut report = Report::default();
    for d in raw.diags {
        if opts.allow.contains(&d.code) {
            report.suppressed += 1;
        } else {
            report.diags.push(d);
        }
    }
    report
}

/// The static-instruction indices that may take part in a race (ignoring
/// allows): none for a program the walk proves race-free, every memory
/// access otherwise. The dynamic race checker in `vlt-exec` asserts that
/// every conflict it observes at runtime involves only sites in this set.
pub fn predicted_race_sites(prog: &Program, nthr: usize) -> BTreeSet<usize> {
    analyze(prog, nthr).sites
}

#[derive(Default)]
struct RaceOut {
    diags: Vec<Diagnostic>,
    sites: BTreeSet<usize>,
}

/// Interpreter steps the observed walk may take before it gives up.
const OBSERVE_BUDGET: u64 = 20_000_000;

fn analyze(prog: &Program, nthr: usize) -> RaceOut {
    if nthr <= 1 || prog.text.is_empty() {
        return RaceOut::default();
    }
    let mut diags: Vec<Diagnostic> = match observe(prog, nthr, OBSERVE_BUDGET) {
        Walk::Clean => return RaceOut::default(),
        Walk::Race { epoch, pairs } => {
            pairs.into_iter().map(|(a, b)| race(prog, epoch, a, b)).collect()
        }
        Walk::Unknown(cause) => vec![Diagnostic {
            code: Code::RaceUnknown,
            severity: Code::RaceUnknown.severity(),
            sidx: None,
            disasm: String::new(),
            msg: format!("no race verdict: {cause}; any shared access may race"),
        }],
    };
    diags.sort_by_key(|d| (d.sidx, d.code));
    let sites = (0..prog.text.len()).filter(|&i| inst(prog, i).op.class().is_mem()).collect();
    RaceOut { diags, sites }
}

/// Instruction `sidx`; an undecodable word reads as `nop`, as in
/// `verify_with`.
fn inst(prog: &Program, sidx: usize) -> Inst {
    decode(prog.text[sidx]).unwrap_or(Inst::NOP)
}

/// The diagnostic for one conflict in `epoch`, anchored at `a`, the access
/// of the lower-numbered thread.
fn race(prog: &Program, epoch: u64, a: Side, b: Side) -> Diagnostic {
    let code = if a.write && b.write { Code::RaceWw } else { Code::RaceRw };
    let kind = |s: Side| if s.write { "write" } else { "read" };
    Diagnostic {
        code,
        severity: code.severity(),
        sidx: Some(a.sidx),
        disasm: disasm(&inst(prog, a.sidx)),
        msg: format!(
            "this {} (thread {}) overlaps the {} at #{} `{}` (thread {}) in barrier epoch {epoch}",
            kind(a),
            a.tid,
            kind(b),
            b.sidx,
            disasm(&inst(prog, b.sidx)),
            b.tid,
        ),
    }
}
