//! Structural lints over the CFG: unreachable code, fall-through past the
//! end of the text segment, wild branch targets, untracked indirect flow,
//! and SPMD convergence of `barrier`/`vltcfg`.
//!
//! The convergence check is purely structural (no path feasibility): for
//! every reachable two-way branch, a `barrier` or `vltcfg` that is
//! reachable from one successor but not the other executes on only a
//! subset of threads whenever the branch diverges across threads (e.g. on
//! `tid`). For `barrier` that is a potential deadlock — the rendezvous
//! counts *live* threads, so threads that skip it desynchronize the
//! phases; for `vltcfg` it means threads disagree about the lane
//! partition. Branches whose two sides rejoin before the instruction are
//! fine: both reachability sets contain it.

use vlt_isa::Op;

use crate::absint::RawDiag;
use crate::cfg::{Cfg, Term};
use crate::diag::Code;

/// Run the structural lints. Returns raw findings in text order.
pub fn check(cfg: &Cfg) -> Vec<RawDiag> {
    let mut out: Vec<RawDiag> = Vec::new();
    let reachable = cfg.reachable();

    // Unreachable code: one finding per unreachable block, anchored at its
    // first instruction.
    for b in &cfg.blocks {
        if !reachable[cfg.block_of[b.start]] {
            let n = b.end - b.start;
            let plural = if n == 1 { "" } else { "s" };
            out.push((
                Code::Unreachable,
                b.start,
                format!("{n} instruction{plural} not reachable from the entry point"),
            ));
        }
    }

    // Fall-through past the end of the text segment.
    for b in &cfg.blocks {
        if b.term == Term::OffEnd && reachable[cfg.block_of[b.start]] {
            out.push((
                Code::OffEnd,
                b.end - 1,
                "execution continues past the end of the text segment (no `halt`/branch) \
                 — dynamic `BadPc` fault"
                    .to_string(),
            ));
        }
    }

    // Branch/jump targets outside the text segment.
    for &(i, t) in &cfg.wild_targets {
        if reachable[cfg.block_of[i]] {
            out.push((
                Code::BadTarget,
                i,
                format!("target index {t} is outside the text segment (0..{})", cfg.insts.len()),
            ));
        }
    }

    // Indirect control flow: the analysis cannot follow it.
    for (i, inst) in cfg.insts.iter().enumerate() {
        if inst.op.is_indirect() && reachable[cfg.block_of[i]] {
            out.push((
                Code::IndirectFlow,
                i,
                "indirect jump: successors are not statically tracked, so analysis of \
                 code reached only through it is partial"
                    .to_string(),
            ));
        }
    }

    // SPMD convergence of barrier / vltcfg.
    out.extend(divergence(cfg, &reachable));

    out.sort_by_key(|&(_, i, _)| i);
    out
}

/// Flag `barrier`/`vltcfg` instructions reachable from exactly one side of
/// some reachable two-way branch. Each instruction is flagged at most once
/// (against the first diverging branch found, in text order).
fn divergence(cfg: &Cfg, reachable: &[bool]) -> Vec<RawDiag> {
    let sites: Vec<usize> = cfg
        .insts
        .iter()
        .enumerate()
        .filter(|(i, inst)| {
            matches!(inst.op, Op::Barrier | Op::VltCfg) && reachable[cfg.block_of[*i]]
        })
        .map(|(i, _)| i)
        .collect();
    if sites.is_empty() {
        return Vec::new();
    }
    // What each site's own block can reach: a branch inside that set shares
    // a cycle with the site (loop-back branches), where the site already
    // executed on the way to the branch — only trip counts, not structure,
    // decide divergence there, so those branches are skipped.
    let site_reach: Vec<Vec<bool>> =
        sites.iter().map(|&i| cfg.reachable_from(cfg.block_of[i])).collect();

    let mut out: Vec<RawDiag> = Vec::new();
    let mut flagged = vec![false; cfg.insts.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let Term::Branch { taken, fall: Some(fall) } = blk.term else { continue };
        if taken == fall {
            continue;
        }
        let from_taken = cfg.reachable_from(taken);
        let from_fall = cfg.reachable_from(fall);
        for (si, &i) in sites.iter().enumerate() {
            if flagged[i] || site_reach[si][b] {
                continue;
            }
            let sb = cfg.block_of[i];
            let (t, f) = (from_taken[sb], from_fall[sb]);
            if t != f {
                flagged[i] = true;
                let (code, what, risk) = if cfg.insts[i].op == Op::Barrier {
                    (
                        Code::DivergentBarrier,
                        "barrier",
                        "threads taking the other side skip the rendezvous",
                    )
                } else {
                    (
                        Code::DivergentVltcfg,
                        "vltcfg",
                        "threads taking the other side keep the old partition",
                    )
                };
                let side = if t { "taken" } else { "fall-through" };
                out.push((
                    code,
                    i,
                    format!(
                        "`{what}` is reachable only from the {side} side of the branch at \
                         instruction #{} — {risk}",
                        blk.end - 1
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn raw(src: &str) -> Vec<RawDiag> {
        let p = assemble(src).unwrap();
        check(&Cfg::build(p.decoded()))
    }

    fn has(d: &[RawDiag], code: Code) -> bool {
        d.iter().any(|(c, _, _)| *c == code)
    }

    #[test]
    fn clean_program() {
        let d = raw("li x1, 1\nbeqz x1, done\naddi x1, x1, 1\ndone:\nhalt\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_after_halt() {
        let d = raw("halt\nadd x1, x2, x3\n");
        assert!(has(&d, Code::Unreachable));
    }

    #[test]
    fn off_end_flagged() {
        let d = raw("add x1, x2, x3\n");
        assert!(has(&d, Code::OffEnd));
    }

    #[test]
    fn bad_target_flagged() {
        let d = raw("beq x0, x0, 1000\nhalt\n");
        assert!(has(&d, Code::BadTarget));
    }

    #[test]
    fn indirect_flagged() {
        let d = raw("jr x31\nhalt\n");
        assert!(has(&d, Code::IndirectFlow));
        // The halt after the jr is unreachable to the static analysis.
        assert!(has(&d, Code::Unreachable));
    }

    #[test]
    fn divergent_barrier_flagged() {
        // Barrier only on the fall-through side; both sides rejoin at done.
        let d = raw("tid x1\nbnez x1, done\nbarrier\ndone:\nhalt\n");
        assert!(has(&d, Code::DivergentBarrier), "{d:?}");
    }

    #[test]
    fn converged_barrier_clean() {
        let d = raw("tid x1\nbnez x1, done\naddi x2, x0, 1\ndone:\nbarrier\nhalt\n");
        assert!(!has(&d, Code::DivergentBarrier), "{d:?}");
    }

    #[test]
    fn barrier_in_loop_clean() {
        // A barrier inside a loop body is reachable from both sides of the
        // loop-back branch (the exit side has already passed it; the taken
        // side reaches it again), and from both sides of the entry.
        let d = raw("li x1, 4\nloop:\nbarrier\naddi x1, x1, -1\nbnez x1, loop\nhalt\n");
        assert!(!has(&d, Code::DivergentBarrier), "{d:?}");
    }

    #[test]
    fn divergent_vltcfg_flagged() {
        let d = raw("tid x1\nbnez x1, done\nli x2, 4\nvltcfg x2\ndone:\nhalt\n");
        assert!(has(&d, Code::DivergentVltcfg), "{d:?}");
    }
}
