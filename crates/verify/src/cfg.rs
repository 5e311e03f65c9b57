//! Control-flow graph over a program's text section.
//!
//! Nodes are basic blocks of static instructions; edges follow branch and
//! jump targets computed from the PC-relative word offsets the assembler
//! emits. `jr`/`jalr` targets are register values, which the verifier does
//! not track across blocks — those terminators get no successors and the
//! analysis reports [`crate::Code::IndirectFlow`] so the partiality is
//! visible.

use vlt_isa::{Format, Inst, Op, OpClass};

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Execution continues into the next block.
    FallThrough,
    /// `halt`: the thread stops.
    Halt,
    /// Unconditional `j`/`jal` to a static target block.
    Jump(usize),
    /// Conditional branch: taken-target block and fall-through block.
    /// `fall` is `None` when the branch is the last instruction (falling
    /// through would leave the text segment).
    Branch {
        /// Block reached when the branch is taken.
        taken: usize,
        /// Block reached on fall-through, if any.
        fall: Option<usize>,
    },
    /// `jr`/`jalr`: target unknown to the static analysis.
    Indirect,
    /// The block's last instruction falls off the end of the text segment.
    OffEnd,
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// How the block ends.
    pub term: Term,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// The control-flow graph of one program.
#[derive(Debug)]
pub struct Cfg {
    /// Decoded text, one entry per instruction.
    pub insts: Vec<Inst>,
    /// Basic blocks in text order.
    pub blocks: Vec<Block>,
    /// Map from instruction index to owning block id.
    pub block_of: Vec<usize>,
    /// Block containing the entry point (block 0 by construction: the
    /// assembler always enters at the first instruction).
    pub entry: usize,
    /// Branch/jump targets that landed outside the text segment, as
    /// `(instruction index, raw target index)` pairs.
    pub wild_targets: Vec<(usize, i64)>,
    /// True if the program contains `jr`/`jalr`.
    pub has_indirect: bool,
}

/// The static branch-target instruction index, if `inst` is a direct
/// (PC-relative: `B` or `J` format) control transfer at index `idx`.
pub fn direct_target(inst: &Inst, idx: usize) -> Option<i64> {
    matches!(inst.op.format(), Format::B | Format::J).then(|| idx as i64 + inst.imm as i64)
}

impl Cfg {
    /// Build the CFG for a decoded text section. `insts` must be non-empty.
    pub fn build(insts: Vec<Inst>) -> Cfg {
        let n = insts.len();
        assert!(n > 0, "empty text section");

        // Leaders: entry, every direct target in range, every instruction
        // after a control transfer or halt.
        let mut leader = vec![false; n];
        leader[0] = true;
        let mut wild_targets = Vec::new();
        let mut has_indirect = false;
        for (i, inst) in insts.iter().enumerate() {
            if let Some(t) = direct_target(inst, i) {
                if (0..n as i64).contains(&t) {
                    leader[t as usize] = true;
                } else {
                    wild_targets.push((i, t));
                }
            }
            has_indirect |= inst.op.is_indirect();
            let ends_block = inst.is_control() || inst.op == Op::Halt;
            if ends_block && i + 1 < n {
                leader[i + 1] = true;
            }
        }

        let mut block_of = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::new();
        for i in 0..n {
            if leader[i] {
                blocks.push(Block {
                    start: i,
                    end: i + 1,
                    term: Term::FallThrough,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
            } else {
                blocks.last_mut().expect("index 0 is a leader").end = i + 1;
            }
            block_of[i] = blocks.len() - 1;
        }

        // Terminators and edges.
        let nb = blocks.len();
        for b in 0..nb {
            let last = blocks[b].end - 1;
            let inst = &insts[last];
            let fall_block = if blocks[b].end < n { Some(block_of[blocks[b].end]) } else { None };
            let target_block = direct_target(inst, last)
                .filter(|t| (0..n as i64).contains(t))
                .map(|t| block_of[t as usize]);
            let term = match inst.op.class() {
                _ if inst.op == Op::Halt => Term::Halt,
                OpClass::Jump if inst.op.is_indirect() => Term::Indirect,
                OpClass::Jump => match target_block {
                    Some(t) => Term::Jump(t),
                    None => Term::OffEnd, // wild target: no static successor
                },
                OpClass::Branch => match target_block {
                    Some(t) => Term::Branch { taken: t, fall: fall_block },
                    None => match fall_block {
                        Some(f) => Term::Jump(f), // wild taken-target: only fall-through is static
                        None => Term::OffEnd,
                    },
                },
                _ => match fall_block {
                    Some(_) => Term::FallThrough,
                    None => Term::OffEnd,
                },
            };
            blocks[b].term = term;
            let succs: Vec<usize> = match term {
                Term::Halt | Term::Indirect | Term::OffEnd => vec![],
                Term::Jump(t) => vec![t],
                Term::Branch { taken, fall } => {
                    let mut s = vec![taken];
                    if let Some(f) = fall {
                        if f != taken {
                            s.push(f);
                        }
                    }
                    s
                }
                Term::FallThrough => vec![block_of[blocks[b].end]],
            };
            blocks[b].succs = succs;
        }
        for b in 0..nb {
            let succs = blocks[b].succs.clone();
            for s in succs {
                if !blocks[s].preds.contains(&b) {
                    blocks[s].preds.push(b);
                }
            }
        }

        let entry = block_of[0];
        Cfg { insts, blocks, block_of, entry, wild_targets, has_indirect }
    }

    /// Blocks reachable from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        self.reachable_from(self.entry)
    }

    /// Blocks reachable from `from` (inclusive) following successor edges.
    pub fn reachable_from(&self, from: usize) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        seen
    }

    /// Blocks in reverse post-order from the entry (a good iteration order
    /// for forward dataflow).
    pub fn rpo(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.blocks.len());
        let mut visited = vec![false; self.blocks.len()];
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack: Vec<(usize, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some((b, i)) = stack.pop() {
            if i < self.blocks[b].succs.len() {
                stack.push((b, i + 1));
                let s = self.blocks[b].succs[i];
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
            }
        }
        order.reverse();
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        let p = assemble(src).unwrap();
        Cfg::build(p.decoded())
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("add x1, x2, x3\nadd x4, x5, x6\nhalt\n");
        assert_eq!(c.blocks.len(), 1);
        assert_eq!(c.blocks[0].term, Term::Halt);
        assert!(c.blocks[0].succs.is_empty());
    }

    #[test]
    fn branch_splits_blocks() {
        let c = cfg_of("beqz x1, done\naddi x2, x2, 1\ndone:\nhalt\n");
        assert_eq!(c.blocks.len(), 3);
        assert!(matches!(c.blocks[0].term, Term::Branch { .. }));
        // Both sides converge on the halt block.
        assert_eq!(c.blocks[0].succs.len(), 2);
        assert_eq!(c.blocks[2].preds.len(), 2);
    }

    #[test]
    fn loop_back_edge() {
        let c = cfg_of("li x1, 4\nloop:\naddi x1, x1, -1\nbnez x1, loop\nhalt\n");
        let reach = c.reachable();
        assert!(reach.iter().all(|&r| r));
        // The loop head has two predecessors: entry and the back edge.
        let head = c.block_of[1];
        assert_eq!(c.blocks[head].preds.len(), 2);
    }

    #[test]
    fn off_end_detected() {
        let c = cfg_of("add x1, x2, x3\n");
        assert_eq!(c.blocks[0].term, Term::OffEnd);
    }

    #[test]
    fn indirect_has_no_succs() {
        let c = cfg_of("jr x31\nhalt\n");
        assert!(c.has_indirect);
        assert_eq!(c.blocks[0].term, Term::Indirect);
        assert!(c.blocks[0].succs.is_empty());
        assert!(!c.reachable()[c.block_of[1]]);
    }

    #[test]
    fn wild_target_recorded() {
        // Raw numeric branch offset pointing far outside the text.
        let c = cfg_of("beq x0, x0, 1000\nhalt\n");
        assert_eq!(c.wild_targets.len(), 1);
        assert_eq!(c.wild_targets[0].0, 0);
    }

    #[test]
    fn rpo_starts_at_entry() {
        let c = cfg_of("beqz x1, a\naddi x2, x2, 1\na:\nhalt\n");
        let order = c.rpo();
        assert_eq!(order[0], c.entry);
        assert_eq!(order.len(), c.blocks.len());
    }
}
