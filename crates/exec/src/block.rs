//! The block engine: lazy superblocks of decoded instructions, chained
//! through direct successor links and executed by the interpreter's own
//! per-instruction function, [`crate::interp::exec`].
//!
//! # Block discovery
//!
//! Blocks are discovered lazily at *executed entry points*: whenever the
//! engine is asked to run from a PC with no cached block, it records the
//! straight-line run of static instructions starting there. A block
//! extends until the first of:
//!
//! * a control transfer (conditional branch, `j`/`jal`/`jr`/`jalr`) —
//!   included as the block's terminator;
//! * a stateful instruction (`barrier`, `halt`, `vltcfg`) — excluded;
//!   the block ends just before it and the [`crate::FuncSim`] driver
//!   executes it through the interpreter (rendezvous and repartition need
//!   driver-level state);
//! * the [`MAX_BLOCK_INSTS`] cap, which bounds run-ahead (and so the
//!   number of queued-but-unconsumed element-address spans in the
//!   [`AddrArena`] ring);
//! * the end of the text segment.
//!
//! Because entry points are execution-driven rather than leader-driven,
//! blocks may overlap (a branch into the middle of an existing block
//! simply records a new suffix block) — the superblock trade: a little
//! duplicated discovery for straight-line execution with no mid-block
//! entry checks.
//!
//! # Direct links
//!
//! Each block caches the block index of its fall-through and taken-path
//! successors, resolved on first use. In steady state, chained execution
//! follows block → block links with no PC lookup at all; only dynamic
//! jumps (`jr`/`jalr`) re-resolve through the dense PC→index table.
//!
//! # Where the speed comes from
//!
//! A block runs its instructions back to back: no PC lookup, and none of
//! [`crate::FuncSim::step_thread`]'s per-step checks (halt, barrier
//! parking, checkers, the hand-off queue). The instructions themselves
//! execute exactly as single-stepping executes them, through the same
//! function, so the trace handed to the timing models is byte-identical
//! (arena allocation order included) and the interpreter engine stays a
//! drop-in oracle for the chaining, links and run-ahead.

use vlt_isa::{Op, OpClass};

use crate::arena::AddrArena;
use crate::error::ExecError;
use crate::interp;
use crate::memory::Memory;
use crate::program::DecodedProgram;
use crate::state::ArchState;
use crate::trace::{DynInst, DynKind};

/// Upper bound on instructions per block. Bounds the engine's run-ahead
/// when the timing driver consumes instructions one at a time: at most one
/// block of architectural state change is buffered ahead of the replay
/// point, and at most `MAX_BLOCK_INSTS` element-address spans sit
/// unconsumed in the arena ring (well inside its slack — see
/// [`crate::arena`]).
pub const MAX_BLOCK_INSTS: usize = 128;

/// `link`/`by_sidx` sentinel: not yet resolved/compiled.
const UNCOMPILED: u32 = u32::MAX;
/// `link`/`by_sidx` sentinel: resolved, and the target does not start a
/// block (stateful instruction or out-of-text PC) — execute via the
/// interpreter.
const NO_BLOCK: u32 = u32::MAX - 1;

/// How a compiled block hands off control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    /// Fall through to the next static instruction (cap, end of text, or
    /// a stateful successor).
    Fall,
    /// Ends in a branch or direct jump: both successor PCs are static.
    Static,
    /// Ends in `jr`/`jalr`: the successor is dynamic, re-resolved each
    /// execution.
    Dyn,
}

/// One compiled block: a straight-line run of static instructions plus
/// successor links.
#[derive(Debug)]
struct CBlock {
    /// Static index of the first instruction.
    start_sidx: u32,
    /// PC of the first instruction.
    start_pc: u64,
    /// Number of instructions; the last may be a control transfer.
    len: u32,
    /// Terminator classification.
    term: Term,
    /// Block index of the fall-through successor ([`UNCOMPILED`] until
    /// first needed).
    link_fall: u32,
    /// Block index of the taken-path successor.
    link_taken: u32,
}

/// Lazily populated cache of compiled blocks for one program.
#[derive(Debug)]
pub struct BlockCache {
    /// Static index → block index ([`UNCOMPILED`] / [`NO_BLOCK`]
    /// sentinels). Dense: one slot per static instruction.
    by_sidx: Vec<u32>,
    blocks: Vec<CBlock>,
}

impl BlockCache {
    /// An empty cache for a program with `text_len` static instructions.
    pub fn new(text_len: usize) -> Self {
        BlockCache { by_sidx: vec![UNCOMPILED; text_len], blocks: Vec::new() }
    }

    /// Number of blocks compiled so far (observability/tests).
    pub fn compiled_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block index for an entry at `sidx`, compiling on first use.
    fn ensure(&mut self, prog: &DecodedProgram, sidx: usize) -> u32 {
        let cached = self.by_sidx[sidx];
        if cached != UNCOMPILED {
            return cached;
        }
        let bi = match compile_block(prog, sidx) {
            Some(b) => {
                self.blocks.push(b);
                (self.blocks.len() - 1) as u32
            }
            None => NO_BLOCK,
        };
        self.by_sidx[sidx] = bi;
        bi
    }

    /// Resolve the block starting at `pc` (out-of-text PCs are
    /// [`NO_BLOCK`]: the caller's interpreter step reports the fault with
    /// its usual provenance).
    fn resolve_pc(&mut self, prog: &DecodedProgram, pc: u64) -> u32 {
        match prog.index_of(pc) {
            Some(sidx) => self.ensure(prog, sidx),
            None => NO_BLOCK,
        }
    }

    /// Execute compiled blocks from `st.pc`, feeding every emitted
    /// [`DynInst`] to `sink` in execution order. With `chain` set, keeps
    /// following successor links until the next instruction has no block
    /// (barrier/halt/vltcfg or a wild PC); otherwise runs exactly one
    /// block. Returns whether any block ran — `false` means the caller
    /// must take one interpreter step instead.
    ///
    /// A `sink` error (the driver's instruction budget) aborts after the
    /// current instruction, with the architectural state advanced through
    /// it — the same truncation point the interpreter driver produces. A
    /// fault leaves `st.pc` on the faulting instruction, as single-stepping
    /// does.
    pub fn run<F: FnMut(DynInst) -> Result<(), ExecError>>(
        &mut self,
        st: &mut ArchState,
        mem: &mut Memory,
        prog: &DecodedProgram,
        arena: &mut AddrArena,
        chain: bool,
        sink: &mut F,
    ) -> Result<bool, ExecError> {
        let mut ran = false;
        let mut bi = self.resolve_pc(prog, st.pc);
        while bi < NO_BLOCK {
            ran = true;
            let mut taken = false;
            let blk = &self.blocks[bi as usize];
            debug_assert_eq!(blk.start_pc, st.pc, "block entered at the wrong pc");
            let start = blk.start_sidx as usize;
            let body = &prog.insts[start..start + blk.len as usize];
            for (k, si) in body.iter().enumerate() {
                let d = interp::exec(st, mem, si, (start + k) as u32, arena)?;
                if let DynKind::Branch { taken: t, .. } = d.kind {
                    taken = t;
                }
                sink(d)?;
            }
            // Follow the successor link, resolving it on first use. After
            // the block `st.pc` is already the successor PC, so a fresh
            // resolution is always consistent with the cached link.
            let term = self.blocks[bi as usize].term;
            bi = match term {
                Term::Dyn => self.resolve_pc(prog, st.pc),
                Term::Fall | Term::Static => {
                    let want_taken = term == Term::Static && taken;
                    let b = &self.blocks[bi as usize];
                    let link = if want_taken { b.link_taken } else { b.link_fall };
                    if link != UNCOMPILED {
                        link
                    } else {
                        let link = self.resolve_pc(prog, st.pc);
                        let b = &mut self.blocks[bi as usize];
                        if want_taken {
                            b.link_taken = link;
                        } else {
                            b.link_fall = link;
                        }
                        link
                    }
                }
            };
            debug_assert!(
                bi >= NO_BLOCK || self.blocks[bi as usize].start_pc == st.pc,
                "stale successor link"
            );
            if !chain {
                break;
            }
        }
        Ok(ran)
    }
}

/// Compile a block entered at `start`, or `None` when the entry
/// instruction is stateful (always single-stepped by the driver).
fn compile_block(prog: &DecodedProgram, start: usize) -> Option<CBlock> {
    let mut end = start;
    let mut term = Term::Fall;
    while end < prog.len() && end - start < MAX_BLOCK_INSTS {
        let si = prog.get(end);
        if matches!(si.inst.op, Op::Barrier | Op::Halt | Op::VltCfg) {
            break;
        }
        end += 1;
        if matches!(si.class, OpClass::Branch | OpClass::Jump) {
            term = if si.inst.op.is_indirect() { Term::Dyn } else { Term::Static };
            break;
        }
    }
    if end == start {
        return None;
    }
    Some(CBlock {
        start_sidx: start as u32,
        start_pc: prog.get(start).pc,
        len: (end - start) as u32,
        term,
        link_fall: UNCOMPILED,
        link_taken: UNCOMPILED,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;
    use crate::program::StaticInst;
    use vlt_isa::asm::assemble;

    fn setup(src: &str) -> (std::sync::Arc<DecodedProgram>, ArchState, Memory, AddrArena) {
        let p = assemble(src).unwrap();
        let d = DecodedProgram::new(&p);
        let st = ArchState::new(p.entry, 0, 1);
        let mem = Memory::load(&p);
        (d, st, mem, AddrArena::new(1))
    }

    /// Over every opcode, masked where maskable: a block never holds
    /// `barrier`, `halt` or `vltcfg` (an entry at one compiles nothing),
    /// it ends after every branch and jump, `jr`/`jalr` end it with the
    /// dynamic terminator, and every other op stays inside it.
    #[test]
    fn blocks_end_at_control_transfers_and_barriers() {
        let (d, _, _, _) =
            setup("li x1, 1\nadd x2, x1, x1\nbeq x1, x2, done\nnop\nbarrier\ndone:\nhalt\n");
        let b = compile_block(&d, 0).unwrap();
        assert_eq!(b.len, 3); // li, add, beq (terminator included)
        assert_eq!(b.term, Term::Static);
        let b = compile_block(&d, 3).unwrap();
        assert_eq!(b.len, 1); // nop; barrier excluded
        assert_eq!(b.term, Term::Fall);
        assert!(compile_block(&d, 4).is_none()); // barrier entry
        assert!(compile_block(&d, 5).is_none()); // halt entry

        let nop = vlt_isa::Inst::sys(Op::Nop);
        for &op in Op::ALL {
            for masked in [false, true].into_iter().filter(|&m| !m || op.maskable()) {
                let inst = vlt_isa::Inst { op, rd: 1, rs1: 2, rs2: 3, imm: 1, masked };
                let insts = [nop, inst, nop].into_iter().enumerate().map(|(i, inst)| {
                    let (defs, uses) = inst.defs_uses();
                    let pc = vlt_isa::TEXT_BASE + 4 * i as u64;
                    StaticInst { inst, class: inst.op.class(), defs, uses, pc }
                });
                let d = DecodedProgram { insts: insts.collect(), program: Default::default() };
                let b = compile_block(&d, 0).unwrap();
                let (len, term) = match op {
                    Op::Barrier | Op::Halt | Op::VltCfg => (1, Term::Fall),
                    Op::Jr | Op::Jalr => (2, Term::Dyn),
                    _ if matches!(op.class(), OpClass::Branch | OpClass::Jump) => (2, Term::Static),
                    _ => (3, Term::Fall),
                };
                assert_eq!((b.len, b.term), (len, term), "{op:?} masked={masked}");
                let stateful = matches!(op, Op::Barrier | Op::Halt | Op::VltCfg);
                assert_eq!(compile_block(&d, 1).is_none(), stateful, "{op:?} entry");
            }
        }
    }

    #[test]
    fn run_streams_insts_and_stops_before_halt() {
        let (d, mut st, mut mem, mut arena) = setup("li x1, 7\nadd x2, x1, x1\nhalt\n");
        let mut cache = BlockCache::new(d.len());
        let mut out = Vec::new();
        let ran = cache
            .run(&mut st, &mut mem, &d, &mut arena, true, &mut |di| {
                out.push(di);
                Ok(())
            })
            .unwrap();
        assert!(ran);
        assert_eq!(out.len(), 2);
        assert_eq!(st.x[2], 14);
        assert_eq!(st.pc, d.get(2).pc); // parked at the halt, uninterpreted
        assert!(!st.halted);
    }

    #[test]
    fn links_chain_loops_without_recompilation() {
        // A 3-iteration countdown loop: one body block, self-linked.
        let src = "li x1, 3\nloop:\naddi x1, x1, -1\nbne x1, x0, loop\nhalt\n";
        let (d, mut st, mut mem, mut arena) = setup(src);
        let mut cache = BlockCache::new(d.len());
        let mut n = 0u64;
        cache
            .run(&mut st, &mut mem, &d, &mut arena, true, &mut |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(st.x[1], 0);
        assert_eq!(n, 1 + 3 * 2); // li + 3x (addi, bne)
        assert!(cache.compiled_blocks() <= 3);
    }

    #[test]
    fn sink_error_aborts_mid_block() {
        let (d, mut st, mut mem, mut arena) = setup("li x1, 1\nli x2, 2\nli x3, 3\nhalt\n");
        let mut cache = BlockCache::new(d.len());
        let mut n = 0;
        let r = cache.run(&mut st, &mut mem, &d, &mut arena, true, &mut |_| {
            n += 1;
            if n == 2 {
                Err(ExecError::Budget { executed: 2 })
            } else {
                Ok(())
            }
        });
        assert!(matches!(r, Err(ExecError::Budget { .. })));
        assert_eq!(st.x[2], 2); // the second li committed before the abort
        assert_eq!(st.x[3], 0);
    }
}
