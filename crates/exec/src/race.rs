//! Opt-in dynamic barrier-epoch race checker for [`crate::FuncSim`].
//!
//! The whole simulation stack rests on one concurrency invariant: threads
//! share memory but only *communicate* across `barrier` rendezvous — within
//! a barrier epoch, no thread reads or writes a byte another thread writes.
//! That is what makes any inter-barrier interleaving architecturally
//! equivalent and lets the timing models pull per-thread streams on their
//! own schedule (DESIGN.md §1, §6).
//!
//! This checker verifies the invariant on the executed stream. Each thread
//! carries an epoch counter, incremented when it executes `barrier`; every
//! memory access is recorded against the thread's current epoch (unit-stride
//! runs coalesce into byte ranges, so regular kernels stay compact). Once
//! every live thread has moved past an epoch, the epoch is *sealed*: its
//! per-thread access sets can no longer grow, the checker cross-compares
//! them, and any same-epoch overlap between distinct threads with at least
//! one write is reported as a [`RaceRecord`].
//!
//! Mirroring [`crate::checker`], a predictor built from `vlt lint`'s race
//! analysis (`vlt_verify::predicted_race_sites`) can be installed; every
//! dynamic conflict is then `debug_assert`ed to involve only predicted
//! sites. That analysis is an observed walk of the program on the
//! canonical schedule: it predicts no site for a program it proves
//! race-free and every memory-access site otherwise. A dynamic race at an
//! unpredicted site therefore means the walk certified a racy program —
//! one of the two implementations is wrong. This checker takes nothing
//! from the walk but the prediction, so it stays an independent oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use vlt_isa::OpClass;

use crate::arena::AddrArena;
use crate::program::DecodedProgram;
use crate::trace::{DynInst, DynKind};

/// `sidx -> bool`: did the race analysis consider this instruction a
/// potential race participant? (Build one from
/// `vlt_verify::predicted_race_sites`.)
pub type SitePredictor = Box<dyn Fn(usize) -> bool + Send + Sync>;

/// Configuration for the dynamic race checker.
#[derive(Default)]
pub struct RaceConfig {
    /// Optional race-analysis prediction to `debug_assert` observed
    /// conflicts against.
    pub predictor: Option<SitePredictor>,
}

/// One side of an observed intra-epoch conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceSite {
    /// Thread that performed the access.
    pub tid: usize,
    /// Static instruction index.
    pub sidx: usize,
    /// First byte of the overlapping range.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

/// An observed same-epoch cross-thread conflict (at least one side writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceRecord {
    /// Barrier epoch (number of barriers each thread had executed).
    pub epoch: u64,
    /// One side of the conflict.
    pub a: RaceSite,
    /// The other side.
    pub b: RaceSite,
}

impl fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = |w: bool| if w { "write" } else { "read" };
        write!(
            f,
            "epoch {}: {} at #{} (thread {}) overlaps {} at #{} (thread {}) at {:#x}",
            self.epoch,
            k(self.a.write),
            self.a.sidx,
            self.a.tid,
            k(self.b.write),
            self.b.sidx,
            self.b.tid,
            self.a.addr.max(self.b.addr),
        )
    }
}

/// One recorded access range `[start, last]`, inclusive so that a range
/// can end at the top of the address space.
#[derive(Debug, Clone, Copy)]
struct Rec {
    start: u64,
    last: u64,
    sidx: u32,
    write: bool,
}

/// Cap on access records per (epoch, thread); beyond it the epoch's
/// coverage is partial and [`RaceChecker::saturated`] counts the loss.
const MAX_EPOCH_RECORDS: usize = 1 << 16;
/// Cap on retained conflict records.
const MAX_CONFLICTS: usize = 1024;

/// The dynamic race checker. Owned by `FuncSim` when enabled.
pub struct RaceChecker {
    predictor: Option<SitePredictor>,
    /// Per-thread current epoch (barriers executed so far).
    cur: Vec<u64>,
    done: Vec<bool>,
    /// Unsealed epochs: per-epoch, per-thread access ranges.
    epochs: BTreeMap<u64, Vec<Vec<Rec>>>,
    conflicts: Vec<RaceRecord>,
    /// Dedup: one record per (sidx, sidx) pair.
    seen: BTreeSet<(u32, u32)>,
    dropped: u64,
    saturated: u64,
    epochs_sealed: u64,
}

impl fmt::Debug for RaceChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaceChecker")
            .field("conflicts", &self.conflicts.len())
            .field("epochs_sealed", &self.epochs_sealed)
            .field("saturated", &self.saturated)
            .finish_non_exhaustive()
    }
}

impl RaceChecker {
    /// New checker for `nthr` threads.
    pub fn new(nthr: usize, cfg: RaceConfig) -> RaceChecker {
        RaceChecker {
            predictor: cfg.predictor,
            cur: vec![0; nthr],
            done: vec![false; nthr],
            epochs: BTreeMap::new(),
            conflicts: Vec::new(),
            seen: BTreeSet::new(),
            dropped: 0,
            saturated: 0,
            epochs_sealed: 0,
        }
    }

    /// All observed conflicts (capped; see [`RaceChecker::dropped`]).
    pub fn conflicts(&self) -> &[RaceRecord] {
        &self.conflicts
    }

    /// Conflicts dropped beyond the record cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Access records dropped because an epoch hit its record cap. When
    /// nonzero, a "clean" verdict only covers the recorded prefix.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Number of epochs fully checked so far.
    pub fn epochs_sealed(&self) -> u64 {
        self.epochs_sealed
    }

    /// True when no intra-epoch cross-thread conflict was observed (and no
    /// epoch overflowed its record cap, so the verdict is complete).
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.dropped == 0 && self.saturated == 0
    }

    /// Observe one executed instruction on thread `t`. Called by
    /// [`crate::FuncSim::step_thread`] right after execution.
    pub fn observe(&mut self, t: usize, d: &DynInst, arena: &AddrArena, prog: &DecodedProgram) {
        match d.kind {
            DynKind::Barrier => {
                self.cur[t] += 1;
                self.seal_ready();
            }
            DynKind::Halt => {
                self.done[t] = true;
                self.seal_ready();
            }
            DynKind::Mem { addr, size } => {
                let write = prog.get(d.sidx as usize).class == OpClass::Store;
                self.access(t, addr, u64::from(size), d.sidx, write);
            }
            DynKind::VMem { addrs } => {
                let write = prog.get(d.sidx as usize).class == OpClass::VStore;
                // Elements are 8 bytes; unit-stride runs coalesce below.
                for &a in arena.slice(addrs) {
                    self.access(t, a, 8, d.sidx, write);
                }
            }
            _ => {}
        }
    }

    /// Record `len` bytes from `start`; an access that wraps past the top
    /// of the address space is recorded as its two pieces.
    fn access(&mut self, t: usize, start: u64, len: u64, sidx: u32, write: bool) {
        let last = start.wrapping_add(len - 1);
        if last < start {
            self.push(t, Rec { start, last: u64::MAX, sidx, write });
            self.push(t, Rec { start: 0, last, sidx, write });
        } else {
            self.push(t, Rec { start, last, sidx, write });
        }
    }

    fn push(&mut self, t: usize, r: Rec) {
        let nthr = self.cur.len();
        let per = self.epochs.entry(self.cur[t]).or_insert_with(|| vec![Vec::new(); nthr]);
        let v = &mut per[t];
        // Coalesce regular patterns: an extension of, or an exact repeat
        // of, the previous range from the same static instruction.
        if let Some(last) = v.last_mut() {
            if last.sidx == r.sidx && last.write == r.write {
                if last.last.checked_add(1) == Some(r.start) {
                    last.last = r.last;
                    return;
                }
                if last.start == r.start && last.last == r.last {
                    return;
                }
            }
        }
        if v.len() >= MAX_EPOCH_RECORDS {
            self.saturated += 1;
            return;
        }
        v.push(r);
    }

    /// Seal every epoch that no live thread can still touch.
    fn seal_ready(&mut self) {
        let live_min = self.cur.iter().zip(&self.done).filter(|&(_, d)| !d).map(|(&e, _)| e).min();
        let ready: Vec<u64> = match live_min {
            Some(m) => self.epochs.range(..m).map(|(&e, _)| e).collect(),
            None => self.epochs.keys().copied().collect(),
        };
        for e in ready {
            let per = self.epochs.remove(&e).expect("sealed epoch present");
            self.check_epoch(e, per);
            self.epochs_sealed += 1;
        }
    }

    /// Cross-compare the per-thread access sets of one sealed epoch.
    fn check_epoch(&mut self, epoch: u64, per: Vec<Vec<Rec>>) {
        let mut all: Vec<(Rec, usize)> = Vec::new();
        for (t, v) in per.into_iter().enumerate() {
            all.extend(v.into_iter().map(|r| (r, t)));
        }
        all.sort_by_key(|&(r, t)| (r.start, r.last, t));
        for i in 0..all.len() {
            let (ri, ti) = all[i];
            for &(rj, tj) in &all[i + 1..] {
                if rj.start > ri.last {
                    break;
                }
                if ti == tj || (!ri.write && !rj.write) {
                    continue;
                }
                self.emit(epoch, ri, ti, rj, tj);
            }
        }
    }

    fn emit(&mut self, epoch: u64, ra: Rec, ta: usize, rb: Rec, tb: usize) {
        if let Some(p) = &self.predictor {
            debug_assert!(
                p(ra.sidx as usize) && p(rb.sidx as usize),
                "dynamic race between #{} (thread {ta}) and #{} (thread {tb}) in epoch \
                 {epoch} was not predicted by the static race analysis",
                ra.sidx,
                rb.sidx,
            );
        }
        let key = (ra.sidx.min(rb.sidx), ra.sidx.max(rb.sidx));
        if !self.seen.insert(key) {
            return;
        }
        if self.conflicts.len() >= MAX_CONFLICTS {
            self.dropped += 1;
            return;
        }
        self.conflicts.push(RaceRecord {
            epoch,
            a: RaceSite { tid: ta, sidx: ra.sidx as usize, addr: ra.start, write: ra.write },
            b: RaceSite { tid: tb, sidx: rb.sidx as usize, addr: rb.start, write: rb.write },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcsim::FuncSim;
    use vlt_isa::asm::assemble;

    fn run_raced(src: &str, nthr: usize) -> FuncSim {
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p, nthr);
        sim.enable_race_checker(RaceConfig::default());
        sim.run_to_completion(1_000_000).unwrap();
        sim
    }

    #[test]
    fn disjoint_tid_indexed_writes_are_clean() {
        let sim = run_raced(
            ".data\nslots: .dword 0, 0\n.text\n\
             tid x1\nla x2, slots\nslli x3, x1, 3\nadd x2, x2, x3\nsd x1, 0(x2)\nhalt\n",
            2,
        );
        let rc = sim.race_checker().unwrap();
        assert!(rc.is_clean(), "{:?}", rc.conflicts());
    }

    #[test]
    fn barrier_separated_sharing_is_clean() {
        // Write own slot, barrier, read the sibling's slot: the canonical
        // legal communication pattern.
        let sim = run_raced(
            ".data\nslots: .dword 0, 0\n.text\n\
             tid x1\nla x2, slots\nslli x3, x1, 3\nadd x2, x2, x3\nsd x1, 0(x2)\n\
             barrier\n\
             li x4, 1\nsub x4, x4, x1\nslli x4, x4, 3\nla x5, slots\nadd x5, x5, x4\n\
             ld x6, 0(x5)\nhalt\n",
            2,
        );
        let rc = sim.race_checker().unwrap();
        assert!(rc.is_clean(), "{:?}", rc.conflicts());
        assert!(rc.epochs_sealed() >= 2);
    }

    #[test]
    fn same_epoch_write_write_is_flagged() {
        let sim = run_raced(".data\nx: .dword 0\n.text\ntid x1\nla x2, x\nsd x1, 0(x2)\nhalt\n", 2);
        let rc = sim.race_checker().unwrap();
        assert_eq!(rc.conflicts().len(), 1);
        let c = rc.conflicts()[0];
        assert!(c.a.write && c.b.write);
        assert_eq!(c.epoch, 0);
    }

    #[test]
    fn same_epoch_read_write_is_flagged() {
        // Thread 0 reads the word thread 1 writes, no barrier between.
        let sim = run_raced(
            ".data\nx: .dword 7\n.text\n\
             tid x1\nla x2, x\nbnez x1, writer\nld x3, 0(x2)\nsd x3, -8(sp)\nhalt\n\
             writer:\nsd x1, 0(x2)\nhalt\n",
            2,
        );
        let rc = sim.race_checker().unwrap();
        assert_eq!(rc.conflicts().len(), 1);
        let c = rc.conflicts()[0];
        assert!(c.a.write != c.b.write);
    }

    #[test]
    fn read_read_sharing_is_clean() {
        let sim = run_raced(
            ".data\nx: .dword 7\n.text\nla x2, x\nld x3, 0(x2)\nsd x3, -8(sp)\nhalt\n",
            4,
        );
        assert!(sim.race_checker().unwrap().is_clean());
    }

    #[test]
    fn vector_store_overlap_is_flagged() {
        // Both threads vst the same 4-element region in epoch 0.
        let sim = run_raced(
            ".data\nbuf: .zero 64\n.text\n\
             li x1, 4\nsetvl x2, x1\nvid v1\nla x3, buf\nvst v1, x3\nhalt\n",
            2,
        );
        let rc = sim.race_checker().unwrap();
        assert_eq!(rc.conflicts().len(), 1);
    }

    #[test]
    fn epoch_counts_are_per_thread() {
        // Thread 1 halts before the barrier; thread 0 barriers alone and
        // writes in epoch 1 what thread 1 wrote in epoch 0 — with thread 1
        // halted the access sets still live in different epochs, and the
        // checker must not deadlock waiting on the halted thread.
        let sim = run_raced(
            ".data\nx: .dword 0\n.text\n\
             tid x1\nla x2, x\nbnez x1, late\nsd x1, 0(x2)\nhalt\n\
             late:\nbarrier\nsd x1, 0(x2)\nhalt\n",
            2,
        );
        let rc = sim.race_checker().unwrap();
        // Thread 0 wrote in its epoch 0; thread 1 wrote in its epoch 1.
        assert!(rc.is_clean(), "{:?}", rc.conflicts());
    }

    #[test]
    fn wrapping_load_is_clean() {
        // Bytes 2^64-4..2^64 and 0..4, read by both threads.
        let sim = run_raced("li x1, -4\nld x2, 0(x1)\nhalt\n", 2);
        let rc = sim.race_checker().unwrap();
        assert!(rc.is_clean(), "{:?}", rc.conflicts());
    }

    #[test]
    fn wrapping_store_conflicts_past_the_top() {
        // Thread 0 stores 8 bytes at -4, thread 1 at 0: they share bytes
        // 0..4, the piece of thread 0's store past the top.
        let sim =
            run_raced("tid x1\nli x2, -4\nbeqz x1, go\nli x2, 0\ngo:\nsd x1, 0(x2)\nhalt\n", 2);
        let rc = sim.race_checker().unwrap();
        assert_eq!(rc.conflicts().len(), 1);
        let c = rc.conflicts()[0];
        assert!(c.a.write && c.b.write);
        assert_eq!((c.a.addr, c.b.addr), (0, 0));
        assert_eq!(c.epoch, 0);
    }

    #[test]
    fn predictor_accepts_predicted_conflicts() {
        let p =
            assemble(".data\nx: .dword 0\n.text\ntid x1\nla x2, x\nsd x1, 0(x2)\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 2);
        sim.enable_race_checker(RaceConfig { predictor: Some(Box::new(|_| true)) });
        sim.run_to_completion(1000).unwrap();
        assert_eq!(sim.race_checker().unwrap().conflicts().len(), 1);
    }

    #[test]
    #[should_panic(expected = "was not predicted")]
    #[cfg(debug_assertions)]
    fn predictor_rejects_unpredicted_conflicts() {
        let p =
            assemble(".data\nx: .dword 0\n.text\ntid x1\nla x2, x\nsd x1, 0(x2)\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 2);
        sim.enable_race_checker(RaceConfig { predictor: Some(Box::new(|_| false)) });
        let _ = sim.run_to_completion(1000);
    }
}
