//! The epoch-synchronous observed walk: the whole race analysis behind
//! `check_races` (DESIGN.md §7, §14).
//!
//! [`observe`] runs the program concretely under [`vlt_exec::FuncSim`]'s
//! interpreter on the *canonical schedule*: round-robin, each live thread
//! stepped to its next barrier or halt, so one round is one barrier epoch.
//! When the walk leaves an epoch it compares each thread's read and write
//! byte sets with every other thread's and frees them. The first epoch
//! with a cross-thread overlap involving a write ends the walk; a second
//! walk to that epoch tags every access with its site, so the report can
//! name the instructions that conflict.
//!
//! # Soundness
//!
//! Programs are deterministic given a schedule; the only nondeterminism is
//! the interleaving of threads between barriers. Induction over barrier
//! epochs: suppose every epoch `< k` of the canonical walk is conflict-free
//! (no same-epoch cross-thread overlap with a write, compared as *sets*,
//! so the claim is order-independent within the epoch). Then memory at the
//! start of epoch `k` is the same under every schedule, each thread's
//! epoch-`k` execution depends only on that state and its own private
//! state, and the epoch-`k` access sets are schedule-independent. A
//! conflict-free *complete* walk therefore proves that no interleaving
//! races, and the first conflict the walk finds is there under every
//! schedule. A fault, a walk past its step budget, more threads than
//! `FuncSim` runs, or a text word that does not decode gives no verdict.

use std::collections::BTreeMap;

use vlt_exec::{DynKind, EngineMode, FuncSim, Step};
use vlt_isa::{OpClass, Program};

/// Inclusive byte ranges `[lo, last]` one thread touched in the current
/// epoch, each under a key: `()` when only the bytes matter, the site and
/// direction when the report needs them. Sorted by key and coalesced
/// after [`ByteSet::compact`], append-only in between.
#[derive(Default)]
struct ByteSet<K> {
    ranges: Vec<(K, u64, u64)>,
    /// Length after the last compaction; appending past twice that (or
    /// past a floor) compacts again, so the list stays within a constant
    /// factor of its coalesced size.
    compacted: usize,
}

impl<K: Copy + Ord> ByteSet<K> {
    fn add(&mut self, key: K, lo: u64, last: u64) {
        // Unit-stride runs extend the last range in place.
        if let Some(r) = self.ranges.last_mut() {
            if r.0 == key && r.1 <= last.saturating_add(1) && lo <= r.2.saturating_add(1) {
                *r = (key, r.1.min(lo), r.2.max(last));
                return;
            }
        }
        self.ranges.push((key, lo, last));
        if self.ranges.len() >= 2 * self.compacted.max(1024) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.ranges.sort_unstable();
        self.ranges.dedup_by(|next, prev| {
            let touch = next.0 == prev.0 && next.1 <= prev.2.saturating_add(1);
            if touch {
                prev.2 = prev.2.max(next.2);
            }
            touch
        });
        self.compacted = self.ranges.len();
    }

    fn clear(&mut self) {
        self.ranges.clear();
        self.compacted = 0;
    }
}

impl ByteSet<()> {
    /// Do two compacted sets share a byte?
    fn meets(&self, other: &ByteSet<()>) -> bool {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].1 <= b[j].2 && b[j].1 <= a[i].2 {
                return true;
            }
            if a[i].2 <= b[j].2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

/// What a walk does with each epoch's accesses.
trait Recorder {
    /// Thread `tid`'s access at site `sidx` to the bytes `[lo, last]`.
    fn access(&mut self, epoch: u64, tid: usize, sidx: u32, write: bool, lo: u64, last: u64);
    /// Epoch `epoch` is over; `true` ends the walk there.
    fn end(&mut self, epoch: u64) -> bool;
}

/// Step `prog` at `threads` threads on the canonical schedule, handing
/// every memory access to `rec` (an access that wraps past the top of the
/// address space as its two pieces). `Ok(None)`: every thread halted;
/// `Ok(Some(k))`: `rec` ended the walk after epoch `k`; `Err`: the cause
/// of no verdict.
fn walk(
    prog: &Program,
    threads: usize,
    budget: u64,
    rec: &mut impl Recorder,
) -> Result<Option<u64>, String> {
    let mut sim = FuncSim::new(prog, threads).with_engine(EngineMode::Interp);
    let (mut steps, mut epoch) = (0u64, 0u64);
    while !sim.all_halted() {
        let start = steps;
        for t in 0..threads {
            loop {
                let d = match sim.step_thread(t) {
                    Ok(Step::Inst(d)) => d,
                    Ok(Step::AtBarrier | Step::Halted) => break,
                    Err(e) => {
                        return Err(format!("the walk faulted in barrier epoch {epoch}: {e}"))
                    }
                };
                steps += 1;
                if steps > budget {
                    return Err(format!(
                        "the walk ran past its {budget}-step budget in barrier epoch {epoch}"
                    ));
                }
                let (addrs, size) = match &d.kind {
                    DynKind::Barrier | DynKind::Halt => break,
                    DynKind::Mem { addr, size } => (std::slice::from_ref(addr), u64::from(*size)),
                    DynKind::VMem { addrs } => (sim.addrs(*addrs), 8),
                    _ => continue,
                };
                let class = sim.prog.get(d.sidx as usize).class;
                let write = matches!(class, OpClass::Store | OpClass::VStore);
                for &a in addrs {
                    let last = a.wrapping_add(size - 1);
                    if last < a {
                        rec.access(epoch, t, d.sidx, write, a, u64::MAX);
                        rec.access(epoch, t, d.sidx, write, 0, last);
                    } else {
                        rec.access(epoch, t, d.sidx, write, a, last);
                    }
                }
            }
        }
        if steps == start {
            // Every live thread parked and the barrier never opened:
            // impossible by construction, but guard against hangs.
            unreachable!("barrier deadlock with live threads");
        }
        if rec.end(epoch) {
            return Ok(Some(epoch));
        }
        epoch += 1;
    }
    Ok(None)
}

/// The certifying pass: each thread's reads and writes in the current
/// epoch, as untagged bytes.
struct Certify {
    sets: Vec<[ByteSet<()>; 2]>,
}

impl Recorder for Certify {
    fn access(&mut self, _: u64, tid: usize, _: u32, write: bool, lo: u64, last: u64) {
        self.sets[tid][usize::from(write)].add((), lo, last);
    }

    /// Does any write of one thread meet a read or write of another?
    /// Read/read sharing is fine.
    fn end(&mut self, _: u64) -> bool {
        for s in self.sets.iter_mut().flatten() {
            s.compact();
        }
        let hit = self.sets.iter().enumerate().any(|(i, [ar, aw])| {
            self.sets[i + 1..].iter().any(|[br, bw]| aw.meets(bw) || aw.meets(br) || ar.meets(bw))
        });
        for s in self.sets.iter_mut().flatten() {
            s.clear();
        }
        hit
    }
}

/// The reporting pass: each thread's accesses in epoch `epoch`, under
/// their site and direction.
struct Tag {
    epoch: u64,
    sets: Vec<ByteSet<(u32, bool)>>,
}

impl Recorder for Tag {
    fn access(&mut self, epoch: u64, tid: usize, sidx: u32, write: bool, lo: u64, last: u64) {
        if epoch == self.epoch {
            self.sets[tid].add((sidx, write), lo, last);
        }
    }

    fn end(&mut self, epoch: u64) -> bool {
        epoch == self.epoch
    }
}

/// One side of a conflict: a thread's access at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Side {
    pub tid: usize,
    pub sidx: usize,
    pub write: bool,
}

impl Tag {
    /// Every conflict of the epoch, once per unordered pair of sites and
    /// kind (both write or not): the pair of lowest thread ids, the lower
    /// thread first. Ordered by sites.
    fn conflicts(mut self) -> Vec<(Side, Side)> {
        let mut all = Vec::new();
        for (tid, set) in self.sets.iter_mut().enumerate() {
            set.compact();
            all.extend(set.ranges.iter().map(|&((sidx, write), lo, last)| {
                (lo, last, Side { tid, sidx: sidx as usize, write })
            }));
        }
        all.sort_unstable();
        let mut found: BTreeMap<(usize, usize, bool), (Side, Side)> = BTreeMap::new();
        for (i, &(_, last, a)) in all.iter().enumerate() {
            for &(lo, _, b) in &all[i + 1..] {
                if lo > last {
                    break;
                }
                if a.tid == b.tid || !(a.write || b.write) {
                    continue;
                }
                let pair = if a.tid < b.tid { (a, b) } else { (b, a) };
                let key = (a.sidx.min(b.sidx), a.sidx.max(b.sidx), a.write && b.write);
                found.entry(key).and_modify(|p| *p = (*p).min(pair)).or_insert(pair);
            }
        }
        found.into_values().collect()
    }
}

/// The verdict of the observed walk.
#[derive(Debug, PartialEq)]
pub(crate) enum Walk {
    /// Every thread halted and every epoch was conflict-free: no
    /// interleaving races.
    Clean,
    /// `epoch` is the first epoch with a conflict; `pairs` are its
    /// conflicting accesses (see [`Tag::conflicts`]).
    Race { epoch: u64, pairs: Vec<(Side, Side)> },
    /// No verdict, for the named cause.
    Unknown(String),
}

/// Walk `prog` at `threads` threads within `budget` interpreter steps and
/// decide whether any interleaving races (see the module docs).
pub(crate) fn observe(prog: &Program, threads: usize, budget: u64) -> Walk {
    if threads > FuncSim::MAX_THREADS {
        let max = FuncSim::MAX_THREADS;
        return Walk::Unknown(format!("{threads} threads exceed the {max} the walk can run"));
    }
    if let Some(cause) = crate::undecodable(prog) {
        return Walk::Unknown(cause);
    }
    let mut certify = Certify { sets: (0..threads).map(|_| Default::default()).collect() };
    match walk(prog, threads, budget, &mut certify) {
        Ok(None) => Walk::Clean,
        Err(cause) => Walk::Unknown(cause),
        Ok(Some(epoch)) => {
            // The walk is deterministic: a second one reaches the same
            // epoch within the same budget.
            let mut tag = Tag { epoch, sets: (0..threads).map(|_| Default::default()).collect() };
            let again = walk(prog, threads, budget, &mut tag);
            debug_assert_eq!(again, Ok(Some(epoch)));
            Walk::Race { epoch, pairs: tag.conflicts() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    /// Observe `body` at two threads over a 32-byte `xs` table.
    fn walk2(body: &str) -> Walk {
        let src = format!(".data\nxs: .space 32\n.text\ntid x1\nla x2, xs\n{body}");
        observe(&assemble(&src).unwrap(), 2, 100_000)
    }

    fn side(tid: usize, sidx: usize, write: bool) -> Side {
        Side { tid, sidx, write }
    }

    #[test]
    fn byte_sets_coalesce_and_meet() {
        let mut a = ByteSet::default();
        for (lo, last) in [(8, 15), (0, 3), (16, 23), (4, 7), (40, 47)] {
            a.add((), lo, last);
        }
        a.compact();
        assert_eq!(a.ranges, vec![((), 0, 23), ((), 40, 47)]);
        let mut b = ByteSet::default();
        for i in 0..4096 {
            b.add((), 1000 + 16 * i, 1007 + 16 * i);
        }
        b.compact();
        assert_eq!(b.ranges.len(), 4096, "strided bytes stay distinct");
        let mut c = ByteSet::default();
        c.add((), 24, 39);
        c.add((), 48, 999);
        c.compact();
        assert!(!a.meets(&c) && !c.meets(&a));
        c.add((), 23, 23);
        c.compact();
        assert!(a.meets(&c) && c.meets(&a));
        assert!(!a.meets(&ByteSet::default()));
    }

    #[test]
    fn byte_sets_keep_keys_apart_and_reach_the_top_byte() {
        let mut s = ByteSet::default();
        s.add(1u32, 0, 7);
        s.add(2, 8, 15);
        s.add(1, 8, 15);
        s.add(1, u64::MAX - 7, u64::MAX);
        s.add(1, u64::MAX, u64::MAX);
        s.compact();
        assert_eq!(s.ranges, vec![(1, 0, 15), (1, u64::MAX - 7, u64::MAX), (2, 8, 15)]);
        let mut top = ByteSet::default();
        top.add((), u64::MAX, u64::MAX);
        let mut low = ByteSet::default();
        low.add((), 0, u64::MAX - 1);
        top.compact();
        low.compact();
        assert!(!top.meets(&low));
    }

    #[test]
    fn disjoint_tiles_are_clean() {
        let src = ".data\nxs: .space 128\n.text\n\
                   tid x1\nla x2, xs\nslli x3, x1, 3\nadd x2, x2, x3\n\
                   sd x1, 0(x2)\nbarrier\nld x4, 0(x2)\nhalt\n";
        let prog = assemble(src).unwrap();
        assert_eq!(observe(&prog, 2, 100_000), Walk::Clean, "disjoint tiles are conflict-free");
    }

    #[test]
    fn same_epoch_writes_race_and_name_both_threads() {
        let src = ".data\nxs: .dword 0\n.text\n\
                   la x2, xs\ntid x1\nsd x1, 0(x2)\nbarrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let pairs = vec![(side(0, 3, true), side(1, 3, true))];
        assert_eq!(observe(&prog, 4, 100_000), Walk::Race { epoch: 0, pairs });
        assert_eq!(observe(&prog, 1, 100_000), Walk::Clean, "one thread cannot conflict");
    }

    #[test]
    fn barrier_separated_flag_is_clean() {
        // Thread 0 stores a flag thread 1 branches on after the barrier.
        // The DLP walker's shared pass refuses this program (a value
        // another thread wrote steers control), but the communication is
        // barrier-separated, so the observed walk certifies it.
        let src = ".data\nflag: .dword 0\n.text\n\
                   tid x1\nla x2, flag\nbne x1, x0, reader\n\
                   li x3, 1\nsd x3, 0(x2)\nbarrier\nhalt\n\
                   reader:\nbarrier\nld x4, 0(x2)\nbne x4, x0, done\ndone:\nhalt\n";
        let prog = assemble(src).unwrap();
        assert_eq!(observe(&prog, 2, 100_000), Walk::Clean);
    }

    #[test]
    fn same_epoch_steering_races() {
        // Both threads write the steering slot in the same epoch and then
        // load it back to index another access: a write/write conflict,
        // and a read/write one between the load and the other store.
        let src = ".data\nidx: .dword 0\nxs: .space 64\n.text\n\
                   tid x1\nla x2, idx\nsd x1, 0(x2)\nld x3, 0(x2)\n\
                   la x4, xs\nslli x5, x3, 3\nadd x4, x4, x5\nld x6, 0(x4)\n\
                   barrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let pairs =
            vec![(side(0, 3, true), side(1, 3, true)), (side(0, 3, true), side(1, 4, false))];
        assert_eq!(observe(&prog, 2, 20_000_000), Walk::Race { epoch: 0, pairs });
    }

    #[test]
    fn every_epoch_is_checked_including_the_last() {
        // Disjoint words in epochs 0 and 1, then the same word in epoch 2.
        let w = walk2(
            "slli x3, x1, 3\nadd x3, x2, x3\nsd x1, 0(x3)\nbarrier\n\
             sd x1, 16(x3)\nbarrier\nsd x1, 0(x2)\nhalt\n",
        );
        assert_eq!(w, Walk::Race { epoch: 2, pairs: vec![(side(0, 9, true), side(1, 9, true))] });
    }

    #[test]
    fn epochs_stay_apart() {
        // Thread 0 writes the word in epoch 0, thread 1 in epoch 1.
        let w = walk2(
            "bnez x1, late\nsd x1, 0(x2)\nbarrier\nhalt\n\
             late:\nbarrier\nsd x1, 0(x2)\nhalt\n",
        );
        assert_eq!(w, Walk::Clean);
    }

    #[test]
    fn a_halt_orders_before_the_barrier_it_releases() {
        // Thread 1 writes the word and halts while thread 0 waits at the
        // barrier; the halt releases it, and thread 0 writes the word.
        let w = walk2(
            "bnez x1, one\nbarrier\nsd x1, 0(x2)\nhalt\n\
             one:\nsd x1, 0(x2)\nhalt\n",
        );
        assert_eq!(w, Walk::Clean);
    }

    #[test]
    fn a_read_of_another_threads_write_races() {
        // Thread 0 loads the word thread 1 stores in the same epoch; no
        // two writes meet.
        let w = walk2("bnez x1, one\nld x3, 0(x2)\nhalt\none:\nsd x1, 0(x2)\nhalt\n");
        assert_eq!(w, Walk::Race { epoch: 0, pairs: vec![(side(0, 4, false), side(1, 6, true))] });
    }

    #[test]
    fn a_conflict_before_a_halt_races() {
        // Both threads write the word in epoch 0; then thread 1 halts.
        let w = walk2("sd x1, 0(x2)\nbnez x1, done\nbarrier\ndone:\nhalt\n");
        assert_eq!(w, Walk::Race { epoch: 0, pairs: vec![(side(0, 3, true), side(1, 3, true))] });
    }

    #[test]
    fn a_wrapping_access_counts_as_its_two_pieces() {
        // Thread 0's dword at -4 covers the top four bytes and bytes 0..4;
        // thread 1 writes byte 2, so the two race.
        let w = walk2(
            "bnez x1, one\nli x3, -4\nsd x1, 0(x3)\nhalt\n\
             one:\nli x3, 2\nsb x1, 0(x3)\nhalt\n",
        );
        assert_eq!(w, Walk::Race { epoch: 0, pairs: vec![(side(0, 5, true), side(1, 8, true))] });
        let w = walk2(
            "bnez x1, one\nli x3, -4\nsd x1, 0(x3)\nhalt\n\
             one:\nli x3, 4\nsb x1, 0(x3)\nhalt\n",
        );
        assert_eq!(w, Walk::Clean, "byte 4 lies past the wrapped piece");
    }

    #[test]
    fn budget_faults_and_thread_counts_give_no_verdict() {
        let cause = |w: Walk| match w {
            Walk::Unknown(c) => c,
            w => panic!("expected no verdict, got {w:?}"),
        };
        let p = assemble("loop:\nj loop\n").unwrap();
        let c = cause(observe(&p, 2, 1000));
        assert!(c.contains("1000-step budget in barrier epoch 0"), "{c}");
        let p = assemble("tid x1\nsetvl x2, x1\nhalt\n").unwrap(); // thread 0 asks for 0
        let c = cause(observe(&p, 2, 1000));
        assert!(c.contains("faulted in barrier epoch 0") && c.contains("setvl of 0"), "{c}");
        let p = assemble("halt\n").unwrap();
        let c = cause(observe(&p, FuncSim::MAX_THREADS + 1, 1000));
        assert!(c.contains("65 threads exceed the 64"), "{c}");
    }
}
