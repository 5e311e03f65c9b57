//! Content-aware analysis support (DESIGN.md §14).
//!
//! The affine footprint machinery reasons about *index expressions*; this
//! module adds the two facilities that let the race analysis reason about
//! *values flowing through memory*:
//!
//! * [`DataHull`] — chunked min/max summaries of the initial data image,
//!   so a vector load over a statically bounded address window folds to a
//!   bounded value hull without rescanning the image on every fixpoint
//!   sweep ([`crate::footprint`]'s `try_vfold`), and [`Overlay`] — the
//!   address spans the program's stores may touch, built by `races` from
//!   the converged per-thread runs. A load folds against the image only
//!   when no store may touch its span, so "an indexed access through a
//!   read-only table is bounded by the table's contents" is a static fact.
//!
//! * [`observe`] — the *epoch-synchronous observed walk*, the race
//!   analysis's one certifier: a concrete execution under
//!   [`vlt_exec::FuncSim`] that checks each barrier epoch's per-thread
//!   read and write byte sets for a same-epoch cross-thread conflict as
//!   soon as the walk leaves the epoch, then frees them.
//!
//! # Soundness of the observed walk
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
//! races. Any conflict, fault, or budget exhaustion makes [`observe`]
//! return `false` — the analysis claims nothing and the symbolic
//! diagnostics stand.

use vlt_exec::{DynKind, EngineMode, FuncSim, Step};
use vlt_isa::{OpClass, Program, DATA_BASE};

// ---------------------------------------------------------------------------
// Static half: data-image value hulls and the store-span overlay
// ---------------------------------------------------------------------------

/// Words per summary chunk (64 dwords = 512 bytes).
const CHUNK: usize = 64;

/// Chunked min/max summaries of the initial data image, interpreted as
/// little-endian dwords. `None` chunks contain a word outside `i64` range
/// (the fold machinery never claims a bound for those).
pub(crate) struct DataHull {
    chunks: Vec<Option<(i64, i64)>>,
    words: usize,
}

impl DataHull {
    pub(crate) fn new(data: &[u8]) -> DataHull {
        let words = data.len() / 8;
        let mut chunks = Vec::with_capacity(words.div_ceil(CHUNK));
        for c in 0..words.div_ceil(CHUNK) {
            let mut hull: Option<(i64, i64)> = Some((i64::MAX, i64::MIN));
            for w in (c * CHUNK)..((c + 1) * CHUNK).min(words) {
                let bytes: [u8; 8] = data[w * 8..w * 8 + 8].try_into().unwrap();
                match (i64::try_from(u64::from_le_bytes(bytes)).ok(), &mut hull) {
                    (Some(v), Some((lo, hi))) => {
                        *lo = (*lo).min(v);
                        *hi = (*hi).max(v);
                    }
                    _ => hull = None,
                }
            }
            chunks.push(hull);
        }
        DataHull { chunks, words }
    }

    /// Value hull of every 8-aligned dword whose start address lies in the
    /// inclusive `[lo, hi]` window (absolute addresses). `None` when the
    /// window is empty, touches uninitialized/out-of-image bytes, or
    /// contains a word outside `i64` range. Ignores any stride structure
    /// of the enumerating form — a superset of addresses gives a superset
    /// hull, which is sound.
    pub(crate) fn hull(&self, lo: i64, hi: i64) -> Option<(i64, i64)> {
        let base = DATA_BASE as i64;
        if lo > hi || lo % 8 != 0 || lo < base {
            return None;
        }
        let (w0, w1) = (((lo - base) / 8) as usize, ((hi - base) / 8) as usize);
        if w1 >= self.words {
            return None;
        }
        let (mut vmin, mut vmax) = (i64::MAX, i64::MIN);
        for c in (w0 / CHUNK)..=(w1 / CHUNK) {
            let (lo_c, hi_c) = self.chunks[c]?;
            // Partial chunks at the window edges still use the whole-chunk
            // summary: a wider hull is sound and keeps queries O(chunks).
            vmin = vmin.min(lo_c);
            vmax = vmax.max(hi_c);
        }
        Some((vmin, vmax))
    }
}

/// The address spans the program's stores may touch. Built by `races`
/// from converged per-thread runs; the fold machinery folds a load against
/// the initial data image only when no span reaches it.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Overlay {
    /// A store with an unboundable address exists: every byte of memory
    /// may hold an untracked value.
    pub poisoned: bool,
    /// `[addr_lo, addr_hi)` per bounded store.
    pub spans: Vec<(i64, i64)>,
}

impl Overlay {
    /// May a store write into the byte window `[lo, hi_ex)`?
    pub(crate) fn touches(&self, lo: i64, hi_ex: i64) -> bool {
        self.poisoned || self.spans.iter().any(|&(slo, shi)| slo < hi_ex && lo < shi)
    }
}

// ---------------------------------------------------------------------------
// Dynamic half: the epoch-synchronous observed walk
// ---------------------------------------------------------------------------

/// Byte ranges `[lo, hi)` one thread touched in the current epoch: sorted
/// and coalesced after [`ByteSet::compact`], append-only in between.
#[derive(Default)]
struct ByteSet {
    ranges: Vec<(u64, u64)>,
    /// Length after the last compaction; appending past twice that (or
    /// past a floor) compacts again, so the list stays within a constant
    /// factor of its coalesced size.
    compacted: usize,
}

impl ByteSet {
    fn add(&mut self, lo: u64, hi: u64) {
        // Unit-stride runs extend the last range in place.
        if let Some(last) = self.ranges.last_mut() {
            if last.0 <= hi && lo <= last.1 {
                *last = (last.0.min(lo), last.1.max(hi));
                return;
            }
        }
        self.ranges.push((lo, hi));
        if self.ranges.len() >= 2 * self.compacted.max(1024) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.ranges.sort_unstable();
        self.ranges.dedup_by(|next, prev| {
            let touch = next.0 <= prev.1;
            if touch {
                prev.1 = prev.1.max(next.1);
            }
            touch
        });
        self.compacted = self.ranges.len();
    }

    /// Do two compacted sets share a byte?
    fn meets(&self, other: &ByteSet) -> bool {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].0 < b[j].1 && b[j].0 < a[i].1 {
                return true;
            }
            if a[i].1 <= b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

/// One thread's reads and writes in the current epoch.
#[derive(Default)]
struct EpochSets {
    reads: ByteSet,
    writes: ByteSet,
}

/// Compact every thread's sets and look for a same-epoch cross-thread
/// overlap involving a write. Read/read sharing is fine.
fn epoch_conflict(sets: &mut [EpochSets]) -> bool {
    for s in sets.iter_mut() {
        s.reads.compact();
        s.writes.compact();
    }
    sets.iter().enumerate().any(|(i, a)| {
        sets[i + 1..].iter().any(|b| {
            a.writes.meets(&b.writes) || a.writes.meets(&b.reads) || a.reads.meets(&b.writes)
        })
    })
}

/// Run the program concretely at `threads` threads (interpreter engine,
/// round-robin batched to barriers — the canonical schedule) and report
/// whether the walk completes within `budget` steps with no same-epoch
/// cross-thread conflict. A round runs every live thread to its next
/// barrier or halt, so one round is one barrier epoch: its access sets are
/// checked and dropped before the next round starts. `true` proves every
/// interleaving race-free (see the module docs).
pub(crate) fn observe(prog: &Program, threads: usize, budget: u64) -> bool {
    if threads == 0 || threads > FuncSim::MAX_THREADS || prog.text.is_empty() {
        return false;
    }
    let mut sim = FuncSim::new(prog, threads).with_engine(EngineMode::Interp);
    let mut steps = 0u64;
    while !sim.all_halted() {
        let mut sets: Vec<EpochSets> = (0..threads).map(|_| EpochSets::default()).collect();
        let mut progressed = false;
        for (t, set) in sets.iter_mut().enumerate() {
            loop {
                let d = match sim.step_thread(t) {
                    Ok(Step::Inst(d)) => d,
                    Ok(Step::AtBarrier | Step::Halted) => break,
                    Err(_) => return false,
                };
                progressed = true;
                steps += 1;
                if steps > budget {
                    return false;
                }
                let (addrs, size) = match &d.kind {
                    DynKind::Barrier | DynKind::Halt => break,
                    DynKind::Mem { addr, size } => (std::slice::from_ref(addr), u64::from(*size)),
                    DynKind::VMem { addrs } => (sim.addrs(*addrs), 8),
                    _ => continue,
                };
                let bytes = match sim.prog.get(d.sidx as usize).class {
                    OpClass::Store | OpClass::VStore => &mut set.writes,
                    _ => &mut set.reads,
                };
                for &a in addrs {
                    let Some(end) = a.checked_add(size) else { return false };
                    bytes.add(a, end);
                }
            }
        }
        if !progressed {
            return false; // barrier deadlock: claim nothing
        }
        if epoch_conflict(&mut sets) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    /// Observe `body` at two threads over a 32-byte `xs` table.
    fn certified(body: &str) -> bool {
        let src = format!(".data\nxs: .space 32\n.text\ntid x1\nla x2, xs\n{body}");
        observe(&assemble(&src).unwrap(), 2, 100_000)
    }

    #[test]
    fn byte_sets_coalesce_and_meet() {
        let mut a = ByteSet::default();
        for (lo, hi) in [(8, 16), (0, 4), (16, 24), (4, 8), (40, 48)] {
            a.add(lo, hi);
        }
        a.compact();
        assert_eq!(a.ranges, vec![(0, 24), (40, 48)]);
        let mut b = ByteSet::default();
        for i in 0..4096 {
            b.add(1000 + 16 * i, 1008 + 16 * i);
        }
        b.compact();
        assert_eq!(b.ranges.len(), 4096, "strided bytes stay distinct");
        let mut c = ByteSet::default();
        c.add(24, 40);
        c.add(48, 1000);
        c.compact();
        assert!(!a.meets(&c) && !c.meets(&a));
        c.add(23, 24);
        c.compact();
        assert!(a.meets(&c) && c.meets(&a));
        assert!(!a.meets(&ByteSet::default()));
    }

    #[test]
    fn data_hull_summaries() {
        let mut data = Vec::new();
        for v in [5i64, 3, 1000, 7] {
            data.extend_from_slice(&(v as u64).to_le_bytes());
        }
        let h = DataHull::new(&data);
        let b = DATA_BASE as i64;
        assert_eq!(h.hull(b, b + 24), Some((3, 1000)));
        assert_eq!(h.hull(b, b + 32), None, "off the end");
        assert_eq!(h.hull(b + 4, b + 8), None, "misaligned window");
    }

    #[test]
    fn data_hull_rejects_non_i64_words() {
        let data = u64::MAX.to_le_bytes().to_vec();
        let h = DataHull::new(&data);
        assert_eq!(h.hull(DATA_BASE as i64, DATA_BASE as i64), None);
    }

    #[test]
    fn overlay_queries() {
        let ov = Overlay { poisoned: false, spans: vec![(100, 108), (200, 216)] };
        assert!(!ov.touches(0, 100), "a window ending at a span is untouched");
        assert!(ov.touches(104, 112));
        assert!(ov.touches(0, 1000));
        assert!(!ov.touches(108, 200), "the gap between spans");
        assert!(!Overlay::default().touches(0, 1000));
        assert!(Overlay { poisoned: true, ..Default::default() }.touches(0, 0));
    }

    #[test]
    fn observe_disjoint_tiles_is_some() {
        let src = ".data\nxs: .space 128\n.text\n\
                   tid x1\nla x2, xs\nslli x3, x1, 3\nadd x2, x2, x3\n\
                   sd x1, 0(x2)\nbarrier\nld x4, 0(x2)\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(observe(&prog, 2, 100_000), "disjoint tiles are conflict-free");
    }

    #[test]
    fn observe_same_epoch_conflict_is_none() {
        let src = ".data\nxs: .dword 0\n.text\n\
                   la x2, xs\ntid x1\nsd x1, 0(x2)\nbarrier\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(!observe(&prog, 2, 100_000), "same-slot writes conflict");
        assert!(observe(&prog, 1, 100_000), "single thread cannot conflict");
    }

    #[test]
    fn observe_barrier_separated_flag_is_some() {
        // Thread 0 stores a flag thread 1 branches on after the barrier.
        // The DLP walker's shared pass refuses this program (a value
        // another thread wrote steers control), but the communication is
        // barrier-separated, so the observed walk certifies it.
        let src = ".data\nflag: .dword 0\n.text\n\
                   tid x1\nla x2, flag\nbne x1, x0, reader\n\
                   li x3, 1\nsd x3, 0(x2)\nbarrier\nhalt\n\
                   reader:\nbarrier\nld x4, 0(x2)\nbne x4, x0, done\ndone:\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(observe(&prog, 2, 100_000));
    }

    #[test]
    fn observe_same_epoch_steering_is_none() {
        // Both threads write the steering slot in the same epoch and then
        // load it back to index another access: a write/write conflict.
        let src = ".data\nidx: .dword 0\nxs: .space 64\n.text\n\
                   tid x1\nla x2, idx\nsd x1, 0(x2)\nld x3, 0(x2)\n\
                   la x4, xs\nslli x5, x3, 3\nadd x4, x4, x5\nld x6, 0(x4)\n\
                   barrier\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(!observe(&prog, 2, 20_000_000));
    }

    #[test]
    fn observe_checks_every_epoch_including_the_last() {
        // Disjoint words in epochs 0 and 1, then the same word in epoch 2.
        assert!(!certified(
            "slli x3, x1, 3\nadd x3, x2, x3\nsd x1, 0(x3)\nbarrier\n\
             sd x1, 16(x3)\nbarrier\nsd x1, 0(x2)\nhalt\n"
        ));
    }

    #[test]
    fn observe_keeps_epochs_apart() {
        // Thread 0 writes the word in epoch 0, thread 1 in epoch 1.
        assert!(certified(
            "bnez x1, late\nsd x1, 0(x2)\nbarrier\nhalt\n\
             late:\nbarrier\nsd x1, 0(x2)\nhalt\n"
        ));
    }

    #[test]
    fn observe_orders_a_halt_before_the_barrier_it_releases() {
        // Thread 1 writes the word and halts while thread 0 waits at the
        // barrier; the halt releases it, and thread 0 writes the word.
        assert!(certified(
            "bnez x1, one\nbarrier\nsd x1, 0(x2)\nhalt\n\
             one:\nsd x1, 0(x2)\nhalt\n"
        ));
    }

    #[test]
    fn observe_refuses_a_conflict_before_a_halt() {
        // Both threads write the word in epoch 0; then thread 1 halts.
        assert!(!certified("sd x1, 0(x2)\nbnez x1, done\nbarrier\ndone:\nhalt\n"));
    }

    #[test]
    fn observe_budget_and_faults_give_none() {
        let p = assemble("loop:\nj loop\n").unwrap();
        assert!(!observe(&p, 1, 1000));
        let p2 = assemble("jr x5\n").unwrap(); // wild jump faults
        assert!(!observe(&p2, 1, 1000));
        let p3 = assemble("halt\n").unwrap();
        assert!(!observe(&p3, FuncSim::MAX_THREADS + 1, 1000), "more threads than FuncSim runs");
    }
}
