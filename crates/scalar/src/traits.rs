//! Interfaces between the scalar cores, the instruction source (the
//! functional simulator), and the vector unit.

use vlt_exec::{AddrRange, DynInst, ExecError};
use vlt_isa::OpClass;

/// What the front end got when it asked for the next instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FetchResult {
    /// The next correct-path instruction.
    Inst(DynInst),
    /// The thread is parked at a barrier; retry next cycle.
    AtBarrier,
    /// The thread has halted; no more instructions.
    Halted,
}

/// Supplies the correct-path dynamic instruction stream for one software
/// thread. Implemented over [`vlt_exec::FuncSim`] by the system simulator.
pub trait FetchSource {
    /// Pull the next instruction for software thread `thread`.
    fn fetch(&mut self, thread: usize) -> Result<FetchResult, ExecError>;

    /// Non-consuming probe: true when `thread`'s next [`FetchSource::fetch`]
    /// is guaranteed to return [`FetchResult::AtBarrier`] — the thread is
    /// parked at an unopened barrier and only another thread's progress can
    /// wake it. The event-driven driver uses this to let a front end sleep
    /// without pulling from the stream. The default ("never parked") is
    /// always safe: it only forfeits sleeping.
    fn parked(&self, _thread: usize) -> bool {
        false
    }
}

/// Fold a candidate event cycle into a running `Option<u64>` minimum —
/// shared by the timed units' `next_event` implementations.
#[inline]
pub fn fold_event(ev: &mut Option<u64>, t: u64) {
    *ev = Some(match *ev {
        Some(e) => e.min(t),
        None => t,
    });
}

/// Software thread `t`'s bit in a set of threads: every bit for a thread
/// past 63, so a set never misses one.
#[inline]
pub fn thread_bit(t: usize) -> u64 {
    u32::try_from(t).ok().and_then(|t| 1u64.checked_shl(t)).unwrap_or(u64::MAX)
}

/// Opaque handle for a vector instruction in flight in the vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecToken(pub u64);

/// Most registers one instruction reads (a masked `vfma.vv`: `vd`, `vs1`,
/// `vs2`, `vl`, `vm`), so most producers one instruction can wait on.
pub const MAX_SRCS: usize = 5;

/// A set of at most [`MAX_SRCS`] producer seqs, held inline, so handing a
/// vector instruction to the vector unit allocates nothing. Reads through
/// its slice of members, in no particular order.
#[derive(Clone, Copy)]
pub struct DepSet {
    len: u8,
    seqs: [u64; MAX_SRCS],
}

impl DepSet {
    /// The empty set.
    pub const EMPTY: DepSet = DepSet { len: 0, seqs: [0; MAX_SRCS] };

    /// Add `seq`; false if it was already a member. Panics on a member
    /// past [`MAX_SRCS`].
    pub fn insert(&mut self, seq: u64) -> bool {
        if self.contains(&seq) {
            return false;
        }
        self.seqs[usize::from(self.len)] = seq;
        self.len += 1;
        true
    }

    /// Remove `seq`; false if it was not a member.
    pub fn remove(&mut self, seq: u64) -> bool {
        let Some(pos) = self.iter().position(|&s| s == seq) else { return false };
        self.len -= 1;
        self.seqs[pos] = self.seqs[usize::from(self.len)];
        true
    }
}

impl std::fmt::Debug for DepSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl std::ops::Deref for DepSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.seqs[..usize::from(self.len)]
    }
}

/// A vector instruction handed from a scalar unit to the vector unit at
/// dispatch. Dependences on in-flight producers (scalar *or* vector) are
/// carried as `(seq)` handles scoped to `vthread`; the scalar unit reports
/// each producer's completion cycle through [`VectorSink::resolve`], letting
/// dependent vector instructions wait *inside* the VU window while younger
/// independent ones issue around them (the paper's out-of-order VCL, §2).
#[derive(Debug, Clone)]
pub struct VecDispatch {
    /// VLT thread (lane-partition) this instruction belongs to.
    pub vthread: usize,
    /// Static instruction index (the VU resolves opcode detail through its
    /// own copy of the decoded program).
    pub sidx: u32,
    /// Effective vector length.
    pub vl: u16,
    /// Resource class (`VAdd`/`VMul`/`VDiv`/`VMask`/`VLoad`/`VStore`).
    pub class: OpClass,
    /// Arena handle to the element addresses of vector memory operations
    /// (post-mask); [`AddrRange::EMPTY`] for arithmetic.
    pub addrs: AddrRange,
    /// Program-order sequence number within `vthread` (also identifies this
    /// instruction as a producer for later `resolve` calls).
    pub seq: u64,
    /// Sequence numbers of in-flight producers this instruction reads.
    pub deps: DepSet,
    /// The subset of `deps` produced by *scalar* instructions (the rest are
    /// in-flight vector producers). Purely observational — used by the
    /// vector unit's stall-cause attribution to distinguish
    /// scalar-dependence waits from chaining waits; timing reads `deps`.
    pub scalar_deps: DepSet,
    /// Earliest issue cycle from producers that had already completed at
    /// dispatch time.
    pub ready_base: u64,
}

/// The scalar unit's view of the vector unit.
///
/// The scalar unit keeps the traffic across it proportional to the work
/// done: it calls [`VectorSink::resolve`] only for producers some
/// dispatched vector instruction may still wait on, and runs a pass of
/// [`VectorSink::poll`]s only when [`VectorSink::issued`] has moved since
/// its last pass.
pub trait VectorSink {
    /// Try to enqueue into the vector instruction queue; `None` if the
    /// per-thread VIQ partition is full this cycle (retry next cycle).
    fn try_dispatch(&mut self, d: VecDispatch, now: u64) -> Option<VecToken>;

    /// A producer (`vthread`-scoped `seq`) now has a known completion cycle;
    /// the VU folds it into any waiting consumers. The scalar unit reports
    /// a scalar producer only when a dispatched vector instruction named it
    /// in [`VecDispatch::deps`] (a resolution nothing waits on changes
    /// nothing), and every vector producer once its poll succeeds.
    fn resolve(&mut self, vthread: usize, seq: u64, done_at: u64);

    /// The instruction's completion cycle, reported as soon as it issues
    /// to a functional unit, so the cycle may still lie ahead. Each token
    /// is reported at most once; `None` before issue, after the report, and
    /// for a token never handed out. The VU frees the window slot at the
    /// end of its next tick.
    fn poll(&mut self, token: VecToken) -> Option<u64>;

    /// Vector instructions issued to functional units so far, a count that
    /// never falls. A poll can only newly succeed after an issue, so a
    /// caller that polled every token it holds at one count may skip its
    /// polls until the count moves.
    fn issued(&self) -> u64;
}

/// A vector sink with no vector unit behind it: this crate's test fake for
/// scalar programs. Dispatching panics, since a scalar program dispatches
/// nothing. (The system driver routes a machine without a vector unit
/// through its router over zero units; fetch refuses vector instructions
/// there with `ExecError::NoVectorUnit`.)
#[derive(Debug, Default)]
pub struct NullVectorSink;

impl VectorSink for NullVectorSink {
    fn try_dispatch(&mut self, d: VecDispatch, _now: u64) -> Option<VecToken> {
        panic!("vector instruction (sidx {}) on a configuration without a vector unit", d.sidx)
    }

    fn resolve(&mut self, _vthread: usize, _seq: u64, _done_at: u64) {}

    fn poll(&mut self, _token: VecToken) -> Option<u64> {
        None
    }

    fn issued(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn null_sink_rejects_vectors() {
        let mut s = NullVectorSink;
        let _ = s.try_dispatch(
            VecDispatch {
                vthread: 0,
                sidx: 0,
                vl: 8,
                class: OpClass::VAdd,
                addrs: AddrRange::EMPTY,
                seq: 0,
                deps: DepSet::EMPTY,
                scalar_deps: DepSet::EMPTY,
                ready_base: 0,
            },
            0,
        );
    }

    #[test]
    fn thread_bits_cover_threads_past_63() {
        assert_eq!(thread_bit(0), 1);
        assert_eq!(thread_bit(63), 1 << 63);
        assert_eq!(thread_bit(64), u64::MAX);
        assert_eq!(thread_bit(usize::MAX), u64::MAX);
    }

    #[test]
    fn dep_sets_hold_distinct_members_inline() {
        let mut s = DepSet::EMPTY;
        assert!(s.is_empty());
        for seq in [7, 3, 9, 3, 11, 5] {
            s.insert(seq);
        }
        assert_eq!(s.len(), MAX_SRCS);
        assert!(!s.insert(9), "a member is not added twice");
        assert!(s.remove(3) && !s.remove(3) && !s.remove(4));
        let mut left = s.to_vec();
        left.sort_unstable();
        assert_eq!(left, [5, 7, 9, 11]);
    }
}
