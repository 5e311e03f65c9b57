//! Opt-in dynamic checked mode for [`crate::FuncSim`].
//!
//! The architecture is deliberately forgiving: registers reset to zero,
//! unmapped loads return zero, and stores allocate. That turns kernel
//! slips (read-before-write, out-of-bounds base addresses) into silently
//! wrong numbers instead of faults. The checker observes every
//! instruction just before it executes and records the faults the
//! hardware never raises:
//!
//! * **undefined read** — a register read before any dynamic write on
//!   this thread (the self-XOR/SUB zero idiom excepted, matching the
//!   static verifier),
//! * **out-of-bounds / misaligned access** — an effective address outside
//!   the regions [`vlt_isa::access_regions`] allows (the data image, plus a
//!   read-slack window for loads, and the stacks), or not aligned to the
//!   element size; vector accesses are checked per enabled lane.
//!
//! When a predictor from the static verifier is installed
//! ([`CheckConfig::undef_predictor`]), every dynamic undefined read is
//! `debug_assert`ed to have been statically predicted — the verifier's
//! definedness lattice is complete for direct control flow, and this is
//! the cross-validation that keeps the two implementations honest. The
//! converse does not hold for memory: the verifier only checks constant
//! addresses, so dynamic OOB faults are recorded but never asserted
//! against static predictions.

use std::fmt;

use vlt_isa::{access_regions, OpClass, RegRef};

use crate::interp;
use crate::program::StaticInst;
use crate::state::ArchState;

/// A fault category the forgiving hardware never raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynFault {
    /// A register was read before any write on this thread.
    UndefRead(RegRef),
    /// A load touched an address outside the data/stack layout.
    OobRead(u64),
    /// A store touched an address outside the data/stack layout.
    OobWrite(u64),
    /// An access was not aligned to its element size.
    Misaligned(u64),
}

impl fmt::Display for DynFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynFault::UndefRead(r) => write!(f, "undefined read of {r}"),
            DynFault::OobRead(a) => write!(f, "out-of-bounds load at {a:#x}"),
            DynFault::OobWrite(a) => write!(f, "out-of-bounds store at {a:#x}"),
            DynFault::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
        }
    }
}

/// One observed fault: which thread, at which static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Static instruction index.
    pub sidx: usize,
    /// Thread that executed the instruction.
    pub tid: usize,
    /// What went wrong.
    pub fault: DynFault,
}

/// `sidx -> bool`: did the static verifier consider an undefined read
/// possible at this instruction? (Build one from
/// `vlt_verify::predicted_undef_reads`.)
pub type UndefPredictor = Box<dyn Fn(usize) -> bool + Send + Sync>;

/// Configuration for the checked mode.
#[derive(Default)]
pub struct CheckConfig {
    /// Optional static-verifier prediction to `debug_assert` undefined
    /// reads against.
    pub undef_predictor: Option<UndefPredictor>,
}

/// Per-thread definedness bitmaps.
#[derive(Debug, Clone, Copy)]
struct ThreadInit {
    x: u32,
    f: u32,
    v: u32,
}

impl ThreadInit {
    fn fresh() -> ThreadInit {
        // x0 (hardwired zero) and x30 (runtime-set stack pointer) are
        // defined at entry; everything else must be written first.
        ThreadInit { x: 1 | (1 << 30), f: 0, v: 0 }
    }

    fn defined(&self, r: RegRef) -> bool {
        match r {
            RegRef::I(i) => self.x & (1 << i) != 0,
            RegRef::F(i) => self.f & (1 << i) != 0,
            RegRef::V(i) => self.v & (1 << i) != 0,
            RegRef::Vl | RegRef::Vm => true, // reset values are architectural
        }
    }

    fn define(&mut self, r: RegRef) {
        match r {
            RegRef::I(i) => self.x |= 1 << i,
            RegRef::F(i) => self.f |= 1 << i,
            RegRef::V(i) => self.v |= 1 << i,
            RegRef::Vl | RegRef::Vm => {}
        }
    }
}

/// Cap on retained fault records; further faults only bump `dropped`.
const MAX_RECORDS: usize = 4096;

/// The dynamic checker. Owned by `FuncSim` when checked mode is enabled.
pub struct Checker {
    cfg: CheckConfig,
    data_len: u64,
    init: Vec<ThreadInit>,
    faults: Vec<FaultRecord>,
    /// Fault count beyond [`MAX_RECORDS`].
    dropped: u64,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("faults", &self.faults.len())
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl Checker {
    /// New checker for `nthr` threads over a `data_len`-byte data image.
    pub fn new(nthr: usize, data_len: usize, cfg: CheckConfig) -> Checker {
        Checker {
            cfg,
            data_len: data_len as u64,
            init: vec![ThreadInit::fresh(); nthr],
            faults: Vec::new(),
            dropped: 0,
        }
    }

    /// All recorded faults (capped; see [`Checker::dropped`]).
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// Number of faults dropped beyond the record cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when no fault of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty() && self.dropped == 0
    }

    fn record(&mut self, sidx: usize, tid: usize, fault: DynFault) {
        if self.faults.len() < MAX_RECORDS {
            self.faults.push(FaultRecord { sidx, tid, fault });
        } else {
            self.dropped += 1;
        }
    }

    /// Observe one instruction about to execute on thread `t`. Must be
    /// called with the pre-execution architectural state: addresses come
    /// from the source registers through the interpreter's own
    /// [`interp::access_size`] and [`interp::vmem_addr`].
    pub fn observe(&mut self, t: usize, st: &ArchState, si: &StaticInst, sidx: usize) {
        // Undefined reads (the zero idiom is a def, not a use).
        if !si.inst.is_zero_idiom() {
            for &u in &si.uses {
                if !self.init[t].defined(u) {
                    if let Some(p) = &self.cfg.undef_predictor {
                        debug_assert!(
                            p(sidx),
                            "dynamic undefined read of {u} at #{sidx} (thread {t}) was not \
                             predicted by the static verifier"
                        );
                    }
                    self.record(sidx, t, DynFault::UndefRead(u));
                }
            }
        }
        self.check_memory(t, st, si, sidx);
        for &d in &si.defs {
            self.init[t].define(d);
        }
    }

    fn check_memory(&mut self, t: usize, st: &ArchState, si: &StaticInst, sidx: usize) {
        let inst = &si.inst;
        let base = st.get_x(inst.rs1);
        match si.class {
            OpClass::Load | OpClass::Store => {
                let size = interp::access_size(inst.op).expect("a scalar access");
                let addr = base.wrapping_add(inst.imm as i64 as u64);
                let write = si.class == OpClass::Store;
                self.check_addr(t, sidx, addr, size as u64, write);
            }
            OpClass::VLoad | OpClass::VStore => {
                let write = si.class == OpClass::VStore;
                let (stride, index) = (st.get_x(inst.rs2), &st.v[inst.rs2 as usize]);
                interp::for_enabled(st.vl, st.vm, inst.masked, |e| {
                    let addr = interp::vmem_addr(inst.op, base, stride, index[e], e);
                    self.check_addr(t, sidx, addr, 8, write);
                });
            }
            _ => {}
        }
    }

    fn check_addr(&mut self, t: usize, sidx: usize, addr: u64, size: u64, write: bool) {
        if !addr.is_multiple_of(size) {
            self.record(sidx, t, DynFault::Misaligned(addr));
        }
        if !access_regions(self.data_len, write).iter().any(|r| r.contains(&addr)) {
            let fault = if write { DynFault::OobWrite(addr) } else { DynFault::OobRead(addr) };
            self.record(sidx, t, fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcsim::FuncSim;
    use vlt_isa::asm::assemble;

    fn run_checked(src: &str) -> FuncSim {
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p, 1);
        sim.enable_checker(CheckConfig::default());
        sim.run_to_completion(100_000).unwrap();
        sim
    }

    #[test]
    fn clean_program_records_nothing() {
        let sim = run_checked(
            ".data\nxs: .dword 1, 2\n.text\nla x1, xs\nld x2, 8(x1)\nsd x2, 0(x1)\nhalt\n",
        );
        assert!(sim.checker().unwrap().is_clean());
    }

    #[test]
    fn undefined_read_recorded() {
        let sim = run_checked("add x1, x2, x3\nsd x1, -8(sp)\nhalt\n");
        let faults = sim.checker().unwrap().faults();
        assert!(faults
            .iter()
            .any(|f| matches!(f.fault, DynFault::UndefRead(RegRef::I(2))) && f.sidx == 0));
    }

    #[test]
    fn zero_idiom_is_not_an_undefined_read() {
        let sim = run_checked("xor x5, x5, x5\nsd x5, -8(sp)\nhalt\n");
        assert!(sim.checker().unwrap().is_clean());
    }

    #[test]
    fn oob_load_recorded() {
        let sim = run_checked("li x1, 64\nld x2, 0(x1)\nsd x2, -8(sp)\nhalt\n");
        let faults = sim.checker().unwrap().faults();
        assert!(faults.iter().any(|f| matches!(f.fault, DynFault::OobRead(64))));
    }

    #[test]
    fn misaligned_access_recorded() {
        let sim = run_checked(
            ".data\nxs: .dword 1\n.text\nla x1, xs\nld x2, 3(x1)\nsd x2, -8(sp)\nhalt\n",
        );
        let faults = sim.checker().unwrap().faults();
        assert!(faults.iter().any(|f| matches!(f.fault, DynFault::Misaligned(_))));
    }

    #[test]
    fn vector_lanes_checked_individually() {
        // vl = 4 over a 2-element array: lanes 2 and 3 read past the slack?
        // No — slack covers 64 bytes, so use a big vl to escape it.
        let sim = run_checked(
            ".data\nxs: .dword 1, 2\n.text\nli x1, 16\nsetvl x0, x1\nla x2, xs\nvld v1, x2\nhalt\n",
        );
        let faults = sim.checker().unwrap().faults();
        // Elements 10.. land past data(16) + slack(64) = xs+80.
        assert!(faults.iter().any(|f| matches!(f.fault, DynFault::OobRead(_))), "{faults:?}");
    }

    #[test]
    fn masked_lanes_are_skipped() {
        // Mask enables only lane 0; lanes that would be OOB are disabled.
        let sim = run_checked(
            ".data\nxs: .dword 5\n.text\nli x1, 64\nsetvl x0, x1\nli x3, 1\nvmsetb x3\n\
             la x2, xs\nvld v1, x2, vm\nhalt\n",
        );
        assert!(sim.checker().unwrap().is_clean(), "{:?}", sim.checker().unwrap().faults());
    }

    #[test]
    fn predictor_accepts_predicted_reads() {
        let p = assemble("add x1, x2, x3\nsd x1, -8(sp)\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 1);
        sim.enable_checker(CheckConfig { undef_predictor: Some(Box::new(|sidx| sidx == 0)) });
        sim.run_to_completion(100).unwrap();
        assert_eq!(sim.checker().unwrap().faults().len(), 2); // x2 and x3
    }

    #[test]
    #[should_panic(expected = "was not predicted")]
    #[cfg(debug_assertions)]
    fn predictor_rejects_unpredicted_reads() {
        let p = assemble("add x1, x2, x3\nhalt\n").unwrap();
        let mut sim = FuncSim::new(&p, 1);
        sim.enable_checker(CheckConfig { undef_predictor: Some(Box::new(|_| false)) });
        let _ = sim.run_to_completion(100);
    }
}
