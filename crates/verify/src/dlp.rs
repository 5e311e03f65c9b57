//! Static DLP & occupancy analysis (DESIGN.md §13).
//!
//! Predicts, without running the functional simulator's full dynamic
//! schedule, the Table-4 quantities of the paper — the VL histogram, the
//! vectorization percentage, the scalar/vector operation ratio, and the
//! stride/bank behavior of vector memory ops — per program, per `region`
//! marker, and per barrier epoch, and turns them into VLTCFG partition
//! advice (`vlt advise` over the suite, `vlt lint --dlp` per file).
//!
//! # How the analysis stays exact
//!
//! The walker drives the real interpreter ([`vlt_exec::interp::step`]) one
//! thread at a time, loops included, and counts each step through
//! [`RunSummary::record`], the functional simulator's own counter. Every
//! count it produces is therefore *by construction* the one `FuncSim`
//! reports: there is no separate semantics or tally to drift out of sync.
//!
//! In shared mode ([`DlpOptions::threads`] > 1) a two-pass scheme makes
//! the per-thread walks sound without modeling interleavings: pass 1
//! collects every thread's written ranges and the hull of the bytes each
//! load site read; pass 2 re-walks each thread with the union of *other*
//! threads' writes as untrusted ranges. A **knownness shadow** tracks
//! every register and byte of memory as trusted or untrusted: a value
//! loaded from an untrusted range is untrusted, and so is everything
//! computed from one. The walk *bails* the moment an untrusted value would
//! steer control flow, address, index or mask a memory access, or set
//! `vl`. If every thread completes pass 2 exactly, no cross-thread value
//! ever influenced addresses or control, so the pass-1 counts are
//! schedule-independent.
//!
//! Pass 2 walks only the threads whose pass-1 load hulls meet another
//! thread's writes. For any other thread nothing can become untrusted:
//! its pass-2 walk would load the same bytes as pass 1, none of them
//! untrusted, and replay pass 1 step for step, so its pass-1 result
//! stands.
//!
//! Nothing is untrusted in pass 1 or in a 1-thread walk, so a walk ends
//! inexact ([`DlpProfile::exact`] = false, `dlp-inexact`, its counts a
//! partial lower bound) in only three ways:
//!
//! * in pass 2, another thread's write steers an address, index, mask,
//!   branch or `vl`;
//! * the walk exhausts its step budget ([`DlpOptions::budget`]);
//! * the program faults.

use std::collections::BTreeMap;

use vlt_exec::{
    interp, AddrArena, ArchState, DecodedProgram, DynInst, DynKind, Memory, RunSummary, StaticInst,
};
use vlt_isa::{decode, disasm, Format, Op, OpClass, Program, RegRef, VMemPattern, MAX_VL};

use crate::diag::{Code, Diagnostic};

/// L2 bank count for the bank-conflict classification of strided and
/// indexed vector memory ops.
const BANKS: u64 = 8;

/// Per-barrier-epoch profiles kept; later epochs accumulate into the last.
const EPOCH_CAP: usize = 64;

/// Options for [`analyze`].
#[derive(Debug, Clone)]
pub struct DlpOptions {
    /// Thread count to analyze under (1 = the serial walk).
    pub threads: usize,
    /// Concrete interpreter steps allowed per thread walk before the
    /// profile is cut off as a partial lower bound.
    pub budget: u64,
}

impl Default for DlpOptions {
    fn default() -> Self {
        DlpOptions { threads: 1, budget: 50_000_000 }
    }
}

// ---------------------------------------------------------------------------
// Byte-range set (untrusted memory tracking)
// ---------------------------------------------------------------------------

/// A set of disjoint, coalesced half-open byte ranges.
#[derive(Debug, Clone, Default)]
pub(crate) struct RangeSet {
    m: BTreeMap<u64, u64>, // start -> end (exclusive)
}

impl RangeSet {
    pub(crate) fn insert(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let (mut lo, mut hi) = (lo, hi);
        // Merge every range that overlaps or is adjacent. Starts and ends
        // are both sorted (disjointness), so walking backwards from the
        // first start <= hi visits exactly the mergeable ranges.
        let mut dead = Vec::new();
        for (&s, &e) in self.m.range(..=hi).rev() {
            if e < lo {
                break;
            }
            dead.push(s);
            lo = lo.min(s);
            hi = hi.max(e);
        }
        for s in dead {
            self.m.remove(&s);
        }
        self.m.insert(lo, hi);
    }

    pub(crate) fn remove(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let hit: Vec<(u64, u64)> =
            self.m.range(..hi).rev().take_while(|&(_, &e)| e > lo).map(|(&s, &e)| (s, e)).collect();
        for (s, e) in hit {
            self.m.remove(&s);
            if s < lo {
                self.m.insert(s, lo);
            }
            if e > hi {
                self.m.insert(hi, e);
            }
        }
    }

    pub(crate) fn intersects(&self, lo: u64, hi: u64) -> bool {
        lo < hi && self.m.range(..hi).next_back().is_some_and(|(_, &e)| e > lo)
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Per-`region` profile with an anchor for diagnostics.
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// The `region` marker value (0 = unannotated/serial).
    pub region: u32,
    /// First static instruction executed under this region.
    pub first_sidx: usize,
    /// Operation counts attributed to the region (`per_thread` empty).
    pub profile: RunSummary,
}

/// Static profile of one vector memory instruction site.
#[derive(Debug, Clone)]
pub struct VMemSite {
    /// Static instruction index.
    pub sidx: usize,
    /// Unit/strided/indexed address pattern.
    pub pattern: VMemPattern,
    /// True for stores.
    pub write: bool,
    /// Dynamic executions of this site.
    pub execs: u64,
    /// Element accesses issued by this site (post-mask).
    pub elems: u64,
    /// Smallest byte stride observed (unit stride records 8; indexed 0).
    pub min_stride: i64,
    /// Largest byte stride observed.
    pub max_stride: i64,
    /// Executions whose element addresses piled onto few L2 banks
    /// (fewer than half the banks while moving at least a bank's worth
    /// of elements).
    pub conflict_execs: u64,
}

/// Static profile of one `setvl` site.
#[derive(Debug, Clone)]
pub struct SetVlSite {
    /// Static instruction index.
    pub sidx: usize,
    /// Dynamic executions.
    pub execs: u64,
    /// Smallest requested length observed (pre-clamp).
    pub min_request: u64,
    /// Largest requested length observed.
    pub max_request: u64,
    /// Whether the clamped result register was ever subsequently read —
    /// a site that discards it cannot re-chunk under a smaller MVL.
    pub result_read: bool,
}

/// The static DLP profile of a program: totals, per-region and per-epoch
/// splits, and per-site memory/`setvl` behavior.
#[derive(Debug, Clone)]
pub struct DlpProfile {
    /// True when every thread's walk completed without trusting an
    /// unknown value: all counts equal what the functional simulator
    /// reports. False profiles are partial lower bounds.
    pub exact: bool,
    /// Human-readable reasons the walk went inexact, if any.
    pub notes: Vec<String>,
    /// Thread count the analysis ran under.
    pub threads: usize,
    /// Whole-program counts, with each thread walk's instruction count in
    /// `per_thread`: an exact profile's total is the [`RunSummary`] that
    /// `FuncSim::run_to_completion` returns for the program.
    pub total: RunSummary,
    /// Per-region counts, sorted by region id.
    pub regions: Vec<RegionProfile>,
    /// Per-barrier-epoch counts (index = epoch; epochs past the 64th merge
    /// into the last slot; `per_thread` empty).
    pub epoch_profiles: Vec<RunSummary>,
    /// Barrier epochs entered (max over threads).
    pub epochs: u64,
    /// Vector memory sites, sorted by static index.
    pub vmem_sites: Vec<VMemSite>,
    /// `setvl` sites, sorted by static index.
    pub setvl_sites: Vec<SetVlSite>,
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

/// Result of one thread's walk.
#[derive(Debug, Clone, Default)]
struct WalkOut {
    exact: bool,
    note: Option<String>,
    total: RunSummary,
    regions: BTreeMap<u32, RegionProfile>,
    epoch_profiles: Vec<RunSummary>,
    epochs: u64,
    vmem_sites: BTreeMap<usize, VMemSite>,
    setvl_sites: BTreeMap<usize, SetVlSite>,
    /// Per-(site, barrier-epoch) address hulls `[lo, hi)` over every
    /// executed store: pass 2 treats other threads' hulls as untrusted.
    store_hulls: BTreeMap<(usize, u64), (u64, u64)>,
    /// Per-site hulls `[lo, hi)` of the bytes each load read, recorded in
    /// pass 1 of a shared walk only: pass 2 skips a thread none of whose
    /// hulls meets another thread's stores.
    load_hulls: BTreeMap<usize, (u64, u64)>,
}

/// Why a walk stopped before `halt`.
enum Bail {
    /// In pass 2, a value another thread writes was about to steer
    /// execution.
    Poison(String),
    /// Concrete step budget exhausted.
    Budget,
    /// The program faulted.
    Fatal(String),
}

struct Walker<'a> {
    prog: &'a DecodedProgram,
    opts: &'a DlpOptions,
    cross: Option<&'a RangeSet>,
    /// Pass 1 of a shared walk: keep [`WalkOut::load_hulls`].
    record_loads: bool,
    st: ArchState,
    mem: Memory,
    arena: AddrArena,
    /// Knownness shadow: bit r set = register holds its true value.
    xk: u32,
    fk: u32,
    vk: u32,
    vm_known: bool,
    /// Bytes whose contents the walk no longer tracks.
    unknown: RangeSet,
    steps: u64,
    epoch: usize,
    out: WalkOut,
    /// `setvl` result provenance: which site last wrote each x register.
    setvl_origin: [Option<usize>; 32],
}

impl<'a> Walker<'a> {
    fn new(
        prog: &'a DecodedProgram,
        opts: &'a DlpOptions,
        tid: usize,
        cross: Option<&'a RangeSet>,
    ) -> Self {
        let st = ArchState::new(prog.program.entry, tid, opts.threads);
        let mem = Memory::load(&prog.program);
        let arena = AddrArena::new(opts.threads.max(tid + 1));
        Walker {
            prog,
            opts,
            cross,
            record_loads: cross.is_none() && opts.threads > 1,
            st,
            mem,
            arena,
            xk: u32::MAX,
            fk: u32::MAX,
            vk: u32::MAX,
            vm_known: true,
            unknown: RangeSet::default(),
            steps: 0,
            epoch: 0,
            out: WalkOut {
                exact: false,
                epoch_profiles: vec![RunSummary::default()],
                ..WalkOut::default()
            },
            setvl_origin: [None; 32],
        }
    }

    #[inline]
    fn known_x(&self, r: u8) -> bool {
        r == 0 || self.xk & (1 << r) != 0
    }

    #[inline]
    fn set_known_x(&mut self, r: u8, k: bool) {
        if r != 0 {
            if k {
                self.xk |= 1 << r;
            } else {
                self.xk &= !(1 << r);
            }
        }
    }

    fn tainted(&self, lo: u64, hi: u64) -> bool {
        self.unknown.intersects(lo, hi) || self.cross.is_some_and(|c| c.intersects(lo, hi))
    }

    /// Would executing `si` let an untrusted value steer the walk?
    fn unknown_critical(&self, si: &StaticInst) -> Option<String> {
        let inst = &si.inst;
        let bad_x = |r: u8| !self.known_x(r);
        let reason = match si.class {
            OpClass::Branch if bad_x(inst.rs1) || bad_x(inst.rs2) => "branch condition",
            OpClass::Jump if inst.op.is_indirect() && bad_x(inst.rs1) => "indirect jump target",
            OpClass::Load | OpClass::Store if bad_x(inst.rs1) => "scalar access address",
            OpClass::VLoad | OpClass::VStore => {
                if bad_x(inst.rs1) {
                    "vector access base"
                } else if matches!(inst.op, Op::Vlds | Op::Vsts) && bad_x(inst.rs2) {
                    "vector access stride"
                } else if matches!(inst.op, Op::Vldx | Op::Vstx) && self.vk & (1 << inst.rs2) == 0 {
                    "vector access index"
                } else if inst.masked && !self.vm_known {
                    "vector access mask"
                } else {
                    return None;
                }
            }
            _ if inst.op == Op::SetVl && bad_x(inst.rs1) => "setvl request",
            _ if inst.op == Op::VltCfg && bad_x(inst.rs1) => "vltcfg operand",
            _ => return None,
        };
        Some(format!("{reason} depends on a value the walk no longer tracks (sidx {})", {
            self.prog.index_of(self.st.pc).unwrap_or(0)
        }))
    }

    /// Run the walk to completion or bail.
    fn run(&mut self) -> Result<(), Bail> {
        loop {
            if self.st.halted {
                return Ok(());
            }
            let Some(sidx) = self.prog.index_of(self.st.pc) else {
                return Err(Bail::Fatal(format!(
                    "walk left the text segment at pc {:#x}",
                    self.st.pc
                )));
            };
            let si = self.prog.get(sidx);

            if let Some(reason) = self.unknown_critical(si) {
                return Err(Bail::Poison(reason));
            }
            if self.steps >= self.opts.budget {
                return Err(Bail::Budget);
            }

            // Read before the step: `setvl x1, x1` overwrites its request.
            let rs1 = self.st.get_x(si.inst.rs1);
            let d = match interp::step(&mut self.st, &mut self.mem, self.prog, &mut self.arena) {
                Ok(d) => d,
                Err(e) => return Err(Bail::Fatal(format!("fault: {e}"))),
            };
            self.steps += 1;
            self.absorb(si, &d, rs1);
        }
    }

    /// Record one concretely executed instruction: statistics, knownness
    /// propagation and site bookkeeping. `rs1` is the value the
    /// instruction's `rs1` held before it executed.
    fn absorb(&mut self, si: &StaticInst, d: &DynInst, rs1: u64) {
        let sidx = d.sidx as usize;
        let inst = &si.inst;

        // ---- statistics ----
        self.out.total.record(si.class, d);
        let region = self.st.region;
        let entry = self.out.regions.entry(region).or_insert_with(|| RegionProfile {
            region,
            first_sidx: sidx,
            profile: RunSummary::default(),
        });
        entry.profile.record(si.class, d);
        let ei = self.epoch.min(EPOCH_CAP - 1).min(self.out.epoch_profiles.len() - 1);
        self.out.epoch_profiles[ei].record(si.class, d);
        if matches!(d.kind, DynKind::Barrier) {
            self.epoch += 1;
            self.out.epochs = self.out.epochs.max(self.epoch as u64);
            if self.epoch < EPOCH_CAP && self.epoch >= self.out.epoch_profiles.len() {
                self.out.epoch_profiles.push(RunSummary::default());
            }
        }

        // ---- setvl provenance & site stats ----
        for u in &si.uses {
            if let RegRef::I(r) = u {
                if let Some(site) = self.setvl_origin[*r as usize] {
                    if let Some(s) = self.out.setvl_sites.get_mut(&site) {
                        s.result_read = true;
                    }
                }
            }
        }
        for def in &si.defs {
            if let RegRef::I(r) = def {
                self.setvl_origin[*r as usize] = None;
            }
        }
        if inst.op == Op::SetVl {
            let s = self.out.setvl_sites.entry(sidx).or_insert_with(|| SetVlSite {
                sidx,
                execs: 0,
                min_request: u64::MAX,
                max_request: 0,
                result_read: false,
            });
            s.execs += 1;
            s.min_request = s.min_request.min(rs1);
            s.max_request = s.max_request.max(rs1);
            if inst.rd != 0 {
                self.setvl_origin[inst.rd as usize] = Some(sidx);
            }
        }

        // ---- knownness propagation ----
        let inputs_known = si.uses.iter().all(|u| match u {
            RegRef::I(r) => self.known_x(*r),
            RegRef::F(r) => self.fk & (1 << r) != 0,
            RegRef::V(r) => self.vk & (1 << r) != 0,
            RegRef::Vm => self.vm_known,
            RegRef::Vl => true,
        });
        let mut loaded_tainted = false;
        match d.kind {
            DynKind::Mem { addr, size } => {
                let (lo, hi) = (addr, addr.wrapping_add(size as u64));
                if si.class == OpClass::Load {
                    loaded_tainted = self.tainted(lo, hi);
                    if self.record_loads {
                        hull(&mut self.out.load_hulls, sidx, lo, hi);
                    }
                } else {
                    if inputs_known {
                        self.unknown.remove(lo, hi);
                    } else {
                        self.unknown.insert(lo, hi);
                    }
                    hull(&mut self.out.store_hulls, (sidx, self.epoch as u64), lo, hi);
                }
            }
            DynKind::VMem { addrs } => {
                let slice = self.arena.slice(addrs);
                let elems = slice.len() as u64;
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                let mut banks_hit = 0u64;
                for &a in slice {
                    lo = lo.min(a);
                    hi = hi.max(a.wrapping_add(8));
                    banks_hit |= 1 << ((a >> 3) % BANKS);
                }
                let write = si.class == OpClass::VStore;
                let conflict = {
                    let distinct = banks_hit.count_ones() as u64;
                    elems >= BANKS && distinct * 2 <= BANKS
                };
                if elems > 0 {
                    let ek = self.epoch as u64;
                    if write {
                        // Per-element strong/weak update.
                        let known = inputs_known;
                        let addrs_owned: Vec<u64> = slice.to_vec();
                        for a in addrs_owned {
                            if known {
                                self.unknown.remove(a, a.wrapping_add(8));
                            } else {
                                self.unknown.insert(a, a.wrapping_add(8));
                            }
                        }
                        hull(&mut self.out.store_hulls, (sidx, ek), lo, hi);
                    } else {
                        let slice = self.arena.slice(addrs);
                        loaded_tainted = slice.iter().any(|&a| self.tainted(a, a.wrapping_add(8)));
                        if self.record_loads {
                            hull(&mut self.out.load_hulls, sidx, lo, hi);
                        }
                    }
                }
                // Stride bookkeeping (Table 4's stride column).
                let stride = match inst.op.vmem_pattern() {
                    Some(VMemPattern::Unit) => 8,
                    Some(VMemPattern::Strided) => self.st.get_x(inst.rs2) as i64,
                    _ => 0,
                };
                let v = self.out.vmem_sites.entry(sidx).or_insert_with(|| VMemSite {
                    sidx,
                    pattern: inst.op.vmem_pattern().unwrap_or(VMemPattern::Unit),
                    write,
                    execs: 0,
                    elems: 0,
                    min_stride: i64::MAX,
                    max_stride: i64::MIN,
                    conflict_execs: 0,
                });
                v.execs += 1;
                v.elems += elems;
                v.min_stride = v.min_stride.min(stride);
                v.max_stride = v.max_stride.max(stride);
                v.conflict_execs += conflict as u64;
            }
            _ => {}
        }

        let ok = inputs_known && !loaded_tainted;
        for def in &si.defs {
            match def {
                RegRef::I(r) => self.set_known_x(*r, ok),
                RegRef::F(r) => {
                    if ok {
                        self.fk |= 1 << r;
                    } else {
                        self.fk &= !(1 << r);
                    }
                }
                RegRef::V(r) => {
                    let partial = inst.masked || (d.vl as usize) < MAX_VL;
                    let known = ok && (!partial || self.vk & (1 << r) != 0);
                    if known {
                        self.vk |= 1 << r;
                    } else {
                        self.vk &= !(1 << r);
                    }
                }
                RegRef::Vm => {
                    // A vector compare (an `RR0` row) keeps the mask bits past `vl`.
                    let partial = inst.op.format() == Format::RR0 && (d.vl as usize) < MAX_VL;
                    self.vm_known = ok && (!partial || self.vm_known);
                }
                RegRef::Vl => {}
            }
        }
    }

    fn finish(mut self, end: Result<(), Bail>) -> WalkOut {
        match end {
            Ok(()) => self.out.exact = true,
            Err(Bail::Poison(why) | Bail::Fatal(why)) => self.out.note = Some(why),
            Err(Bail::Budget) => {
                self.out.note =
                    Some(format!("budget of {} concrete steps exhausted", self.opts.budget));
            }
        }
        self.out
    }
}

fn hull<K: Ord>(m: &mut BTreeMap<K, (u64, u64)>, key: K, lo: u64, hi: u64) {
    m.entry(key)
        .and_modify(|(l, h)| {
            *l = (*l).min(lo);
            *h = (*h).max(hi);
        })
        .or_insert((lo, hi));
}

/// Walk one thread, against `cross` (other threads' stores) in pass 2.
fn walk_thread(
    prog: &DecodedProgram,
    opts: &DlpOptions,
    tid: usize,
    cross: Option<&RangeSet>,
) -> WalkOut {
    let mut w = Walker::new(prog, opts, tid, cross);
    let end = w.run();
    w.finish(end)
}

/// Internal: walk all threads with the two-pass cross-validation.
fn analyze_threads(prog: &DecodedProgram, opts: &DlpOptions) -> (Vec<WalkOut>, bool) {
    let nthr = opts.threads.max(1);
    let pass1: Vec<WalkOut> = (0..nthr).map(|t| walk_thread(prog, opts, t, None)).collect();
    if nthr == 1 {
        let exact = pass1[0].exact;
        return (pass1, exact);
    }
    if !pass1.iter().all(|o| o.exact) {
        return (pass1, false);
    }
    // Pass 2: re-walk each thread treating every byte any *other* thread
    // writes as untrusted. All-exact means no cross-thread value steered
    // anything, so the pass-1 addresses (== pass-2 addresses) are
    // schedule-independent.
    let store_sets: Vec<RangeSet> = pass1
        .iter()
        .map(|o| {
            let mut s = RangeSet::default();
            for &(lo, hi) in o.store_hulls.values() {
                s.insert(lo, hi);
            }
            s
        })
        .collect();
    let mut pass2 = Vec::with_capacity(nthr);
    for (t, first) in pass1.into_iter().enumerate() {
        let mut cross = RangeSet::default();
        for (u, s) in store_sets.iter().enumerate() {
            if u != t {
                for (&lo, &hi) in s.m.iter() {
                    cross.insert(lo, hi);
                }
            }
        }
        // A thread that loads no byte another thread stores never sees an
        // untrusted value, so its pass-2 walk would replay pass 1.
        let exposed = first.load_hulls.values().any(|&(lo, hi)| cross.intersects(lo, hi));
        pass2.push(if exposed { walk_thread(prog, opts, t, Some(&cross)) } else { first });
    }
    let exact = pass2.iter().all(|o| o.exact);
    (pass2, exact)
}

/// Statically predict the program's DLP profile (Table-4 quantities) by
/// walking each thread with the knownness shadow described in the module
/// docs.
pub fn analyze(prog: &Program, opts: &DlpOptions) -> DlpProfile {
    if let Some(why) = crate::undecodable(prog) {
        // The walk runs the program, which cannot load such a text.
        return DlpProfile {
            exact: false,
            notes: vec![why],
            threads: opts.threads.max(1),
            total: RunSummary::default(),
            regions: Vec::new(),
            epoch_profiles: Vec::new(),
            epochs: 0,
            vmem_sites: Vec::new(),
            setvl_sites: Vec::new(),
        };
    }
    let dec = DecodedProgram::new(prog);
    let (outs, exact) = analyze_threads(&dec, opts);

    let mut total = RunSummary::default();
    let mut regions: BTreeMap<u32, RegionProfile> = BTreeMap::new();
    let mut epoch_profiles: Vec<RunSummary> = Vec::new();
    let mut vmem_sites: BTreeMap<usize, VMemSite> = BTreeMap::new();
    let mut setvl_sites: BTreeMap<usize, SetVlSite> = BTreeMap::new();
    let mut epochs = 0u64;
    let mut notes = Vec::new();
    for (tid, o) in outs.iter().enumerate() {
        total.merge(&o.total);
        for (rid, rp) in &o.regions {
            regions
                .entry(*rid)
                .and_modify(|e| {
                    e.first_sidx = e.first_sidx.min(rp.first_sidx);
                    e.profile.merge(&rp.profile);
                })
                .or_insert_with(|| rp.clone());
        }
        for (i, p) in o.epoch_profiles.iter().enumerate() {
            if epoch_profiles.len() <= i {
                epoch_profiles.push(RunSummary::default());
            }
            epoch_profiles[i].merge(p);
        }
        epochs = epochs.max(o.epochs + 1);
        for (s, v) in &o.vmem_sites {
            vmem_sites
                .entry(*s)
                .and_modify(|e| {
                    e.execs += v.execs;
                    e.elems += v.elems;
                    e.min_stride = e.min_stride.min(v.min_stride);
                    e.max_stride = e.max_stride.max(v.max_stride);
                    e.conflict_execs += v.conflict_execs;
                })
                .or_insert_with(|| v.clone());
        }
        for (s, v) in &o.setvl_sites {
            setvl_sites
                .entry(*s)
                .and_modify(|e| {
                    e.execs += v.execs;
                    e.min_request = e.min_request.min(v.min_request);
                    e.max_request = e.max_request.max(v.max_request);
                    e.result_read |= v.result_read;
                })
                .or_insert_with(|| v.clone());
        }
        if let Some(n) = &o.note {
            notes.push(format!("thread {tid}: {n}"));
        }
    }
    total.per_thread = outs.iter().map(|o| o.total.insts).collect();

    DlpProfile {
        exact,
        notes,
        threads: opts.threads.max(1),
        total,
        regions: regions.into_values().collect(),
        epoch_profiles,
        epochs,
        vmem_sites: vmem_sites.into_values().collect(),
        setvl_sites: setvl_sites.into_values().collect(),
    }
}

// ---------------------------------------------------------------------------
// Partition advisor
// ---------------------------------------------------------------------------

/// How a phase could exploit a VLT lane partition (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VltOpportunity {
    /// Region 0: unannotated/serial code — runs on one thread.
    Serial,
    /// A parallel region with no vector element work: scalar
    /// threads-on-lanes applies.
    ScalarParallel,
    /// Vector code at short average VL (at most half the machine MVL):
    /// partitioned lanes recover the idle elements.
    ShortVector,
    /// Long-vector code that already fills the lanes.
    LongVector,
}

/// One scored VLTCFG partition.
#[derive(Debug, Clone, Copy)]
pub struct PartitionScore {
    /// VLT threads.
    pub threads: usize,
    /// Lane clusters (0 = flat single-cluster machine).
    pub clusters: usize,
    /// Per-thread MVL under this partition.
    pub mvl: usize,
    /// Predicted relative cycles (cost-model units; lower is better).
    pub est_cycles: f64,
    /// Speedup over the 1-thread flat partition.
    pub speedup: f64,
}

/// Advice for one region.
#[derive(Debug, Clone)]
pub struct RegionAdvice {
    /// The region id.
    pub region: u32,
    /// Opportunity classification.
    pub opportunity: VltOpportunity,
    /// Region vectorization percentage.
    pub pct_vectorization: f64,
    /// Region average VL.
    pub avg_vl: f64,
    /// Most common VL, if any vector instruction ran.
    pub top_vl: Option<usize>,
    /// Best flat thread count for this region alone.
    pub best_threads: usize,
}

/// The advisor's output: per-region classification plus ranked partitions.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Per-region advice, sorted by region id.
    pub regions: Vec<RegionAdvice>,
    /// Flat partitions, ranked best first.
    pub ranking: Vec<PartitionScore>,
    /// Hierarchical (8 threads × c clusters) partitions, informational —
    /// they describe a larger machine and are priced separately.
    pub hierarchical: Vec<PartitionScore>,
    /// The recommended flat partition.
    pub best: PartitionScore,
    /// Largest flat thread count the program *as written* tolerates: a
    /// fixed `setvl` request whose clamped result is discarded cannot
    /// re-chunk under a smaller per-thread MVL. [`Advice::best`] may
    /// exceed this — it assumes the phase is re-chunked for the partition
    /// (the `dlp-setvl-clamp` diagnostic marks the site to fix).
    pub max_threads: usize,
    /// Percentage of predicted 1-thread time spent in parallel regions —
    /// the headroom VLT can attack (cf. `Workload::opportunity`).
    pub opportunity_pct: f64,
}

/// Relative per-instruction issue overhead of a vector instruction
/// (dead time the paper's short-vector analysis highlights).
const DEAD: f64 = 4.0;
/// Serialized overhead per extra chunk a long vector needs under a
/// reduced-MVL partition (extra strip-mine iterations).
const CHUNK: f64 = 2.0;
/// Lanes of the baseline flat machine.
const LANES: usize = 8;

/// Cost of running `q` on one thread with `lanes` lanes and MVL `mvl`.
fn cost_one(q: &RunSummary, lanes: usize, mvl: usize) -> (f64, f64) {
    let mut vec_cost = 0.0;
    let mut chunk_penalty = 0.0;
    for (vl, &n) in q.vl_histogram.iter().enumerate() {
        if n == 0 || vl == 0 {
            continue;
        }
        let chunks = vl.div_ceil(mvl);
        let mut passes = 0usize;
        let mut left = vl;
        while left > 0 {
            let c = left.min(mvl);
            passes += c.div_ceil(lanes);
            left -= c;
        }
        vec_cost += n as f64 * (DEAD + passes as f64);
        chunk_penalty += n as f64 * (chunks - 1) as f64;
    }
    (q.scalar_ops as f64 + vec_cost, CHUNK * chunk_penalty)
}

/// Predicted cycles for the whole program under a partition: serial
/// regions run one thread at full width; parallel regions divide their
/// work across `threads`, each with `lanes_per_thread` lanes and MVL
/// `mvl`, paying the serialized re-chunk penalty.
fn cost_total(p: &DlpProfile, threads: usize, lanes_per_thread: usize, mvl: usize) -> f64 {
    let mut total = 0.0;
    for r in &p.regions {
        if r.region == 0 {
            let (c, _) = cost_one(&r.profile, LANES, MAX_VL);
            total += c;
        } else {
            let (c, chunk) = cost_one(&r.profile, lanes_per_thread, mvl);
            total += c / threads as f64 + chunk;
        }
    }
    total
}

/// Classify one region's opportunity.
fn classify(region: u32, q: &RunSummary) -> VltOpportunity {
    if region == 0 {
        VltOpportunity::Serial
    } else if q.elem_ops == 0 {
        VltOpportunity::ScalarParallel
    } else if q.avg_vl() <= (MAX_VL / 2) as f64 {
        VltOpportunity::ShortVector
    } else {
        VltOpportunity::LongVector
    }
}

/// Rank VLTCFG partitions for a profiled program.
pub fn advise(p: &DlpProfile) -> Advice {
    // Heavy vectorization rules out the pure scalar-VLT 8-thread split
    // (the paper's vector designs stop at V4); a fixed setvl request
    // whose clamped result is discarded additionally pins the program
    // *as written* (reported, not enforced — see [`Advice::max_threads`]).
    let gate = if p.total.pct_vectorization() < 10.0 { 8 } else { 4 };
    let mut max_threads = gate;
    for s in &p.setvl_sites {
        if s.execs > 0 && s.min_request == s.max_request && !s.result_read {
            let mut t = 1;
            for cand in [2usize, 4, 8] {
                if (MAX_VL / cand) as u64 >= s.min_request {
                    t = cand;
                }
            }
            max_threads = max_threads.min(t.max(1));
        }
    }

    let candidates: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t == 1 || t <= gate).collect();
    let base = cost_total(p, 1, LANES, MAX_VL);
    let mut ranking: Vec<PartitionScore> = candidates
        .iter()
        .map(|&t| {
            let mvl = MAX_VL / t;
            let est = cost_total(p, t, (LANES / t).max(1), mvl);
            PartitionScore {
                threads: t,
                clusters: 0,
                mvl,
                est_cycles: est,
                speedup: if est > 0.0 { base / est } else { 1.0 },
            }
        })
        .collect();
    ranking.sort_by(|a, b| {
        a.est_cycles.partial_cmp(&b.est_cycles).unwrap().then(a.threads.cmp(&b.threads))
    });
    let best = ranking[0];

    // Hierarchical rows: an 8-thread partition spread over c clusters of
    // a larger machine (8c lanes). Informational — `vlt advise` prices the
    // extra clusters with vlt-area.
    let hierarchical: Vec<PartitionScore> = [2usize, 4, 8]
        .into_iter()
        .map(|c| {
            let h = vlt_isa::vltcfg::Hierarchy { threads: 8, clusters: c as u8 };
            let mvl = vlt_isa::vltcfg::effective_mvl(MAX_VL, h);
            let est = cost_total(p, 8, c.max(1), mvl);
            PartitionScore {
                threads: 8,
                clusters: c,
                mvl,
                est_cycles: est,
                speedup: if est > 0.0 { base / est } else { 1.0 },
            }
        })
        .collect();

    let regions: Vec<RegionAdvice> = p
        .regions
        .iter()
        .map(|r| {
            let best_threads = if r.region == 0 {
                1
            } else {
                candidates
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let ca = {
                            let (c, ch) = cost_one(&r.profile, (LANES / a).max(1), MAX_VL / a);
                            c / a as f64 + ch
                        };
                        let cb = {
                            let (c, ch) = cost_one(&r.profile, (LANES / b).max(1), MAX_VL / b);
                            c / b as f64 + ch
                        };
                        ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
                    })
                    .unwrap_or(1)
            };
            RegionAdvice {
                region: r.region,
                opportunity: classify(r.region, &r.profile),
                pct_vectorization: r.profile.pct_vectorization(),
                avg_vl: r.profile.avg_vl(),
                top_vl: r.profile.common_vls(1).first().copied(),
                best_threads,
            }
        })
        .collect();

    let serial: f64 = p
        .regions
        .iter()
        .filter(|r| r.region == 0)
        .map(|r| cost_one(&r.profile, LANES, MAX_VL).0)
        .sum();
    let opportunity_pct = if base > 0.0 { 100.0 * (base - serial) / base } else { 0.0 };

    Advice { regions, ranking, hierarchical, best, max_threads, opportunity_pct }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Turn a profile into `vlt lint --dlp` diagnostics: a warning when the walk
/// went inexact, and advisory notes for partition opportunities and
/// hazards.
pub fn dlp_diagnostics(prog: &Program, p: &DlpProfile) -> Vec<Diagnostic> {
    let at = |code: Code, sidx: usize, msg: String| Diagnostic {
        code,
        severity: code.severity(),
        sidx: Some(sidx),
        disasm: prog
            .text
            .get(sidx)
            .and_then(|&w| decode(w).ok())
            .map(|i| disasm(&i))
            .unwrap_or_default(),
        msg,
    };
    let mut out = Vec::new();
    if !p.exact {
        out.push(Diagnostic {
            code: Code::DlpInexact,
            severity: Code::DlpInexact.severity(),
            sidx: None,
            disasm: String::new(),
            msg: if p.notes.is_empty() {
                "the static walk could not stay exact".to_string()
            } else {
                p.notes.join("; ")
            },
        });
    }
    for r in &p.regions {
        if r.region == 0 || r.profile.insts == 0 {
            continue;
        }
        match classify(r.region, &r.profile) {
            VltOpportunity::ScalarParallel => out.push(at(
                Code::DlpScalarRegion,
                r.first_sidx,
                format!(
                    "region {} runs {} scalar ops and no vector element work: scalar VLT applies",
                    r.region, r.profile.scalar_ops
                ),
            )),
            VltOpportunity::ShortVector => out.push(at(
                Code::DlpShortVl,
                r.first_sidx,
                format!(
                    "region {} averages VL {:.1} of {MAX_VL}: a lane partition recovers idle elements",
                    r.region,
                    r.profile.avg_vl()
                ),
            )),
            _ => {}
        }
    }
    for v in &p.vmem_sites {
        if v.pattern != VMemPattern::Unit && v.execs > 0 && v.conflict_execs * 2 > v.execs {
            out.push(at(
                Code::DlpStrideConflict,
                v.sidx,
                format!(
                    "{} vector {} (stride {}..{} bytes) piles elements onto few L2 banks in {}/{} executions",
                    match v.pattern {
                        VMemPattern::Strided => "strided",
                        _ => "indexed",
                    },
                    if v.write { "store" } else { "load" },
                    v.min_stride,
                    v.max_stride,
                    v.conflict_execs,
                    v.execs
                ),
            ));
        }
    }
    for s in &p.setvl_sites {
        if s.execs > 0
            && s.min_request == s.max_request
            && !s.result_read
            && s.min_request > (MAX_VL / 8) as u64
        {
            let mut max_t = 1usize;
            for cand in [2usize, 4, 8] {
                if (MAX_VL / cand) as u64 >= s.min_request {
                    max_t = cand;
                }
            }
            out.push(at(
                Code::DlpSetvlClamp,
                s.sidx,
                format!(
                    "fixed setvl request {} with unread result: the phase cannot re-chunk, pinning VLT to at most {} threads",
                    s.min_request, max_t
                ),
            ));
        }
    }
    out.sort_by_key(|d| (d.sidx, d.code));
    out
}

/// Convenience: analyze and diagnose in one call (the `vlt lint --dlp` path).
pub fn dlp_report(prog: &Program, opts: &DlpOptions) -> (DlpProfile, Vec<Diagnostic>) {
    let p = analyze(prog, opts);
    let d = dlp_diagnostics(prog, &p);
    (p, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_exec::FuncSim;
    use vlt_isa::asm::assemble;

    fn dynamic(prog: &Program) -> vlt_exec::RunSummary {
        let mut sim = FuncSim::new(prog, 1);
        sim.run_to_completion(100_000_000).expect("program halts")
    }

    fn assert_matches_dynamic(src: &str) -> DlpProfile {
        let prog = assemble(src).unwrap();
        let p = analyze(&prog, &DlpOptions::default());
        let s = dynamic(&prog);
        assert!(p.exact, "walk should be exact: {:?}", p.notes);
        assert_eq!(p.total, s);
        p
    }

    #[test]
    fn range_set_basics() {
        let mut r = RangeSet::default();
        r.insert(10, 20);
        r.insert(30, 40);
        assert!(r.intersects(15, 16));
        assert!(!r.intersects(20, 30));
        r.insert(18, 32); // bridges both
        assert!(r.intersects(25, 26));
        r.remove(12, 35);
        assert!(r.intersects(10, 12));
        assert!(!r.intersects(12, 35));
        assert!(r.intersects(35, 40));
    }

    #[test]
    fn straight_line_vector_profile_is_exact() {
        let p = assert_matches_dynamic(
            ".data\nxs: .dword 1, 2, 3, 4, 5, 6, 7, 8\n.text\n\
             li x1, 8\nsetvl x2, x1\nla x3, xs\nvld v1, x3\n\
             vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n",
        );
        assert_eq!(p.total.vl_histogram[8], 3);
        assert_eq!(p.total.elem_ops, 24);
    }

    #[test]
    fn masked_ops_count_post_mask_elements() {
        // A mask with 2 of 8 bits set: the masked load counts 2 element
        // ops, the unmasked ALU op 8, and `vmsetb` itself (a vector
        // bookkeeping op at VL 8) another 8 — matching the simulator.
        let p = assert_matches_dynamic(
            ".data\nxs: .dword 1, 2, 3, 4, 5, 6, 7, 8\n.text\n\
             li x1, 8\nsetvl x2, x1\nli x4, 5\nvmsetb x4\n\
             la x3, xs\nvld v1, x3, vm\nvadd.vv v2, v1, v1\nhalt\n",
        );
        assert_eq!(p.total.elem_ops, 8 + 2 + 8);
    }

    #[test]
    fn long_scalar_loops_walk_exact() {
        // A 100k-iteration counting loop, and a 50k-iteration loop whose
        // stored counter the tail reloads into a branch.
        assert_matches_dynamic(
            "li x1, 0\nli x2, 100000\nli x3, 0\n\
             loop:\nadd x3, x3, x2\naddi x1, x1, 1\nbne x1, x2, loop\n\
             sd x3, -8(sp)\nhalt\n",
        );
        assert_matches_dynamic(
            "li x1, 0\nli x2, 50000\n\
             loop:\naddi x1, x1, 1\nsd x1, -8(sp)\nbne x1, x2, loop\n\
             ld x4, -8(sp)\nbne x4, x2, bad\nli x5, 1\nhalt\n\
             bad:\nli x5, 2\nhalt\n",
        );
    }

    #[test]
    fn strip_mine_loop_histogram_is_exact() {
        // Classic strip-mined vector loop over 100 elements: 1 full VL-64
        // chunk and 1 tail chunk at VL 36.
        let src = ".data\nxs: .space 800\n.text\n\
                   li x1, 100\nla x2, xs\n\
                   loop:\nsetvl x3, x1\nvld v1, x2\nvadd.vs v2, v1, x1\nvst v2, x2\n\
                   slli x4, x3, 3\nadd x2, x2, x4\nsub x1, x1, x3\nbne x1, x0, loop\n\
                   halt\n";
        let p = assert_matches_dynamic(src);
        assert_eq!(p.total.vl_histogram[64], 3);
        assert_eq!(p.total.vl_histogram[36], 3);
        assert_eq!(p.total.elem_ops, 300);
        // The adaptive setvl site is seen as tolerant (result read).
        assert!(p.setvl_sites.iter().all(|s| s.result_read || s.execs == 0));
    }

    #[test]
    fn region_and_epoch_attribution() {
        let src = ".data\nxs: .dword 1, 2, 3, 4\n.text\n\
                   li x1, 4\nsetvl x2, x1\nregion 1\nla x3, xs\nvld v1, x3\nbarrier\n\
                   region 2\nvadd.vv v2, v1, v1\nhalt\n";
        let p = assert_matches_dynamic(src);
        assert_eq!(p.epochs, 2);
        assert_eq!(p.epoch_profiles.len(), 2);
        let r1 = p.regions.iter().find(|r| r.region == 1).unwrap();
        let r2 = p.regions.iter().find(|r| r.region == 2).unwrap();
        assert_eq!(r1.profile.vector_insts, 1);
        assert_eq!(r2.profile.vector_insts, 1);
        assert_eq!(p.epoch_profiles[0].vector_insts, 1);
        assert_eq!(p.epoch_profiles[1].vector_insts, 1);
    }

    #[test]
    fn fixed_unread_setvl_pins_partitions() {
        let src = ".data\nxs: .space 512\n.text\n\
                   li x1, 12\nsetvl x2, x1\nla x3, xs\nregion 1\nvld v1, x3\n\
                   vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n";
        let prog = assemble(src).unwrap();
        let (p, diags) = dlp_report(&prog, &DlpOptions::default());
        assert!(p.exact);
        let site = &p.setvl_sites[0];
        assert_eq!((site.min_request, site.max_request), (12, 12));
        assert!(!site.result_read);
        assert!(diags.iter().any(|d| d.code == Code::DlpSetvlClamp), "{diags:?}");
        let a = advise(&p);
        assert!(a.max_threads <= 4, "mvl 8 cannot satisfy a fixed VL-12 phase");
    }

    #[test]
    fn setvl_records_its_request_before_overwriting_it() {
        // `setvl x1, x1` replaces its request of 100 with the granted 64:
        // the site must still record what was asked for.
        let src = ".data\nxs: .space 512\n.text\n\
                   li x1, 100\nsetvl x1, x1\nla x3, xs\nregion 1\nvld v1, x3\nhalt\n";
        let prog = assemble(src).unwrap();
        let (p, diags) = dlp_report(&prog, &DlpOptions::default());
        assert!(p.exact, "{:?}", p.notes);
        let site = &p.setvl_sites[0];
        assert_eq!((site.min_request, site.max_request), (100, 100));
        let clamp = diags.iter().find(|d| d.code == Code::DlpSetvlClamp).expect("clamp diagnostic");
        assert!(clamp.msg.contains("fixed setvl request 100 "), "{}", clamp.msg);
    }

    #[test]
    fn stride_conflicts_flagged() {
        // Stride 512 bytes = 64 dwords: every element maps to one bank.
        let src = ".data\nxs: .space 8192\n.text\n\
                   li x1, 16\nsetvl x2, x1\nla x3, xs\nli x4, 512\n\
                   region 1\nvlds v1, x3, x4\nhalt\n";
        let prog = assemble(src).unwrap();
        let (p, diags) = dlp_report(&prog, &DlpOptions::default());
        assert!(p.exact);
        let site = p.vmem_sites.iter().find(|v| v.pattern == VMemPattern::Strided).unwrap();
        assert_eq!(site.min_stride, 512);
        assert!(site.conflict_execs > 0);
        assert!(diags.iter().any(|d| d.code == Code::DlpStrideConflict), "{diags:?}");
    }

    #[test]
    fn advisor_prefers_partitioning_short_vectors() {
        // A parallel phase stuck at VL 8 wants lanes split 4 ways; a
        // long-vector phase at VL 64 wants them whole.
        let short = ".data\nxs: .space 512\n.text\nli x1, 8\nsetvl x2, x1\nla x3, xs\n\
                     region 1\nli x5, 200\nloop:\nvld v1, x3\nvfma.vv v2, v1, v1\n\
                     addi x5, x5, -1\nbne x5, x0, loop\nhalt\n";
        let p = analyze(&assemble(short).unwrap(), &DlpOptions::default());
        assert!(p.exact, "{:?}", p.notes);
        let a = advise(&p);
        assert!(a.best.threads >= 4, "short vectors want a split: {:?}", a.ranking);
        let r1 = a.regions.iter().find(|r| r.region == 1).unwrap();
        assert_eq!(r1.opportunity, VltOpportunity::ShortVector);
    }

    #[test]
    fn advisor_keeps_scalar_code_on_eight_threads() {
        let scalar = "region 1\nli x1, 1000\nli x2, 0\nloop:\nadd x2, x2, x1\n\
                      addi x1, x1, -1\nbne x1, x0, loop\nsd x2, -8(sp)\nhalt\n";
        let p = analyze(&assemble(scalar).unwrap(), &DlpOptions::default());
        assert!(p.exact, "{:?}", p.notes);
        let a = advise(&p);
        assert_eq!(a.best.threads, 8, "{:?}", a.ranking);
        assert_eq!(
            a.regions.iter().find(|r| r.region == 1).unwrap().opportunity,
            VltOpportunity::ScalarParallel
        );
    }

    #[test]
    fn diverging_loop_reports_inexact_not_hang() {
        let src = "li x1, 1\nloop:\nadd x2, x2, x1\nbeq x0, x0, loop\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { budget: 10_000, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(!p.exact);
        assert!(!p.notes.is_empty());
    }

    #[test]
    fn shared_mode_disjoint_tiles_validate() {
        // Two threads write disjoint tid-indexed tiles; pass 2 must
        // validate and the merged totals must match the 2-thread run.
        let src = ".data\nxs: .space 1024\n.text\n\
                   tid x1\nnthr x2\nla x3, xs\nslli x4, x1, 6\nadd x3, x3, x4\n\
                   li x5, 8\nsetvl x6, x5\nregion 1\nvld v1, x3\nvadd.vv v2, v1, v1\n\
                   vst v2, x3\nbarrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { threads: 2, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(p.exact, "{:?}", p.notes);
        let mut sim = FuncSim::new(&prog, 2);
        assert_eq!(p.total, sim.run_to_completion(1_000_000).unwrap());
    }

    #[test]
    fn cross_thread_steering_defeats_the_shared_walk() {
        // Thread 0 stores a flag another thread branches on after the
        // barrier: pass 2 refuses to call the counts schedule-independent
        // (the race analysis's observed walk still certifies the program;
        // see `content`'s tests).
        let src = ".data\nflag: .dword 0\n.text\n\
                   tid x1\nla x2, flag\nbne x1, x0, reader\n\
                   li x3, 1\nsd x3, 0(x2)\nbarrier\nhalt\n\
                   reader:\nbarrier\nld x4, 0(x2)\nbne x4, x0, done\ndone:\nhalt\n";
        let prog = assemble(src).unwrap();
        let dec = DecodedProgram::new(&prog);
        let opts = DlpOptions { threads: 2, budget: 20_000_000 };
        let (_, exact) = analyze_threads(&dec, &opts);
        assert!(!exact, "the symbolic walk must refuse this program");
    }

    #[test]
    fn same_epoch_steering_defeats_the_shared_walk() {
        // Both threads write the steering slot in the same epoch and then
        // load it back to index another access: pass 2 refuses, because a
        // value another thread may have written steers an address.
        let src = ".data\nidx: .dword 0\nxs: .space 64\n.text\n\
                   tid x1\nla x2, idx\nsd x1, 0(x2)\nld x3, 0(x2)\n\
                   la x4, xs\nslli x5, x3, 3\nadd x4, x4, x5\nld x6, 0(x4)\n\
                   barrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let dec = DecodedProgram::new(&prog);
        let opts = DlpOptions { threads: 2, budget: 20_000_000 };
        let (_, exact) = analyze_threads(&dec, &opts);
        assert!(!exact, "a cross-thread value steers an address");
    }

    #[test]
    fn vector_index_steering_defeats_the_shared_walk() {
        // Thread 1 stores byte offsets with a vector store before the
        // barrier; thread 0 loads them with a vector load after it and
        // gathers through them. Only vector loads read the other thread's
        // bytes, so their hulls alone must send thread 0 through pass 2.
        let src = ".data\nidx: .space 64\nxs: .space 512\n.text\n\
                   li x9, 8\nsetvl x0, x9\ntid x1\nla x2, idx\nla x3, xs\n\
                   beq x1, x0, reader\n\
                   vid v1\nli x5, 3\nvsll.vs v1, v1, x5\nvst v1, x2\nbarrier\nhalt\n\
                   reader:\nbarrier\nvld v1, x2\nvldx v2, x3, v1\nhalt\n";
        let prog = assemble(src).unwrap();
        let dec = DecodedProgram::new(&prog);
        let opts = DlpOptions { threads: 2, budget: 20_000_000 };
        let (_, exact) = analyze_threads(&dec, &opts);
        assert!(!exact, "another thread's stored offsets steer a gather");
    }
}
