//! Per-thread barrier-epoch footprint analysis (the static half of vlrace).
//!
//! The race detector re-runs an abstract interpretation of the program once
//! per concrete thread id. Unlike `absint` (which tracks constants and
//! definedness for a *generic* thread), this pass gives every run a concrete
//! `tid`/`nthr`, so thread-dependent branches prune and thread-dependent
//! address math stays exact. Register values are tracked as affine *forms*
//! `c + Σ kᵢ·vᵢ` over analysis variables:
//!
//! * [`VarId::Slot`] — a loop-join variable created when values disagree at
//!   a CFG join. Quantities whose per-iteration deltas are parallel share
//!   one slot variable, which preserves the pointer/counter relation that
//!   strip-mined loops rely on (`ptr = base + 8·s`, `i = first + s`).
//! * [`VarId::Vl`] — the result of a `setvl` whose request is not constant.
//!   The requested form is kept as a symbolic *cap*, so a footprint end
//!   like `base + 8·(i + lane)` cancels back to the loop bound.
//! * [`VarId::Gen`] — a value bounded by construction (`andi`, or a load
//!   folded from the initial data image).
//! * [`VarId::Lane`] — the element index of one vector memory access.
//!
//! Loop joins validate that all members of a slot advance consistently
//! (the *phi* form); inconsistent members demote to hull variables that
//! only track a value range. The epoch counter (number of executed
//! `barrier`s) is itself a form and participates in the same machinery, so
//! a barrier inside a loop yields `epoch = first + s` rather than ⊤.
//!
//! The output per run is a set of [`Access`]es — one per memory
//! instruction — with symbolic address and epoch forms plus the branch
//! refinements in scope, which `races` intersects across runs.

use std::collections::{BTreeMap, BTreeSet};

use vlt_isa::{Op, DATA_BASE, MAX_VL, STACK_BASE, STACK_SIZE};

use crate::cfg::{Cfg, Term};

/// A closed or half-open integer range: `(lo, hi)`, `None` = unbounded.
pub(crate) type Rng = (Option<i64>, Option<i64>);

/// Branch refinements in scope at a program point: per-variable bounds.
pub(crate) type Refine = BTreeMap<VarId, Rng>;

/// Identity of one analysis variable (within a single per-tid run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum VarId {
    /// Join variable `slot` created at the head of CFG block `block`.
    Slot {
        /// CFG block of the join that owns the variable.
        block: u32,
        /// Slot index within that join.
        slot: u32,
    },
    /// Result of the `setvl` at static instruction `sidx`.
    Vl(u32),
    /// A generated bounded value (`andi` mask or folded load) at `sidx`.
    Gen(u32),
    /// Element index of the vector memory access at `sidx`.
    Lane(u32),
}

/// A variable tagged with a *side* so two runs can share a form space.
/// Within a run the side is always 0; `races` retags private variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Var {
    /// 0 = shared/sync (or run-local), 1/2 = private to one side of a pair.
    pub side: u8,
    /// The underlying run-local variable.
    pub id: VarId,
}

impl Var {
    fn local(id: VarId) -> Var {
        Var { side: 0, id }
    }
}

/// An affine form `c + Σ kᵢ·vᵢ` with wrapping i64 arithmetic.
/// Terms are sorted by variable and never have a zero coefficient.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Form {
    /// Constant part.
    pub c: i64,
    /// Affine terms `(variable, coefficient)`.
    pub t: Vec<(Var, i64)>,
}

impl Form {
    pub(crate) fn konst(c: i64) -> Form {
        Form { c, t: Vec::new() }
    }

    pub(crate) fn var(id: VarId) -> Form {
        Form { c: 0, t: vec![(Var::local(id), 1)] }
    }

    pub(crate) fn is_const(&self) -> Option<i64> {
        if self.t.is_empty() {
            Some(self.c)
        } else {
            None
        }
    }

    pub(crate) fn add(&self, o: &Form) -> Form {
        let mut t = Vec::with_capacity(self.t.len() + o.t.len());
        let (mut i, mut j) = (0, 0);
        while i < self.t.len() || j < o.t.len() {
            if j == o.t.len() || (i < self.t.len() && self.t[i].0 < o.t[j].0) {
                t.push(self.t[i]);
                i += 1;
            } else if i == self.t.len() || o.t[j].0 < self.t[i].0 {
                t.push(o.t[j]);
                j += 1;
            } else {
                let k = self.t[i].1.wrapping_add(o.t[j].1);
                if k != 0 {
                    t.push((self.t[i].0, k));
                }
                i += 1;
                j += 1;
            }
        }
        Form { c: self.c.wrapping_add(o.c), t }
    }

    pub(crate) fn neg(&self) -> Form {
        Form {
            c: self.c.wrapping_neg(),
            t: self.t.iter().map(|&(v, k)| (v, k.wrapping_neg())).collect(),
        }
    }

    pub(crate) fn sub(&self, o: &Form) -> Form {
        self.add(&o.neg())
    }

    pub(crate) fn addc(&self, c: i64) -> Form {
        Form { c: self.c.wrapping_add(c), t: self.t.clone() }
    }

    pub(crate) fn scale(&self, k: i64) -> Form {
        if k == 0 {
            return Form::konst(0);
        }
        Form {
            c: self.c.wrapping_mul(k),
            t: self.t.iter().map(|&(v, co)| (v, co.wrapping_mul(k))).collect(),
        }
    }

    /// Exact division by a constant; `None` unless every part divides.
    pub(crate) fn divide(&self, k: i64) -> Option<Form> {
        if k == 0 {
            return None;
        }
        if self.c % k != 0 || self.t.iter().any(|&(_, co)| co % k != 0) {
            return None;
        }
        Some(Form { c: self.c / k, t: self.t.iter().map(|&(v, co)| (v, co / k)).collect() })
    }

    /// Substitute `v := repl` (used for cap substitution and enumeration).
    pub(crate) fn subst(&self, v: Var, repl: &Form) -> Form {
        match self.t.iter().find(|&&(w, _)| w == v) {
            None => self.clone(),
            Some(&(_, k)) => {
                let mut base = Form {
                    c: self.c,
                    t: self.t.iter().copied().filter(|&(w, _)| w != v).collect(),
                };
                base = base.add(&repl.scale(k));
                base
            }
        }
    }

    /// gcd of the term coefficients (0 when the form is constant).
    pub(crate) fn gcd_terms(&self) -> i64 {
        self.t.iter().fold(0i64, |g, &(_, k)| gcd(g, k.unsigned_abs() as i64))
    }
}

pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

/// What a variable is; drives range-update discipline and sync eligibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// Loop-join variable (range accumulated with widening).
    Slot,
    /// `setvl` result (range replaced each visit; request form as cap).
    Vl,
    /// Load folded against the initial data image.
    Fold,
    /// `andi`-bounded value.
    Andi,
    /// Vector element index of one access.
    Lane,
}

/// Everything known about one analysis variable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarInfo {
    /// Constant lower bound, if any.
    pub lo: Option<i64>,
    /// Constant upper bound, if any.
    pub hi: Option<i64>,
    /// Symbolic upper bounds (forms the variable never exceeds).
    pub caps: Vec<Form>,
    /// Symbolic lower bounds.
    pub floors: Vec<Form>,
    /// Widening counters.
    lo_grow: u32,
    hi_grow: u32,
    /// Creation-time range that any narrowed range must still cover
    /// (slot creation value for counters, the demotion hull for hulls).
    base: Rng,
    /// Residue class: every value of the variable is ≡ 0 (mod step),
    /// maintained as the gcd of the generators of all observed advances
    /// (a counter that only ever advances by ±32 keeps step 32). Stride
    /// structure the interval hull loses lives here; 1 means no info.
    pub step: i64,
    /// True while every observed advance is `s := s + 1`.
    pub unit_step: bool,
    /// What kind of variable this is.
    pub origin: Origin,
}

impl VarInfo {
    fn slot() -> VarInfo {
        VarInfo {
            lo: Some(0),
            hi: Some(0),
            caps: Vec::new(),
            floors: Vec::new(),
            lo_grow: 0,
            hi_grow: 0,
            base: (Some(0), Some(0)),
            step: 1,
            unit_step: true,
            origin: Origin::Slot,
        }
    }
}

/// Bound-evaluation environment: per-variable ranges and symbolic bounds.
pub(crate) trait Env {
    /// Constant range of a variable.
    fn rng(&self, v: Var) -> Rng;
    /// Symbolic upper bounds of a variable (same form space).
    fn caps(&self, v: Var) -> Vec<Form>;
    /// Symbolic lower bounds of a variable.
    fn floors(&self, v: Var) -> Vec<Form>;
}

const EVAL_DEPTH: usize = 6;

/// Least upper bound of a form's value under `env`, or `None` if unbounded.
/// Tries the direct per-variable bounds and, recursively, every cap/floor
/// substitution — this is what cancels induction variables against their
/// loop bounds (`i + vl ≤ n` when `cap(vl) = n − i`).
pub(crate) fn cub<E: Env>(env: &E, f: &Form, visited: &mut Vec<Var>) -> Option<i64> {
    let mut best: Option<i64> = direct_bound(env, f, true);
    if visited.len() >= EVAL_DEPTH {
        return best;
    }
    for &(v, k) in &f.t {
        if visited.contains(&v) {
            continue;
        }
        let subs = if k > 0 { env.caps(v) } else { env.floors(v) };
        for s in &subs {
            visited.push(v);
            let cand = cub(env, &f.subst(v, s), visited);
            visited.pop();
            best = opt_min(best, cand);
        }
    }
    best
}

/// Greatest lower bound of a form's value under `env` (mirror of [`cub`]).
pub(crate) fn clb<E: Env>(env: &E, f: &Form, visited: &mut Vec<Var>) -> Option<i64> {
    let mut best: Option<i64> = direct_bound(env, f, false);
    if visited.len() >= EVAL_DEPTH {
        return best;
    }
    for &(v, k) in &f.t {
        if visited.contains(&v) {
            continue;
        }
        let subs = if k > 0 { env.floors(v) } else { env.caps(v) };
        for s in &subs {
            visited.push(v);
            let cand = clb(env, &f.subst(v, s), visited);
            visited.pop();
            best = opt_max(best, cand);
        }
    }
    best
}

fn direct_bound<E: Env>(env: &E, f: &Form, upper: bool) -> Option<i64> {
    let mut acc = f.c as i128;
    for &(v, k) in &f.t {
        let (lo, hi) = env.rng(v);
        let b = if (k > 0) == upper { hi } else { lo };
        acc += k as i128 * b? as i128;
    }
    i64::try_from(acc).ok()
}

use crate::interval::{max_opt as opt_max, min_opt as opt_min};

fn rng_and(a: Rng, b: Rng) -> Rng {
    (opt_max(a.0, b.0), opt_min(a.1, b.1))
}

/// A scalar register value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Val {
    /// An affine form.
    F(Form),
    /// A 0/1 comparison result: value is `(d < 0) as u64`.
    Cmp(Form),
    /// Unknown.
    Top,
}

impl Val {
    fn form(&self) -> Option<&Form> {
        match self {
            Val::F(f) => Some(f),
            _ => None,
        }
    }

    fn konst(c: i64) -> Val {
        Val::F(Form::konst(c))
    }

    fn is_const(&self) -> Option<i64> {
        self.form().and_then(Form::is_const)
    }
}

/// A vector register value: element values within `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VVal {
    /// All enabled elements lie within the inclusive form range.
    Range(Form, Form),
    /// Unknown.
    Top,
}

/// One quantity tracked by the join machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Qty {
    /// Integer register.
    X(u8),
    /// The vector length.
    Vl,
    /// The barrier-epoch counter.
    Epoch,
}

/// Membership of a quantity in a join slot: `value = first + coef·s`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Member {
    /// Slot index within the join.
    pub slot: u32,
    /// Per-quantity scale of the slot variable.
    pub coef: i64,
    /// Value of the quantity when the slot variable is 0.
    pub first: Form,
}

/// How a slot evolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    /// All members advance consistently; phi is meaningful.
    Counter,
    /// Demoted: a single-member slot that only tracks a value hull.
    Hull,
}

/// Join state of one CFG block.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotState {
    /// Quantity → slot membership.
    pub assign: BTreeMap<Qty, Member>,
    /// Per-slot kind.
    pub kinds: Vec<SlotKind>,
    /// Per-slot advance forms, keyed by the predecessor block the edge
    /// came from (a loop head has a re-entry advance *and* a backedge
    /// advance, and they legitimately differ).
    pub phi: Vec<BTreeMap<u32, Form>>,
    /// Quantities forced to ⊤ at this join.
    pub top: BTreeSet<Qty>,
}

/// Abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct St {
    x: Vec<Val>,
    v: Vec<VVal>,
    vl: Val,
    mvl: Option<i64>,
    epoch: Form,
    refine: Refine,
}

impl St {
    fn init(tid: usize) -> St {
        let mut x = vec![Val::Top; 32];
        x[0] = Val::konst(0);
        x[30] = Val::konst((STACK_BASE + (tid as u64 + 1) * STACK_SIZE) as i64);
        St {
            x,
            v: vec![VVal::Top; 32],
            vl: Val::konst(MAX_VL as i64),
            mvl: Some(MAX_VL as i64),
            epoch: Form::konst(0),
            refine: Refine::new(),
        }
    }

    fn get_q(&self, q: Qty) -> Val {
        match q {
            Qty::X(r) => self.x[r as usize].clone(),
            Qty::Vl => self.vl.clone(),
            Qty::Epoch => Val::F(self.epoch.clone()),
        }
    }

    fn set_q(&mut self, q: Qty, v: Val) {
        match q {
            Qty::X(r) => self.x[r as usize] = v,
            Qty::Vl => self.vl = v,
            Qty::Epoch => {
                // The epoch must stay a form; ⊤ never reaches here because
                // both sides of an epoch join are always forms.
                if let Val::F(f) = v {
                    self.epoch = f;
                }
            }
        }
    }
}

fn qtys() -> impl Iterator<Item = Qty> {
    (1u8..32).map(Qty::X).chain([Qty::Vl, Qty::Epoch])
}

/// One memory access site in one per-tid run.
#[derive(Debug, Clone)]
pub(crate) struct Access {
    /// Static instruction index.
    pub sidx: usize,
    /// True for stores.
    pub write: bool,
    /// Element size in bytes.
    pub esize: u8,
    /// Address form (`None` when the analysis cannot bound the address).
    pub addr: Option<Form>,
    /// Barrier-epoch form at the access.
    pub epoch: Form,
    /// Branch refinements in scope.
    pub refine: Refine,
}

/// A load folded against the initial data image, over a span no store
/// may touch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fold {
    /// The address form that was enumerated.
    pub addr: Form,
    /// Byte span `[lo, hi)` of data the fold read.
    pub span: (i64, i64),
}

/// Result of analyzing the program as one concrete thread.
#[derive(Debug)]
pub(crate) struct TidRun {
    /// The thread id this run modeled.
    pub tid: usize,
    /// One entry per reachable memory instruction.
    pub accesses: Vec<Access>,
    /// Final variable ranges/bounds.
    pub vars: BTreeMap<VarId, VarInfo>,
    /// Final join states, per CFG block.
    pub joins: BTreeMap<usize, SlotState>,
    /// Folded loads (for cross-run invalidation and sync checks).
    pub folds: BTreeMap<usize, Fold>,
    /// True when the fixpoint did not converge; treat every access as
    /// unbounded.
    pub failed: bool,
}

impl TidRun {
    /// Run-local bound environment for evaluating this run's forms.
    pub(crate) fn env<'a>(&'a self, refine: &'a Refine) -> impl Env + 'a {
        RunEnv { vars: &self.vars, refine, skip_global: None }
    }
}

/// Run-local [`Env`]: global variable info intersected with a refinement,
/// optionally ignoring the global range of one variable (for leap bounds).
struct RunEnv<'a> {
    vars: &'a BTreeMap<VarId, VarInfo>,
    refine: &'a Refine,
    skip_global: Option<VarId>,
}

impl Env for RunEnv<'_> {
    fn rng(&self, v: Var) -> Rng {
        let global = if self.skip_global == Some(v.id) {
            (None, None)
        } else {
            self.vars.get(&v.id).map_or((None, None), |i| (i.lo, i.hi))
        };
        let refined = self.refine.get(&v.id).copied().unwrap_or((None, None));
        rng_and(global, refined)
    }

    fn caps(&self, v: Var) -> Vec<Form> {
        self.vars.get(&v.id).map_or(Vec::new(), |i| i.caps.clone())
    }

    fn floors(&self, v: Var) -> Vec<Form> {
        self.vars.get(&v.id).map_or(Vec::new(), |i| i.floors.clone())
    }
}

const MAX_SWEEPS: usize = 80;
const GROW_LIMIT: u32 = 3;
const NARROW_ROUNDS: usize = 6;
const FOLD_SPAN: i64 = 256;
const VFOLD_SPAN: i64 = 1 << 16;
const SCALE_LIMIT: i64 = 1 << 40;

/// Arrival bounds accumulated for one variable during a narrowing sweep.
/// A side is only trustworthy if *every* advancing edge produced a finite
/// leap for it; a single unbounded edge poisons the side.
struct NarrowProp {
    lo: Option<i64>,
    hi: Option<i64>,
    lo_ok: bool,
    hi_ok: bool,
}

impl NarrowProp {
    fn new() -> NarrowProp {
        NarrowProp { lo: None, hi: None, lo_ok: true, hi_ok: true }
    }
}

pub(crate) struct Runner<'a> {
    cfg: &'a Cfg,
    data: &'a [u8],
    tid: usize,
    nthr: usize,
    overlay: &'a crate::content::Overlay,
    image: Option<crate::content::DataHull>,
    vars: BTreeMap<VarId, VarInfo>,
    joins: BTreeMap<usize, SlotState>,
    folds: BTreeMap<usize, Fold>,
    states: Vec<Option<St>>,
    dirty: bool,
    narrow_acc: Option<BTreeMap<VarId, NarrowProp>>,
    debug: bool,
    log: Vec<String>,
}

/// Analyze the program as concrete thread `tid` of `nthr`. `overlay` is
/// the store-span overlay from the previous fold round (`races` iterates
/// to an overlay fixpoint; an empty overlay means "trust the initial data
/// image", a poisoned one forbids every fold).
pub(crate) fn analyze_tid(
    cfg: &Cfg,
    data: &[u8],
    tid: usize,
    nthr: usize,
    overlay: &crate::content::Overlay,
) -> TidRun {
    let mut r = Runner {
        cfg,
        data,
        tid,
        nthr,
        overlay,
        image: None,
        vars: BTreeMap::new(),
        joins: BTreeMap::new(),
        folds: BTreeMap::new(),
        states: vec![None; cfg.blocks.len()],
        dirty: false,
        narrow_acc: None,
        debug: std::env::var_os("VLRACE_DEBUG").is_some(),
        log: Vec::new(),
    };
    let failed = !r.fixpoint();
    if !failed {
        r.narrow();
    }
    if r.debug {
        eprintln!("vlrace tid {tid} converged={}", !failed);
        for (id, info) in &r.vars {
            eprintln!(
                "  {id:?}: [{:?},{:?}] grow=({},{}) unit={} caps={:?} floors={:?}",
                info.lo,
                info.hi,
                info.lo_grow,
                info.hi_grow,
                info.unit_step,
                info.caps,
                info.floors
            );
        }
    }
    let accesses = if failed { r.collect_unknown() } else { r.emit() };
    TidRun { tid, accesses, vars: r.vars, joins: r.joins, folds: r.folds, failed }
}

impl Runner<'_> {
    fn fixpoint(&mut self) -> bool {
        let rpo = self.cfg.rpo();
        self.states[self.cfg.entry] = Some(St::init(self.tid));
        for sweep in 0..MAX_SWEEPS {
            self.dirty = false;
            self.log.clear();
            let mut state_changed: Option<usize> = None;
            for &b in &rpo {
                let Some(st0) = self.states[b].clone() else { continue };
                let mut st = st0;
                self.transfer_block(b, &mut st, &mut None);
                for (succ, cond) in self.edges(b) {
                    if let Some(rst) = self.refine_edge(&st, b, cond, succ) {
                        if self.join(succ, rst, b) {
                            state_changed.get_or_insert(succ);
                        }
                    }
                }
            }
            if !self.dirty && state_changed.is_none() {
                return true;
            }
            if self.debug && sweep + 2 >= MAX_SWEEPS {
                eprintln!(
                    "vlrace tid {} sweep {sweep}: state_changed={state_changed:?} log:",
                    self.tid
                );
                for l in &self.log {
                    eprintln!("  {l}");
                }
            }
        }
        false
    }

    /// Successor edges of a block with the branch polarity that guards them.
    fn edges(&self, b: usize) -> Vec<(usize, Option<bool>)> {
        match self.cfg.blocks[b].term {
            Term::FallThrough => {
                self.cfg.blocks[b].succs.first().map(|&s| (s, None)).into_iter().collect()
            }
            Term::Jump(t) => vec![(t, None)],
            Term::Branch { taken, fall } => {
                let mut v = vec![(taken, Some(true))];
                if let Some(f) = fall {
                    v.push((f, Some(false)));
                }
                v
            }
            Term::Halt | Term::Indirect | Term::OffEnd => Vec::new(),
        }
    }

    fn env<'r>(&'r self, refine: &'r Refine) -> RunEnv<'r> {
        RunEnv { vars: &self.vars, refine, skip_global: None }
    }

    fn ub(&self, f: &Form, refine: &Refine) -> Option<i64> {
        cub(&self.env(refine), f, &mut Vec::new())
    }

    fn lb(&self, f: &Form, refine: &Refine) -> Option<i64> {
        clb(&self.env(refine), f, &mut Vec::new())
    }

    // ---- derived variables --------------------------------------------

    /// Install or replace a derived variable's info (Vl/Gen/Lane). These
    /// are *functions of the converging state*, so they are replaced, not
    /// widened; convergence is detected through the dirty flag.
    fn set_derived(&mut self, id: VarId, info: VarInfo) -> Form {
        match self.vars.get(&id) {
            Some(old) if *old == info => {}
            _ => {
                if self.debug {
                    let old = self.vars.get(&id);
                    self.log.push(format!("set_derived {id:?}: {old:?} -> {info:?}"));
                }
                self.vars.insert(id, info);
                self.dirty = true;
            }
        }
        Form::var(id)
    }

    /// Widen a slot variable's range. `lo`/`hi` bound the advance form
    /// under the full environment (the creep values); `leap` bounds it
    /// with the variable's *own* global range masked out, so a finite
    /// leap soundly covers every backedge arrival on its own — growth
    /// jumps straight to it instead of creeping one iteration per sweep,
    /// and no growth is needed at all once the leap is inside the range.
    fn widen(&mut self, id: VarId, lo: Option<i64>, hi: Option<i64>, leap: Rng, advances: bool) {
        let narrowing = self.narrow_acc.is_some();
        let info = self.vars.get_mut(&id).expect("slot var registered");
        let proposal_hi = match leap.1 {
            Some(l) => Some(l),
            None => hi,
        };
        let need_hi = match (info.hi, proposal_hi) {
            (Some(old), Some(p)) => p > old,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if need_hi {
            info.hi = if narrowing {
                // Post-fixpoint: grow to cover without burning counters
                // (bounded NARROW_ROUNDS guarantees termination).
                proposal_hi.map(|p| info.hi.map_or(p, |old| p.max(old)))
            } else {
                info.hi_grow += 1;
                if info.hi_grow > GROW_LIMIT {
                    None
                } else {
                    proposal_hi.map(|p| info.hi.map_or(p, |old| p.max(old)))
                }
            };
            self.dirty = true;
            if self.debug {
                let msg = format!("widen hi {id:?}: prop={proposal_hi:?} leap={leap:?}");
                self.log.push(msg);
            }
        }
        let proposal_lo = match leap.0 {
            Some(l) => Some(l),
            None => lo,
        };
        let need_lo = match (info.lo, proposal_lo) {
            (Some(old), Some(p)) => p < old,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if need_lo {
            info.lo = if narrowing {
                proposal_lo.map(|p| info.lo.map_or(p, |old| p.min(old)))
            } else {
                info.lo_grow += 1;
                if info.lo_grow > GROW_LIMIT {
                    None
                } else {
                    proposal_lo.map(|p| info.lo.map_or(p, |old| p.min(old)))
                }
            };
            self.dirty = true;
            if self.debug {
                let msg = format!("widen lo {id:?}: prop={proposal_lo:?} leap={leap:?}");
                self.log.push(msg);
            }
        }
        // During a narrowing sweep, record every advancing edge's arrival
        // bounds. Identity advances contribute no values beyond the
        // variable's existing range, so they neither feed nor poison the
        // accumulator.
        if narrowing && advances {
            if let Some(acc) = &mut self.narrow_acc {
                let e = acc.entry(id).or_insert_with(NarrowProp::new);
                match leap.1 {
                    Some(h) => e.hi = Some(e.hi.map_or(h, |o| o.max(h))),
                    None => e.hi_ok = false,
                }
                match leap.0 {
                    Some(l) => e.lo = Some(e.lo.map_or(l, |o| o.min(l))),
                    None => e.lo_ok = false,
                }
            }
        }
    }

    /// Bounded narrowing after the widening fixpoint converges. Widening
    /// burns per-variable grow counters in sweep order, so a dependent
    /// slot can be forced to ∞ while its supplier's refine-derived bound
    /// is still propagating — and `widen`'s (None, _) arm makes that loss
    /// permanent. At the fixpoint every arrival is bounded by its edge's
    /// leap value, so re-sweeping and adopting `hull(base, arrivals)` for
    /// sides where *every* advancing edge has a finite leap soundly
    /// restores finite ranges. Each round can unlock the next (supplier
    /// before dependent), hence the bounded iteration.
    fn narrow(&mut self) {
        let rpo = self.cfg.rpo();
        self.narrow_rounds(&rpo);
        self.narrow_optimistic(&rpo);
        self.narrow_rounds(&rpo);
    }

    /// One re-sweep at the fixpoint with arrival-bound recording on.
    fn narrow_sweep(&mut self, rpo: &[usize]) -> BTreeMap<VarId, NarrowProp> {
        self.narrow_acc = Some(BTreeMap::new());
        self.log.clear();
        for &b in rpo {
            let Some(st0) = self.states[b].clone() else { continue };
            let mut st = st0;
            self.transfer_block(b, &mut st, &mut None);
            for (succ, cond) in self.edges(b) {
                if let Some(rst) = self.refine_edge(&st, b, cond, succ) {
                    self.join(succ, rst, b);
                }
            }
        }
        self.narrow_acc.take().expect("narrow accumulator")
    }

    /// Conservative narrowing rounds: adopt `hull(base, arrivals)` for a
    /// side only when *every* advancing edge has a finite leap. Each round
    /// can unlock the next (supplier before dependent).
    fn narrow_rounds(&mut self, rpo: &[usize]) {
        for round in 0..NARROW_ROUNDS {
            let acc = self.narrow_sweep(rpo);
            let mut changed = false;
            for (id, p) in acc {
                let Some(info) = self.vars.get_mut(&id) else { continue };
                if info.hi.is_none() && p.hi_ok {
                    if let (Some(h), Some(bh)) = (p.hi, info.base.1) {
                        info.hi = Some(h.max(bh));
                        changed = true;
                        if self.debug {
                            eprintln!(
                                "vlrace tid {} narrow round {round}: hi {id:?} -> {:?}",
                                self.tid, info.hi
                            );
                        }
                    }
                }
                if info.lo.is_none() && p.lo_ok {
                    if let (Some(l), Some(bl)) = (p.lo, info.base.0) {
                        info.lo = Some(l.min(bl));
                        changed = true;
                        if self.debug {
                            eprintln!(
                                "vlrace tid {} narrow round {round}: lo {id:?} -> {:?}",
                                self.tid, info.lo
                            );
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Guess-and-verify narrowing for mutually dependent unbounded
    /// variables. The same induction value rebased at several loop heads
    /// forms a copy cycle (b2 → b3 → b4 → b2): each head's bound depends
    /// on the next, so per-variable narrowing never fires. Instead, seed
    /// every still-unbounded side from its finite edges (or its base),
    /// install all guesses simultaneously, and re-sweep: if every arrival
    /// stays within its guess, the set is a valid mutual invariant
    /// (coinduction) and is kept; arrivals above a guess raise it and
    /// retry; a side with a genuinely unbounded edge drops out. Sweeps
    /// under a hypothesis that is later raised or dropped may bake
    /// unsound refinements into states/joins/folds, so each attempt
    /// starts from a snapshot and only a verified attempt's state is
    /// kept.
    fn narrow_optimistic(&mut self, rpo: &[usize]) {
        let seed = self.narrow_sweep(rpo);
        let mut hi_guess: BTreeMap<VarId, i64> = BTreeMap::new();
        let mut lo_guess: BTreeMap<VarId, i64> = BTreeMap::new();
        for (id, p) in &seed {
            let Some(info) = self.vars.get(id) else { continue };
            if info.hi.is_none() {
                if let Some(bh) = info.base.1 {
                    hi_guess.insert(*id, p.hi.map_or(bh, |h| h.max(bh)));
                }
            }
            if info.lo.is_none() {
                if let Some(bl) = info.base.0 {
                    lo_guess.insert(*id, p.lo.map_or(bl, |l| l.min(bl)));
                }
            }
        }
        if hi_guess.is_empty() && lo_guess.is_empty() {
            return;
        }
        let snap = (self.vars.clone(), self.joins.clone(), self.folds.clone(), self.states.clone());
        let budget = 8 + hi_guess.len() + lo_guess.len();
        for attempt in 0..budget {
            self.vars = snap.0.clone();
            self.joins = snap.1.clone();
            self.folds = snap.2.clone();
            self.states = snap.3.clone();
            for (id, g) in &hi_guess {
                self.vars.get_mut(id).expect("guessed var").hi = Some(*g);
            }
            for (id, g) in &lo_guess {
                self.vars.get_mut(id).expect("guessed var").lo = Some(*g);
            }
            let acc = self.narrow_sweep(rpo);
            let mut ok = true;
            let mut drop_hi: Vec<VarId> = Vec::new();
            let mut drop_lo: Vec<VarId> = Vec::new();
            for (id, g) in &mut hi_guess {
                let (arr, valid) = acc.get(id).map_or((None, true), |p| (p.hi, p.hi_ok));
                if !valid {
                    drop_hi.push(*id);
                    continue;
                }
                let bh = self.vars[id].base.1.expect("seed guarded base");
                let new = arr.map_or(bh, |h| h.max(bh));
                if new > *g {
                    *g = new;
                    ok = false;
                }
            }
            for (id, g) in &mut lo_guess {
                let (arr, valid) = acc.get(id).map_or((None, true), |p| (p.lo, p.lo_ok));
                if !valid {
                    drop_lo.push(*id);
                    continue;
                }
                let bl = self.vars[id].base.0.expect("seed guarded base");
                let new = arr.map_or(bl, |l| l.min(bl));
                if new < *g {
                    *g = new;
                    ok = false;
                }
            }
            if !drop_hi.is_empty() || !drop_lo.is_empty() {
                for id in drop_hi {
                    hi_guess.remove(&id);
                }
                for id in drop_lo {
                    lo_guess.remove(&id);
                }
                if hi_guess.is_empty() && lo_guess.is_empty() {
                    break;
                }
                continue;
            }
            if ok {
                if self.debug {
                    for (id, g) in &hi_guess {
                        eprintln!(
                            "vlrace tid {} narrow optimistic (attempt {attempt}): hi {id:?} -> {g}",
                            self.tid
                        );
                    }
                    for (id, g) in &lo_guess {
                        eprintln!(
                            "vlrace tid {} narrow optimistic (attempt {attempt}): lo {id:?} -> {g}",
                            self.tid
                        );
                    }
                }
                return;
            }
        }
        // No verified assignment: restore the pre-hypothesis state.
        self.vars = snap.0;
        self.joins = snap.1;
        self.folds = snap.2;
        self.states = snap.3;
    }

    /// Gcd of the residue generators of one advance form: terms over
    /// *other* variables contribute `|k|·step(w)` (w ≡ 0 mod step(w)),
    /// the constant contributes `|c|`, and the variable's own term
    /// preserves any residue so it contributes nothing. An identity
    /// advance yields 0, the gcd identity.
    fn edge_step(&self, id: VarId, phi: &Form) -> i64 {
        let mut g = phi.c.abs();
        for &(w, k) in &phi.t {
            if w.id == id {
                continue;
            }
            let ws = self.vars.get(&w.id).map_or(1, |i| i.step.max(1));
            g = gcd(g, k.saturating_abs().saturating_mul(ws));
        }
        g
    }

    /// Evaluate an advance form with the variable's own global range
    /// masked out (only edge refinements bound it). Used as the widening
    /// leap target.
    fn leap_rng(&self, id: VarId, phi: &Form, refine: &Refine) -> Rng {
        let env = RunEnv { vars: &self.vars, refine, skip_global: Some(id) };
        (clb(&env, phi, &mut Vec::new()), cub(&env, phi, &mut Vec::new()))
    }

    // ---- join ----------------------------------------------------------

    fn join(&mut self, b: usize, inc: St, pred: usize) -> bool {
        let Some(cur) = self.states[b].clone() else {
            self.states[b] = Some(inc);
            return true;
        };
        let mut slots = self.joins.remove(&b).unwrap_or_default();
        let mut merged = cur.clone();

        let mut phis: BTreeMap<u32, Vec<Form>> = BTreeMap::new();
        let mut demote: BTreeSet<u32> = BTreeSet::new();
        let mut newly: Vec<(Qty, Form, Form)> = Vec::new(); // (q, cur, delta)

        for q in qtys() {
            if slots.top.contains(&q) {
                merged.set_q(q, Val::Top);
                continue;
            }
            let cv = merged.get_q(q);
            let iv = inc.get_q(q);
            match (&cv, &iv) {
                (Val::F(fc), Val::F(fi)) => {
                    if let Some(m) = slots.assign.get(&q) {
                        match fi.sub(&m.first).divide(m.coef) {
                            Some(phi) => phis.entry(m.slot).or_default().push(phi),
                            None => {
                                demote.insert(m.slot);
                            }
                        }
                    } else if fc != fi {
                        newly.push((q, fc.clone(), fi.sub(fc)));
                    }
                }
                (Val::Cmp(a), Val::Cmp(bb)) if a == bb => {}
                (Val::Top, Val::Top) => {}
                _ => {
                    // Mismatched shapes (or one side ⊤): force ⊤ forever.
                    if q == Qty::Epoch {
                        // Epochs are always forms; unreachable, but keep
                        // the state sound by hulling instead.
                        continue;
                    }
                    slots.top.insert(q);
                    slots.assign.remove(&q);
                    merged.set_q(q, Val::Top);
                }
            }
        }

        // Demote slots whose members no longer advance consistently.
        for (s, list) in &phis {
            if list.windows(2).any(|w| w[0] != w[1]) {
                demote.insert(*s);
            }
        }
        for s in demote {
            let members: Vec<Qty> =
                slots.assign.iter().filter(|(_, m)| m.slot == s).map(|(q, _)| *q).collect();
            phis.remove(&s);
            for q in members {
                let ns = slots.kinds.len() as u32;
                let id = VarId::Slot { block: b as u32, slot: ns };
                slots.kinds.push(SlotKind::Hull);
                slots.phi.push(BTreeMap::new());
                let cur_rng = match merged.get_q(q).form() {
                    Some(f) => (self.lb(f, &merged.refine), self.ub(f, &merged.refine)),
                    None => (None, None),
                };
                let inc_rng = match inc.get_q(q).form() {
                    Some(f) => (self.lb(f, &inc.refine), self.ub(f, &inc.refine)),
                    None => (None, None),
                };
                let mut info = VarInfo::slot();
                info.unit_step = false;
                info.lo = opt_min(cur_rng.0, inc_rng.0)
                    .filter(|_| cur_rng.0.is_some() && inc_rng.0.is_some());
                info.hi = opt_max(cur_rng.1, inc_rng.1)
                    .filter(|_| cur_rng.1.is_some() && inc_rng.1.is_some());
                info.base = (info.lo, info.hi);
                if self.debug {
                    self.log.push(format!("demote b{b} {q:?} -> {id:?} {info:?}"));
                }
                self.vars.insert(id, info);
                self.dirty = true;
                slots.assign.insert(q, Member { slot: ns, coef: 1, first: Form::konst(0) });
                merged.set_q(q, Val::F(Form::var(id)));
            }
        }

        // Apply consistent advances.
        for (s, list) in phis {
            let phi = list[0].clone();
            let id = VarId::Slot { block: b as u32, slot: s };
            let kind = slots.kinds[s as usize];
            let svar = Form::var(id);
            let zero = Form::konst(0);
            if (kind == SlotKind::Counter && phi != zero && phi != svar && phi != svar.addc(1))
                || kind == SlotKind::Hull
            {
                if let Some(info) = self.vars.get_mut(&id) {
                    if info.unit_step {
                        info.unit_step = false;
                        self.dirty = true;
                        if self.debug {
                            self.log.push(format!("unit_step off {id:?}"));
                        }
                    }
                }
            }
            // Counters keep the gcd of their advance generators (hulls
            // start from arbitrary creation values, so no residue claim).
            if kind == SlotKind::Counter {
                let g = self.edge_step(id, &phi);
                if let Some(info) = self.vars.get_mut(&id) {
                    let ns = gcd(info.step, g);
                    if ns != info.step {
                        info.step = ns;
                        self.dirty = true;
                        if self.debug {
                            self.log.push(format!("step {id:?} -> {ns}"));
                        }
                    }
                }
            }
            let lo = self.lb(&phi, &inc.refine);
            let hi = self.ub(&phi, &inc.refine);
            let leap = self.leap_rng(id, &phi, &inc.refine);
            // An identity advance (s := s) contributes no values beyond the
            // variable's own range; a zero φ still does for hulls (arrival
            // value 0), so only identity is excluded from narrowing.
            self.widen(id, lo, hi, leap, phi != svar);
            if kind == SlotKind::Counter {
                let edges = &mut slots.phi[s as usize];
                let pk = pred as u32;
                if phi == zero || phi == svar {
                    if edges.remove(&pk).is_some() {
                        self.dirty = true;
                        if self.debug {
                            self.log.push(format!("phi b{b} s{s} pred{pred}: cleared"));
                        }
                    }
                } else if edges.get(&pk) != Some(&phi) {
                    if self.debug {
                        self.log.push(format!(
                            "phi b{b} s{s} pred{pred}: {:?} -> {phi:?}",
                            edges.get(&pk)
                        ));
                    }
                    edges.insert(pk, phi);
                    self.dirty = true;
                }
            }
        }

        // Group newly diverging quantities by their primitive direction.
        let mut groups: BTreeMap<Form, Vec<(Qty, Form, i64)>> = BTreeMap::new();
        for (q, first, delta) in newly {
            match normalize(&delta) {
                Some((prim, content)) => {
                    groups.entry(prim).or_default().push((q, first, content));
                }
                None => {
                    slots.top.insert(q);
                    slots.assign.remove(&q);
                    merged.set_q(q, Val::Top);
                }
            }
        }
        for (prim, members) in groups {
            // Factor the gcd of the member contents out of the
            // coefficients: a first iteration that advanced by constants
            // (ptr += 64·8, i += 64) must still leave the *unit* relation
            // (coef 8 vs 1) in the coefficients, or a later symbolic
            // advance (`i += vl`) would fail the φ division and demote.
            let gstar = members.iter().fold(0i64, |g, &(_, _, c)| gcd(g, c));
            let prim = prim.scale(gstar);
            let s = slots.kinds.len() as u32;
            let id = VarId::Slot { block: b as u32, slot: s };
            slots.kinds.push(SlotKind::Counter);
            let mut info = VarInfo::slot();
            info.unit_step = prim == Form::konst(1);
            info.step = self.edge_step(id, &prim).max(1);
            if self.debug {
                self.log.push(format!("new slot b{b} {id:?} prim={prim:?}"));
            }
            self.vars.insert(id, info);
            self.dirty = true;
            let lo = self.lb(&prim, &inc.refine);
            let hi = self.ub(&prim, &inc.refine);
            let leap = self.leap_rng(id, &prim, &inc.refine);
            self.widen(id, lo, hi, leap, true);
            slots.phi.push(BTreeMap::from([(pred as u32, prim)]));
            for (q, first, content) in members {
                let coef = content / gstar;
                let head = first.add(&Form::var(id).scale(coef));
                slots.assign.insert(q, Member { slot: s, coef, first });
                merged.set_q(q, Val::F(head));
            }
        }

        // Vector registers: hull.
        for r in 0..32 {
            merged.v[r] = vjoin(self, &merged.v[r], &inc.v[r], &merged.refine, &inc.refine);
        }
        if merged.mvl != inc.mvl {
            merged.mvl = None;
        }

        // Refinements must hold on every incoming path: keep common keys
        // with the weaker bound.
        let mut refine = Refine::new();
        for (k, &(lo1, hi1)) in &merged.refine {
            if let Some(&(lo2, hi2)) = inc.refine.get(k) {
                let lo = match (lo1, lo2) {
                    (Some(a), Some(b2)) => Some(a.min(b2)),
                    _ => None,
                };
                let hi = match (hi1, hi2) {
                    (Some(a), Some(b2)) => Some(a.max(b2)),
                    _ => None,
                };
                if lo.is_some() || hi.is_some() {
                    refine.insert(*k, (lo, hi));
                }
            }
        }
        merged.refine = refine;

        self.joins.insert(b, slots);
        if merged != cur {
            self.states[b] = Some(merged);
            true
        } else {
            false
        }
    }

    // ---- edge refinement ----------------------------------------------

    fn refine_edge(&self, st: &St, b: usize, cond: Option<bool>, target: usize) -> Option<St> {
        let Some(taken) = cond else { return Some(st.clone()) };
        let bi = self.cfg.blocks[b].end - 1;
        let inst = &self.cfg.insts[bi];
        let v1 = self.get_x(st, inst.rs1);
        let v2 = self.get_x(st, inst.rs2);
        let mut st = st.clone();

        // A comparison result tested against zero recovers the original
        // relation.
        let cmp_zero = |a: &Val, bv: &Val| -> Option<Form> {
            match (a, bv) {
                (Val::Cmp(d), Val::F(f)) if f.is_const() == Some(0) => Some(d.clone()),
                _ => None,
            }
        };

        enum C {
            Ge(Form),
            Ne(Form),
        }
        let mut cs: Vec<C> = Vec::new();
        let diff = match (v1.form(), v2.form()) {
            (Some(a), Some(bf)) => Some(a.sub(bf)),
            _ => None,
        };
        let unsigned_ok = |a: &Val, bv: &Val| -> bool {
            matches!((a.form().and_then(|f| self.lb(f, &st.refine)),
                      bv.form().and_then(|f| self.lb(f, &st.refine))),
                     (Some(x), Some(y)) if x >= 0 && y >= 0)
        };
        match inst.op {
            Op::Beq | Op::Bne => {
                let d = cmp_zero(&v1, &v2).map(|d| {
                    // cmp != 0  <=>  d < 0
                    (d, true)
                });
                let (d, via_cmp) = match d {
                    Some((d, v)) => (Some(d), v),
                    None => (diff.clone(), false),
                };
                if let Some(d) = d {
                    let eq_means_ge = via_cmp; // cmp == 0 <=> d >= 0
                    let truthy = inst.op == Op::Bne;
                    // taken(bne) / fall(beq): the operands differ (cmp: d<0)
                    // taken(beq) / fall(bne): the operands are equal (cmp: d>=0)
                    let differ_edge = taken == truthy;
                    if via_cmp {
                        if differ_edge {
                            cs.push(C::Ge(d.neg().addc(-1))); // d < 0
                        } else {
                            cs.push(C::Ge(d)); // d >= 0
                        }
                    } else if differ_edge {
                        cs.push(C::Ne(d));
                    } else {
                        cs.push(C::Ge(d.clone()));
                        cs.push(C::Ge(d.neg()));
                    }
                    let _ = eq_means_ge;
                }
            }
            Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let signed = matches!(inst.op, Op::Blt | Op::Bge);
                if let Some(d) = diff {
                    if signed || unsigned_ok(&v1, &v2) {
                        let lt_edge = taken == matches!(inst.op, Op::Blt | Op::Bltu);
                        if lt_edge {
                            cs.push(C::Ge(d.neg().addc(-1))); // d < 0
                        } else {
                            cs.push(C::Ge(d)); // d >= 0
                        }
                    }
                }
            }
            _ => {}
        }

        for c in cs {
            match c {
                C::Ge(f) => {
                    if !self.apply_ge(&mut st, &f) {
                        return None;
                    }
                }
                C::Ne(f) => {
                    if !self.apply_ne(&mut st, &f, target) {
                        return None;
                    }
                }
            }
        }
        Some(st)
    }

    /// Constrain the state with `f >= 0`; false means the edge is dead.
    fn apply_ge(&self, st: &mut St, f: &Form) -> bool {
        if let Some(u) = self.ub(f, &st.refine) {
            if u < 0 {
                return false;
            }
        }
        for &(v, k) in &f.t {
            let rest = f.subst(v, &Form::konst(0));
            let Some(ru) = self.ub(&rest, &st.refine) else { continue };
            let entry = st.refine.entry(v.id).or_insert((None, None));
            if k > 0 {
                let lo = div_ceil(-ru, k);
                entry.0 = Some(entry.0.map_or(lo, |old| old.max(lo)));
            } else {
                let hi = div_floor(ru, -k);
                entry.1 = Some(entry.1.map_or(hi, |old| old.min(hi)));
            }
            if let (Some(l), Some(h)) = *entry {
                if l > h {
                    return false;
                }
            }
        }
        true
    }

    /// Constrain the state with `f != 0`; false means the edge is dead.
    fn apply_ne(&self, st: &mut St, f: &Form, target: usize) -> bool {
        if f.is_const() == Some(0) {
            return false;
        }
        for &(v, k) in &f.t {
            if k.abs() != 1 {
                continue;
            }
            let rest = f.subst(v, &Form::konst(0));
            let Some(r) = rest.is_const() else { continue };
            let v0 = -r * k; // k·v + r = 0  =>  v = -r/k
            let env = self.env(&st.refine);
            let (lo, hi) = env.rng(v);
            let entry_needed = lo == Some(v0) || hi == Some(v0);
            if entry_needed {
                let entry = st.refine.entry(v.id).or_insert((None, None));
                if lo == Some(v0) {
                    entry.0 = Some(v0 + 1);
                }
                if hi == Some(v0) {
                    entry.1 = Some(entry.1.map_or(v0 - 1, |old| old.min(v0 - 1)));
                }
                if let (Some(l), Some(h)) = *entry {
                    if l > h {
                        return false;
                    }
                }
                continue;
            }
            // Unit-step rule: on the backedge that re-enters the variable's
            // own join, a unit-stepping counter tested every iteration
            // cannot skip its exit value v0.
            if let VarId::Slot { block, .. } = v.id {
                if block as usize == target {
                    let unit = self.vars.get(&v.id).is_some_and(|i| i.unit_step);
                    if unit {
                        if let Some(l) = lo {
                            if l >= 0 && l <= v0 {
                                let entry = st.refine.entry(v.id).or_insert((None, None));
                                entry.1 = Some(entry.1.map_or(v0 - 1, |old| old.min(v0 - 1)));
                                if let (Some(l2), Some(h2)) = *entry {
                                    if l2 > h2 {
                                        return false;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        true
    }

    // ---- transfer ------------------------------------------------------

    fn get_x(&self, st: &St, r: u8) -> Val {
        if r == 0 {
            Val::konst(0)
        } else {
            st.x[r as usize].clone()
        }
    }

    fn transfer_block(&mut self, b: usize, st: &mut St, sink: &mut Option<&mut Vec<Access>>) {
        let (start, end) = (self.cfg.blocks[b].start, self.cfg.blocks[b].end);
        for i in start..end {
            self.transfer_inst(i, st, sink);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn transfer_inst(&mut self, sidx: usize, st: &mut St, sink: &mut Option<&mut Vec<Access>>) {
        let inst = self.cfg.insts[sidx];
        let (op, rd, rs1, rs2) = (inst.op, inst.rd, inst.rs1, inst.rs2);
        let imm = inst.imm as i64;
        let v1 = self.get_x(st, rs1);
        let v2 = self.get_x(st, rs2);
        let f1 = v1.form().cloned();
        let f2 = v2.form().cloned();

        let set = |st: &mut St, r: u8, v: Val| {
            if r != 0 {
                st.x[r as usize] = v;
            }
        };

        macro_rules! rec {
            ($write:expr, $esize:expr, $addr:expr) => {
                if let Some(out) = sink.as_deref_mut() {
                    out.push(Access {
                        sidx,
                        write: $write,
                        esize: $esize,
                        addr: $addr,
                        epoch: st.epoch.clone(),
                        refine: st.refine.clone(),
                    });
                }
            };
        }

        match op {
            Op::Nop | Op::Region | Op::Halt => {}
            Op::Barrier => st.epoch = st.epoch.addc(1),
            Op::Tid => set(st, rd, Val::konst(self.tid as i64)),
            Op::Nthr => set(st, rd, Val::konst(self.nthr as i64)),
            Op::VltCfg => {
                if let Some(t) = v1.is_const() {
                    if let Some(h) = u64::try_from(t).ok().and_then(vlt_isa::vltcfg::unpack) {
                        let mvl = vlt_isa::vltcfg::effective_mvl(MAX_VL, h) as i64;
                        st.mvl = Some(mvl);
                        st.vl = match st.vl.is_const() {
                            Some(c) => Val::konst(c.min(mvl)),
                            None => Val::Top,
                        };
                    }
                } else {
                    st.mvl = None;
                    st.vl = Val::Top;
                }
            }
            Op::SetVl => {
                let clamped = match (v1.is_const(), st.mvl) {
                    (Some(req), Some(mvl)) if req >= 1 => Some(req.min(mvl)),
                    _ => None,
                };
                st.vl = match clamped {
                    Some(c) => Val::konst(c),
                    None => {
                        let id = VarId::Vl(sidx as u32);
                        let caps = f1.clone().map(|f| vec![f]).unwrap_or_default();
                        let info = VarInfo {
                            lo: Some(1),
                            hi: st.mvl,
                            caps,
                            floors: Vec::new(),
                            lo_grow: 0,
                            hi_grow: 0,
                            base: (None, None),
                            step: 1,
                            unit_step: false,
                            origin: Origin::Vl,
                        };
                        Val::F(self.set_derived(id, info))
                    }
                };
                set(st, rd, st.vl.clone());
            }
            Op::GetVl => set(st, rd, st.vl.clone()),

            Op::Add => set(st, rd, binf(&f1, &f2, Form::add)),
            Op::Sub => {
                if inst.is_zero_idiom() {
                    set(st, rd, Val::konst(0));
                } else {
                    set(st, rd, binf(&f1, &f2, Form::sub));
                }
            }
            Op::Xor => {
                if inst.is_zero_idiom() {
                    set(st, rd, Val::konst(0));
                } else {
                    set(st, rd, cfold(&v1, &v2, |a, b| (a as u64 ^ b as u64) as i64));
                }
            }
            Op::Addi => set(st, rd, f1.map_or(Val::Top, |f| Val::F(f.addc(imm)))),
            Op::Lui => set(st, rd, Val::konst(imm << 13)),
            Op::Mul => {
                let v = match (v1.is_const(), v2.is_const()) {
                    (Some(a), Some(b)) => Val::konst(a.wrapping_mul(b)),
                    (Some(k), None) => scalef(&f2, k),
                    (None, Some(k)) => scalef(&f1, k),
                    _ => Val::Top,
                };
                set(st, rd, v);
            }
            Op::Div => {
                let v = match (v1.is_const(), v2.is_const()) {
                    (Some(a), Some(b)) => {
                        Val::konst(if b == 0 { u64::MAX as i64 } else { a.wrapping_div(b) })
                    }
                    _ => Val::Top,
                };
                set(st, rd, v);
            }
            Op::Rem => {
                let v = match (v1.is_const(), v2.is_const()) {
                    (Some(a), Some(b)) => Val::konst(if b == 0 { a } else { a.wrapping_rem(b) }),
                    _ => Val::Top,
                };
                set(st, rd, v);
            }
            Op::And => {
                let v = match (v1.is_const(), v2.is_const()) {
                    (Some(a), Some(b)) => Val::konst((a as u64 & b as u64) as i64),
                    // Masking with a known non-negative value bounds the
                    // result to `[0, mask]` whatever the other operand is
                    // (hash-table index computations land here).
                    (Some(m), None) | (None, Some(m)) if m >= 0 => {
                        let id = VarId::Gen(sidx as u32);
                        let info = VarInfo {
                            lo: Some(0),
                            hi: Some(m),
                            caps: Vec::new(),
                            floors: Vec::new(),
                            lo_grow: 0,
                            hi_grow: 0,
                            base: (None, None),
                            step: 1,
                            unit_step: false,
                            origin: Origin::Andi,
                        };
                        Val::F(self.set_derived(id, info))
                    }
                    _ => Val::Top,
                };
                set(st, rd, v);
            }
            Op::Or => set(st, rd, cfold(&v1, &v2, |a, b| (a as u64 | b as u64) as i64)),
            Op::Sll => {
                let v = match (v1.is_const(), v2.is_const()) {
                    (Some(a), Some(b)) => Val::konst(((a as u64) << (b as u64 & 63)) as i64),
                    _ => Val::Top,
                };
                set(st, rd, v);
            }
            Op::Srl => set(st, rd, cfold(&v1, &v2, |a, b| ((a as u64) >> (b as u64 & 63)) as i64)),
            Op::Sra => set(st, rd, cfold(&v1, &v2, |a, b| a >> (b as u64 & 63))),
            Op::Slt => set(st, rd, binf(&f1, &f2, Form::sub).form().map_or(Val::Top, cmp_val)),
            Op::Sltu => {
                let ok = matches!(
                    (f1.as_ref().and_then(|f| self.lb(f, &st.refine)),
                     f2.as_ref().and_then(|f| self.lb(f, &st.refine))),
                    (Some(a), Some(b)) if a >= 0 && b >= 0
                );
                let v = if ok {
                    binf(&f1, &f2, Form::sub).form().map_or(Val::Top, cmp_val)
                } else {
                    Val::Top
                };
                set(st, rd, v);
            }
            Op::Andi => {
                let v = match v1.is_const() {
                    Some(a) => Val::konst((a as u64 & imm as u64) as i64),
                    None if imm >= 0 => {
                        let id = VarId::Gen(sidx as u32);
                        let info = VarInfo {
                            lo: Some(0),
                            hi: Some(imm),
                            caps: Vec::new(),
                            floors: Vec::new(),
                            lo_grow: 0,
                            hi_grow: 0,
                            base: (None, None),
                            step: 1,
                            unit_step: false,
                            origin: Origin::Andi,
                        };
                        Val::F(self.set_derived(id, info))
                    }
                    None => Val::Top,
                };
                set(st, rd, v);
            }
            Op::Ori => set(st, rd, ifold(&v1, imm, |a, b| (a as u64 | b as u64) as i64)),
            Op::Xori => set(st, rd, ifold(&v1, imm, |a, b| (a as u64 ^ b as u64) as i64)),
            Op::Slli => {
                let sh = imm as u64 & 63;
                let v = if sh < 40 {
                    scalef(&f1, 1i64 << sh)
                } else {
                    ifold(&v1, imm, |a, b| ((a as u64) << (b as u64 & 63)) as i64)
                };
                set(st, rd, v);
            }
            Op::Srli => set(st, rd, ifold(&v1, imm, |a, b| ((a as u64) >> (b as u64 & 63)) as i64)),
            Op::Srai => set(st, rd, ifold(&v1, imm, |a, b| a >> (b as u64 & 63))),
            Op::Slti => set(st, rd, f1.map_or(Val::Top, |f| cmp_val(&f.addc(-imm)))),

            Op::Ld | Op::Lw | Op::Lwu | Op::Lb | Op::Lbu | Op::Fld => {
                let esize = match op {
                    Op::Ld | Op::Fld => 8,
                    Op::Lw | Op::Lwu => 4,
                    _ => 1,
                };
                let addr = f1.map(|f| f.addc(imm));
                rec!(false, esize, addr.clone());
                if op == Op::Ld {
                    let v =
                        addr.and_then(|a| self.try_fold(sidx, &a, &st.refine)).unwrap_or(Val::Top);
                    set(st, rd, v);
                } else if op != Op::Fld {
                    set(st, rd, Val::Top);
                }
            }
            Op::Sd | Op::Sw | Op::Sb | Op::Fsd => {
                let esize = match op {
                    Op::Sd | Op::Fsd => 8,
                    Op::Sw => 4,
                    _ => 1,
                };
                rec!(true, esize, f1.map(|f| f.addc(imm)));
            }

            Op::Vld | Op::Vst => {
                let addr = f1.map(|base| {
                    let lane = self.lane_var(sidx, st);
                    base.add(&lane.scale(8))
                });
                if op == Op::Vst {
                    rec!(true, 8, addr);
                } else {
                    rec!(false, 8, addr.clone());
                    st.v[rd as usize] = addr
                        .and_then(|a| self.try_vfold(sidx, &a, &st.refine))
                        .unwrap_or(VVal::Top);
                }
            }
            Op::Vlds | Op::Vsts => {
                let addr = match (f1, v2.is_const()) {
                    (Some(base), Some(k)) => {
                        let lane = self.lane_var(sidx, st);
                        Some(base.add(&lane.scale(k)))
                    }
                    _ => None,
                };
                if op == Op::Vsts {
                    rec!(true, 8, addr);
                } else {
                    rec!(false, 8, addr.clone());
                    st.v[rd as usize] = addr
                        .and_then(|a| self.try_vfold(sidx, &a, &st.refine))
                        .unwrap_or(VVal::Top);
                }
            }
            Op::Vldx | Op::Vstx => {
                let addr = match (f1, &st.v[rs2 as usize]) {
                    (Some(base), VVal::Range(lo, hi)) => {
                        let id = VarId::Lane(sidx as u32);
                        let info = VarInfo {
                            lo: self.lb(lo, &st.refine),
                            hi: self.ub(hi, &st.refine),
                            caps: vec![hi.clone()],
                            floors: vec![lo.clone()],
                            lo_grow: 0,
                            hi_grow: 0,
                            base: (None, None),
                            step: 1,
                            unit_step: false,
                            origin: Origin::Lane,
                        };
                        Some(base.add(&self.set_derived(id, info)))
                    }
                    _ => None,
                };
                if op == Op::Vstx {
                    rec!(true, 8, addr);
                } else {
                    rec!(false, 8, addr);
                    st.v[rd as usize] = VVal::Top;
                }
            }

            Op::Vid => {
                let r = match st.vl.form() {
                    Some(vlf) => VVal::Range(Form::konst(0), vlf.addc(-1)),
                    None => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::Vsplat => {
                let r = match &v1 {
                    Val::F(f) => VVal::Range(f.clone(), f.clone()),
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VaddVS | Op::VsubVS => {
                let r = match (&st.v[rs1 as usize], &v2) {
                    (VVal::Range(lo, hi), Val::F(f)) => {
                        if op == Op::VaddVS {
                            VVal::Range(lo.add(f), hi.add(f))
                        } else {
                            VVal::Range(lo.sub(f), hi.sub(f))
                        }
                    }
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VmulVS => {
                let r = match (&st.v[rs1 as usize], v2.is_const()) {
                    (VVal::Range(lo, hi), Some(k)) if k.abs() < SCALE_LIMIT => {
                        if k >= 0 {
                            VVal::Range(lo.scale(k), hi.scale(k))
                        } else {
                            VVal::Range(hi.scale(k), lo.scale(k))
                        }
                    }
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VsllVS => {
                let r = match (&st.v[rs1 as usize], v2.is_const()) {
                    (VVal::Range(lo, hi), Some(sh))
                        if (0..32).contains(&sh)
                            && self.lb(lo, &st.refine).is_some_and(|l| l >= 0) =>
                    {
                        VVal::Range(lo.scale(1 << sh), hi.scale(1 << sh))
                    }
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VandVS => {
                // Element-wise mask with a known non-negative scalar:
                // every lane lands in `[0, mask]` regardless of the source
                // vector — this is what bounds hash-style gather indices.
                let r = match v2.is_const() {
                    Some(m) if m >= 0 => VVal::Range(Form::konst(0), Form::konst(m)),
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VsrlVS => {
                let r = match (&st.v[rs1 as usize], v2.is_const()) {
                    (VVal::Range(lo, hi), Some(sh)) if (0..64).contains(&sh) => {
                        // Logical shift is monotone on non-negative
                        // values; bound through the evaluated hull.
                        match (self.lb(lo, &st.refine), self.ub(hi, &st.refine)) {
                            (Some(l), Some(h)) if l >= 0 && l <= h => {
                                VVal::Range(Form::konst(l >> sh), Form::konst(h >> sh))
                            }
                            _ => VVal::Top,
                        }
                    }
                    _ => VVal::Top,
                };
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::VaddVV | Op::VsubVV => {
                if inst.is_zero_idiom() {
                    let z = VVal::Range(Form::konst(0), Form::konst(0));
                    st.v[rd as usize] = self.vmask(st, inst.masked, rd, z);
                } else {
                    let r = match (&st.v[rs1 as usize], &st.v[rs2 as usize]) {
                        (VVal::Range(l1, h1), VVal::Range(l2, h2)) => {
                            if op == Op::VaddVV {
                                VVal::Range(l1.add(l2), h1.add(h2))
                            } else {
                                VVal::Range(l1.sub(h2), h1.sub(l2))
                            }
                        }
                        _ => VVal::Top,
                    };
                    st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
                }
            }
            Op::VxorVV if inst.is_zero_idiom() => {
                let z = VVal::Range(Form::konst(0), Form::konst(0));
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, z);
            }
            Op::Vmv => {
                let r = st.v[rs1 as usize].clone();
                st.v[rd as usize] = self.vmask(st, inst.masked, rd, r);
            }
            Op::Vmerge => {
                let r = vjoin_owned(
                    self,
                    st.v[rs1 as usize].clone(),
                    st.v[rs2 as usize].clone(),
                    &st.refine,
                );
                st.v[rd as usize] = r;
            }

            _ => {
                // Anything unmodeled: clobber its definitions soundly.
                let (defs, _) = inst.defs_uses();
                for d in defs {
                    match d {
                        vlt_isa::RegRef::I(r) => set(st, r, Val::Top),
                        vlt_isa::RegRef::V(r) => {
                            st.v[r as usize] = self.vmask(st, inst.masked, r, VVal::Top);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Masked vector writes merge with the old destination value.
    fn vmask(&self, st: &St, masked: bool, rd: u8, new: VVal) -> VVal {
        if !masked {
            return new;
        }
        vjoin_owned(self, new, st.v[rd as usize].clone(), &st.refine)
    }

    /// The per-access element-index variable: `0 ≤ lane ≤ vl−1 ≤ mvl−1`.
    fn lane_var(&mut self, sidx: usize, st: &St) -> Form {
        let id = VarId::Lane(sidx as u32);
        let (hi, caps) = match (&st.vl, st.mvl) {
            (Val::F(f), mvl) => match f.is_const() {
                Some(c) => (Some(c - 1), Vec::new()),
                None => (mvl.map(|m| m - 1), vec![f.addc(-1)]),
            },
            (_, mvl) => (mvl.map(|m| m - 1), Vec::new()),
        };
        let info = VarInfo {
            lo: Some(0),
            hi,
            caps,
            floors: Vec::new(),
            lo_grow: 0,
            hi_grow: 0,
            base: (None, None),
            step: 1,
            unit_step: false,
            origin: Origin::Lane,
        };
        self.set_derived(id, info)
    }

    fn register_fold(&mut self, sidx: usize, fold: Fold) {
        match self.folds.get(&sidx) {
            Some(old) if *old == fold => {}
            _ => {
                if self.debug {
                    self.log.push(format!("fold #{sidx}: {fold:?}"));
                }
                self.folds.insert(sidx, fold);
                self.dirty = true;
            }
        }
    }

    /// Fold an 8-byte load whose address enumerates a bounded window of
    /// initialized data words. Narrow windows are enumerated exactly
    /// (honoring the address stride); wider ones — up to the vector-fold
    /// span — use the chunked image summaries, whose whole-window hull is
    /// a sound over-approximation of any stride pattern. A store that may
    /// touch the span (per the overlay `races` iterates to a fixpoint)
    /// makes the fold fail.
    fn try_fold(&mut self, sidx: usize, addr: &Form, refine: &Refine) -> Option<Val> {
        let lo = self.lb(addr, refine)?;
        let hi = self.ub(addr, refine)?;
        if hi < lo || hi - lo > VFOLD_SPAN || self.overlay.touches(lo, hi + 8) {
            return None;
        }
        let step = match addr.gcd_terms() {
            0 => 8, // constant address: single candidate
            g => g,
        };
        if step < 8 || step % 8 != 0 || lo % 8 != 0 {
            return None;
        }
        let (vmin, vmax) = if hi - lo <= FOLD_SPAN {
            let base = DATA_BASE as i64;
            let len = self.data.len() as i64;
            let (mut vmin, mut vmax) = (i64::MAX, i64::MIN);
            let mut a = lo;
            while a <= hi {
                if a < base || a + 8 > base + len {
                    return None;
                }
                let off = (a - base) as usize;
                let bytes: [u8; 8] = self.data[off..off + 8].try_into().ok()?;
                let v = u64::from_le_bytes(bytes);
                let v = i64::try_from(v).ok()?;
                vmin = vmin.min(v);
                vmax = vmax.max(v);
                a += step;
            }
            (vmin, vmax)
        } else {
            let image = self.image.get_or_insert_with(|| crate::content::DataHull::new(self.data));
            image.hull(lo, hi)?
        };
        self.register_fold(sidx, Fold { addr: addr.clone(), span: (lo, hi + 8) });
        let id = VarId::Gen(sidx as u32);
        let info = VarInfo {
            lo: Some(vmin),
            hi: Some(vmax),
            caps: Vec::new(),
            floors: Vec::new(),
            lo_grow: 0,
            hi_grow: 0,
            base: (None, None),
            step: 1,
            unit_step: false,
            origin: Origin::Fold,
        };
        Some(Val::F(self.set_derived(id, info)))
    }

    /// Fold a unit/strided vector load over a bounded, 8-aligned window
    /// of the data image into a per-lane value hull. Wider windows than
    /// the scalar fold allows are fine: the chunked image summaries keep
    /// the query cheap, and a whole-window hull (ignoring the stride
    /// pattern) is a sound over-approximation. This is the content step
    /// that turns a loaded index vector into bounded gather/scatter
    /// footprints downstream. Like the scalar fold, it fails on any span
    /// a store may touch.
    fn try_vfold(&mut self, sidx: usize, addr: &Form, refine: &Refine) -> Option<VVal> {
        let lo = self.lb(addr, refine)?;
        let hi = self.ub(addr, refine)?;
        if hi < lo || hi - lo > VFOLD_SPAN || self.overlay.touches(lo, hi + 8) {
            return None;
        }
        let step = match addr.gcd_terms() {
            0 => 8,
            g => g,
        };
        if step < 8 || step % 8 != 0 || lo % 8 != 0 {
            return None;
        }
        let image = self.image.get_or_insert_with(|| crate::content::DataHull::new(self.data));
        let (vmin, vmax) = image.hull(lo, hi)?;
        self.register_fold(sidx, Fold { addr: addr.clone(), span: (lo, hi + 8) });
        Some(VVal::Range(Form::konst(vmin), Form::konst(vmax)))
    }

    // ---- output --------------------------------------------------------

    fn emit(&mut self) -> Vec<Access> {
        let mut out = Vec::new();
        for b in 0..self.cfg.blocks.len() {
            let Some(st0) = self.states[b].clone() else { continue };
            let mut st = st0;
            let mut sink = Some(&mut out);
            self.transfer_block(b, &mut st, &mut sink);
        }
        out.sort_by_key(|a| a.sidx);
        out
    }

    /// Fallback when the fixpoint failed: every reachable memory
    /// instruction becomes an unbounded access at an unknown epoch.
    fn collect_unknown(&self) -> Vec<Access> {
        let reach = self.cfg.reachable();
        let mut out = Vec::new();
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            if !reach[b] {
                continue;
            }
            for i in block.start..block.end {
                if self.cfg.insts[i].op.class().is_mem() {
                    let write = matches!(
                        self.cfg.insts[i].op.class(),
                        vlt_isa::OpClass::Store | vlt_isa::OpClass::VStore
                    );
                    out.push(Access {
                        sidx: i,
                        write,
                        esize: 8,
                        addr: None,
                        epoch: Form::var(VarId::Gen(u32::MAX)),
                        refine: Refine::new(),
                    });
                }
            }
        }
        out
    }
}

fn binf(a: &Option<Form>, b: &Option<Form>, f: impl Fn(&Form, &Form) -> Form) -> Val {
    match (a, b) {
        (Some(x), Some(y)) => Val::F(f(x, y)),
        _ => Val::Top,
    }
}

fn scalef(f: &Option<Form>, k: i64) -> Val {
    match f {
        Some(x) if k.abs() < SCALE_LIMIT => Val::F(x.scale(k)),
        _ => Val::Top,
    }
}

fn cfold(a: &Val, b: &Val, f: impl Fn(i64, i64) -> i64) -> Val {
    match (a.is_const(), b.is_const()) {
        (Some(x), Some(y)) => Val::konst(f(x, y)),
        _ => Val::Top,
    }
}

fn ifold(a: &Val, imm: i64, f: impl Fn(i64, i64) -> i64) -> Val {
    match a.is_const() {
        Some(x) => Val::konst(f(x, imm)),
        _ => Val::Top,
    }
}

fn cmp_val(d: &Form) -> Val {
    match d.is_const() {
        Some(c) => Val::konst((c < 0) as i64),
        None => Val::Cmp(d.clone()),
    }
}

/// Normalize a join delta to `(primitive direction, signed content)` such
/// that `delta = content · prim` and `prim`'s leading entry is positive.
fn normalize(delta: &Form) -> Option<(Form, i64)> {
    let mut g = delta.c.unsigned_abs() as i64;
    for &(_, k) in &delta.t {
        g = gcd(g, k.unsigned_abs() as i64);
    }
    if g == 0 {
        return None; // delta == 0: caller should not have diverged
    }
    let leading = delta.t.first().map(|&(_, k)| k).unwrap_or(delta.c);
    let content = if leading < 0 { -g } else { g };
    Some((delta.divide(content)?, content))
}

fn vjoin(r: &Runner<'_>, a: &VVal, b: &VVal, ra: &Refine, rb: &Refine) -> VVal {
    match (a, b) {
        (x, y) if x == y => x.clone(),
        (VVal::Range(l1, h1), VVal::Range(l2, h2)) => {
            let lo = pick(r, l1, l2, ra, rb, false);
            let hi = pick(r, h1, h2, ra, rb, true);
            match (lo, hi) {
                (Some(lo), Some(hi)) => VVal::Range(lo, hi),
                _ => VVal::Top,
            }
        }
        _ => VVal::Top,
    }
}

fn vjoin_owned(r: &Runner<'_>, a: VVal, b: VVal, refine: &Refine) -> VVal {
    vjoin(r, &a, &b, refine, refine)
}

/// Pick the smaller (or larger) of two bound forms when comparable.
fn pick(
    r: &Runner<'_>,
    f1: &Form,
    f2: &Form,
    r1: &Refine,
    r2: &Refine,
    upper: bool,
) -> Option<Form> {
    if let Some(d) = f1.sub(f2).is_const() {
        let keep_first = if upper { d >= 0 } else { d <= 0 };
        return Some(if keep_first { f1.clone() } else { f2.clone() });
    }
    if upper {
        let u1 = r.ub(f1, r1)?;
        let u2 = r.ub(f2, r2)?;
        Some(Form::konst(u1.max(u2)))
    } else {
        let l1 = r.lb(f1, r1)?;
        let l2 = r.lb(f2, r2)?;
        Some(Form::konst(l1.min(l2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn run_tid(src: &str, tid: usize, nthr: usize) -> TidRun {
        run_tid_overlay(src, tid, nthr, &crate::content::Overlay::default())
    }

    fn run_tid_overlay(
        src: &str,
        tid: usize,
        nthr: usize,
        overlay: &crate::content::Overlay,
    ) -> TidRun {
        let prog = assemble(src).unwrap();
        let insts: Vec<_> = prog.text.iter().map(|&w| vlt_isa::decode(w).unwrap()).collect();
        let cfg = Cfg::build(insts);
        analyze_tid(&cfg, &prog.data, tid, nthr, overlay)
    }

    fn bounds(run: &TidRun, acc: &Access) -> (Option<i64>, Option<i64>) {
        let f = acc.addr.as_ref().unwrap();
        let env = RunEnv { vars: &run.vars, refine: &acc.refine, skip_global: None };
        (clb(&env, f, &mut Vec::new()), cub(&env, f, &mut Vec::new()))
    }

    #[test]
    fn form_algebra() {
        let a = Form::var(VarId::Gen(1));
        let b = a.scale(3).addc(5);
        assert_eq!(b.sub(&b).is_const(), Some(0));
        assert_eq!(b.divide(3), None);
        assert_eq!(b.addc(1).divide(3).unwrap(), a.addc(2));
        assert_eq!(b.subst(Var::local(VarId::Gen(1)), &Form::konst(2)).is_const(), Some(11));
    }

    #[test]
    fn tid_is_concrete() {
        let run = run_tid("tid x1\nli x2, 8\nmul x3, x1, x2\nsd x0, 0(x3)\nhalt\n", 3, 4);
        assert!(!run.failed);
        let acc = &run.accesses[0];
        let f = acc.addr.as_ref().unwrap();
        assert_eq!(f.is_const(), Some(24));
    }

    #[test]
    fn counted_loop_is_bounded() {
        // for (i = 0; i != 10; ) { store a[i]; i++ }  via countdown
        let src = "
            li x5, 10
            li x6, 0x100000
        loop:
            sd x0, 0(x6)
            addi x6, x6, 8
            addi x5, x5, -1
            bnez x5, loop
            halt
        ";
        let run = run_tid(src, 0, 1);
        assert!(!run.failed);
        let acc = run.accesses.iter().find(|a| a.write).unwrap();
        let f = acc.addr.as_ref().unwrap();
        let env = RunEnv { vars: &run.vars, refine: &acc.refine, skip_global: None };
        let hi = cub(&env, f, &mut Vec::new()).unwrap();
        let lo = clb(&env, f, &mut Vec::new()).unwrap();
        assert_eq!(lo, 0x100000);
        // 10 iterations: last store at base + 9*8.
        assert_eq!(hi, 0x100000 + 72);
    }

    #[test]
    fn strip_mine_footprint_cancels() {
        // Strip-mined loop over [0, 100): footprint must end at the bound,
        // not at bound + mvl.
        let src = "
            li x1, 1
            vltcfg x1
            li x13, 100
            li x14, 0
            li x6, 0x100000
        loop:
            sub x3, x13, x14
            setvl x2, x3
            vst v1, x6
            add x14, x14, x2
            slli x4, x2, 3
            add x6, x6, x4
            blt x14, x13, loop
            halt
        ";
        let run = run_tid(src, 0, 1);
        assert!(!run.failed);
        let acc = run.accesses.iter().find(|a| a.write).unwrap();
        let f = acc.addr.as_ref().unwrap();
        let env = RunEnv { vars: &run.vars, refine: &acc.refine, skip_global: None };
        let hi = cub(&env, f, &mut Vec::new()).unwrap();
        let lo = clb(&env, f, &mut Vec::new()).unwrap();
        assert_eq!(lo, 0x100000);
        // Last element is a[99] at base + 99*8.
        assert_eq!(hi, 0x100000 + 99 * 8);
    }

    #[test]
    fn vector_load_folds_bound_a_gather() {
        // A unit vld of an offsets table gives the index vector a value
        // hull from the data image, which finitely bounds the vldx
        // footprint instead of leaving it ⊤.
        let src = "
            .data
        tbl: .dword 0, 8, 16, 24, 32, 40, 48, 56
        out: .space 64
            .text
            li x1, 1
            vltcfg x1
            li x2, 8
            setvl x3, x2
            la x4, tbl
            vld v1, x4
            la x5, out
            vldx v2, x5, v1
            halt
        ";
        let run = run_tid(src, 0, 1);
        assert!(!run.failed);
        let gather = run.accesses.last().unwrap();
        let (lo, hi) = bounds(&run, gather);
        let out = DATA_BASE as i64 + 64;
        assert_eq!(lo, Some(out));
        assert_eq!(hi, Some(out + 56));
        assert_eq!(run.folds.len(), 1, "the vld registered a fold");
    }

    #[test]
    fn store_spans_block_scalar_folds() {
        // slot at DATA_BASE, out right behind it.
        let src = "
            .data
        slot: .dword 3
        out:  .space 128
            .text
            la x1, slot
            ld x2, 0(x1)
            la x3, out
            add x4, x3, x2
            sd x0, 0(x4)
            halt
        ";
        let slot = DATA_BASE as i64;
        let out = slot + 8;
        let store_bounds = |spans: Vec<(i64, i64)>| {
            let ov = crate::content::Overlay { poisoned: false, spans };
            let run = run_tid_overlay(src, 0, 1, &ov);
            assert!(!run.failed);
            let st = run.accesses.iter().find(|a| a.write).unwrap();
            (st.addr.as_ref().map(|_| bounds(&run, st)), run.folds.len())
        };

        // No store spans: the load folds to the image value exactly.
        assert_eq!(store_bounds(Vec::new()), (Some((Some(out + 3), Some(out + 3))), 1));
        // A store span elsewhere leaves the fold alone.
        assert_eq!(store_bounds(vec![(out, out + 128)]), (Some((Some(out + 3), Some(out + 3))), 1));
        // A store that may touch the slot kills the fold: the indexed
        // store's address cannot be bounded at all.
        assert_eq!(store_bounds(vec![(slot + 4, slot + 5)]), (None, 0));
    }

    #[test]
    fn mask_and_shift_bound_indices() {
        // Scalar: x & mask lands in [0, mask] even for an unknown x.
        // Vector: vand.vs bounds any vector; vsrl.vs divides a
        // non-negative hull.
        let src = "
            .data
        out: .space 1024
            .text
            li x1, 1
            vltcfg x1
            li x2, 8
            setvl x3, x2
            ld x4, 0(x30)
            li x5, 63
            and x6, x4, x5
            la x7, out
            add x8, x7, x6
            sd x0, 0(x8)
            vsplat v1, x4
            vand.vs v2, v1, x5
            vsll.vs v3, v2, x3
            vstx v4, x7, v3
            halt
        ";
        let run = run_tid(src, 0, 1);
        assert!(!run.failed);
        let out = DATA_BASE as i64;
        let scalar_store = run.accesses.iter().find(|a| a.write && a.esize == 8).unwrap();
        let (lo, hi) = bounds(&run, scalar_store);
        assert_eq!(lo, Some(out));
        assert_eq!(hi, Some(out + 63));
        let vstx = run.accesses.last().unwrap();
        assert!(vstx.write);
        let (lo, hi) = bounds(&run, vstx);
        assert_eq!(lo, Some(out));
        // vand.vs → [0, 63], vsll.vs by vl=8 → [0, 63*256].
        assert_eq!(hi, Some(out + 63 * 256));
    }

    #[test]
    fn epoch_counts_barriers_in_loops() {
        let src = "
            li x5, 4
        step:
            barrier
            sd x0, 8(x0)
            addi x5, x5, -1
            bnez x5, step
            sd x0, 16(x0)
            halt
        ";
        let run = run_tid(src, 0, 1);
        assert!(!run.failed);
        let in_loop = &run.accesses[0];
        let after = &run.accesses[1];
        // In-loop epoch is symbolic (1 + s); post-loop epoch is pinned by
        // the exit refinement to exactly 4.
        let env = RunEnv { vars: &run.vars, refine: &after.refine, skip_global: None };
        assert_eq!(clb(&env, &after.epoch, &mut Vec::new()), Some(4));
        assert_eq!(cub(&env, &after.epoch, &mut Vec::new()), Some(4));
        let env2 = RunEnv { vars: &run.vars, refine: &in_loop.refine, skip_global: None };
        assert_eq!(clb(&env2, &in_loop.epoch, &mut Vec::new()), Some(1));
        assert_eq!(cub(&env2, &in_loop.epoch, &mut Vec::new()), Some(4));
    }
}
