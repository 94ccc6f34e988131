//! Value-set analysis: abstract interpretation over a reduced
//! strided-interval × region domain.
//!
//! Every abstract value is either ⊤ or a finite map from memory *regions*
//! (the global address space, one frame region per function, one heap
//! region per allocation site) to *strided intervals* `stride[lo..hi]`
//! (stride 0 encodes a singleton). Plain integers live in the [`Region::Global`]
//! region — on x86 an integer and a global address are indistinguishable
//! anyway. The analysis runs forward, per function, on the generic
//! [`solver`](crate::solver) with the frame region anchored at the
//! function-entry stack pointer (`esp = Frame[0]` at the entry, i.e. offset
//! 0 names the return-address slot), so `esp`/`ebp` deltas are tracked
//! through prologues, pushes, pops and `leave` whether or not the function
//! keeps a frame pointer — frame-pointer-omitted functions simply address
//! their synthetic frame region through `esp`.
//!
//! **Widening policy.** Joins are precise (interval hull with gcd strides)
//! until a fact has absorbed [`ASCENT_BUDGET`] changing joins; after that,
//! any interval that would still change jumps straight to the full range.
//! Region maps are capped at [`MAX_REGIONS`] entries (then ⊤) and the
//! tracked-frame map only shrinks under join, so the post-widening lattice
//! has finite height and the solve terminates on any loop nest.
//!
//! **Determinism contract.** All state lives in `BTreeMap`s and
//! index-ordered arrays, the solver drains its worklist in block order, and
//! functions are analyzed independently — so the result is a pure function
//! of the program, bitwise identical at any thread count (the parallel
//! drivers only partition work, they never share state).
//!
//! Consumers: `discover_variables_vsa` in tiara-core (address discovery for
//! globals, frame slots in *all* functions, and heap allocation sites), the
//! four `vsa-*` lint passes in tiara-verify (including a concrete-execution
//! soundness oracle), and `tiara analyze --vsa`.

use crate::solver::{solve, Direction, Lattice, Solution, Transfer};
use std::collections::BTreeMap;
use tiara_ir::{Addr, BinOp, FuncId, InstId, InstKind, Loc, Operand, Program, Reg};
use tiara_json::Value;

#[cfg(test)]
use tiara_ir::Opcode;

/// Interval bounds saturate at ±`BOUND`; the full range `1[-BOUND..BOUND]`
/// plays the role of an unconstrained (but still region-tagged) value.
pub const BOUND: i64 = i64::MAX / 8;

/// Changing joins one fact absorbs before widening kicks in.
pub const ASCENT_BUDGET: u32 = 24;

/// Maximum regions per value set before it collapses to ⊤.
pub const MAX_REGIONS: usize = 4;

/// Maximum tracked frame slots per fact (beyond this the frame map is
/// dropped — sound, since an absent slot reads as ⊤).
pub const MAX_FRAME_SLOTS: usize = 512;

/// Maximum points enumerated when concretizing one strided interval into
/// discrete a-locs.
pub const ENUM_LIMIT: u64 = 64;

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A strided interval `stride[lo..hi]`: the set `{lo, lo+stride, …, hi}`.
/// Stride 0 encodes the singleton `{lo}` (`lo == hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StridedInterval {
    /// Distance between consecutive points (0 for a singleton).
    pub stride: u64,
    /// Smallest point.
    pub lo: i64,
    /// Largest point (inclusive; `hi ≡ lo (mod stride)`).
    pub hi: i64,
}

impl StridedInterval {
    /// The singleton `{c}`.
    pub fn singleton(c: i64) -> StridedInterval {
        StridedInterval { stride: 0, lo: c, hi: c }
    }

    /// The full range `1[-BOUND..BOUND]` (every representable value).
    pub fn full() -> StridedInterval {
        StridedInterval { stride: 1, lo: -BOUND, hi: BOUND }
    }

    /// A normalized interval: `hi` is clamped down onto the stride grid,
    /// out-of-bound endpoints saturate to [`full`](Self::full).
    pub fn new(stride: u64, lo: i64, hi: i64) -> StridedInterval {
        if lo > hi {
            return StridedInterval::singleton(lo);
        }
        if lo < -BOUND || hi > BOUND {
            return StridedInterval::full();
        }
        if lo == hi {
            return StridedInterval::singleton(lo);
        }
        let stride = stride.max(1);
        let span = (hi - lo) as u64;
        let hi = lo + ((span / stride) * stride) as i64;
        if lo == hi {
            StridedInterval::singleton(lo)
        } else {
            StridedInterval { stride, lo, hi }
        }
    }

    /// The constant, if this interval is a singleton.
    pub fn as_singleton(self) -> Option<i64> {
        (self.stride == 0).then_some(self.lo)
    }

    /// `true` for the saturated full range.
    pub fn is_full(self) -> bool {
        self == StridedInterval::full()
    }

    /// Set membership.
    pub fn contains(self, x: i64) -> bool {
        if x < self.lo || x > self.hi {
            return false;
        }
        if self.stride == 0 {
            return x == self.lo;
        }
        ((x - self.lo) as u64).is_multiple_of(self.stride)
    }

    /// Number of points, if it fits a `u64`.
    pub fn count(self) -> u64 {
        ((self.hi - self.lo) as u64).checked_div(self.stride).map_or(1, |n| n + 1)
    }

    /// Iterates the points (callers bound the count via [`count`](Self::count)).
    pub fn points(self) -> impl Iterator<Item = i64> {
        let step = self.stride.max(1) as i64;
        (0..self.count()).map(move |k| self.lo + k as i64 * step)
    }

    /// The least interval containing both operands (interval hull, gcd of
    /// strides and of the base offset).
    pub fn join(self, other: StridedInterval) -> StridedInterval {
        if self == other {
            return self;
        }
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        let stride = gcd(gcd(self.stride, other.stride), self.lo.abs_diff(other.lo));
        StridedInterval::new(stride, lo, hi)
    }

    /// Widening: identical to [`join`](Self::join) when `other ⊑ self`,
    /// otherwise jumps straight to the full range. Guarantees termination
    /// in one step once the ascent budget is spent.
    pub fn widen(self, other: StridedInterval) -> StridedInterval {
        if self.join(other) == self {
            self
        } else {
            StridedInterval::full()
        }
    }
}

/// Abstract addition (pointwise sums are a subset of the result).
impl std::ops::Add for StridedInterval {
    type Output = StridedInterval;

    fn add(self, other: StridedInterval) -> StridedInterval {
        let (Some(lo), Some(hi)) = (self.lo.checked_add(other.lo), self.hi.checked_add(other.hi))
        else {
            return StridedInterval::full();
        };
        StridedInterval::new(gcd(self.stride, other.stride), lo, hi)
    }
}

/// Abstract subtraction.
impl std::ops::Sub for StridedInterval {
    type Output = StridedInterval;

    fn sub(self, other: StridedInterval) -> StridedInterval {
        let (Some(lo), Some(hi)) = (self.lo.checked_sub(other.hi), self.hi.checked_sub(other.lo))
        else {
            return StridedInterval::full();
        };
        StridedInterval::new(gcd(self.stride, other.stride), lo, hi)
    }
}

/// Abstract multiplication (corner products; strides follow from the
/// bilinear expansion `ab = lo1·lo2 + i·s1·lo2 + j·s2·lo1 + ij·s1·s2`).
impl std::ops::Mul for StridedInterval {
    type Output = StridedInterval;

    fn mul(self, other: StridedInterval) -> StridedInterval {
        let corners = [
            self.lo.checked_mul(other.lo),
            self.lo.checked_mul(other.hi),
            self.hi.checked_mul(other.lo),
            self.hi.checked_mul(other.hi),
        ];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for c in corners {
            let Some(c) = c else { return StridedInterval::full() };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let stride = gcd(
            gcd(
                self.stride.saturating_mul(other.lo.unsigned_abs()),
                other.stride.saturating_mul(self.lo.unsigned_abs()),
            ),
            self.stride.saturating_mul(other.stride),
        );
        StridedInterval::new(stride, lo, hi)
    }
}

impl std::fmt::Display for StridedInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(c) = self.as_singleton() {
            write!(f, "{c:#x}")
        } else if self.is_full() {
            write!(f, "full")
        } else {
            write!(f, "{}[{:#x}..{:#x}]", self.stride, self.lo, self.hi)
        }
    }
}

/// A memory region: the base a strided interval offsets into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// The global address space (also hosts plain integers).
    Global,
    /// The stack frame of one function, anchored at its entry `esp`
    /// (offset 0 is the return-address slot; locals live below 0, arguments
    /// at `+4, +8, …`).
    Frame(FuncId),
    /// One heap allocation site (the allocating call instruction).
    Heap(InstId),
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Global => write!(f, "global"),
            Region::Frame(func) => write!(f, "frame({func})"),
            Region::Heap(site) => write!(f, "heap({site})"),
        }
    }
}

/// A value set: ⊤, or per-region strided intervals (the empty map is ⊥).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vsv {
    /// Any value in any region.
    Top,
    /// The union over regions of `region + interval`.
    Set(BTreeMap<Region, StridedInterval>),
}

impl Vsv {
    /// ⊥ — the empty value set.
    pub fn bottom() -> Vsv {
        Vsv::Set(BTreeMap::new())
    }

    /// The integer constant `c` (a [`Region::Global`] singleton).
    pub fn constant(c: i64) -> Vsv {
        Vsv::Set(BTreeMap::from([(Region::Global, StridedInterval::singleton(c))]))
    }

    /// A singleton at `region + off`.
    pub fn offset_in(region: Region, off: i64) -> Vsv {
        Vsv::Set(BTreeMap::from([(region, StridedInterval::singleton(off))]))
    }

    /// `true` for ⊤.
    pub fn is_top(&self) -> bool {
        matches!(self, Vsv::Top)
    }

    /// The per-region intervals, unless ⊤.
    pub fn regions(&self) -> Option<&BTreeMap<Region, StridedInterval>> {
        match self {
            Vsv::Top => None,
            Vsv::Set(m) => Some(m),
        }
    }

    /// The exact offset, if this set is a singleton in exactly `region`.
    pub fn singleton_in(&self, region: Region) -> Option<i64> {
        let m = self.regions()?;
        if m.len() != 1 {
            return None;
        }
        let (r, si) = m.iter().next()?;
        (*r == region).then(|| si.as_singleton())?
    }

    fn insert_joined(m: &mut BTreeMap<Region, StridedInterval>, r: Region, si: StridedInterval) {
        match m.get_mut(&r) {
            Some(old) => *old = old.join(si),
            None => {
                m.insert(r, si);
            }
        }
    }

    fn capped(m: BTreeMap<Region, StridedInterval>) -> Vsv {
        if m.len() > MAX_REGIONS {
            Vsv::Top
        } else {
            Vsv::Set(m)
        }
    }

    /// Joins `other` into `self`; under `widen`, changing intervals jump to
    /// the full range. Returns `true` if `self` changed.
    pub fn join(&mut self, other: &Vsv, widen: bool) -> bool {
        match (&mut *self, other) {
            (Vsv::Top, _) => false,
            (_, Vsv::Top) => {
                *self = Vsv::Top;
                true
            }
            (Vsv::Set(mine), Vsv::Set(theirs)) => {
                let mut changed = false;
                for (r, si) in theirs {
                    match mine.get_mut(r) {
                        Some(old) => {
                            let j = if widen { old.widen(*si) } else { old.join(*si) };
                            if j != *old {
                                *old = j;
                                changed = true;
                            }
                        }
                        None => {
                            mine.insert(*r, *si);
                            changed = true;
                        }
                    }
                }
                if mine.len() > MAX_REGIONS {
                    *self = Vsv::Top;
                }
                changed
            }
        }
    }

    /// Shifts every region's interval by the constant `c`.
    pub fn plus(&self, c: i64) -> Vsv {
        if c == 0 {
            return self.clone();
        }
        match self {
            Vsv::Top => Vsv::Top,
            Vsv::Set(m) => Vsv::Set(
                m.iter().map(|(r, si)| (*r, *si + StridedInterval::singleton(c))).collect(),
            ),
        }
    }

    /// Abstract binary operation with the region algebra: offsets move
    /// within a region under `±`, pointer differences of one region are
    /// integers, and anything region-mixing is ⊤.
    pub fn binop(op: BinOp, a: &Vsv, b: &Vsv) -> Vsv {
        let (Vsv::Set(ma), Vsv::Set(mb)) = (a, b) else { return Vsv::Top };
        if ma.is_empty() || mb.is_empty() {
            return Vsv::bottom();
        }
        let mut out: BTreeMap<Region, StridedInterval> = BTreeMap::new();
        for (ra, ia) in ma {
            for (rb, ib) in mb {
                let (region, si) = match (op, ra, rb) {
                    (BinOp::Add, Region::Global, r) => (*r, *ia + *ib),
                    (BinOp::Add, r, Region::Global) => (*r, *ia + *ib),
                    (BinOp::Sub, r, Region::Global) => (*r, *ia - *ib),
                    (BinOp::Sub, r1, r2) if r1 == r2 => (Region::Global, *ia - *ib),
                    (BinOp::Mul, Region::Global, Region::Global) => (Region::Global, *ia * *ib),
                    (
                        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr,
                        Region::Global,
                        Region::Global,
                    ) => match (ia.as_singleton(), ib.as_singleton()) {
                        (Some(x), Some(y)) => {
                            (Region::Global, StridedInterval::singleton(op.apply(x, y)))
                        }
                        _ => return Vsv::Top,
                    },
                    _ => return Vsv::Top,
                };
                Vsv::insert_joined(&mut out, region, si);
            }
        }
        Vsv::capped(out)
    }
}

impl std::fmt::Display for Vsv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vsv::Top => write!(f, "top"),
            Vsv::Set(m) if m.is_empty() => write!(f, "bottom"),
            Vsv::Set(m) => {
                let mut first = true;
                for (r, si) in m {
                    if !first {
                        write!(f, " | ")?;
                    }
                    first = false;
                    write!(f, "{r}+{si}")?;
                }
                Ok(())
            }
        }
    }
}

/// The per-point VSA fact: one value set per register plus the tracked
/// frame slots (entry-`esp`-relative; a present key means the slot was
/// written on every path, an absent slot reads as ⊤).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VsaFact {
    live: bool,
    regs: [Vsv; 8],
    frame: BTreeMap<i64, Vsv>,
    ascent: u32,
}

impl VsaFact {
    fn unreached() -> VsaFact {
        VsaFact {
            live: false,
            regs: std::array::from_fn(|_| Vsv::bottom()),
            frame: BTreeMap::new(),
            ascent: 0,
        }
    }

    fn entry(func: FuncId) -> VsaFact {
        let mut regs: [Vsv; 8] = std::array::from_fn(|_| Vsv::Top);
        regs[Reg::Esp.index()] = Vsv::offset_in(Region::Frame(func), 0);
        VsaFact { live: true, regs, frame: BTreeMap::new(), ascent: 0 }
    }

    /// The value set of `r` at this point.
    pub fn reg(&self, r: Reg) -> &Vsv {
        &self.regs[r.index()]
    }

    /// The abstract *address* a location denotes at this point.
    pub fn eval_addr(&self, loc: Loc) -> Vsv {
        match loc.base {
            Addr::Reg(r) => self.regs[r.index()].plus(loc.offset),
            Addr::Mem(m) => Vsv::constant((m.value() as i64).wrapping_add(loc.offset)),
        }
    }

    /// The abstract value of an operand (loads through exactly one tracked
    /// frame slot are precise; every other load is ⊤).
    pub fn eval(&self, func: FuncId, o: Operand) -> Vsv {
        match o {
            Operand::Imm(c) => Vsv::constant(c),
            Operand::Loc(loc) => self.eval_addr(loc),
            Operand::Deref(loc) => self.load(func, &self.eval_addr(loc)),
        }
    }

    fn load(&self, func: FuncId, addr: &Vsv) -> Vsv {
        match addr.singleton_in(Region::Frame(func)) {
            Some(off) => self.frame.get(&off).cloned().unwrap_or(Vsv::Top),
            None => Vsv::Top,
        }
    }

    fn store(&mut self, func: FuncId, addr: &Vsv, v: Vsv) {
        if let Some(off) = addr.singleton_in(Region::Frame(func)) {
            self.frame.insert(off, v);
            if self.frame.len() > MAX_FRAME_SLOTS {
                self.frame.clear();
            }
            return;
        }
        // A store whose target is not an exact frame slot invalidates every
        // tracked slot it may overlap (4-byte accesses).
        match addr.regions() {
            None => self.frame.clear(),
            Some(m) => {
                if let Some(si) = m.get(&Region::Frame(func)) {
                    if si.is_full() {
                        self.frame.clear();
                    } else {
                        self.frame.retain(|&k, _| k + 3 < si.lo || k > si.hi + 3);
                    }
                }
            }
        }
    }

    fn write(&mut self, func: FuncId, dst: Operand, v: Vsv) {
        if let Some(r) = dst.as_reg() {
            self.regs[r.index()] = v;
        } else if let Operand::Deref(loc) = dst {
            let addr = self.eval_addr(loc);
            self.store(func, &addr, v);
        }
    }

    fn push(&mut self, func: FuncId, v: Vsv) {
        let slot = self.regs[Reg::Esp.index()].plus(-4);
        self.store(func, &slot, v);
        self.regs[Reg::Esp.index()] = slot;
    }

    fn pop(&mut self, func: FuncId) -> Vsv {
        let v = self.load(func, &self.regs[Reg::Esp.index()].clone());
        self.regs[Reg::Esp.index()] = self.regs[Reg::Esp.index()].plus(4);
        v
    }
}

impl Lattice for VsaFact {
    fn join(&mut self, other: &Self) -> bool {
        if !other.live {
            return false;
        }
        if !self.live {
            *self = other.clone();
            return true;
        }
        let widen = self.ascent >= ASCENT_BUDGET;
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            changed |= mine.join(theirs, widen);
        }
        let dropped: Vec<i64> =
            self.frame.keys().copied().filter(|k| !other.frame.contains_key(k)).collect();
        for k in dropped {
            self.frame.remove(&k);
            changed = true;
        }
        for (k, v) in self.frame.iter_mut() {
            changed |= v.join(&other.frame[k], widen);
        }
        if changed {
            self.ascent = self.ascent.max(other.ascent).saturating_add(1);
        }
        changed
    }
}

/// The per-function VSA transfer.
#[derive(Debug, Clone, Copy)]
pub struct VsaAnalysis {
    func: FuncId,
}

impl VsaAnalysis {
    /// The analysis for one function (the frame region is `Frame(func)`).
    pub fn new(func: FuncId) -> VsaAnalysis {
        VsaAnalysis { func }
    }
}

impl Transfer for VsaAnalysis {
    type Fact = VsaFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> VsaFact {
        VsaFact::unreached()
    }

    fn boundary(&self) -> VsaFact {
        VsaFact::entry(self.func)
    }

    fn apply(&self, prog: &Program, id: InstId, fact: &mut VsaFact) {
        if !fact.live {
            return;
        }
        let func = self.func;
        let inst = prog.inst(id);
        match &inst.kind {
            InstKind::Mov { dst, src } => {
                let v = fact.eval(func, *src);
                fact.write(func, *dst, v);
            }
            InstKind::Op { op, dst, src } => {
                let zeroing = matches!(op, BinOp::Xor | BinOp::Sub)
                    && dst.as_reg().is_some()
                    && dst.as_reg() == src.as_reg();
                let v = if zeroing {
                    Vsv::constant(0)
                } else {
                    Vsv::binop(*op, &fact.eval(func, *dst), &fact.eval(func, *src))
                };
                fact.write(func, *dst, v);
            }
            InstKind::Use { .. } => {}
            InstKind::Push { src } => {
                let v = fact.eval(func, *src);
                fact.push(func, v);
            }
            InstKind::Pop { dst } => {
                let v = fact.pop(func);
                fact.write(func, *dst, v);
            }
            InstKind::Call { .. } => {
                // Intra-procedural call model: esp/ebp are preserved (the
                // frame-discipline lints enforce this on generated code),
                // general registers are clobbered, and the callee may write
                // any memory — tracked frame slots degrade to ⊤.
                for r in Reg::GENERAL {
                    fact.regs[r.index()] = Vsv::Top;
                }
                if prog.call_allocates(id) {
                    fact.regs[Reg::Eax.index()] = Vsv::offset_in(Region::Heap(id), 0);
                }
                for v in fact.frame.values_mut() {
                    *v = Vsv::Top;
                }
            }
            InstKind::Ret => {
                // The implicit pop of the return address.
                let _ = fact.pop(func);
            }
        }
    }
}

/// One resolved memory operand.
#[derive(Debug, Clone)]
pub struct MemOp {
    /// The accessing instruction.
    pub inst: InstId,
    /// The memory operand.
    pub opr: Operand,
    /// `true` if the access writes (read-modify-write counts as a write).
    pub is_write: bool,
    /// The abstract address of the access.
    pub addr: Vsv,
}

/// A discrete abstract location a memory operand resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ALoc {
    /// A global byte address.
    Global(u64),
    /// A frame slot (entry-`esp`-relative offset).
    Frame {
        /// The frame's function.
        func: FuncId,
        /// Entry-`esp`-relative offset.
        offset: i64,
    },
    /// A heap offset relative to one allocation site.
    Heap {
        /// The allocating call instruction.
        site: InstId,
        /// Byte offset into the allocation.
        offset: i64,
    },
}

/// Concretizes an abstract address into discrete a-locs. The second
/// component is `false` when the address was ⊤ or some interval was too
/// wide to enumerate (only interval bases are emitted then).
pub fn enumerate_alocs(addr: &Vsv) -> (Vec<ALoc>, bool) {
    let Some(m) = addr.regions() else { return (Vec::new(), false) };
    let mut out = Vec::new();
    let mut exact = true;
    for (r, si) in m {
        let offs: Vec<i64> = if si.count() <= ENUM_LIMIT {
            si.points().collect()
        } else {
            exact = false;
            vec![si.lo]
        };
        for off in offs {
            out.push(match r {
                Region::Global => {
                    if off < 0 {
                        exact = false;
                        continue;
                    }
                    ALoc::Global(off as u64)
                }
                Region::Frame(func) => ALoc::Frame { func: *func, offset: off },
                Region::Heap(site) => ALoc::Heap { site: *site, offset: off },
            });
        }
    }
    (out, exact)
}

/// The VSA fixpoint of one function plus its resolved memory operands.
#[derive(Debug, Clone)]
pub struct VsaResult {
    /// The analyzed function.
    pub func: FuncId,
    solution: Solution<VsaFact>,
}

impl VsaResult {
    /// The fact before `id` (program order).
    pub fn before(&self, id: InstId) -> &VsaFact {
        self.solution.before(id)
    }

    /// The fact after `id`.
    pub fn after(&self, id: InstId) -> &VsaFact {
        self.solution.after(id)
    }

    /// `true` if `id`'s block was reached from the entry.
    pub fn reached(&self, id: InstId) -> bool {
        self.solution.reached(id)
    }

    /// Every memory operand of the function with its abstract address
    /// (explicit `[loc]` operands; the implicit push/pop stack traffic is
    /// not listed).
    pub fn mem_ops(&self, prog: &Program) -> Vec<MemOp> {
        let mut out = Vec::new();
        for id in prog.func(self.func).inst_ids() {
            if !self.reached(id) {
                continue;
            }
            let fact = self.before(id);
            let mut push = |opr: Operand, is_write: bool| {
                if let Operand::Deref(loc) = opr {
                    out.push(MemOp { inst: id, opr, is_write, addr: fact.eval_addr(loc) });
                }
            };
            match &prog.inst(id).kind {
                InstKind::Mov { dst, src } => {
                    push(*src, false);
                    push(*dst, true);
                }
                InstKind::Op { dst, src, .. } => {
                    push(*src, false);
                    push(*dst, true);
                }
                InstKind::Use { oprs } => {
                    for o in oprs {
                        push(*o, false);
                    }
                }
                InstKind::Push { src } => push(*src, false),
                InstKind::Pop { dst } => push(*dst, true),
                InstKind::Call { target } => {
                    if let tiara_ir::CallTarget::Indirect(o) = target {
                        push(*o, false);
                    }
                }
                InstKind::Ret => {}
            }
        }
        out
    }
}

/// Runs VSA over one function.
pub fn vsa_function(prog: &Program, func: FuncId) -> VsaResult {
    VsaResult { func, solution: solve(prog, func, &VsaAnalysis::new(func)) }
}

/// Runs VSA over every function, in function order. Functions are
/// independent, so the result is bitwise identical however the outer loop
/// is scheduled.
pub fn vsa_program(prog: &Program) -> Vec<VsaResult> {
    prog.funcs().iter().map(|f| vsa_function(prog, f.id)).collect()
}

/// Per-region tallies of one function's resolved memory operands.
#[derive(Debug, Clone, Copy, Default)]
pub struct VsaTotals {
    /// Operands resolved to global a-locs only.
    pub global: usize,
    /// Operands resolved to frame slots of the function.
    pub frame: usize,
    /// Operands resolved to heap allocation sites.
    pub heap: usize,
    /// Operands whose address stayed ⊤.
    pub top: usize,
}

fn totals(func: FuncId, ops: &[MemOp]) -> VsaTotals {
    let mut t = VsaTotals::default();
    for op in ops {
        match op.addr.regions() {
            None => t.top += 1,
            Some(m) => {
                if m.keys().any(|r| matches!(r, Region::Heap(_))) {
                    t.heap += 1;
                } else if m.contains_key(&Region::Frame(func)) {
                    t.frame += 1;
                } else {
                    t.global += 1;
                }
            }
        }
    }
    t
}

/// `true` for the accesses the syntactic heuristics cannot see: a deref
/// through a computed general register.
fn is_computed(op: &MemOp) -> bool {
    matches!(op.opr, Operand::Deref(loc) if loc.base_reg().is_some_and(|r| !r.is_pointer_reg()))
}

/// Renders the VSA results as the `tiara analyze --vsa` text report:
/// per-function totals plus one line per *computed* access (register-base
/// derefs — exactly the operands the syntactic discovery misses).
pub fn render_vsa_text(prog: &Program, results: &[VsaResult]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for res in results {
        let f = prog.func(res.func);
        let ops = res.mem_ops(prog);
        let t = totals(res.func, &ops);
        let _ = writeln!(
            s,
            "fn {} ({:?}): {} mem ops — global {}, frame {}, heap {}, top {}",
            f.name,
            tiara_ir::detect_frame_mode(prog, res.func),
            ops.len(),
            t.global,
            t.frame,
            t.heap,
            t.top
        );
        for op in ops.iter().filter(|o| is_computed(o)) {
            let _ = writeln!(
                s,
                "  {} @ {:06X}h  {} {}  -> {}",
                op.inst,
                prog.inst(op.inst).addr,
                if op.is_write { "write" } else { "read " },
                op.opr,
                op.addr
            );
        }
    }
    s
}

/// Renders the VSA results as the `tiara analyze --vsa --json` document: an
/// array with one object per function, holding its frame mode, memory-access
/// totals and the operands whose address is computed.
pub fn render_vsa_json(prog: &Program, results: &[VsaResult]) -> String {
    let doc = results.iter().map(|res| {
        let ops = res.mem_ops(prog);
        let t = totals(res.func, &ops);
        let computed = ops.iter().filter(|o| is_computed(o)).map(|op| {
            Value::obj([
                ("inst", Value::Int(op.inst.0.into())),
                ("write", Value::Bool(op.is_write)),
                ("operand", Value::Str(op.opr.to_string())),
                ("addr", Value::Str(op.addr.to_string())),
            ])
        });
        let int = |n: usize| Value::Int(n as i64);
        Value::obj([
            ("func", Value::Str(prog.func(res.func).name.clone())),
            (
                "frame_mode",
                Value::Str(format!("{:?}", tiara_ir::detect_frame_mode(prog, res.func))),
            ),
            ("mem_ops", int(ops.len())),
            ("global", int(t.global)),
            ("frame", int(t.frame)),
            ("heap", int(t.heap)),
            ("top", int(t.top)),
            ("computed", Value::Array(computed.collect())),
        ])
    });
    Value::Array(doc.collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{ExternKind, ProgramBuilder};

    fn rr(r: Reg) -> Operand {
        Operand::reg(r)
    }

    #[test]
    fn strided_interval_basics() {
        let s = StridedInterval::new(4, 0, 13);
        assert_eq!((s.lo, s.hi, s.stride), (0, 12, 4), "hi clamps onto the grid");
        assert!(s.contains(8) && !s.contains(9) && !s.contains(16));
        assert_eq!(s.count(), 4);
        assert_eq!(StridedInterval::singleton(7).as_singleton(), Some(7));
        assert_eq!(s.points().collect::<Vec<_>>(), vec![0, 4, 8, 12]);
    }

    #[test]
    fn join_takes_gcd_of_strides_and_base_gap() {
        let a = StridedInterval::new(8, 0, 16);
        let b = StridedInterval::new(8, 4, 20);
        let j = a.join(b);
        assert_eq!((j.stride, j.lo, j.hi), (4, 0, 20));
        for x in a.points().chain(b.points()) {
            assert!(j.contains(x));
        }
    }

    #[test]
    fn widen_jumps_to_full_once() {
        let a = StridedInterval::new(4, 0, 8);
        let grown = StridedInterval::new(4, 0, 12);
        assert_eq!(a.widen(a), a);
        assert_eq!(a.widen(grown), StridedInterval::full());
        assert_eq!(StridedInterval::full().widen(grown), StridedInterval::full());
    }

    #[test]
    fn region_algebra_keeps_frames_under_offsetting() {
        let f = Vsv::offset_in(Region::Frame(FuncId(0)), -8);
        let shifted = Vsv::binop(BinOp::Add, &f, &Vsv::constant(4));
        assert_eq!(shifted.singleton_in(Region::Frame(FuncId(0))), Some(-4));
        let diff = Vsv::binop(BinOp::Sub, &f, &f.plus(-12));
        assert_eq!(diff.singleton_in(Region::Global), Some(12));
        let mixed = Vsv::binop(BinOp::Add, &f, &Vsv::offset_in(Region::Heap(InstId(3)), 0));
        assert!(mixed.is_top());
    }

    /// The motivating shape: an fpo function addressing a local through a
    /// lea-materialized base register.
    #[test]
    fn computed_frame_access_resolves_to_a_slot() {
        let mut b = ProgramBuilder::new();
        b.begin_func("fpo");
        b.inst(
            Opcode::Sub,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Esp), src: Operand::imm(0x20) },
        );
        // lea esi, [esp+8]; mov [esi+4], 7
        b.inst(
            Opcode::Lea,
            InstKind::Mov { dst: rr(Reg::Esi), src: Operand::Loc(Loc::with_offset(Reg::Esp, 8)) },
        );
        let store = b.next_inst_id();
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Esi, 4), src: Operand::imm(7) },
        );
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esp), src: Operand::imm(0x20) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let res = vsa_function(&p, FuncId(0));
        let fact = res.before(store);
        // entry esp = 0; after sub esp,0x20 esp = -0x20; lea base = -0x18;
        // the store hits frame slot -0x14.
        let addr = fact.eval_addr(Loc::with_offset(Reg::Esi, 4));
        assert_eq!(addr.singleton_in(Region::Frame(FuncId(0))), Some(-0x14));
    }

    #[test]
    fn allocation_sites_become_heap_regions() {
        let mut b = ProgramBuilder::new();
        b.begin_func("h");
        let call = b.next_inst_id();
        b.call_extern(ExternKind::Malloc);
        let store = b.next_inst_id();
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Eax, 8), src: Operand::imm(1) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let res = vsa_function(&p, FuncId(0));
        let addr = res.before(store).eval_addr(Loc::with_offset(Reg::Eax, 8));
        assert_eq!(addr.singleton_in(Region::Heap(call)), Some(8));
        let (alocs, exact) = enumerate_alocs(&addr);
        assert!(exact);
        assert_eq!(alocs, vec![ALoc::Heap { site: call, offset: 8 }]);
    }

    #[test]
    fn loops_terminate_via_widening_and_stay_sound() {
        // top: add esi, 4; dec ecx; jne top — esi's value set must cover
        // every multiple of 4 it can reach, and the solve must terminate.
        let mut b = ProgramBuilder::new();
        b.begin_func("loop");
        b.inst(
            Opcode::Lea,
            InstKind::Mov {
                dst: rr(Reg::Esi),
                src: Operand::Loc(Loc::with_offset(Reg::Esp, -0x40)),
            },
        );
        let top = b.new_label();
        b.bind_label(top);
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esi), src: Operand::imm(4) },
        );
        b.inst(
            Opcode::Dec,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Ecx), src: Operand::imm(1) },
        );
        b.jump(Opcode::Jne, top);
        let after = b.next_inst_id();
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let res = vsa_function(&p, FuncId(0));
        let v = res.before(after).reg(Reg::Esi);
        let m = v.regions().expect("esi stays frame-tagged");
        let si = m[&Region::Frame(FuncId(0))];
        // Every reachable concrete value (-0x40 + 4k, k ≥ 1) is covered.
        for k in 1..200 {
            assert!(si.contains(-0x40 + 4 * k), "missing -0x40+{}", 4 * k);
        }
    }

    #[test]
    fn frame_pointer_prologue_anchors_ebp() {
        let mut b = ProgramBuilder::new();
        b.begin_func("framed");
        b.inst(Opcode::Push, InstKind::Push { src: rr(Reg::Ebp) });
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ebp), src: rr(Reg::Esp) });
        b.inst(
            Opcode::Sub,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Esp), src: Operand::imm(0x40) },
        );
        let probe = b.next_inst_id();
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Ebp, -8), src: Operand::imm(3) },
        );
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Esp), src: rr(Reg::Ebp) });
        b.inst(Opcode::Pop, InstKind::Pop { dst: rr(Reg::Ebp) });
        let ret = b.next_inst_id();
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let res = vsa_function(&p, FuncId(0));
        let frame = Region::Frame(FuncId(0));
        let fact = res.before(probe);
        assert_eq!(fact.reg(Reg::Ebp).singleton_in(frame), Some(-4), "ebp = entry esp - 4");
        assert_eq!(fact.reg(Reg::Esp).singleton_in(frame), Some(-0x44));
        // [ebp-8] is entry-esp -12.
        assert_eq!(fact.eval_addr(Loc::with_offset(Reg::Ebp, -8)).singleton_in(frame), Some(-12));
        // The epilogue rebalances esp to 0 at ret.
        assert_eq!(res.before(ret).reg(Reg::Esp).singleton_in(frame), Some(0));
    }

    #[test]
    fn renderers_cover_the_computed_access() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(
            Opcode::Lea,
            InstKind::Mov { dst: rr(Reg::Esi), src: Operand::Loc(Loc::with_offset(Reg::Esp, -8)) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Esi, 0), src: Operand::imm(1) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let results = vsa_program(&p);
        let text = render_vsa_text(&p, &results);
        assert!(text.contains("fn f"), "{text}");
        assert!(text.contains("write"), "{text}");
        let json = render_vsa_json(&p, &results);
        let doc = tiara_json::parse(&json).unwrap();
        let funcs = doc.as_array().unwrap();
        assert_eq!(funcs.len(), 1, "{json}");
        assert_eq!(funcs[0].get("func").and_then(Value::as_str), Some("f"), "{json}");
        let computed = funcs[0].get("computed").and_then(Value::as_array).unwrap();
        assert_eq!(computed[0].get("write"), Some(&Value::Bool(true)), "{json}");
    }

    #[test]
    fn vsa_program_is_deterministic() {
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.begin_func(name);
            b.inst(Opcode::Push, InstKind::Push { src: rr(Reg::Ebp) });
            b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ebp), src: rr(Reg::Esp) });
            b.inst(
                Opcode::Mov,
                InstKind::Mov { dst: Operand::mem_reg(Reg::Ebp, -4), src: Operand::imm(9) },
            );
            b.inst(Opcode::Pop, InstKind::Pop { dst: rr(Reg::Ebp) });
            b.ret();
            b.end_func();
        }
        let p = b.finish().unwrap();
        let a = render_vsa_json(&p, &vsa_program(&p));
        let b2 = render_vsa_json(&p, &vsa_program(&p));
        assert_eq!(a, b2);
    }
}
