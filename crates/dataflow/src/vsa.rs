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
//! **Representation.** A value set's region map is a region-sorted inline
//! array of at most [`MAX_REGIONS`] pairs ([`RegionMap`]) — a set that would
//! need more regions is ⊤, so the array is exact and never spills — and a
//! fact's tracked frame slots are one offset-sorted `Vec`. The fixpoint
//! keeps only block-entry facts; [`VsaResult::walk`] replays each reached
//! block to visit the fact before every instruction, so no per-instruction
//! fact is stored and a scratch fact refilled per block stops allocating.
//!
//! **Determinism contract.** All state lives in sorted arrays and
//! index-ordered vectors, the solver drains its worklist in block order, and
//! functions are analyzed independently — so the result is a pure function
//! of the program, bitwise identical at any thread count (the parallel
//! drivers only partition work, they never share state).
//!
//! Consumers: `discover_variables_vsa` in tiara-core (address discovery for
//! globals, frame slots in *all* functions, and heap allocation sites), the
//! four `vsa-*` lint passes in tiara-verify (including a concrete-execution
//! soundness oracle), and `tiara analyze --vsa`.

use crate::cfg::BlockCfg;
use crate::solver::{fixpoint, Direction, Lattice, Transfer};
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

/// The per-region intervals of a value set that is not ⊤: at most
/// [`MAX_REGIONS`] `(region, interval)` pairs, sorted by region and held
/// inline. A set that would need one more region is ⊤ instead, so the
/// array never overflows and nothing spills to the heap.
#[derive(Clone, Copy)]
pub struct RegionMap {
    len: u8,
    entries: [(Region, StridedInterval); MAX_REGIONS],
}

impl RegionMap {
    /// The empty map (⊥ as a value set).
    const EMPTY: RegionMap = RegionMap {
        len: 0,
        entries: [(Region::Global, StridedInterval { stride: 0, lo: 0, hi: 0 }); MAX_REGIONS],
    };

    fn one(region: Region, si: StridedInterval) -> RegionMap {
        let mut m = RegionMap::EMPTY;
        m.entries[0] = (region, si);
        m.len = 1;
        m
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the empty map.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live `(region, interval)` pairs, in region order.
    pub fn as_slice(&self) -> &[(Region, StridedInterval)] {
        &self.entries[..self.len()]
    }

    /// Iterates the live pairs in region order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Region, StridedInterval)> {
        self.as_slice().iter()
    }

    /// The interval of `region`, if present.
    pub fn get(&self, region: Region) -> Option<StridedInterval> {
        self.iter().find(|(r, _)| *r == region).map(|&(_, si)| si)
    }

    fn get_mut(&mut self, region: Region) -> Option<&mut StridedInterval> {
        let len = self.len();
        self.entries[..len].iter_mut().find(|(r, _)| *r == region).map(|(_, si)| si)
    }

    /// Inserts an absent `region` at its sorted position; `false` (and the
    /// map unchanged) if the map is already full.
    fn insert(&mut self, region: Region, si: StridedInterval) -> bool {
        let len = self.len();
        if len == MAX_REGIONS {
            return false;
        }
        let at = self.as_slice().partition_point(|(r, _)| *r < region);
        self.entries.copy_within(at..len, at + 1);
        self.entries[at] = (region, si);
        self.len += 1;
        true
    }

    /// Joins `si` into `region`'s interval, inserting it if absent; `false`
    /// if a new region did not fit.
    fn insert_joined(&mut self, region: Region, si: StridedInterval) -> bool {
        match self.get_mut(region) {
            Some(old) => {
                *old = old.join(si);
                true
            }
            None => self.insert(region, si),
        }
    }
}

impl PartialEq for RegionMap {
    fn eq(&self, other: &RegionMap) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RegionMap {}

impl std::hash::Hash for RegionMap {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for RegionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter().map(|(r, si)| (r, si))).finish()
    }
}

impl<'a> IntoIterator for &'a RegionMap {
    type Item = &'a (Region, StridedInterval);
    type IntoIter = std::slice::Iter<'a, (Region, StridedInterval)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A value set: ⊤, or per-region strided intervals (the empty map is ⊥).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vsv {
    /// Any value in any region.
    Top,
    /// The union over regions of `region + interval`.
    Set(RegionMap),
}

impl Vsv {
    /// ⊥ — the empty value set.
    pub fn bottom() -> Vsv {
        Vsv::Set(RegionMap::EMPTY)
    }

    /// The integer constant `c` (a [`Region::Global`] singleton).
    pub fn constant(c: i64) -> Vsv {
        Vsv::offset_in(Region::Global, c)
    }

    /// A singleton at `region + off`.
    pub fn offset_in(region: Region, off: i64) -> Vsv {
        Vsv::Set(RegionMap::one(region, StridedInterval::singleton(off)))
    }

    /// `true` for ⊤.
    pub fn is_top(&self) -> bool {
        matches!(self, Vsv::Top)
    }

    /// The per-region intervals, unless ⊤.
    pub fn regions(&self) -> Option<&RegionMap> {
        match self {
            Vsv::Top => None,
            Vsv::Set(m) => Some(m),
        }
    }

    /// The exact offset, if this set is a singleton in exactly `region`.
    pub fn singleton_in(&self, region: Region) -> Option<i64> {
        let [(r, si)] = self.regions()?.as_slice() else { return None };
        (*r == region).then(|| si.as_singleton())?
    }

    /// Joins `other` into `self`; under `widen`, changing intervals jump to
    /// the full range. Returns `true` if `self` changed.
    pub fn join(&mut self, other: &Vsv, widen: bool) -> bool {
        let (Vsv::Set(mine), Vsv::Set(theirs)) = (&mut *self, other) else {
            let changed = !self.is_top();
            *self = Vsv::Top;
            return changed;
        };
        let mut changed = false;
        for &(r, si) in theirs {
            if let Some(old) = mine.get_mut(r) {
                let j = if widen { old.widen(si) } else { old.join(si) };
                if j != *old {
                    *old = j;
                    changed = true;
                }
            } else if mine.insert(r, si) {
                changed = true;
            } else {
                *self = Vsv::Top;
                return true;
            }
        }
        changed
    }

    /// Shifts every region's interval by the constant `c`.
    pub fn plus(&self, c: i64) -> Vsv {
        let mut out = *self;
        if let Vsv::Set(m) = &mut out {
            if c != 0 {
                let len = m.len();
                for (_, si) in &mut m.entries[..len] {
                    *si = *si + StridedInterval::singleton(c);
                }
            }
        }
        out
    }

    /// Abstract binary operation with the region algebra: offsets move
    /// within a region under `±`, pointer differences of one region are
    /// integers, and anything region-mixing is ⊤.
    pub fn binop(op: BinOp, a: &Vsv, b: &Vsv) -> Vsv {
        let (Vsv::Set(ma), Vsv::Set(mb)) = (a, b) else { return Vsv::Top };
        if ma.is_empty() || mb.is_empty() {
            return Vsv::bottom();
        }
        let mut out = RegionMap::EMPTY;
        for &(ra, ia) in ma {
            for &(rb, ib) in mb {
                let (region, si) = match (op, ra, rb) {
                    (BinOp::Add, Region::Global, r) => (r, ia + ib),
                    (BinOp::Add, r, Region::Global) => (r, ia + ib),
                    (BinOp::Sub, r, Region::Global) => (r, ia - ib),
                    (BinOp::Sub, r1, r2) if r1 == r2 => (Region::Global, ia - ib),
                    (BinOp::Mul, Region::Global, Region::Global) => (Region::Global, ia * ib),
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
                if !out.insert_joined(region, si) {
                    return Vsv::Top;
                }
            }
        }
        Vsv::Set(out)
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
/// frame slots (entry-`esp`-relative, sorted by offset; a present slot
/// means it was written on every path, an absent slot reads as ⊤).
#[derive(Debug, PartialEq, Eq)]
pub struct VsaFact {
    live: bool,
    regs: [Vsv; 8],
    frame: Vec<(i64, Vsv)>,
    ascent: u32,
}

impl Clone for VsaFact {
    fn clone(&self) -> VsaFact {
        VsaFact { live: self.live, regs: self.regs, frame: self.frame.clone(), ascent: self.ascent }
    }

    /// Reuses `self`'s frame buffer, so a scratch fact refilled block after
    /// block stops allocating once it has held the largest frame.
    fn clone_from(&mut self, source: &VsaFact) {
        self.live = source.live;
        self.regs = source.regs;
        self.frame.clone_from(&source.frame);
        self.ascent = source.ascent;
    }
}

impl VsaFact {
    fn unreached() -> VsaFact {
        VsaFact { live: false, regs: [Vsv::bottom(); 8], frame: Vec::new(), ascent: 0 }
    }

    fn entry(func: FuncId) -> VsaFact {
        let mut regs = [Vsv::Top; 8];
        regs[Reg::Esp.index()] = Vsv::offset_in(Region::Frame(func), 0);
        VsaFact { live: true, regs, frame: Vec::new(), ascent: 0 }
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

    fn slot(&self, off: i64) -> Result<usize, usize> {
        self.frame.binary_search_by_key(&off, |&(k, _)| k)
    }

    fn load(&self, func: FuncId, addr: &Vsv) -> Vsv {
        match addr.singleton_in(Region::Frame(func)).map(|off| self.slot(off)) {
            Some(Ok(i)) => self.frame[i].1,
            _ => Vsv::Top,
        }
    }

    fn store(&mut self, func: FuncId, addr: &Vsv, v: Vsv) {
        if let Some(off) = addr.singleton_in(Region::Frame(func)) {
            match self.slot(off) {
                Ok(i) => self.frame[i].1 = v,
                Err(i) => self.frame.insert(i, (off, v)),
            }
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
                if let Some(si) = m.get(Region::Frame(func)) {
                    if si.is_full() {
                        self.frame.clear();
                    } else {
                        self.frame.retain(|&(k, _)| k + 3 < si.lo || k > si.hi + 3);
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
        let esp = self.regs[Reg::Esp.index()];
        let v = self.load(func, &esp);
        self.regs[Reg::Esp.index()] = esp.plus(4);
        v
    }
}

impl Lattice for VsaFact {
    fn join(&mut self, other: &Self) -> bool {
        if !other.live {
            return false;
        }
        if !self.live {
            self.clone_from(other);
            return true;
        }
        let widen = self.ascent >= ASCENT_BUDGET;
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            changed |= mine.join(theirs, widen);
        }
        // Keep the slots tracked on both sides; both lists are sorted.
        let mut theirs = other.frame.iter().peekable();
        self.frame.retain_mut(|(k, v)| {
            while theirs.next_if(|(tk, _)| tk < k).is_some() {}
            match theirs.next_if(|(tk, _)| tk == k) {
                Some((_, tv)) => {
                    changed |= v.join(tv, widen);
                    true
                }
                None => {
                    changed = true;
                    false
                }
            }
        });
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
                for (_, v) in &mut fact.frame {
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
    /// The stack pointer's value set before the accessing instruction.
    pub esp: Vsv,
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

/// The VSA fixpoint of one function: its block graph, the fact on entry
/// to each block and which blocks are reached. Per-instruction facts are
/// not stored; [`walk`](Self::walk) replays them.
#[derive(Debug, Clone)]
pub struct VsaResult {
    /// The analyzed function.
    pub func: FuncId,
    cfg: BlockCfg,
    entry: Vec<VsaFact>,
    reached: Vec<bool>,
}

impl VsaResult {
    /// The block graph the fixpoint ran on.
    pub fn cfg(&self) -> &BlockCfg {
        &self.cfg
    }

    /// Calls `visit` with every reached instruction and the fact before it,
    /// in program order, replaying each reached block from its entry fact.
    pub fn walk(&self, prog: &Program, mut visit: impl FnMut(InstId, &VsaFact)) {
        let analysis = VsaAnalysis::new(self.func);
        let mut fact = VsaFact::unreached();
        for (bi, blk) in self.cfg.blocks().iter().enumerate() {
            if !self.reached[bi] {
                continue;
            }
            fact.clone_from(&self.entry[bi]);
            for id in blk.insts() {
                visit(id, &fact);
                analysis.apply(prog, id, &mut fact);
            }
        }
    }

    /// Every memory operand of the function with its abstract address
    /// (explicit `[loc]` operands; the implicit push/pop stack traffic is
    /// not listed).
    pub fn mem_ops(&self, prog: &Program) -> Vec<MemOp> {
        let mut out = Vec::new();
        self.walk(prog, |id, fact| {
            let esp = *fact.reg(Reg::Esp);
            let mut push = |opr: Operand, is_write: bool| {
                if let Operand::Deref(loc) = opr {
                    out.push(MemOp { inst: id, opr, is_write, addr: fact.eval_addr(loc), esp });
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
        });
        out
    }
}

/// Runs VSA over one function.
pub fn vsa_function(prog: &Program, func: FuncId) -> VsaResult {
    let cfg = BlockCfg::intra(prog, func);
    let (entry, reached) = fixpoint(prog, &cfg, &VsaAnalysis::new(func));
    VsaResult { func, cfg, entry, reached }
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
                if m.iter().any(|(r, _)| matches!(r, Region::Heap(_))) {
                    t.heap += 1;
                } else if m.get(Region::Frame(func)).is_some() {
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

    /// The fact before `id`, replayed by [`VsaResult::walk`].
    fn before(p: &Program, res: &VsaResult, id: InstId) -> VsaFact {
        let mut found = None;
        res.walk(p, |at, fact| {
            if at == id {
                found = Some(fact.clone());
            }
        });
        found.expect("the instruction is reached")
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
        let fact = before(&p, &res, store);
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
        let addr = before(&p, &res, store).eval_addr(Loc::with_offset(Reg::Eax, 8));
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
        let fact = before(&p, &res, after);
        let v = fact.reg(Reg::Esi);
        let m = v.regions().expect("esi stays frame-tagged");
        let si = m.get(Region::Frame(FuncId(0))).unwrap();
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
        let fact = before(&p, &res, probe);
        assert_eq!(fact.reg(Reg::Ebp).singleton_in(frame), Some(-4), "ebp = entry esp - 4");
        assert_eq!(fact.reg(Reg::Esp).singleton_in(frame), Some(-0x44));
        // [ebp-8] is entry-esp -12.
        assert_eq!(fact.eval_addr(Loc::with_offset(Reg::Ebp, -8)).singleton_in(frame), Some(-12));
        // The epilogue rebalances esp to 0 at ret.
        assert_eq!(before(&p, &res, ret).reg(Reg::Esp).singleton_in(frame), Some(0));
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
