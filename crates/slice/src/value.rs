//! The abstract value domain of TSLICE (Section III-A):
//!
//! ```text
//! A = {ptr, ref, const} × Z ∪ {(other, ∗)}
//! ```
//!
//! * `(ptr, c)`   — a pointer to `v0 + c` (the variable's address itself);
//! * `(ref, c)`   — the value stored at `v0 + c`, i.e. `∗(v0 + c)`;
//! * `(const, c)` — the constant `c`;
//! * `(other, ∗)` — a `v0`-dependent but unknown value (e.g. the result of
//!   arithmetic on a heap value loaded from `v0`), which is not tracked
//!   further precisely.

/// One abstract value from the domain `A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsValue {
    /// `(ptr, c)`: a pointer to `v0 + c`.
    Ptr(i64),
    /// `(ref, c)`: the value `∗(v0 + c)`.
    Ref(i64),
    /// `(const, c)`: the constant `c`.
    Const(i64),
    /// `(other, ∗)`: `v0`-dependent but unknown.
    Other,
}

impl AbsValue {
    /// Returns `true` if the value witnesses a dependence on `v0`; this is
    /// the per-value part of the paper's `HasDep` test (eq. 2): every tag
    /// except `const` depends on `v0`.
    #[inline]
    pub fn is_dep(self) -> bool {
        !matches!(self, AbsValue::Const(_))
    }

    /// The pointer-indirection level of the value with respect to `v0`,
    /// used for feature `F7`: holding the address itself is level 0, a value
    /// loaded through it is level 1, and anything derived further is level 2.
    #[inline]
    pub fn indirection_level(self) -> u8 {
        match self {
            AbsValue::Ptr(_) => 0,
            AbsValue::Ref(_) => 1,
            AbsValue::Other => 2,
            AbsValue::Const(_) => 0,
        }
    }
}

impl std::fmt::Display for AbsValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsValue::Ptr(c) => write!(f, "(ptr, {c})"),
            AbsValue::Ref(c) => write!(f, "(ref, {c})"),
            AbsValue::Const(c) => write!(f, "(const, {c})"),
            AbsValue::Other => write!(f, "(other, ∗)"),
        }
    }
}

/// Number of values stored inline before spilling to the heap. Almost every
/// set the slicer manipulates is a singleton (the boot `sp`/`fp` constants,
/// `[Mov-rc]`, `[Mov-rv]`, `[Mov-riv]` deltas) or a small union of a few
/// flow-joined values; four slots cover the overwhelming majority without
/// making `InstState` (8 registers) unreasonably wide.
const INLINE: usize = 4;

/// Storage of a [`ValueSet`]: values kept sorted (the [`Ord`] order of
/// [`AbsValue`]) in either an inline array or a spilled heap vector. A set
/// never un-spills: `clear` can shrink a spilled set below `INLINE`, but the
/// vector is kept to avoid churn on the next growth.
#[derive(Debug, Clone)]
enum Repr {
    Inline { len: u8, buf: [AbsValue; INLINE] },
    Spilled(Vec<AbsValue>),
}

/// A set of abstract values (`2^A`), the codomain of the register map `V`
/// and stack map `S`.
///
/// Values are kept as a *sorted* sequence — inline up to `INLINE` elements,
/// spilled to the heap past that — so iteration order is identical to the
/// previous `BTreeSet` representation (load-bearing: the slicer's output and
/// trace are bitwise-deterministic functions of iteration order).
///
/// Sets are capped at [`ValueSet::CAP`] elements. A full set admits no new
/// constant; a new dependence evicts the smallest constant, or collapses
/// into `(other, ∗)` when none is left. Termination of the analysis does
/// not rely on the cap — the faith/decay mechanism of Algorithm 1 bounds
/// revisits — but the cap decides how long a loop that counts through
/// constants keeps changing its state (see [`ValueSet::CAP`]).
#[derive(Debug, Clone)]
pub struct ValueSet {
    repr: Repr,
}

impl ValueSet {
    /// Maximum number of values kept per set.
    ///
    /// The paper sets no cap; this one was chosen by measurement
    /// (EXPERIMENTS.md, "Value-set cap"). A loop that counts through
    /// constants adds one value per trip until its set is full. After that
    /// the set admits no new constant, so the loop's state stops changing
    /// and it settles, whichever way it counts. That is safe because
    /// constants never witness a dependence and a set of two or more values
    /// never yields a stack address ([`ValueSet::singleton_const`]): which
    /// constants a full set keeps decides only whether the state changed.
    /// The one reader of every constant is the argument-cell invalidation
    /// of call summaries (off by default): it invalidates the cells that
    /// the kept constants name, and a full set keeps its first constants
    /// where it used to keep its largest.
    /// 8 is the smallest cap swept (48, 16, 8) whose Table II macro-F1
    /// stayed within seed spread; against 48 it cut slicing steps by a
    /// fifth and the values joins walk by three quarters.
    pub const CAP: usize = 8;

    /// The empty set as a constant (usable as a `&'static` sentinel for
    /// missing stack slots).
    pub const EMPTY: ValueSet =
        ValueSet { repr: Repr::Inline { len: 0, buf: [AbsValue::Other; INLINE] } };

    /// The empty set.
    pub fn new() -> ValueSet {
        ValueSet::EMPTY
    }

    /// A singleton set.
    pub fn singleton(v: AbsValue) -> ValueSet {
        let mut s = ValueSet::new();
        s.insert(v);
        s
    }

    /// The values as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[AbsValue] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Inserts a value (weak update). Returns `true` if the set changed.
    pub fn insert(&mut self, v: AbsValue) -> bool {
        let idx = match self.as_slice().binary_search(&v) {
            Ok(_) => return false,
            Err(i) => i,
        };
        if self.len() >= Self::CAP {
            // The cap rule of `union_at_cap` for a single value: a full set
            // admits no new constant, and a dependence evicts the smallest
            // constant or collapses into `(other, ∗)`. Running it through
            // the general join would double the cost of an insert.
            if !v.is_dep() {
                return false;
            }
            let (deps, consts, other) = blocks(self.as_slice());
            let (first_const, has_const) = (deps.len(), !consts.is_empty());
            if let Repr::Spilled(vec) = &mut self.repr {
                if has_const {
                    vec.remove(first_const);
                    vec.insert(idx - usize::from(idx > first_const), v);
                    return true;
                }
                if !other {
                    vec.push(AbsValue::Other);
                    return true;
                }
            }
            return false;
        }
        match &mut self.repr {
            Repr::Inline { len, buf } if (*len as usize) < INLINE => {
                let l = *len as usize;
                buf.copy_within(idx..l, idx + 1);
                buf[idx] = v;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut vec = spill(&buf[..*len as usize]);
                vec.insert(idx, v);
                self.repr = Repr::Spilled(vec);
            }
            Repr::Spilled(vec) => vec.insert(idx, v),
        }
        true
    }

    /// Unions `other` into `self` (weak update). Returns `true` on change.
    ///
    /// The result, the returned flag, the spill count and the spilled
    /// vector's capacity are exactly those of inserting `other`'s values
    /// one by one in sorted order. Below the cap that is a plain sorted
    /// merge, done in place from the back after one counting pass; when
    /// eviction can fire, the cap rule is replayed in one pass first.
    pub fn union_with(&mut self, other: &ValueSet) -> bool {
        let b = other.as_slice();
        let n = self.len();
        let fresh = count_fresh(self.as_slice(), b);
        if fresh == 0 {
            return false;
        }
        let len = n + fresh;
        if len > Self::CAP {
            return self.union_at_cap(b);
        }
        match &mut self.repr {
            Repr::Inline { len: l, buf } if len <= INLINE => {
                merge_back(&mut buf[..len], n, b);
                *l = len as u8;
            }
            Repr::Inline { buf, .. } => {
                let mut vec = spill(&buf[..n]);
                vec.resize(len, AbsValue::Other);
                merge_back(&mut vec, n, b);
                self.repr = Repr::Spilled(vec);
            }
            Repr::Spilled(vec) => {
                grow_like_inserts(vec, len);
                vec.resize(len, AbsValue::Other);
                merge_back(vec, n, b);
            }
        }
        true
    }

    /// The cap rule, with the result of inserting the sorted values `b`
    /// one by one. Inserting a value `v` that is absent:
    ///
    /// * below `CAP` values, adds `v`;
    /// * at `CAP`, drops `v` if it is a constant: a full set admits no new
    ///   constant;
    /// * at `CAP`, evicts the smallest constant and adds `v` if it is a
    ///   dependence, or adds `(other, ∗)` instead when no constant is left.
    ///
    /// Sorted order brings the dependences first, then the constants, then
    /// `(other, ∗)`. A first pass replays the rule without touching the set.
    /// Every value it adds stays, except that an incoming `(other, ∗)` at
    /// the cap evicts the smallest constant, which may be one added earlier
    /// in the same union. So the set changes exactly when the replay adds a
    /// value. The set is then rewritten in place: the evicted constants,
    /// always the smallest of the set's own, are cut out, and the added
    /// values are merged in from the back.
    fn union_at_cap(&mut self, b: &[AbsValue]) -> bool {
        let (ad, own, a_other) = blocks(self.as_slice());
        let (bd, bc, b_other) = blocks(b);
        // `size` is the set's size as the replay sees it, `own[..evicted]`
        // are gone, and `added[..len]` holds the added values in arrival
        // order: sorted dependences, then sorted constants.
        let mut size = self.len();
        let mut evicted = 0;
        let mut added = [AbsValue::Other; Self::CAP + 1];
        let mut len = 0;
        let mut other = a_other;
        let mut i = 0;
        for &v in bd {
            while i < ad.len() && ad[i] < v {
                i += 1;
            }
            if i < ad.len() && ad[i] == v {
                continue;
            }
            if size < Self::CAP {
                size += 1;
            } else if evicted < own.len() {
                evicted += 1;
            } else {
                // Full with no constant left: every later value is dropped
                // or collapses into `(other, ∗)`.
                if !other {
                    other = true;
                    size += 1;
                }
                break;
            }
            added[len] = v;
            len += 1;
        }
        // Constants arrive only below the cap, where nothing was evicted.
        let deps = len;
        let mut j = 0;
        for &v in bc {
            if size >= Self::CAP {
                break;
            }
            while j < own.len() && own[j] < v {
                j += 1;
            }
            if j < own.len() && own[j] == v {
                continue;
            }
            size += 1;
            added[len] = v;
            len += 1;
        }
        // An incoming `(other, ∗)` at the cap evicts the smallest constant:
        // the smaller of the set's next own one and the first one added.
        // `added[deps..head]` is that added constant once evicted.
        let mut head = deps;
        if b_other && !other {
            other = true;
            let own_next = own.get(evicted);
            if size < Self::CAP {
                size += 1;
            } else if len > deps && own_next.is_none_or(|&c| added[deps] < c) {
                head += 1;
            } else if own_next.is_some() {
                evicted += 1;
            } else {
                size += 1;
            }
        }
        if len == 0 && other == a_other {
            return false;
        }
        added.copy_within(head..len, deps);
        len -= head - deps;
        if other && !a_other {
            added[len] = AbsValue::Other;
            len += 1;
        }
        let added = &added[..len];
        let first_const = ad.len();
        if let Repr::Inline { len, buf } = &self.repr {
            self.repr = Repr::Spilled(spill(&buf[..*len as usize]));
        }
        if let Repr::Spilled(vec) = &mut self.repr {
            vec.drain(first_const..first_const + evicted);
            let n = vec.len();
            debug_assert_eq!(n + added.len(), size);
            grow_like_inserts(vec, size);
            vec.resize(size, AbsValue::Other);
            merge_back(vec, n, added);
        }
        true
    }

    /// Replaces the contents (strong update). Returns `true` on change.
    pub fn assign(&mut self, other: ValueSet) -> bool {
        if *self == other {
            return false;
        }
        *self = other;
        true
    }

    /// Clears the set (the `kill` rules). Returns `true` on change.
    pub fn clear(&mut self) -> bool {
        if self.is_empty() {
            return false;
        }
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            // Keep the spilled allocation: kill/refill cycles on the same
            // register are common and this avoids re-spilling.
            Repr::Spilled(vec) => vec.clear(),
        }
        true
    }

    /// The paper's `HasDep(X)` (eq. 2): true iff some value is not a const.
    pub fn has_dep(&self) -> bool {
        self.as_slice().iter().any(|v| v.is_dep())
    }

    /// If the set is exactly one constant, returns it. This implements the
    /// `{(const, n)} = V(pre)(r)` singleton premises of Figure 4.
    pub fn singleton_const(&self) -> Option<i64> {
        match self.as_slice() {
            [AbsValue::Const(n)] => Some(*n),
            _ => None,
        }
    }

    /// Iterates over the values in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = AbsValue> + '_ {
        self.as_slice().iter().copied()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns `true` if the set contains `v`.
    pub fn contains(&self, v: AbsValue) -> bool {
        self.as_slice().binary_search(&v).is_ok()
    }

    /// Returns `true` if the values live on the heap (past the inline cap).
    pub fn is_spilled(&self) -> bool {
        matches!(self.repr, Repr::Spilled(_))
    }

    /// Bytes this set holds outside its own `size_of` footprint (the spilled
    /// vector's capacity). Used by the perf counters to price what a deep
    /// snapshot of an [`crate::state::InstState`] would have copied.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Spilled(vec) => vec.capacity() * std::mem::size_of::<AbsValue>(),
        }
    }

    /// The highest indirection level among dependence-carrying values, if any.
    pub fn max_dep_level(&self) -> Option<u8> {
        self.as_slice().iter().filter(|v| v.is_dep()).map(|v| v.indirection_level()).max()
    }
}

/// Splits a sorted value sequence into its dependences (`ptr`, `ref`), its
/// constants, and whether it ends in `(other, ∗)` — the [`Ord`] order of
/// [`AbsValue`] keeps the three blocks in that order.
fn blocks(s: &[AbsValue]) -> (&[AbsValue], &[AbsValue], bool) {
    let other = s.last() == Some(&AbsValue::Other);
    let s = if other { &s[..s.len() - 1] } else { s };
    let d = s.partition_point(|v| v.is_dep());
    (&s[..d], &s[d..], other)
}

/// How many values of sorted `b` are absent from sorted `a`.
fn count_fresh(a: &[AbsValue], b: &[AbsValue]) -> usize {
    let mut i = 0;
    let mut fresh = 0;
    for (k, &v) in b.iter().enumerate() {
        while i < a.len() && a[i] < v {
            i += 1;
        }
        if i == a.len() {
            return fresh + b.len() - k;
        }
        if a[i] == v {
            i += 1;
        } else {
            fresh += 1;
        }
    }
    fresh
}

/// Merges sorted `b` into the sorted prefix `buf[..n]` in place, from the
/// back. `buf.len()` must be `n` plus the number of `b` values absent from
/// the prefix, so every slot written is one already read.
fn merge_back(buf: &mut [AbsValue], n: usize, b: &[AbsValue]) {
    let (mut i, mut j, mut w) = (n, b.len(), buf.len());
    // Once `w == i`, every absent value is placed and the rest of the
    // prefix is already where it belongs.
    while w > i {
        w -= 1;
        let v = b[j - 1];
        if i > 0 && buf[i - 1] >= v {
            if buf[i - 1] == v {
                j -= 1;
            }
            i -= 1;
            buf[w] = buf[i];
        } else {
            buf[w] = v;
            j -= 1;
        }
    }
}

/// Moves inline values to the heap, counting the spill. The `CAP + 1`
/// capacity fits the worst case the cap rule allows (a full set of
/// dependences plus the collapsed `(other, ∗)`).
fn spill(vals: &[AbsValue]) -> Vec<AbsValue> {
    crate::stats::note_spill();
    let mut vec = Vec::with_capacity(ValueSet::CAP + 1);
    vec.extend_from_slice(vals);
    vec
}

/// Reserves exactly what inserting values one by one up to `len` would
/// have: `Vec::insert` on a full vector doubles its capacity, to at least
/// 4. A cloned spilled set is allocated at its exact length, so its later
/// capacity, which the snapshot-byte counter prices, depends on this
/// growth sequence.
fn grow_like_inserts(vec: &mut Vec<AbsValue>, len: usize) {
    let mut cap = vec.capacity();
    if cap >= len {
        return;
    }
    while cap < len {
        cap = (cap * 2).max(4);
    }
    vec.reserve_exact(cap - vec.len());
}

impl Default for ValueSet {
    fn default() -> ValueSet {
        ValueSet::EMPTY
    }
}

impl PartialEq for ValueSet {
    fn eq(&self, other: &ValueSet) -> bool {
        // Representation-independent: an evicted-below-INLINE spilled set
        // equals its inline twin.
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueSet {}

impl FromIterator<AbsValue> for ValueSet {
    fn from_iter<T: IntoIterator<Item = AbsValue>>(iter: T) -> Self {
        let mut s = ValueSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<AbsValue> for ValueSet {
    fn extend<T: IntoIterator<Item = AbsValue>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl std::fmt::Display for ValueSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, v) in self.as_slice().iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_dep_matches_paper_eq2() {
        assert!(AbsValue::Ptr(0).is_dep());
        assert!(AbsValue::Ref(4).is_dep());
        assert!(AbsValue::Other.is_dep());
        assert!(!AbsValue::Const(7).is_dep());
        let s: ValueSet = [AbsValue::Const(1), AbsValue::Const(2)].into_iter().collect();
        assert!(!s.has_dep());
        let s: ValueSet = [AbsValue::Const(1), AbsValue::Ref(0)].into_iter().collect();
        assert!(s.has_dep());
    }

    #[test]
    fn insert_reports_change() {
        let mut s = ValueSet::new();
        assert!(s.insert(AbsValue::Ptr(0)));
        assert!(!s.insert(AbsValue::Ptr(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_assign() {
        let a: ValueSet = [AbsValue::Ptr(0)].into_iter().collect();
        let mut b = ValueSet::singleton(AbsValue::Const(3));
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a));
        assert_eq!(b.len(), 2);
        let mut c = b.clone();
        assert!(!c.assign(b.clone()));
        assert!(c.assign(ValueSet::new()));
        assert!(c.is_empty());
    }

    #[test]
    fn singleton_const_premise() {
        assert_eq!(ValueSet::singleton(AbsValue::Const(5)).singleton_const(), Some(5));
        assert_eq!(ValueSet::singleton(AbsValue::Ptr(5)).singleton_const(), None);
        let two: ValueSet = [AbsValue::Const(5), AbsValue::Const(6)].into_iter().collect();
        assert_eq!(two.singleton_const(), None);
        assert_eq!(ValueSet::new().singleton_const(), None);
    }

    #[test]
    fn cap_evicts_consts_before_deps() {
        let mut s = ValueSet::new();
        for c in 0..ValueSet::CAP as i64 {
            s.insert(AbsValue::Const(c));
        }
        assert_eq!(s.len(), ValueSet::CAP);
        // A full set admits no new constant.
        assert!(!s.insert(AbsValue::Const(-1)));
        assert!(!s.insert(AbsValue::Const(ValueSet::CAP as i64)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            (0..ValueSet::CAP as i64).map(AbsValue::Const).collect::<Vec<_>>()
        );
        // Inserting a dependence evicts a constant, keeping the dependence.
        assert!(s.insert(AbsValue::Ref(1)));
        assert!(s.contains(AbsValue::Ref(1)));
        assert_eq!(s.len(), ValueSet::CAP);
        // The victim is the smallest constant in sorted order.
        assert!(!s.contains(AbsValue::Const(0)));
        assert!(s.contains(AbsValue::Const(1)));
    }

    #[test]
    fn cap_collapses_dep_overflow_to_other() {
        let mut s = ValueSet::new();
        for c in 0..ValueSet::CAP as i64 {
            s.insert(AbsValue::Ref(c));
        }
        // No constants to evict: a new constant is dropped without a
        // collapse, and a new dependence collapses to Other.
        assert!(!s.insert(AbsValue::Const(1)));
        assert!(!s.contains(AbsValue::Other));
        assert!(s.insert(AbsValue::Ref(999)));
        assert!(s.contains(AbsValue::Other));
        assert!(!s.contains(AbsValue::Ref(999)));
        // A new constant is simply dropped.
        assert!(!s.insert(AbsValue::Const(1)));
        // The collapse slot means the set can briefly hold CAP + 1 values —
        // the same envelope the BTreeSet representation allowed.
        assert_eq!(s.len(), ValueSet::CAP + 1);
        // Collapsing again is idempotent.
        assert!(!s.insert(AbsValue::Ref(1000)));
        assert_eq!(s.len(), ValueSet::CAP + 1);
    }

    #[test]
    fn inline_to_spill_transition_preserves_content_and_order() {
        let mut s = ValueSet::new();
        let before = crate::stats::thread_spills();
        // Fill exactly to the inline capacity: no spill yet.
        for c in 0..4i64 {
            assert!(s.insert(AbsValue::Const(c)));
        }
        assert!(!s.is_spilled());
        assert_eq!(crate::stats::thread_spills(), before);
        // One more value spills to the heap.
        assert!(s.insert(AbsValue::Ptr(7)));
        assert!(s.is_spilled());
        assert_eq!(crate::stats::thread_spills(), before + 1);
        assert_eq!(s.len(), 5);
        // Sorted order: Ptr < Ref < Const < Other by the Ord derive.
        let got: Vec<AbsValue> = s.iter().collect();
        let mut want = vec![
            AbsValue::Ptr(7),
            AbsValue::Const(0),
            AbsValue::Const(1),
            AbsValue::Const(2),
            AbsValue::Const(3),
        ];
        want.sort();
        assert_eq!(got, want);
        // A spilled set that shrinks below INLINE (by `clear`) stays spilled
        // but compares equal to its inline twin.
        let mut t = s.clone();
        t.clear();
        t.insert(AbsValue::Const(3));
        t.insert(AbsValue::Ptr(7));
        assert!(t.is_spilled());
        let inline: ValueSet = [AbsValue::Ptr(7), AbsValue::Const(3)].into_iter().collect();
        assert!(!inline.is_spilled());
        assert_eq!(t, inline);
    }

    #[test]
    fn spill_boundary_matches_btreeset_eviction_semantics() {
        // Drive a set through the full CAP boundary with a mix of consts and
        // deps and cross-check against a plain BTreeSet model implementing
        // the original insert routine verbatim.
        use std::collections::BTreeSet;
        fn model_insert(m: &mut BTreeSet<AbsValue>, v: AbsValue) -> bool {
            if m.contains(&v) || (m.len() >= ValueSet::CAP && !v.is_dep()) {
                return false;
            }
            if m.len() >= ValueSet::CAP {
                let victim = m.iter().find(|x| matches!(x, AbsValue::Const(_))).copied();
                match victim {
                    Some(c) => {
                        m.remove(&c);
                    }
                    None => {
                        return if v.is_dep() { m.insert(AbsValue::Other) } else { false };
                    }
                }
            }
            m.insert(v)
        }
        let mut s = ValueSet::new();
        let mut m: BTreeSet<AbsValue> = BTreeSet::new();
        let probe: Vec<AbsValue> = (0..40i64)
            .map(AbsValue::Const)
            .chain((0..30).map(|c| AbsValue::Ref(c * 3)))
            .chain((0..30).map(|c| AbsValue::Ptr(c * 5 - 7)))
            .chain([AbsValue::Other])
            .chain((40..80).map(AbsValue::Const))
            .collect();
        for v in probe {
            assert_eq!(s.insert(v), model_insert(&mut m, v), "diverged inserting {v}");
            assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        }

        // The one-pass join against the same model, replayed one value at a
        // time. `a` is built by inserting, so only reachable sets are
        // tested; `clone` starts from a clone, whose heap vector is
        // allocated at its exact length and must then grow as the replay's
        // `Vec::insert` calls would (a real `Vec` shadows that growth).
        let check = |a: &[AbsValue], b: &[AbsValue], clone: bool| -> (ValueSet, bool) {
            let mut s: ValueSet = a.iter().copied().collect();
            if clone {
                s = s.clone();
            }
            let mut m = BTreeSet::new();
            for &v in a {
                model_insert(&mut m, v);
            }
            let other: ValueSet = b.iter().copied().collect();
            let was_spilled = s.is_spilled();
            let slot = std::mem::size_of::<AbsValue>();
            let mut shadow: Vec<AbsValue> = Vec::with_capacity(s.heap_bytes() / slot);
            shadow.extend_from_slice(s.as_slice());
            let spills = crate::stats::thread_spills();
            let changed = s.union_with(&other);
            let spills = crate::stats::thread_spills() - spills;
            let mut want = false;
            let mut peak = m.len();
            for v in other.iter() {
                want |= model_insert(&mut m, v);
                peak = peak.max(m.len());
                while shadow.len() < m.len() {
                    shadow.push(AbsValue::Other);
                }
            }
            let ctx = format!("a = {a:?}, b = {b:?}, clone = {clone}");
            assert_eq!(changed, want, "changed flag: {ctx}");
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                m.iter().copied().collect::<Vec<_>>(),
                "{ctx}"
            );
            assert_eq!(spills, u64::from(!was_spilled && peak > INLINE), "spills: {ctx}");
            let want_bytes = if was_spilled {
                shadow.capacity() * slot
            } else if peak > INLINE {
                (ValueSet::CAP + 1) * slot
            } else {
                0
            };
            assert_eq!(s.heap_bytes(), want_bytes, "capacity: {ctx}");
            (s, changed)
        };
        let refs = |n: i64| (0..n).map(AbsValue::Ref).collect::<Vec<_>>();
        let cap = ValueSet::CAP as i64;

        // `Other` collapse: no constant to evict, new dependences collapse
        // once, constants are dropped, and a second collapse is no change.
        let (s, changed) = check(&refs(cap), &[AbsValue::Ref(900), AbsValue::Ref(901)], false);
        assert!(changed && s.contains(AbsValue::Other) && s.len() == ValueSet::CAP + 1);
        let mut full = refs(cap);
        full.push(AbsValue::Other);
        let (_, changed) =
            check(&full, &[AbsValue::Ref(902), AbsValue::Const(1), AbsValue::Other], false);
        assert!(!changed, "collapsing into a present Other and dropping a constant");
        let (_, changed) = check(&refs(cap), &[AbsValue::Const(1), AbsValue::Other], true);
        assert!(changed, "an incoming Other at the cap is added");

        // A full set admits no new constant: an absent one is dropped and
        // a present one is no change, so the union changes nothing.
        let mut a = refs(cap - 1);
        a.push(AbsValue::Const(5));
        let (s, changed) = check(&a, &[AbsValue::Const(3), AbsValue::Const(5)], false);
        assert!(!changed);
        assert_eq!(s.iter().collect::<Vec<_>>(), a);
        // A dependence still evicts the smallest constant, and the
        // constants after it are dropped.
        let mut a = refs(cap - 3);
        a.extend([AbsValue::Const(2), AbsValue::Const(6), AbsValue::Const(9)]);
        let b: Vec<AbsValue> = [1, 3, 4, 6, 7, 8, 10]
            .into_iter()
            .map(AbsValue::Const)
            .chain([AbsValue::Ptr(0)])
            .collect();
        let (s, _) = check(&a, &b, true);
        assert!(!s.contains(AbsValue::Const(2)) && s.contains(AbsValue::Ptr(0)));
        // An incoming `(other, ∗)` that meets the cap evicts the smallest
        // constant, either one the union added or one of the set's own.
        let mut a = refs(cap - 3);
        a.extend([AbsValue::Const(2), AbsValue::Const(9)]);
        let (s, _) = check(&a, &[AbsValue::Const(1), AbsValue::Const(3), AbsValue::Other], false);
        assert!(!s.contains(AbsValue::Const(1)) && s.contains(AbsValue::Const(2)));
        let (s, _) = check(&a, &[AbsValue::Const(4), AbsValue::Other], true);
        assert!(!s.contains(AbsValue::Const(2)) && s.contains(AbsValue::Const(4)));

        // Inline → spill: once below the cap, once through the cap path.
        check(
            &[AbsValue::Const(1), AbsValue::Ref(0)],
            &[AbsValue::Ptr(2), AbsValue::Const(0)],
            false,
        );
        check(&[AbsValue::Const(1), AbsValue::Ref(0)], &refs(4), false);
        check(&[AbsValue::Const(1)], &(0..60).map(AbsValue::Const).collect::<Vec<_>>(), false);
        // No change: a subset, and the empty set.
        let (_, changed) = check(&refs(10), &refs(6), true);
        assert!(!changed);
        let (_, changed) = check(&refs(10), &[], false);
        assert!(!changed);

        // Random sets over a small domain, so unions overlap and cross the
        // cap from every side.
        rand::check::cases(2000, |rng| {
            use rand::Rng;
            let draw = |rng: &mut rand::rngs::StdRng| -> Vec<AbsValue> {
                let n = rng.random_range(0..=70usize);
                let mut v: Vec<AbsValue> = (0..n)
                    .map(|_| match rng.random_range(0..10u32) {
                        0 => AbsValue::Ptr(rng.random_range(-3..5i64)),
                        1..=3 => AbsValue::Ref(rng.random_range(0..40i64)),
                        9 if rng.random_bool(0.3) => AbsValue::Other,
                        _ => AbsValue::Const(rng.random_range(0..60i64)),
                    })
                    .collect();
                // Insertion order shapes which constants the cap evicted.
                if rng.random_bool(0.5) {
                    v.sort();
                }
                v
            };
            let a = draw(rng);
            let b = draw(rng);
            let clone = rng.random_bool(0.5);
            check(&a, &b, clone);
        });
    }

    #[test]
    fn insert_and_union_report_a_change_exactly_when_the_set_changes() {
        // Under the cap rule no value a union adds is later evicted, except
        // by an incoming `(other, ∗)` that is itself added, so a join that
        // ends where it began reports no change and costs no revisit.
        rand::check::cases(2000, |rng| {
            use rand::Rng;
            let draw = |rng: &mut rand::rngs::StdRng| -> Vec<AbsValue> {
                let n = rng.random_range(0..=24usize);
                (0..n)
                    .map(|_| match rng.random_range(0..10u32) {
                        0 => AbsValue::Ptr(rng.random_range(-2..3i64)),
                        1 | 2 => AbsValue::Ref(rng.random_range(0..12i64)),
                        9 if rng.random_bool(0.3) => AbsValue::Other,
                        _ => AbsValue::Const(rng.random_range(0..16i64)),
                    })
                    .collect()
            };
            let mut s: ValueSet = draw(rng).into_iter().collect();
            let b = draw(rng);
            let before = s.as_slice().to_vec();
            let changed = if rng.random_bool(0.5) {
                s.union_with(&b.iter().copied().collect())
            } else {
                b.iter().fold(false, |c, &v| s.insert(v) | c)
            };
            assert_eq!(changed, s.as_slice() != before, "a = {before:?}, b = {b:?}");
        });
    }

    #[test]
    fn clear_keeps_equality_semantics() {
        let mut s: ValueSet = (0..10i64).map(AbsValue::Const).collect();
        assert!(s.is_spilled());
        assert!(s.clear());
        assert!(!s.clear());
        assert!(s.is_empty());
        assert_eq!(s, ValueSet::new());
        // Refilling after clear reuses the allocation.
        assert!(s.insert(AbsValue::Ptr(0)));
        assert!(s.is_spilled());
        assert_eq!(s, ValueSet::singleton(AbsValue::Ptr(0)));
    }

    #[test]
    fn indirection_levels() {
        assert_eq!(AbsValue::Ptr(0).indirection_level(), 0);
        assert_eq!(AbsValue::Ref(0).indirection_level(), 1);
        assert_eq!(AbsValue::Other.indirection_level(), 2);
        let s: ValueSet =
            [AbsValue::Const(1), AbsValue::Ref(0), AbsValue::Ptr(4)].into_iter().collect();
        assert_eq!(s.max_dep_level(), Some(1));
        assert_eq!(ValueSet::singleton(AbsValue::Const(1)).max_dep_level(), None);
    }

    #[test]
    fn display_is_set_notation() {
        let s: ValueSet = [AbsValue::Ref(0), AbsValue::Ptr(4)].into_iter().collect();
        let t = s.to_string();
        assert!(t.starts_with('{') && t.ends_with('}'));
        assert!(t.contains("(ref, 0)"));
    }
}
