//! The four analysis maps of Algorithm 1:
//!
//! * `V : I → (R → 2^A)` — register values after each instruction;
//! * `S : I → (Z → 2^A)` — abstract stack slot values after each instruction;
//! * `D : I → {true, false}` — dependence of each instruction on `v0`;
//! * `F : I → [0, 1]` — the faith in that dependence.
//!
//! Only instructions actually reached by the traversal get a state record.
//! Records live in a stable arena (`Vec<InstState>`) behind an `InstId` →
//! slot index map: the traversal needs `&V(pre)` and `&mut V(i)` at the same
//! time, and the arena supports that as a plain split borrow — the per-edge
//! deep snapshot the `HashMap`-only layout forced is gone. Every record
//! carries a version counter, bumped exactly when `(V, S, D)` changes, so
//! the traversal can prove a revisit is a no-op without comparing states.
//!
//! [`AnalysisState::clear`] empties the state for the next criterion but
//! keeps every table's capacity and the arena's records: a record is reset
//! in place when a later criterion reaches a new instruction, so its stack
//! map (a flat sorted `Vec`) keeps its buffer too.

use crate::hash::FxHashMap;
use crate::value::ValueSet;
use std::collections::hash_map::Entry;
use tiara_ir::{InstId, Reg};

/// The empty set, as a borrowable sentinel for missing stack slots.
static EMPTY_SET: ValueSet = ValueSet::EMPTY;

/// Per-instruction analysis state: the `V(i)`, `S(i)`, `D(i)` and `F(i)`
/// entries for one instruction.
#[derive(Debug, Default)]
pub struct InstState {
    /// Register values (`V(i)`), indexed by [`Reg::index`].
    pub regs: [ValueSet; 8],
    /// Abstract stack (`S(i)`): `(absolute abstract slot, values)` pairs,
    /// sorted by slot with no slot twice. A flat vector rather than a tree
    /// so that a record reset for reuse keeps its buffer.
    stack: Vec<(i64, ValueSet)>,
    /// Dependence flag (`D(i)`).
    pub dep: bool,
    /// The maximum pointer-indirection level with which `v0` was used at this
    /// instruction (feature `F7`); meaningful only when `dep` is true.
    pub indirection: u8,
}

impl Clone for InstState {
    fn clone(&self) -> InstState {
        InstState {
            regs: self.regs.clone(),
            stack: self.stack.clone(),
            dep: self.dep,
            indirection: self.indirection,
        }
    }

    /// Copies `src` into `self`, reusing the stack map's buffer.
    fn clone_from(&mut self, src: &InstState) {
        self.regs.clone_from(&src.regs);
        self.stack.clone_from(&src.stack);
        self.dep = src.dep;
        self.indirection = src.indirection;
    }
}

impl InstState {
    /// Returns the record to its freshly created state, keeping the stack
    /// map's buffer. Spilled register sets are dropped, not kept: a reused
    /// record must spill exactly where a fresh one would, or the spill
    /// counters would depend on which criterion ran before.
    pub(crate) fn reset(&mut self) {
        self.regs = [ValueSet::EMPTY; 8];
        self.stack.clear();
        self.dep = false;
        self.indirection = 0;
    }

    /// Reads a register set.
    #[inline]
    pub fn reg(&self, r: Reg) -> &ValueSet {
        &self.regs[r.index()]
    }

    /// Weakly updates a register set. Returns `true` on change.
    pub fn reg_union(&mut self, r: Reg, vs: &ValueSet) -> bool {
        self.regs[r.index()].union_with(vs)
    }

    /// Strongly updates a register set. Returns `true` on change.
    pub fn reg_assign(&mut self, r: Reg, vs: ValueSet) -> bool {
        self.regs[r.index()].assign(vs)
    }

    /// Where slot `z` is in the stack map, or where it would go.
    #[inline]
    fn find(&self, z: i64) -> Result<usize, usize> {
        self.stack.binary_search_by_key(&z, |&(k, _)| k)
    }

    /// The index of slot `z`, which lies at or past index `from`, inserting
    /// it empty if missing.
    fn entry_from(&mut self, from: usize, z: i64) -> usize {
        match self.stack[from..].binary_search_by_key(&z, |&(k, _)| k) {
            Ok(k) => from + k,
            Err(k) => {
                self.stack.insert(from + k, (z, ValueSet::EMPTY));
                from + k
            }
        }
    }

    /// Reads a stack slot, if it has ever been written.
    #[inline]
    pub fn stack_slot(&self, z: i64) -> Option<&ValueSet> {
        self.find(z).ok().map(|k| &self.stack[k].1)
    }

    /// Reads a stack slot; missing slots are the (borrowed) empty set.
    #[inline]
    pub fn stack_slot_or_empty(&self, z: i64) -> &ValueSet {
        self.stack_slot(z).unwrap_or(&EMPTY_SET)
    }

    /// Weakly updates a stack slot. Returns `true` on change.
    pub fn stack_union(&mut self, z: i64, vs: &ValueSet) -> bool {
        if vs.is_empty() {
            return false;
        }
        let k = self.entry_from(0, z);
        self.stack[k].1.union_with(vs)
    }

    /// Strongly updates a stack slot (a `push` definitely overwrites its
    /// slot). Returns `true` on change.
    pub fn stack_assign(&mut self, z: i64, vs: ValueSet) -> bool {
        match self.find(z) {
            Ok(k) => self.stack[k].1.assign(vs),
            Err(k) => {
                if vs.is_empty() {
                    return false;
                }
                self.stack.insert(k, (z, vs));
                true
            }
        }
    }

    /// Merges the whole of `pre` into `self` (the flow join). Dependence
    /// flags are per-instruction facts and are *not* merged. Returns `true`
    /// on change.
    pub fn merge_from(&mut self, pre: &InstState) -> bool {
        let mut changed = false;
        for idx in 0..8 {
            changed |= self.regs[idx].union_with(&pre.regs[idx]);
        }
        // Both maps are sorted, so each slot of `pre` is searched for only
        // past the previous one.
        let mut from = 0;
        for (z, vs) in &pre.stack {
            if vs.is_empty() {
                continue;
            }
            let k = self.entry_from(from, *z);
            changed |= self.stack[k].1.union_with(vs);
            from = k + 1;
        }
        changed
    }

    /// Marks the instruction dependent with the given indirection level.
    /// Returns `true` if the dependence flag flipped.
    pub fn mark_dep(&mut self, level: u8) -> bool {
        self.indirection = self.indirection.max(level);
        if self.dep {
            return false;
        }
        self.dep = true;
        true
    }

    /// What a deep clone of this record would copy, in bytes: the struct
    /// itself, the stack map's entries, and every spilled value vector.
    /// Prices the per-edge snapshot the traversal no longer takes.
    pub fn approx_snapshot_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<InstState>();
        for r in &self.regs {
            bytes += r.heap_bytes();
        }
        for (_, vs) in &self.stack {
            bytes += std::mem::size_of::<(i64, ValueSet)>() + vs.heap_bytes();
        }
        bytes
    }
}

/// The complete analysis state: one [`InstState`] per reached instruction
/// plus the faith map.
#[derive(Debug, Default)]
pub struct AnalysisState {
    /// `InstId` → arena slot.
    slots: FxHashMap<u32, usize>,
    /// State records; `arena[..live]` belong to the current run, the rest
    /// are spares from an earlier one, reset when reused. Never shrinks
    /// during a run, so shared and mutable borrows of *different* slots can
    /// coexist (`pair_mut`).
    arena: Vec<InstState>,
    /// Records in use by the current run.
    live: usize,
    /// Version counter per live arena slot, bumped exactly when the
    /// record's `(V, S, D)` changes.
    versions: Vec<u32>,
    faith: FxHashMap<u32, f64>,
}

impl AnalysisState {
    /// Creates an empty state.
    pub fn new() -> AnalysisState {
        AnalysisState::default()
    }

    /// Empties the state for a new run, keeping every table's capacity and
    /// the arena's records for reuse.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
        self.versions.clear();
        self.faith.clear();
    }

    /// The arena slot of `id`, allocating a fresh record (version 0) on
    /// first use.
    fn slot(&mut self, id: InstId) -> usize {
        match self.slots.entry(id.0) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let s = self.live;
                match self.arena.get_mut(s) {
                    Some(spare) => spare.reset(),
                    None => self.arena.push(InstState::default()),
                }
                self.live += 1;
                self.versions.push(0);
                *e.insert(s)
            }
        }
    }

    /// The state of an instruction, if it was reached.
    pub fn get(&self, id: InstId) -> Option<&InstState> {
        self.slots.get(&id.0).map(|&s| &self.arena[s])
    }

    /// The state of an instruction, creating an empty record on first use.
    /// Callers that mutate through this must [`AnalysisState::bump`] the
    /// record themselves if the mutation changed `(V, S, D)`.
    pub fn get_mut(&mut self, id: InstId) -> &mut InstState {
        let s = self.slot(id);
        &mut self.arena[s]
    }

    /// Split borrow for one `(pre, i)` edge: `&state(pre)` together with
    /// `&mut state(i)`. Both records are created if missing. Panics if
    /// `pre == i` — self-loop edges need a scratch copy instead.
    pub fn pair_mut(&mut self, pre: InstId, i: InstId) -> (&InstState, &mut InstState) {
        assert_ne!(pre.0, i.0, "self-loop edges must go through a scratch pre-state");
        let ps = self.slot(pre);
        let is = self.slot(i);
        if ps < is {
            let (a, b) = self.arena.split_at_mut(is);
            (&a[ps], &mut b[0])
        } else {
            let (a, b) = self.arena.split_at_mut(ps);
            (&b[0], &mut a[is])
        }
    }

    /// The version of an instruction's record: 0 until first reached, then
    /// incremented on every `(V, S, D)` change (see [`AnalysisState::bump`]).
    pub fn version(&self, id: InstId) -> u32 {
        self.slots.get(&id.0).map_or(0, |&s| self.versions[s])
    }

    /// Records that `id`'s `(V, S, D)` changed.
    pub fn bump(&mut self, id: InstId) {
        let s = self.slot(id);
        self.versions[s] += 1;
    }

    /// A clone of the state of an instruction (empty if unreached). Retained
    /// for the reference traversal (`tslice_reference`), which snapshots the
    /// pre-state per edge instead of borrowing it from the arena.
    pub fn snapshot(&self, id: InstId) -> InstState {
        self.get(id).cloned().unwrap_or_default()
    }

    /// What [`AnalysisState::snapshot`] of `id` would deep-copy, in bytes.
    pub fn snapshot_bytes(&self, id: InstId) -> usize {
        self.get(id).map_or(std::mem::size_of::<InstState>(), InstState::approx_snapshot_bytes)
    }

    /// The faith `F(i)`, initially 1 for every instruction.
    pub fn faith(&self, id: InstId) -> f64 {
        self.faith.get(&id.0).copied().unwrap_or(1.0)
    }

    /// Applies Algorithm 1, line 10, with the given decay-function shape:
    /// `F(i) ← max(min(F(pre), F(i)) − decay, 0)` in the linear case.
    pub fn decay_faith_with(
        &mut self,
        pre: InstId,
        i: InstId,
        decay: f64,
        f: crate::DecayFunction,
    ) -> f64 {
        let fp = self.faith(pre);
        let fi = self.faith(i);
        let updated = f.apply(fp.min(fi), decay);
        self.faith.insert(i.0, updated);
        updated
    }

    /// Forces the faith of an instruction to zero (path cut).
    pub fn zero_faith(&mut self, id: InstId) {
        self.faith.insert(id.0, 0.0);
    }

    /// Iterates over all reached instructions and their states.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, &InstState)> {
        self.slots.iter().map(|(&k, &s)| (InstId(k), &self.arena[s]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AbsValue;

    #[test]
    fn merge_joins_registers_and_stack() {
        let mut pre = InstState::default();
        pre.reg_union(Reg::Esi, &ValueSet::singleton(AbsValue::Ref(0)));
        pre.stack_union(3, &ValueSet::singleton(AbsValue::Ptr(0)));
        pre.dep = true;

        let mut cur = InstState::default();
        assert!(cur.merge_from(&pre));
        assert!(cur.reg(Reg::Esi).contains(AbsValue::Ref(0)));
        assert!(cur.stack_slot_or_empty(3).contains(AbsValue::Ptr(0)));
        assert!(!cur.dep, "dependence must not flow through merges");
        assert!(!cur.merge_from(&pre), "idempotent");
    }

    #[test]
    fn stack_slot_reads_are_borrowed() {
        let mut s = InstState::default();
        assert!(s.stack_slot(8).is_none());
        assert!(s.stack_slot_or_empty(8).is_empty());
        s.stack_assign(8, ValueSet::singleton(AbsValue::Ref(4)));
        assert!(s.stack_slot(8).is_some_and(|v| v.contains(AbsValue::Ref(4))));
        // The sentinel is the same empty set for every missing slot.
        assert!(std::ptr::eq(s.stack_slot_or_empty(-4), s.stack_slot_or_empty(400)));
    }

    #[test]
    fn mark_dep_tracks_max_level() {
        let mut s = InstState::default();
        assert!(s.mark_dep(1));
        assert!(!s.mark_dep(0));
        assert_eq!(s.indirection, 1);
        s.mark_dep(2);
        assert_eq!(s.indirection, 2);
    }

    #[test]
    fn faith_defaults_to_one_and_decays_monotonically() {
        let mut st = AnalysisState::new();
        let (a, b) = (InstId(0), InstId(1));
        assert_eq!(st.faith(b), 1.0);
        let f1 = st.decay_faith_with(a, b, 0.001, crate::DecayFunction::Linear);
        assert!((f1 - 0.999).abs() < 1e-12);
        // Re-decaying through a lower-faith pre takes the min first.
        st.faith.insert(a.0, 0.5);
        let f2 = st.decay_faith_with(a, b, 0.001, crate::DecayFunction::Linear);
        assert!((f2 - 0.499).abs() < 1e-12);
        // Never below zero.
        st.faith.insert(a.0, 0.0005);
        let f3 = st.decay_faith_with(a, b, 0.01, crate::DecayFunction::Linear);
        assert_eq!(f3, 0.0);
    }

    #[test]
    fn snapshot_of_unreached_is_empty() {
        let st = AnalysisState::new();
        let snap = st.snapshot(InstId(9));
        assert!(!snap.dep);
        assert!(snap.reg(Reg::Eax).is_empty());
        assert!(st.get(InstId(9)).is_none());
    }

    #[test]
    fn versions_start_at_zero_and_bump_explicitly() {
        let mut st = AnalysisState::new();
        let (a, b) = (InstId(3), InstId(7));
        assert_eq!(st.version(a), 0, "unreached records report version 0");
        st.get_mut(a);
        assert_eq!(st.version(a), 0, "allocation does not bump");
        st.bump(a);
        assert_eq!(st.version(a), 1);
        assert_eq!(st.version(b), 0);
    }

    #[test]
    fn pair_mut_splits_either_ordering() {
        let mut st = AnalysisState::new();
        let (a, b) = (InstId(1), InstId(2));
        st.get_mut(a).reg_union(Reg::Eax, &ValueSet::singleton(AbsValue::Ptr(0)));
        // a allocated first: slot(a) < slot(b).
        {
            let (pre, cur) = st.pair_mut(a, b);
            assert!(pre.reg(Reg::Eax).contains(AbsValue::Ptr(0)));
            cur.reg_union(Reg::Ebx, &ValueSet::singleton(AbsValue::Ref(4)));
        }
        // Reverse orientation: slot(pre) > slot(cur).
        {
            let (pre, cur) = st.pair_mut(b, a);
            assert!(pre.reg(Reg::Ebx).contains(AbsValue::Ref(4)));
            cur.reg_union(Reg::Ecx, &ValueSet::singleton(AbsValue::Other));
        }
        assert!(st.get(a).unwrap().reg(Reg::Ecx).contains(AbsValue::Other));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn pair_mut_rejects_self_loops() {
        let mut st = AnalysisState::new();
        let _ = st.pair_mut(InstId(5), InstId(5));
    }

    /// The stack map as it was before it became a flat vector: a
    /// `BTreeMap` under the same update rules, with the registers alongside
    /// so `merge_from` can be modelled whole.
    #[derive(Default)]
    struct Model {
        regs: [ValueSet; 8],
        stack: std::collections::BTreeMap<i64, ValueSet>,
    }

    impl Model {
        fn union(&mut self, z: i64, vs: &ValueSet) -> bool {
            !vs.is_empty() && self.stack.entry(z).or_default().union_with(vs)
        }

        fn assign(&mut self, z: i64, vs: ValueSet) -> bool {
            match self.stack.get_mut(&z) {
                Some(old) => old.assign(vs),
                None if vs.is_empty() => false,
                None => self.stack.insert(z, vs).is_none(),
            }
        }

        fn merge_from(&mut self, pre: &Model) -> bool {
            let mut changed = false;
            for (mine, theirs) in self.regs.iter_mut().zip(&pre.regs) {
                changed |= mine.union_with(theirs);
            }
            for (&z, vs) in &pre.stack {
                changed |= self.union(z, vs);
            }
            changed
        }

        fn snapshot_bytes(&self) -> usize {
            let regs: usize = self.regs.iter().map(ValueSet::heap_bytes).sum();
            let stack: usize = self
                .stack
                .values()
                .map(|vs| std::mem::size_of::<(i64, ValueSet)>() + vs.heap_bytes())
                .sum();
            std::mem::size_of::<InstState>() + regs + stack
        }
    }

    /// A random value set over a small domain, so sets overlap, spill and
    /// reach the cap.
    fn draw_set(rng: &mut rand::rngs::StdRng) -> ValueSet {
        use rand::Rng;
        let n = rng.random_range(0..=10usize);
        (0..n)
            .map(|_| match rng.random_range(0..6u32) {
                0 => AbsValue::Ptr(rng.random_range(-2..3i64)),
                1 | 2 => AbsValue::Ref(rng.random_range(0..8i64)),
                3 if rng.random_bool(0.2) => AbsValue::Other,
                _ => AbsValue::Const(rng.random_range(0..12i64)),
            })
            .collect()
    }

    /// One random update, applied to `st` and returning whether it changed
    /// the record. `other` is the pre-state a merge joins from.
    #[derive(Clone)]
    enum Op {
        Union(i64, ValueSet),
        Assign(i64, ValueSet),
        RegUnion(Reg, ValueSet),
        Merge,
    }

    fn draw_op(rng: &mut rand::rngs::StdRng) -> Op {
        use rand::Rng;
        let z = 4 * rng.random_range(-6..6i64);
        match rng.random_range(0..7u32) {
            0..=2 => Op::Union(z, draw_set(rng)),
            3 | 4 => {
                Op::Assign(z, if rng.random_bool(0.2) { ValueSet::new() } else { draw_set(rng) })
            }
            5 => Op::RegUnion(Reg::from_index(rng.random_range(0..8usize)), draw_set(rng)),
            _ => Op::Merge,
        }
    }

    fn apply(st: &mut InstState, op: &Op, other: &InstState) -> bool {
        match op {
            Op::Union(z, vs) => st.stack_union(*z, vs),
            Op::Assign(z, vs) => st.stack_assign(*z, vs.clone()),
            Op::RegUnion(r, vs) => st.reg_union(*r, vs),
            Op::Merge => st.merge_from(other),
        }
    }

    fn apply_model(m: &mut Model, op: &Op, other: &Model) -> bool {
        match op {
            Op::Union(z, vs) => m.union(*z, vs),
            Op::Assign(z, vs) => m.assign(*z, vs.clone()),
            Op::RegUnion(r, vs) => m.regs[r.index()].union_with(vs),
            Op::Merge => m.merge_from(other),
        }
    }

    /// Equal contents, including each spilled set's capacity (the snapshot
    /// pricing reads it).
    fn assert_matches(st: &InstState, m: &Model) {
        let tree: Vec<(i64, ValueSet)> = m.stack.iter().map(|(&z, vs)| (z, vs.clone())).collect();
        assert_eq!(st.stack, tree);
        for ((_, a), b) in st.stack.iter().zip(m.stack.values()) {
            assert_eq!(a.heap_bytes(), b.heap_bytes());
        }
        assert_eq!(st.regs, m.regs);
        assert_eq!(st.approx_snapshot_bytes(), m.snapshot_bytes());
        for z in -28..28 {
            assert_eq!(st.stack_slot(z), m.stack.get(&z), "slot {z}");
        }
    }

    #[test]
    fn flat_stack_map_matches_a_btreemap_model() {
        rand::check::cases(500, |rng| {
            use rand::Rng;
            // The pre-state merges join from, built by the same operations.
            let (mut other, mut other_model) = (InstState::default(), Model::default());
            for _ in 0..rng.random_range(0..12usize) {
                let op = draw_op(rng);
                if !matches!(op, Op::Merge) {
                    apply(&mut other, &op, &InstState::default());
                    apply_model(&mut other_model, &op, &Model::default());
                }
            }
            assert_matches(&other, &other_model);
            let (mut st, mut model) = (InstState::default(), Model::default());
            for _ in 0..40 {
                let op = draw_op(rng);
                let spills = crate::stats::thread_spills();
                let changed = apply(&mut st, &op, &other);
                let spilled = crate::stats::thread_spills() - spills;
                let spills = crate::stats::thread_spills();
                assert_eq!(changed, apply_model(&mut model, &op, &other_model));
                assert_eq!(spilled, crate::stats::thread_spills() - spills, "spill count");
                assert_matches(&st, &model);
            }
        });
    }

    #[test]
    fn a_reset_record_behaves_like_a_fresh_one() {
        rand::check::cases(300, |rng| {
            use rand::Rng;
            let mut other = InstState::default();
            for _ in 0..8 {
                let op = draw_op(rng);
                apply(&mut other, &op, &InstState::default());
            }
            let mut reused = InstState::default();
            for _ in 0..rng.random_range(0..30usize) {
                let op = draw_op(rng);
                apply(&mut reused, &op, &other);
            }
            reused.mark_dep(2);
            reused.reset();
            let mut fresh = InstState::default();
            assert!(!reused.dep && reused.indirection == 0);
            for _ in 0..30 {
                let op = draw_op(rng);
                let spills = crate::stats::thread_spills();
                let a = apply(&mut reused, &op, &other);
                let reused_spills = crate::stats::thread_spills() - spills;
                let spills = crate::stats::thread_spills();
                let b = apply(&mut fresh, &op, &other);
                assert_eq!(a, b);
                assert_eq!(reused_spills, crate::stats::thread_spills() - spills, "spill count");
                assert_eq!(reused.stack, fresh.stack);
                assert_eq!(reused.regs, fresh.regs);
                assert_eq!(reused.approx_snapshot_bytes(), fresh.approx_snapshot_bytes());
            }
        });
    }

    #[test]
    fn a_cleared_state_hands_out_fresh_records() {
        let mut st = AnalysisState::new();
        let (a, b) = (InstId(3), InstId(9));
        st.get_mut(a).stack_assign(4, ValueSet::singleton(AbsValue::Ref(0)));
        st.get_mut(a).mark_dep(1);
        st.bump(a);
        st.zero_faith(a);
        st.clear();
        assert!(st.get(a).is_none(), "nothing is reached after a clear");
        assert_eq!(st.version(a), 0);
        assert_eq!(st.faith(a), 1.0);
        // `b` takes over `a`'s old arena record, reset.
        let rec = st.get_mut(b);
        assert!(!rec.dep && rec.indirection == 0 && rec.stack.is_empty());
        assert!(rec.regs.iter().all(ValueSet::is_empty));
        assert_eq!(st.version(b), 0);
        assert_eq!(st.iter().count(), 1);
    }

    #[test]
    fn snapshot_bytes_grow_with_state() {
        let mut st = AnalysisState::new();
        let a = InstId(0);
        let empty = st.snapshot_bytes(a);
        let s = st.get_mut(a);
        for z in 0..10 {
            s.stack_assign(z, ValueSet::singleton(AbsValue::Const(z)));
        }
        assert!(st.snapshot_bytes(a) > empty);
    }
}
