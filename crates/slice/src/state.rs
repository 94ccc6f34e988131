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

use crate::hash::FxHashMap;
use crate::value::ValueSet;
use std::collections::BTreeMap;
use tiara_ir::{InstId, Reg};

/// The empty set, as a borrowable sentinel for missing stack slots.
static EMPTY_SET: ValueSet = ValueSet::EMPTY;

/// Per-instruction analysis state: the `V(i)`, `S(i)`, `D(i)` and `F(i)`
/// entries for one instruction.
#[derive(Debug, Clone, Default)]
pub struct InstState {
    /// Register values (`V(i)`), indexed by [`Reg::index`].
    pub regs: [ValueSet; 8],
    /// Abstract stack (`S(i)`), keyed by absolute abstract slot index.
    pub stack: BTreeMap<i64, ValueSet>,
    /// Dependence flag (`D(i)`).
    pub dep: bool,
    /// The maximum pointer-indirection level with which `v0` was used at this
    /// instruction (feature `F7`); meaningful only when `dep` is true.
    pub indirection: u8,
}

impl InstState {
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

    /// Reads a stack slot, if it has ever been written.
    #[inline]
    pub fn stack_slot(&self, z: i64) -> Option<&ValueSet> {
        self.stack.get(&z)
    }

    /// Reads a stack slot; missing slots are the (borrowed) empty set.
    #[inline]
    pub fn stack_slot_or_empty(&self, z: i64) -> &ValueSet {
        self.stack.get(&z).unwrap_or(&EMPTY_SET)
    }

    /// Weakly updates a stack slot. Returns `true` on change.
    pub fn stack_union(&mut self, z: i64, vs: &ValueSet) -> bool {
        if vs.is_empty() {
            return false;
        }
        self.stack.entry(z).or_default().union_with(vs)
    }

    /// Strongly updates a stack slot (a `push` definitely overwrites its
    /// slot). Returns `true` on change.
    pub fn stack_assign(&mut self, z: i64, vs: ValueSet) -> bool {
        match self.stack.get_mut(&z) {
            Some(old) => old.assign(vs),
            None => {
                if vs.is_empty() {
                    return false;
                }
                self.stack.insert(z, vs);
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
        for (&z, vs) in &pre.stack {
            changed |= self.stack_union(z, vs);
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
        for vs in self.stack.values() {
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
    /// Stable state records; never shrinks during a run, so shared and
    /// mutable borrows of *different* slots can coexist (`pair_mut`).
    arena: Vec<InstState>,
    /// Version counter per arena slot, bumped exactly when the record's
    /// `(V, S, D)` changes.
    versions: Vec<u32>,
    faith: FxHashMap<u32, f64>,
}

impl AnalysisState {
    /// Creates an empty state.
    pub fn new() -> AnalysisState {
        AnalysisState::default()
    }

    /// The arena slot of `id`, allocating a fresh record (version 0) on
    /// first use.
    fn slot(&mut self, id: InstId) -> usize {
        let arena = &mut self.arena;
        let versions = &mut self.versions;
        *self.slots.entry(id.0).or_insert_with(|| {
            arena.push(InstState::default());
            versions.push(0);
            arena.len() - 1
        })
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
