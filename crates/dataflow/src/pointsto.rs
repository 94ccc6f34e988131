//! Flow-insensitive may-point-to and alias analysis (one function at a
//! time).
//!
//! The abstract heap is a finite set of [`AbsLoc`]s — globals by address,
//! frame slots by `ebp` offset, and heap objects by allocating call site.
//! One round of constraint accumulation per instruction, iterated to a
//! fixpoint over the whole function with no regard for control flow: every
//! assignment contributes for every execution order, which over-approximates
//! any flow-sensitive answer.
//!
//! Address values enter the domain through the three ways the generator's
//! code takes addresses: `lea r, [ebp+c]` (a frame slot), an `offset m`
//! immediate-address operand (a global), and a call to an allocator (a heap
//! object named by its call site). Copies, loads, and stores then move those
//! values between registers and field-insensitive per-object cells; `push`
//! parks them in a single per-function argument cell that `pop` drains.
//!
//! [`may_alias`](PointsTo::may_alias) is an *observed*-alias relation: it
//! answers `true` only when both registers have at least one known target in
//! common. A register with no known targets is one the function never
//! loaded an address into — for the generator's closed world that means
//! "not a pointer", so the relation is usable as a may-alias oracle there,
//! while on arbitrary code it is only the alias evidence the analysis could
//! see.

use std::collections::{BTreeMap, BTreeSet};
use tiara_ir::InstId;
use tiara_ir::{FuncId, InstKind, MemAddr, Opcode, Operand, Program, Reg};

/// One abstract memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsLoc {
    /// A global at this absolute address.
    Global(MemAddr),
    /// The frame slot at `ebp + offset` of the analyzed function.
    Stack(i64),
    /// The object allocated by this call site.
    Heap(InstId),
}

impl std::fmt::Display for AbsLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsLoc::Global(m) => write!(f, "global {m}"),
            AbsLoc::Stack(off) if *off < 0 => write!(f, "stack ebp-{:#x}", -off),
            AbsLoc::Stack(off) => write!(f, "stack ebp+{off:#x}"),
            AbsLoc::Heap(site) => write!(f, "heap@I{}", site.0),
        }
    }
}

/// A set of abstract objects a value may point to.
pub type PtsSet = BTreeSet<AbsLoc>;

/// The fixpoint of the points-to constraints of one function.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    regs: [PtsSet; 8],
    cells: BTreeMap<AbsLoc, PtsSet>,
    arg_cell: PtsSet,
}

impl PointsTo {
    /// The objects register `r` may point to anywhere in the function.
    pub fn reg(&self, r: Reg) -> &PtsSet {
        &self.regs[r.index()]
    }

    /// The objects the contents of `obj` may point to (field-insensitive).
    pub fn cell(&self, obj: AbsLoc) -> Option<&PtsSet> {
        self.cells.get(&obj)
    }

    /// All abstract objects whose cells hold at least one pointer.
    pub fn pointer_cells(&self) -> impl Iterator<Item = (&AbsLoc, &PtsSet)> {
        self.cells.iter().filter(|(_, s)| !s.is_empty())
    }

    /// The objects whose addresses the function pushes as call arguments —
    /// the escape conduit the inter-procedural summaries
    /// ([`crate::escape`]) key on.
    pub fn arg_cell(&self) -> &PtsSet {
        &self.arg_cell
    }

    /// `true` when `a` and `b` are observed to share a may-target.
    pub fn may_alias(&self, a: Reg, b: Reg) -> bool {
        self.regs[a.index()].intersection(&self.regs[b.index()]).next().is_some()
    }

    /// The objects a memory operand may designate: the slot itself for
    /// `[ebp+c]` / `[m+c]`, the pointees of the base register otherwise.
    fn targets_of(&self, opr: Operand) -> PtsSet {
        let Operand::Deref(loc) = opr else {
            return PtsSet::new();
        };
        match loc.base_reg() {
            Some(Reg::Ebp) => [AbsLoc::Stack(loc.offset)].into_iter().collect(),
            Some(r) => self.regs[r.index()].clone(),
            None => match loc.base_mem() {
                Some(m) => [AbsLoc::Global(m)].into_iter().collect(),
                None => PtsSet::new(),
            },
        }
    }

    /// The address values an operand evaluates to (not the value loaded
    /// through it): globals for `offset m`, register contents for `r`,
    /// cell contents for `[x]`.
    fn value_of(&self, opr: Operand) -> PtsSet {
        match opr {
            Operand::Imm(_) => PtsSet::new(),
            Operand::Loc(loc) => match (loc.base_reg(), loc.base_mem()) {
                (Some(r), _) if loc.offset == 0 => self.regs[r.index()].clone(),
                // `lea r2, [r1+c]` style pointer arithmetic: same objects.
                (Some(r), _) => self.regs[r.index()].clone(),
                (None, Some(m)) => [AbsLoc::Global(m)].into_iter().collect(),
                _ => PtsSet::new(),
            },
            Operand::Deref(_) => {
                let mut out = PtsSet::new();
                for t in self.targets_of(opr) {
                    if let Some(s) = self.cells.get(&t) {
                        out.extend(s.iter().copied());
                    }
                }
                out
            }
        }
    }

    fn store(&mut self, dst: Operand, vals: &PtsSet, changed: &mut bool) {
        if vals.is_empty() {
            return;
        }
        if let Some(r) = dst.as_reg() {
            let before = self.regs[r.index()].len();
            self.regs[r.index()].extend(vals.iter().copied());
            *changed |= self.regs[r.index()].len() != before;
            return;
        }
        for t in self.targets_of(dst) {
            let cell = self.cells.entry(t).or_default();
            let before = cell.len();
            cell.extend(vals.iter().copied());
            *changed |= cell.len() != before;
        }
    }
}

/// Special-cases the frame-slot address `lea r, [ebp+c]` produces.
fn lea_value(pts: &PointsTo, src: Operand) -> PtsSet {
    if let Operand::Loc(loc) = src {
        if loc.base_reg() == Some(Reg::Ebp) {
            return [AbsLoc::Stack(loc.offset)].into_iter().collect();
        }
    }
    pts.value_of(src)
}

/// Runs the flow-insensitive points-to analysis over `func`.
pub fn points_to(prog: &Program, func: FuncId) -> PointsTo {
    let f = prog.func(func);
    let mut pts = PointsTo::default();
    loop {
        let mut changed = false;
        for id in f.inst_ids() {
            let inst = prog.inst(id);
            match &inst.kind {
                InstKind::Mov { dst, src } => {
                    let vals = if inst.opcode == Opcode::Lea {
                        lea_value(&pts, *src)
                    } else {
                        pts.value_of(*src)
                    };
                    pts.store(*dst, &vals, &mut changed);
                }
                // Pointer arithmetic (`add r, c` on an address) stays within
                // the same field-insensitive object, so `dst`'s set already
                // over-approximates the result; nothing new flows.
                InstKind::Op { .. } => {}
                InstKind::Use { .. } | InstKind::Ret => {}
                InstKind::Push { src } => {
                    let vals = pts.value_of(*src);
                    let before = pts.arg_cell.len();
                    pts.arg_cell.extend(vals.iter().copied());
                    changed |= pts.arg_cell.len() != before;
                }
                InstKind::Pop { dst } => {
                    let vals = pts.arg_cell.clone();
                    pts.store(*dst, &vals, &mut changed);
                }
                InstKind::Call { .. } => {
                    if prog.call_allocates(id) {
                        changed |= pts.regs[Reg::Eax.index()].insert(AbsLoc::Heap(id));
                    }
                }
            }
        }
        if !changed {
            return pts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{CallTarget, ExternKind, ProgramBuilder};

    #[test]
    fn lea_and_copy_alias() {
        // lea esi, [ebp-8]; mov edi, esi → esi and edi alias on the slot.
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(
            Opcode::Lea,
            InstKind::Mov {
                dst: Operand::reg(Reg::Esi),
                src: Operand::Loc(tiara_ir::Loc::with_offset(Reg::Ebp, -8)),
            },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edi), src: Operand::reg(Reg::Esi) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let pts = points_to(&p, FuncId(0));
        assert!(pts.reg(Reg::Esi).contains(&AbsLoc::Stack(-8)));
        assert!(pts.may_alias(Reg::Esi, Reg::Edi));
        assert!(!pts.may_alias(Reg::Esi, Reg::Ebx));
    }

    #[test]
    fn malloc_result_flows_through_a_global_cell() {
        // call malloc; mov [0x4000], eax; ...; mov ecx, [0x4000]
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let call = b.inst(
            Opcode::Call,
            InstKind::Call { target: CallTarget::External(ExternKind::Malloc) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_abs(0x4000u64, 0), src: Operand::reg(Reg::Eax) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ecx), src: Operand::mem_abs(0x4000u64, 0) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let pts = points_to(&p, FuncId(0));
        assert!(pts.reg(Reg::Ecx).contains(&AbsLoc::Heap(call)));
        assert!(pts.may_alias(Reg::Eax, Reg::Ecx));
        let cell = pts.cell(AbsLoc::Global(MemAddr(0x4000))).unwrap();
        assert_eq!(cell.iter().collect::<Vec<_>>(), vec![&AbsLoc::Heap(call)]);
    }

    #[test]
    fn flow_insensitivity_ignores_statement_order() {
        // The load precedes the store in program order; the fixpoint still
        // sees the stored pointer (any-execution-order semantics).
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::mem_abs(0x77u64, 0) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_abs(0x77u64, 0), src: Operand::addr_of(0x99u64, 0) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let pts = points_to(&p, FuncId(0));
        assert!(pts.reg(Reg::Ebx).contains(&AbsLoc::Global(MemAddr(0x99))));
    }

    #[test]
    fn push_pop_transfers_addresses() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(Opcode::Push, InstKind::Push { src: Operand::addr_of(0x10u64, 0) });
        b.inst(Opcode::Pop, InstKind::Pop { dst: Operand::reg(Reg::Edx) });
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let pts = points_to(&p, FuncId(0));
        assert!(pts.reg(Reg::Edx).contains(&AbsLoc::Global(MemAddr(0x10))));
    }
}
