//! SSLICE: the simple baseline slicer of RQ3.
//!
//! "Given a variable address `v0`, SSLICE produces a slice consisting of all
//! the instructions in the function that contains the first access to `v0`
//! and all the instructions in its directly called functions."

use crate::slice::{Slice, SliceNode};
use crate::tslice::ProgramFacts;
use std::collections::HashSet;
use tiara_ir::{Addr, CallTarget, FuncId, InstId, InstKind, Loc, Operand, Program, VarAddr};

/// Returns the offset-free window used to recognize accesses; mirrors the
/// TSLICE criterion window.
const WINDOW: i64 = 16;

/// Returns `true` if the operand accesses the variable at `v0`.
fn touches(prog: &Program, id: InstId, opr: Operand, v0: VarAddr) -> bool {
    match (opr, v0) {
        (Operand::Deref(Loc { base: Addr::Mem(m), offset }), VarAddr::Global(base))
        | (Operand::Loc(Loc { base: Addr::Mem(m), offset }), VarAddr::Global(base)) => {
            let eff = (m.value() as i64).wrapping_add(offset);
            let lo = base.value() as i64;
            eff >= lo && eff < lo.wrapping_add(WINDOW)
        }
        (
            Operand::Deref(Loc { base: Addr::Reg(r), offset }),
            VarAddr::Stack { func, offset: off },
        )
        | (
            Operand::Loc(Loc { base: Addr::Reg(r), offset }),
            VarAddr::Stack { func, offset: off },
        ) => {
            r.is_frame()
                && prog.func_of(id) == func
                && offset >= off
                && offset < off.wrapping_add(WINDOW)
        }
        _ => false,
    }
}

/// Finds the first instruction (in program order) that accesses `v0` by
/// scanning the program from instruction 0. A heap criterion's first access
/// is its allocation site itself — the call instruction whose address names
/// the site.
///
/// This is the definition the slicers' per-program index
/// ([`ProgramFacts::first_access`]) is tested against; the slicers
/// themselves ask the index.
#[doc(hidden)]
pub fn first_access(prog: &Program, v0: VarAddr) -> Option<InstId> {
    if let VarAddr::Heap { site } = v0 {
        return (0..prog.num_insts() as u32).map(InstId).find(|&id| {
            prog.inst(id).addr == site.value()
                && matches!(prog.inst(id).kind, InstKind::Call { .. })
                && prog.call_allocates(id)
        });
    }
    (0..prog.num_insts() as u32)
        .map(InstId)
        .find(|&id| prog.inst(id).kind.operands().any(|o| touches(prog, id, o, v0)))
}

/// The first access of every criterion of one program, indexed in one pass
/// (built lazily by [`ProgramFacts`]): the smallest `InstId` per global
/// effective address, per `(function, frame offset)` of a frame-register
/// operand, and per allocating call site. The windowed criteria become
/// range queries over the sorted tables.
#[derive(Debug, Default)]
pub(crate) struct AccessIndex {
    /// `(effective address, first access)`, sorted by address.
    globals: Vec<(i64, u32)>,
    /// `((function, frame offset), first access)`, sorted by key.
    frames: Vec<((u32, i64), u32)>,
    /// `(call-site address, first allocating call there)`, sorted.
    heap: Vec<(u64, u32)>,
}

impl AccessIndex {
    /// Indexes every operand and allocating call of `prog`.
    pub(crate) fn build(prog: &Program) -> AccessIndex {
        let mut ix = AccessIndex::default();
        for raw in 0..prog.num_insts() as u32 {
            let id = InstId(raw);
            let inst = prog.inst(id);
            if matches!(inst.kind, InstKind::Call { .. }) && prog.call_allocates(id) {
                ix.heap.push((inst.addr, raw));
            }
            for opr in inst.kind.operands() {
                let (Operand::Deref(Loc { base, offset }) | Operand::Loc(Loc { base, offset })) =
                    opr
                else {
                    continue;
                };
                match base {
                    Addr::Mem(m) => ix.globals.push(((m.value() as i64).wrapping_add(offset), raw)),
                    Addr::Reg(r) if r.is_frame() => {
                        ix.frames.push(((prog.func_of(id).0, offset), raw));
                    }
                    Addr::Reg(_) => {}
                }
            }
        }
        // Sorted by key, then `InstId`: the first entry of each key holds
        // its smallest `InstId`.
        fn first_per_key<K: Ord + Copy>(table: &mut Vec<(K, u32)>) {
            table.sort_unstable();
            table.dedup_by_key(|&mut (k, _)| k);
        }
        first_per_key(&mut ix.globals);
        first_per_key(&mut ix.frames);
        first_per_key(&mut ix.heap);
        ix
    }

    /// The answer of [`first_access`] for `v0`.
    pub(crate) fn first_access(&self, v0: VarAddr) -> Option<InstId> {
        /// The smallest access among the keys in `lo..hi`.
        fn min_in<K: Ord + Copy>(table: &[(K, u32)], lo: K, hi: K) -> Option<u32> {
            let from = table.partition_point(|&(k, _)| k < lo);
            table[from..].iter().take_while(|&&(k, _)| k < hi).map(|&(_, id)| id).min()
        }
        let raw = match v0 {
            VarAddr::Global(base) => {
                let lo = base.value() as i64;
                min_in(&self.globals, lo, lo.wrapping_add(WINDOW))
            }
            VarAddr::Stack { func, offset } => {
                min_in(&self.frames, (func.0, offset), (func.0, offset.wrapping_add(WINDOW)))
            }
            VarAddr::Heap { site } => self
                .heap
                .binary_search_by_key(&site.value(), |&(addr, _)| addr)
                .ok()
                .map(|k| self.heap[k].1),
        };
        raw.map(InstId)
    }
}

/// Runs SSLICE for the variable at `v0`.
///
/// The slice contains every instruction of the function holding the first
/// access plus every instruction of its directly called functions; the edges
/// are the CFG edges among them (no contraction — SSLICE keeps everything).
pub fn sslice(prog: &Program, v0: VarAddr) -> Slice {
    sslice_with_facts(&ProgramFacts::new(prog), v0)
}

/// [`sslice`] over per-program facts shared across criteria: the first
/// access comes from the facts' index.
pub fn sslice_with_facts(facts: &ProgramFacts<'_>, v0: VarAddr) -> Slice {
    let prog = facts.program();
    let Some(first) = facts.first_access(v0) else {
        return Slice {
            criterion: v0,
            nodes: Vec::new(),
            edges: Vec::new(),
            explored: 0,
            steps: 0,
        };
    };
    let root = prog.func_of(first);

    let mut funcs: HashSet<FuncId> = HashSet::new();
    funcs.insert(root);
    for id in prog.func(root).inst_ids() {
        if let InstKind::Call { target: CallTarget::Direct(f) } = &prog.inst(id).kind {
            funcs.insert(*f);
        }
    }

    let mut nodes: Vec<SliceNode> = Vec::new();
    let mut member: HashSet<u32> = HashSet::new();
    for &f in &funcs {
        for id in prog.func(f).inst_ids() {
            if member.insert(id.0) {
                nodes.push(SliceNode { inst: id, faith: 1.0, indirection: 0 });
            }
        }
    }
    nodes.sort_by_key(|n| n.inst);

    let index: std::collections::HashMap<u32, u32> =
        nodes.iter().enumerate().map(|(k, n)| (n.inst.0, k as u32)).collect();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for n in &nodes {
        let u = index[&n.inst.0];
        for &s in prog.cfg_succs(n.inst) {
            if let Some(&w) = index.get(&s.0) {
                edges.push((u, w));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    let explored = nodes.len();
    Slice { criterion: v0, nodes, edges, explored, steps: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{ExternKind, MemAddr, Opcode, Operand, ProgramBuilder, Reg};

    fn program(v0: u64) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("other");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Ebx) },
        );
        b.ret();
        b.end_func();
        b.begin_func("main");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
        );
        b.call_named("callee");
        b.ret();
        b.end_func();
        b.begin_func("callee");
        b.call_extern(ExternKind::Malloc);
        b.ret();
        b.end_func();
        b.set_entry("main");
        b.finish().unwrap()
    }

    #[test]
    fn includes_enclosing_function_and_direct_callees() {
        let v0 = 0x74404u64;
        let prog = program(v0);
        let s = sslice(&prog, VarAddr::Global(MemAddr(v0)));
        // main (3 insts) + callee (2 insts); `other` excluded.
        assert_eq!(s.num_nodes(), 5);
        assert!(!s.contains(InstId(0)), "unrelated function excluded");
        assert!(s.contains(InstId(2)), "first access");
        assert!(s.contains(InstId(5)), "directly called function body");
        assert!(s.num_edges() >= 4);
    }

    #[test]
    fn missing_variable_gives_empty_slice() {
        let prog = program(0x74404);
        let s = sslice(&prog, VarAddr::Global(MemAddr(0x99999)));
        assert!(s.is_empty());
    }

    #[test]
    fn first_access_scans_in_program_order() {
        let v0 = 0x74404u64;
        let prog = program(v0);
        assert_eq!(first_access(&prog, VarAddr::Global(MemAddr(v0))), Some(InstId(2)));
    }

    #[test]
    fn heap_criterion_first_access_is_its_allocation_site() {
        let prog = program(0x74404);
        // The Malloc call inside `callee` is I5.
        let site = prog.inst(InstId(5)).addr;
        let v0 = VarAddr::Heap { site: MemAddr(site) };
        assert_eq!(first_access(&prog, v0), Some(InstId(5)));
        let s = sslice(&prog, v0);
        assert_eq!(s.num_nodes(), 2, "only the allocating function");
        // A heap criterion naming a non-allocating instruction matches nothing.
        let bogus = VarAddr::Heap { site: MemAddr(prog.inst(InstId(2)).addr) };
        assert_eq!(first_access(&prog, bogus), None);
    }

    /// Asserts that the index answers every criterion as the scan does.
    fn index_agrees(prog: &Program, crits: impl IntoIterator<Item = VarAddr>) {
        let facts = ProgramFacts::new(prog);
        for v0 in crits {
            assert_eq!(facts.first_access(v0), first_access(prog, v0), "{v0:?}");
        }
    }

    fn load(b: &mut ProgramBuilder, src: Operand) -> InstId {
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src })
    }

    #[test]
    fn index_honours_the_window_edges() {
        let v0 = 0x74400u64;
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        load(&mut b, Operand::mem_abs(v0 - 1, 0)); // I0: just below
        load(&mut b, Operand::mem_abs(v0 + 16, 0)); // I1: just past the end
        load(&mut b, Operand::mem_abs(v0 + 15, 0)); // I2: the last byte inside
        load(&mut b, Operand::mem_abs(v0 - 8, 8)); // I3: v0 itself, via an offset
                                                   // I4: an address taken, not loaded.
        let addr_of = Operand::Loc(Loc::new(MemAddr(v0 + 40)));
        b.inst(Opcode::Lea, InstKind::Mov { dst: Operand::reg(Reg::Ecx), src: addr_of });
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let facts = ProgramFacts::new(&prog);
        let at = |a: u64| facts.first_access(VarAddr::Global(MemAddr(a)));
        assert_eq!(at(v0), Some(InstId(2)), "v0 + 15 is inside, v0 + 16 is not");
        assert_eq!(at(v0 - 1), Some(InstId(0)));
        assert_eq!(at(v0 + 1), Some(InstId(1)), "the window is 16 bytes from v0");
        assert_eq!(at(v0 + 16), Some(InstId(1)));
        assert_eq!(at(v0 + 17), None);
        assert_eq!(at(v0 + 25), Some(InstId(4)), "taking the address is an access");
        assert_eq!(at(v0 + 41), None);
        index_agrees(&prog, (0..64).map(|d| VarAddr::Global(MemAddr(v0 - 20 + d))));
    }

    #[test]
    fn index_keeps_equal_frame_offsets_of_other_functions_apart() {
        let mut b = ProgramBuilder::new();
        b.begin_func("a");
        load(&mut b, Operand::mem_reg(Reg::Ebp, 8)); // I0
        load(&mut b, Operand::mem_reg(Reg::Esp, -4)); // I1: not a frame register
        b.ret();
        b.end_func();
        b.begin_func("b");
        load(&mut b, Operand::mem_reg(Reg::Ebp, -4)); // I3
        load(&mut b, Operand::mem_reg(Reg::Ebp, 8)); // I4: a's offset, b's frame
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let facts = ProgramFacts::new(&prog);
        let at =
            |f: u32, offset: i64| facts.first_access(VarAddr::Stack { func: FuncId(f), offset });
        assert_eq!(at(0, 8), Some(InstId(0)));
        assert_eq!(at(1, 8), Some(InstId(4)), "a's access does not answer for b");
        assert_eq!(at(0, -10), None, "esp-relative accesses are not frame slots");
        assert_eq!(at(1, -4), Some(InstId(3)));
        assert_eq!(at(1, -19), Some(InstId(3)), "-4 lies in -19's window");
        assert_eq!(at(1, -20), None);
        let crits = (0..2).flat_map(|f| (-24..24).map(move |offset| (f, offset)));
        index_agrees(&prog, crits.map(|(f, offset)| VarAddr::Stack { func: FuncId(f), offset }));
    }

    #[test]
    fn index_names_only_allocating_call_sites() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let other = b.call_extern(ExternKind::Other);
        let malloc = b.call_extern(ExternKind::Malloc);
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let facts = ProgramFacts::new(&prog);
        let site = |id: InstId| VarAddr::Heap { site: MemAddr(prog.inst(id).addr) };
        assert_eq!(facts.first_access(site(other)), None, "the call does not allocate");
        assert_eq!(facts.first_access(site(malloc)), Some(malloc));
        index_agrees(&prog, (0..prog.num_insts() as u32).map(|k| site(InstId(k))));
    }

    #[test]
    fn stack_variable_first_access_respects_function() {
        let mut b = ProgramBuilder::new();
        b.begin_func("a");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::mem_reg(Reg::Ebp, 8) },
        );
        b.ret();
        b.end_func();
        b.begin_func("b");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::mem_reg(Reg::Ebp, 8) },
        );
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let v0 = VarAddr::Stack { func: FuncId(1), offset: 8 };
        assert_eq!(first_access(&prog, v0), Some(InstId(2)));
        let s = sslice(&prog, v0);
        assert_eq!(s.num_nodes(), 2, "only function b");
    }
}
