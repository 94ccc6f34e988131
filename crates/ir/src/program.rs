//! Whole binary programs: instructions, functions, and the single CFG
//! `G = (I, E)` of Section III-A, plus the auxiliary facts IDA Pro provides
//! in the paper's pipeline (call/jump targets, heap-routine reachability).

use crate::{CallTarget, ExternKind, FuncId, Function, Inst, InstId, InstKind, Opcode, Operand};
use std::collections::HashMap;

/// A label used by [`ProgramBuilder`] for forward jump references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced by [`ProgramBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A jump referenced a label that was never bound.
    UnboundLabel {
        /// The instruction with the dangling jump.
        inst: InstId,
    },
    /// A call referenced a function name that does not exist.
    UnknownCallee {
        /// The instruction with the dangling call.
        inst: InstId,
        /// The unresolved name.
        name: String,
    },
    /// `begin_func` was called while another function was still open.
    NestedFunction {
        /// The name of the function being opened.
        name: String,
    },
    /// An instruction was emitted outside of any function.
    InstOutsideFunction,
    /// `finish` was called with a function still open.
    UnclosedFunction,
    /// Two functions share a name so named calls would be ambiguous.
    DuplicateFunctionName {
        /// The duplicated name.
        name: String,
    },
    /// The program has no functions.
    EmptyProgram,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnboundLabel { inst } => {
                write!(f, "jump at {inst} targets an unbound label")
            }
            BuildError::UnknownCallee { inst, name } => {
                write!(f, "call at {inst} targets unknown function `{name}`")
            }
            BuildError::NestedFunction { name } => {
                write!(f, "begin_func(`{name}`) while another function is open")
            }
            BuildError::InstOutsideFunction => write!(f, "instruction emitted outside a function"),
            BuildError::UnclosedFunction => write!(f, "finish called with an open function"),
            BuildError::DuplicateFunctionName { name } => {
                write!(f, "duplicate function name `{name}`")
            }
            BuildError::EmptyProgram => write!(f, "program has no functions"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A complete binary program.
///
/// Holds the instruction list, the function table, and two successor
/// relations:
///
/// * the **flow** relation: intra-procedural control flow where a `call`
///   falls through to its return site (what a source-level CFG looks like);
/// * the **cfg** relation: the paper's single CFG `G = (I, E)` in which a
///   direct `call` has an edge to the callee entry and `ret` has edges to
///   every return site. The slicer traverses this relation but replaces the
///   `ret` edges with the context-sensitive recorded return address.
///
/// # Examples
///
/// ```
/// use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.begin_func("main");
/// b.inst(
///     Opcode::Mov,
///     InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(1) },
/// );
/// b.ret();
/// b.end_func();
/// let prog = b.finish()?;
/// assert_eq!(prog.num_insts(), 2);
/// # Ok::<(), tiara_ir::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<Inst>,
    funcs: Vec<Function>,
    inst_func: Vec<FuncId>,
    flow_succs: Vec<Vec<InstId>>,
    cfg_succs: Vec<Vec<InstId>>,
    cfg_preds: Vec<Vec<InstId>>,
    call_jump_target: Vec<bool>,
    fn_allocates: Vec<bool>,
    fn_frees: Vec<bool>,
    entry_func: FuncId,
}

impl Program {
    /// The instructions of the program.
    #[inline]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction with the given id.
    #[inline]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Number of instructions.
    #[inline]
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The function table.
    #[inline]
    pub fn funcs(&self) -> &[Function] {
        &self.funcs
    }

    /// The function with the given id.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// The function containing an instruction.
    #[inline]
    pub fn func_of(&self, id: InstId) -> FuncId {
        self.inst_func[id.index()]
    }

    /// Looks up a function by its diagnostic name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The program entry function (`main`).
    #[inline]
    pub fn entry_func(&self) -> FuncId {
        self.entry_func
    }

    /// The program entry instruction `I0`.
    #[inline]
    pub fn entry(&self) -> InstId {
        self.funcs[self.entry_func.index()].entry()
    }

    /// Intra-procedural successors where a call falls through to its return
    /// site.
    #[inline]
    pub fn flow_succs(&self, id: InstId) -> &[InstId] {
        &self.flow_succs[id.index()]
    }

    /// Successors in the paper's single CFG `G = (I, E)`.
    #[inline]
    pub fn cfg_succs(&self, id: InstId) -> &[InstId] {
        &self.cfg_succs[id.index()]
    }

    /// Predecessors in the paper's single CFG.
    #[inline]
    pub fn cfg_preds(&self, id: InstId) -> &[InstId] {
        &self.cfg_preds[id.index()]
    }

    /// Whether the instruction is a direct target of a call or jump
    /// (feature `F1` of the encoding).
    #[inline]
    pub fn is_call_jump_target(&self, id: InstId) -> bool {
        self.call_jump_target[id.index()]
    }

    /// Whether a function calls a heap allocation routine, directly or along
    /// any call chain (feature `F5`).
    #[inline]
    pub fn func_allocates(&self, id: FuncId) -> bool {
        self.fn_allocates[id.index()]
    }

    /// Whether a function calls a heap free routine, directly or along any
    /// call chain (feature `F6`).
    #[inline]
    pub fn func_frees(&self, id: FuncId) -> bool {
        self.fn_frees[id.index()]
    }

    /// Whether a *call instruction* reaches a heap allocation routine.
    ///
    /// Returns `false` for non-call instructions and for indirect calls
    /// (IDA provides no information there; the paper uses the default 0).
    pub fn call_allocates(&self, id: InstId) -> bool {
        match &self.inst(id).kind {
            InstKind::Call { target } => match target {
                CallTarget::External(k) => k.allocates(),
                CallTarget::Direct(f) => self.func_allocates(*f),
                CallTarget::Indirect(_) => false,
            },
            _ => false,
        }
    }

    /// Whether a *call instruction* reaches a heap free routine.
    pub fn call_frees(&self, id: InstId) -> bool {
        match &self.inst(id).kind {
            InstKind::Call { target } => match target {
                CallTarget::External(k) => k.frees(),
                CallTarget::Direct(f) => self.func_frees(*f),
                CallTarget::Indirect(_) => false,
            },
            _ => false,
        }
    }

    /// The return site of a call instruction: the next instruction in the
    /// same function, if any.
    pub fn return_site(&self, call: InstId) -> Option<InstId> {
        let f = self.func(self.func_of(call));
        let next = InstId(call.0 + 1);
        f.contains(next).then_some(next)
    }

    /// The program's structural fields, exposed for mutation.
    ///
    /// Pair with [`Program::from_raw_unchecked`] to build deliberately
    /// damaged programs for verifier tests (the one thing a `Program` whose
    /// invariants were upheld at construction can never become).
    pub fn to_raw(&self) -> RawProgram {
        RawProgram {
            insts: self.insts.clone(),
            funcs: self.funcs.clone(),
            inst_func: self.inst_func.clone(),
            flow_succs: self.flow_succs.clone(),
            cfg_succs: self.cfg_succs.clone(),
            cfg_preds: self.cfg_preds.clone(),
            call_jump_target: self.call_jump_target.clone(),
            fn_allocates: self.fn_allocates.clone(),
            fn_frees: self.fn_frees.clone(),
            entry_func: self.entry_func,
        }
    }

    /// Reassembles a program from raw fields **without any validation** —
    /// the structural equivalent of deserializing hand-edited JSON. The
    /// result may violate every CFG invariant; feed it only to
    /// `tiara_verify` (which must reject it), never to the pipeline.
    pub fn from_raw_unchecked(raw: RawProgram) -> Program {
        Program {
            insts: raw.insts,
            funcs: raw.funcs,
            inst_func: raw.inst_func,
            flow_succs: raw.flow_succs,
            cfg_succs: raw.cfg_succs,
            cfg_preds: raw.cfg_preds,
            call_jump_target: raw.call_jump_target,
            fn_allocates: raw.fn_allocates,
            fn_frees: raw.fn_frees,
            entry_func: raw.entry_func,
        }
    }
}

/// The public mirror of [`Program`]'s private fields (see
/// [`Program::to_raw`]). Field meanings match the originals one-to-one;
/// nothing here is checked.
#[derive(Debug, Clone)]
pub struct RawProgram {
    /// The instruction list.
    pub insts: Vec<Inst>,
    /// The function table (ranges should tile `insts`).
    pub funcs: Vec<Function>,
    /// Owning function of each instruction.
    pub inst_func: Vec<FuncId>,
    /// Intra-procedural flow successors per instruction.
    pub flow_succs: Vec<Vec<InstId>>,
    /// CFG successors per instruction.
    pub cfg_succs: Vec<Vec<InstId>>,
    /// CFG predecessors per instruction.
    pub cfg_preds: Vec<Vec<InstId>>,
    /// Whether each instruction is a call/jump target.
    pub call_jump_target: Vec<bool>,
    /// Whether each function allocates.
    pub fn_allocates: Vec<bool>,
    /// Whether each function frees.
    pub fn_frees: Vec<bool>,
    /// The entry function.
    pub entry_func: FuncId,
}

#[derive(Debug)]
struct OpenFunc {
    start: u32,
}

#[derive(Debug, Clone, Copy)]
struct PendingJump {
    inst: u32,
    label: Label,
    conditional: bool,
}

/// Incremental builder for [`Program`].
///
/// Functions are emitted one at a time; jumps use [`Label`]s that may be bound
/// before or after the jump is emitted, and calls may reference functions by
/// name before they are built.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    funcs: Vec<Function>,
    inst_func: Vec<FuncId>,
    open: Option<OpenFunc>,
    labels: Vec<Option<u32>>,
    jumps: Vec<PendingJump>,
    named_calls: Vec<(u32, String)>,
    entry_name: Option<String>,
}

/// The virtual address of a built program's first instruction.
const ADDR_BASE: u64 = 0x71000;

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Marks the named function as the program entry. Defaults to the first
    /// function built.
    pub fn set_entry(&mut self, name: &str) {
        self.entry_name = Some(name.to_owned());
    }

    /// Opens a new function. Its id is returned immediately so recursive and
    /// forward calls can be expressed.
    ///
    /// # Panics
    ///
    /// Panics if a function is already open (a [`BuildError::NestedFunction`]
    /// condition; this is a programming error in the generator).
    pub fn begin_func(&mut self, name: &str) -> FuncId {
        assert!(self.open.is_none(), "begin_func(`{name}`) while another function is open");
        let id = FuncId(self.funcs.len() as u32);
        self.open = Some(OpenFunc { start: self.insts.len() as u32 });
        // Reserve the slot so ids handed out stay stable.
        self.funcs.push(Function {
            id,
            name: name.to_owned(),
            start: InstId(self.insts.len() as u32),
            end: InstId(self.insts.len() as u32),
        });
        id
    }

    /// Closes the currently open function.
    ///
    /// # Panics
    ///
    /// Panics if no function is open.
    pub fn end_func(&mut self) {
        let open = self.open.take().expect("end_func with no open function");
        let id = self.funcs.len() - 1;
        self.funcs[id].start = InstId(open.start);
        self.funcs[id].end = InstId(self.insts.len() as u32);
    }

    /// The id the *next* emitted instruction will get.
    pub fn next_inst_id(&self) -> InstId {
        InstId(self.insts.len() as u32)
    }

    /// The virtual address instruction `id` was (or will be) assigned.
    pub fn inst_addr(&self, id: InstId) -> u64 {
        ADDR_BASE + 4 * id.0 as u64
    }

    /// Emits an instruction in the open function.
    ///
    /// # Panics
    ///
    /// Panics if no function is open.
    pub fn inst(&mut self, opcode: Opcode, kind: InstKind) -> InstId {
        assert!(self.open.is_some(), "instruction emitted outside a function");
        let id = InstId(self.insts.len() as u32);
        let addr = ADDR_BASE + 4 * id.0 as u64;
        self.insts.push(Inst::new(addr, opcode, kind));
        self.inst_func.push(FuncId(self.funcs.len() as u32 - 1));
        id
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds a label to the next emitted instruction.
    pub fn bind_label(&mut self, label: Label) {
        self.labels[label.0] = Some(self.insts.len() as u32);
    }

    /// Emits a jump to `label`. Conditional opcodes (`je`, `jae`, …) keep
    /// their fall-through edge; `jmp` does not.
    pub fn jump(&mut self, opcode: Opcode, label: Label) -> InstId {
        // The target operand is patched to the resolved address in `finish`.
        let id = self.inst(opcode, InstKind::Use { oprs: vec![Operand::imm(0)] });
        self.jumps.push(PendingJump {
            inst: id.0,
            label,
            conditional: opcode.is_conditional_jump(),
        });
        id
    }

    /// Emits a direct call to a function by id.
    pub fn call_direct(&mut self, callee: FuncId) -> InstId {
        self.inst(Opcode::Call, InstKind::Call { target: CallTarget::Direct(callee) })
    }

    /// Emits a direct call to a function by name, resolved at
    /// [`ProgramBuilder::finish`].
    pub fn call_named(&mut self, name: &str) -> InstId {
        let id = self
            .inst(Opcode::Call, InstKind::Call { target: CallTarget::External(ExternKind::Other) });
        self.named_calls.push((id.0, name.to_owned()));
        id
    }

    /// Emits a call to an external routine.
    pub fn call_extern(&mut self, kind: ExternKind) -> InstId {
        self.inst(Opcode::Call, InstKind::Call { target: CallTarget::External(kind) })
    }

    /// Emits an indirect call through an operand.
    pub fn call_indirect(&mut self, opr: Operand) -> InstId {
        self.inst(Opcode::Call, InstKind::Call { target: CallTarget::Indirect(opr) })
    }

    /// Emits a `ret`.
    pub fn ret(&mut self) -> InstId {
        self.inst(Opcode::Ret, InstKind::Ret)
    }

    /// Resolves labels and named calls, builds both successor relations and
    /// the auxiliary tables, and returns the finished program.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a label is unbound, a named call cannot be
    /// resolved, function names are ambiguous, a function is still open, or
    /// the program is empty.
    pub fn finish(mut self) -> Result<Program, BuildError> {
        if self.open.is_some() {
            return Err(BuildError::UnclosedFunction);
        }
        if self.funcs.is_empty() {
            return Err(BuildError::EmptyProgram);
        }

        let mut by_name: HashMap<String, FuncId> = HashMap::new();
        for f in &self.funcs {
            if by_name.insert(f.name.clone(), f.id).is_some() {
                return Err(BuildError::DuplicateFunctionName { name: f.name.clone() });
            }
        }

        // Resolve named calls.
        let resolved: Vec<(u32, FuncId)> = {
            let mut v = Vec::with_capacity(self.named_calls.len());
            for (inst, name) in &self.named_calls {
                let id = *by_name.get(name).ok_or_else(|| BuildError::UnknownCallee {
                    inst: InstId(*inst),
                    name: name.clone(),
                })?;
                v.push((*inst, id));
            }
            v
        };
        for (inst, callee) in resolved {
            self.insts[inst as usize].kind = InstKind::Call { target: CallTarget::Direct(callee) };
        }

        // Resolve jumps and patch their display operand.
        let mut jump_edges: Vec<(u32, u32, bool)> = Vec::with_capacity(self.jumps.len());
        for j in &self.jumps {
            let target =
                self.labels[j.label.0].ok_or(BuildError::UnboundLabel { inst: InstId(j.inst) })?;
            // A label may be bound at function end; clamp to a real instruction
            // only if one exists.
            if (target as usize) < self.insts.len() {
                jump_edges.push((j.inst, target, j.conditional));
                let addr = self.insts[target as usize].addr;
                self.insts[j.inst as usize].kind =
                    InstKind::Use { oprs: vec![Operand::imm(addr as i64)] };
            }
        }

        let n = self.insts.len();
        let mut flow_succs: Vec<Vec<InstId>> = vec![Vec::new(); n];
        let mut cfg_succs: Vec<Vec<InstId>> = vec![Vec::new(); n];
        let mut call_jump_target = vec![false; n];

        let funcs = std::mem::take(&mut self.funcs);
        // Fall-through edges within each function.
        for f in &funcs {
            for id in f.inst_ids() {
                let i = id.index();
                let next = InstId(id.0 + 1);
                let falls_through = match &self.insts[i].kind {
                    InstKind::Ret => false,
                    InstKind::Use { .. } if self.insts[i].opcode == Opcode::Jmp => false,
                    _ => true,
                };
                if falls_through && f.contains(next) {
                    flow_succs[i].push(next);
                    // In the single CFG, a direct call's edge goes to the
                    // callee instead of the return site.
                    let is_direct_call = matches!(
                        &self.insts[i].kind,
                        InstKind::Call { target: CallTarget::Direct(_) }
                    );
                    if !is_direct_call {
                        cfg_succs[i].push(next);
                    }
                }
            }
        }
        // Jump edges.
        for (src, dst, conditional) in jump_edges {
            let s = src as usize;
            flow_succs[s].push(InstId(dst));
            cfg_succs[s].push(InstId(dst));
            call_jump_target[dst as usize] = true;
            if !conditional {
                // already excluded fall-through above via Jmp opcode check
            }
        }
        // Call and return edges in the single CFG.
        let mut return_sites: Vec<Vec<InstId>> = vec![Vec::new(); funcs.len()];
        for (i, inst) in self.insts.iter().enumerate() {
            if let InstKind::Call { target: CallTarget::Direct(callee) } = &inst.kind {
                let entry = funcs[callee.index()].entry();
                cfg_succs[i].push(entry);
                call_jump_target[entry.index()] = true;
                let next = InstId(i as u32 + 1);
                if funcs[self.inst_func[i].index()].contains(next) {
                    return_sites[callee.index()].push(next);
                }
            }
        }
        for f in &funcs {
            for id in f.inst_ids() {
                if matches!(self.insts[id.index()].kind, InstKind::Ret) {
                    for &site in &return_sites[f.id.index()] {
                        cfg_succs[id.index()].push(site);
                    }
                }
            }
        }

        let mut cfg_preds: Vec<Vec<InstId>> = vec![Vec::new(); n];
        for (i, succs) in cfg_succs.iter().enumerate() {
            for &s in succs {
                cfg_preds[s.index()].push(InstId(i as u32));
            }
        }

        // Heap-routine reachability fixpoint over the direct call graph.
        let nf = funcs.len();
        let mut fn_allocates = vec![false; nf];
        let mut fn_frees = vec![false; nf];
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); nf];
        for (i, inst) in self.insts.iter().enumerate() {
            let owner = self.inst_func[i];
            if let InstKind::Call { target } = &inst.kind {
                match target {
                    CallTarget::External(k) => {
                        fn_allocates[owner.index()] |= k.allocates();
                        fn_frees[owner.index()] |= k.frees();
                    }
                    CallTarget::Direct(f) => callees[owner.index()].push(*f),
                    CallTarget::Indirect(_) => {}
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..nf {
                for c in &callees[f] {
                    if fn_allocates[c.index()] && !fn_allocates[f] {
                        fn_allocates[f] = true;
                        changed = true;
                    }
                    if fn_frees[c.index()] && !fn_frees[f] {
                        fn_frees[f] = true;
                        changed = true;
                    }
                }
            }
        }

        let entry_func = match &self.entry_name {
            Some(name) => *by_name
                .get(name)
                .ok_or_else(|| BuildError::UnknownCallee { inst: InstId(0), name: name.clone() })?,
            None => FuncId(0),
        };

        Ok(Program {
            insts: self.insts,
            funcs,
            inst_func: self.inst_func,
            flow_succs,
            cfg_succs,
            cfg_preds,
            call_jump_target,
            fn_allocates,
            fn_frees,
            entry_func,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn mov_rr(dst: Reg, src: Reg) -> InstKind {
        InstKind::Mov { dst: Operand::reg(dst), src: Operand::reg(src) }
    }

    #[test]
    fn straight_line_flow() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let i0 = b.inst(Opcode::Mov, mov_rr(Reg::Eax, Reg::Ebx));
        let i1 = b.inst(Opcode::Mov, mov_rr(Reg::Ecx, Reg::Eax));
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert_eq!(p.flow_succs(i0), &[i1]);
        assert_eq!(p.cfg_succs(i1), &[InstId(2)]);
        assert!(p.cfg_succs(InstId(2)).is_empty(), "ret with no callers");
    }

    #[test]
    fn conditional_jump_has_two_successors() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let skip = b.new_label();
        let j = b.jump(Opcode::Jae, skip);
        let mid = b.inst(Opcode::Mov, mov_rr(Reg::Eax, Reg::Ebx));
        b.bind_label(skip);
        let end = b.inst(Opcode::Mov, mov_rr(Reg::Ecx, Reg::Eax));
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let mut succs = p.cfg_succs(j).to_vec();
        succs.sort();
        assert_eq!(succs, vec![mid, end]);
        assert!(p.is_call_jump_target(end));
        assert!(!p.is_call_jump_target(mid));
    }

    #[test]
    fn unconditional_jump_has_no_fallthrough() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let end_l = b.new_label();
        let j = b.jump(Opcode::Jmp, end_l);
        b.inst(Opcode::Mov, mov_rr(Reg::Eax, Reg::Ebx));
        b.bind_label(end_l);
        let end = b.inst(Opcode::Mov, mov_rr(Reg::Ecx, Reg::Eax));
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert_eq!(p.cfg_succs(j), &[end]);
    }

    #[test]
    fn call_edges_and_return_edges() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let call = b.call_named("callee");
        let site = b.inst(Opcode::Mov, mov_rr(Reg::Eax, Reg::Ebx));
        b.ret();
        b.end_func();
        b.begin_func("callee");
        let ce = b.inst(Opcode::Mov, mov_rr(Reg::Edx, Reg::Eax));
        let ret = b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        // Single CFG: call -> callee entry, ret -> return site.
        assert_eq!(p.cfg_succs(call), &[ce]);
        assert_eq!(p.cfg_succs(ret), &[site]);
        // Flow relation: call falls through.
        assert_eq!(p.flow_succs(call), &[site]);
        assert!(p.is_call_jump_target(ce));
        assert_eq!(p.return_site(call), Some(site));
    }

    #[test]
    fn malloc_reachability_is_transitive() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let c = b.call_named("wrapper");
        b.ret();
        b.end_func();
        b.begin_func("wrapper");
        b.call_extern(ExternKind::Malloc);
        b.ret();
        b.end_func();
        b.begin_func("pure");
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert!(p.func_allocates(FuncId(0)));
        assert!(p.func_allocates(FuncId(1)));
        assert!(!p.func_allocates(FuncId(2)));
        assert!(!p.func_frees(FuncId(0)));
        assert!(p.call_allocates(c));
        assert!(!p.call_frees(c));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        let l = b.new_label();
        b.jump(Opcode::Je, l);
        b.ret();
        b.end_func();
        assert!(matches!(b.finish(), Err(BuildError::UnboundLabel { .. })));
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.call_named("nope");
        b.ret();
        b.end_func();
        assert!(matches!(b.finish(), Err(BuildError::UnknownCallee { .. })));
    }

    #[test]
    fn duplicate_function_name_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.ret();
        b.end_func();
        b.begin_func("f");
        b.ret();
        b.end_func();
        assert!(matches!(b.finish(), Err(BuildError::DuplicateFunctionName { .. })));
    }

    #[test]
    fn entry_selection() {
        let mut b = ProgramBuilder::new();
        b.begin_func("helper");
        b.ret();
        b.end_func();
        b.begin_func("main");
        b.ret();
        b.end_func();
        b.set_entry("main");
        let p = b.finish().unwrap();
        assert_eq!(p.entry_func(), FuncId(1));
        assert_eq!(p.entry(), InstId(1));
    }

    #[test]
    fn empty_program_is_an_error() {
        let b = ProgramBuilder::new();
        assert!(matches!(b.finish(), Err(BuildError::EmptyProgram)));
    }

    #[test]
    fn addresses_are_monotonic() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.inst(Opcode::Mov, mov_rr(Reg::Eax, Reg::Ebx));
        b.inst(Opcode::Mov, mov_rr(Reg::Ebx, Reg::Ecx));
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let addrs: Vec<u64> = p.insts().iter().map(|i| i.addr).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    }
}
