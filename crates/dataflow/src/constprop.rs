//! Conditional constant propagation (SCCP-style forward analysis).
//!
//! Tracks, per register, whether it provably holds one compile-time
//! constant, and models the x86 flags well enough to decide conditional
//! branches whose `cmp`/`test` operands are both constant. Decided branches
//! prune the untaken CFG edge during the solve, so code only reachable
//! through a provably-false condition ends up *unreached* in the
//! [`Solution`](crate::solver::Solution) — the fact the verifier's
//! unreachable-code and constant-condition passes consume.
//!
//! Modeling choices (all erring toward "not constant", never toward a wrong
//! constant):
//!
//! * memory is not tracked — every load produces [`CVal::Varying`];
//! * address-of operands (`offset m`, `lea`-style displacements) are
//!   link-time constants but are treated as varying so the pass never calls
//!   an address comparison decided;
//! * arithmetic results set the flags as if compared against zero, and only
//!   the zero/sign predicates (`je`/`jne`/`js`/`jns`) may be decided from
//!   them — carry-based predicates need the true `cmp` operand pair;
//! * values wrap as two's-complement `i64`s, matching [`BinOp::apply`].

use crate::solver::{Direction, Lattice, Transfer};
use tiara_ir::InstId;
use tiara_ir::{BinOp, InstKind, Opcode, Operand, Program, Reg};

/// The constant lattice for one register: ⊥ (no value seen yet), one known
/// constant, or ⊤ (more than one possible value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CVal {
    /// No executable path has defined the register yet.
    Undef,
    /// The register provably holds this constant.
    Const(i64),
    /// The register may hold more than one value.
    Varying,
}

impl CVal {
    fn join(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Undef, x) | (x, CVal::Undef) => x,
            (CVal::Const(a), CVal::Const(b)) if a == b => CVal::Const(a),
            _ => CVal::Varying,
        }
    }

    /// The constant, if the register provably holds one.
    pub fn as_const(self) -> Option<i64> {
        match self {
            CVal::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// What the solver knows about the flags register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagState {
    /// No executable path has set the flags yet.
    Undef,
    /// Flags were set by comparing `lhs` against `rhs`.
    ///
    /// `test` means the comparison was `test lhs, rhs` (flags of
    /// `lhs & rhs` against zero); `arith` means the flags came from an
    /// arithmetic result (only zero/sign predicates are decidable).
    Known {
        /// Left operand value.
        lhs: CVal,
        /// Right operand value.
        rhs: CVal,
        /// Set by `test` rather than `cmp`.
        test: bool,
        /// Set by an arithmetic result rather than an explicit compare.
        arith: bool,
    },
    /// Flags may have more than one source.
    Varying,
}

impl FlagState {
    fn join(self, other: FlagState) -> FlagState {
        match (self, other) {
            (FlagState::Undef, x) | (x, FlagState::Undef) => x,
            (a, b) if a == b => a,
            _ => FlagState::Varying,
        }
    }
}

/// The constant-propagation fact: one [`CVal`] per register plus the flag
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstFact {
    regs: [CVal; 8],
    flags: FlagState,
}

impl ConstFact {
    /// The value of `r` at this point.
    pub fn reg(&self, r: Reg) -> CVal {
        self.regs[r.index()]
    }

    /// The flag state at this point.
    pub fn flags(&self) -> FlagState {
        self.flags
    }

    fn eval(&self, o: Operand) -> CVal {
        match o {
            Operand::Imm(c) => CVal::Const(c),
            Operand::Loc(loc) => match loc.base_reg() {
                Some(r) if loc.offset == 0 => self.regs[r.index()],
                // lea-style displacement or `offset m`: a link-time
                // constant we deliberately refuse to fold.
                _ => CVal::Varying,
            },
            Operand::Deref(_) => CVal::Varying,
        }
    }
}

impl Lattice for ConstFact {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            let j = mine.join(*theirs);
            changed |= j != *mine;
            *mine = j;
        }
        let j = self.flags.join(other.flags);
        changed |= j != self.flags;
        self.flags = j;
        changed
    }
}

/// Evaluates a decided conditional branch: `Some(taken)` when the predicate
/// is provable from `flags`, `None` otherwise.
pub fn decide_branch(opcode: Opcode, flags: FlagState) -> Option<bool> {
    let FlagState::Known { lhs, rhs, test, arith } = flags else {
        return None;
    };
    let (a, b) = (lhs.as_const()?, rhs.as_const()?);
    let (a, b) = if test { (a & b, 0) } else { (a, b) };
    let zero_sign_only = arith;
    let taken = match opcode {
        Opcode::Je => a == b,
        Opcode::Jne => a != b,
        Opcode::Js => a.wrapping_sub(b) < 0,
        Opcode::Jns => a.wrapping_sub(b) >= 0,
        Opcode::Jl if !zero_sign_only => a < b,
        Opcode::Jge if !zero_sign_only => a >= b,
        Opcode::Jle if !zero_sign_only => a <= b,
        Opcode::Jg if !zero_sign_only => a > b,
        Opcode::Jb if !zero_sign_only => (a as u64) < (b as u64),
        Opcode::Jae if !zero_sign_only => (a as u64) >= (b as u64),
        Opcode::Jbe if !zero_sign_only => (a as u64) <= (b as u64),
        Opcode::Ja if !zero_sign_only => (a as u64) > (b as u64),
        _ => return None,
    };
    Some(taken)
}

/// The conditional constant-propagation analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Constprop;

impl Transfer for Constprop {
    type Fact = ConstFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> ConstFact {
        ConstFact { regs: [CVal::Undef; 8], flags: FlagState::Undef }
    }

    fn boundary(&self) -> ConstFact {
        // Entry register contents are unknown values, not "no value".
        ConstFact { regs: [CVal::Varying; 8], flags: FlagState::Varying }
    }

    fn apply(&self, prog: &Program, id: InstId, fact: &mut ConstFact) {
        let inst = prog.inst(id);
        match &inst.kind {
            InstKind::Mov { dst, src } => {
                let v = if inst.opcode == Opcode::Lea {
                    CVal::Varying // an address, not a foldable constant
                } else {
                    fact.eval(*src)
                };
                if let Some(r) = dst.as_reg() {
                    fact.regs[r.index()] = v;
                }
                // mov/lea leave the flags untouched.
            }
            InstKind::Op { op, dst, src } => {
                let zeroing = matches!(op, BinOp::Xor | BinOp::Sub)
                    && dst.as_reg().is_some()
                    && dst.as_reg() == src.as_reg();
                let result = if zeroing {
                    CVal::Const(0)
                } else {
                    match (fact.eval(*dst), fact.eval(*src)) {
                        (CVal::Const(a), CVal::Const(b)) => CVal::Const(op.apply(a, b)),
                        _ => CVal::Varying,
                    }
                };
                if let Some(r) = dst.as_reg() {
                    fact.regs[r.index()] = result;
                }
                fact.flags =
                    FlagState::Known { lhs: result, rhs: CVal::Const(0), test: false, arith: true };
            }
            InstKind::Use { oprs } => match inst.opcode {
                Opcode::Cmp | Opcode::Test if oprs.len() == 2 => {
                    fact.flags = FlagState::Known {
                        lhs: fact.eval(oprs[0]),
                        rhs: fact.eval(oprs[1]),
                        test: inst.opcode == Opcode::Test,
                        arith: false,
                    };
                }
                _ => {}
            },
            InstKind::Push { .. } => {}
            InstKind::Pop { dst } => {
                if let Some(r) = dst.as_reg() {
                    fact.regs[r.index()] = CVal::Varying;
                }
            }
            InstKind::Call { .. } => {
                for r in [Reg::Eax, Reg::Ecx, Reg::Edx] {
                    fact.regs[r.index()] = CVal::Varying;
                }
                fact.flags = FlagState::Varying;
            }
            InstKind::Ret => {}
        }
    }

    fn edge(&self, prog: &Program, fact: &ConstFact, from: InstId, to: InstId) -> bool {
        let inst = prog.inst(from);
        if !inst.opcode.is_conditional_jump() {
            return true;
        }
        let Some(taken) = decide_branch(inst.opcode, fact.flags) else {
            return true;
        };
        let fall_through = to.0 == from.0 + 1;
        // A decided branch flows only along its decided edge. (If the jump
        // target *is* the fall-through the two edges coincide.)
        if fall_through {
            !taken
        } else {
            taken
        }
    }
}

/// A conditional branch whose outcome constant propagation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstBranch {
    /// The conditional jump instruction.
    pub inst: InstId,
    /// `true` if the branch is always taken, `false` if never.
    pub taken: bool,
}

/// Runs constant propagation over `func` and extracts the decided branches
/// plus the set of unreached instructions.
pub fn const_conditions(prog: &Program, func: tiara_ir::FuncId) -> (Vec<ConstBranch>, Vec<InstId>) {
    let sol = crate::solver::solve(prog, func, &Constprop);
    let mut branches = Vec::new();
    let mut unreached = Vec::new();
    for id in prog.func(func).inst_ids() {
        if !sol.reached(id) {
            unreached.push(id);
            continue;
        }
        let inst = prog.inst(id);
        if inst.opcode.is_conditional_jump() {
            if let Some(taken) = decide_branch(inst.opcode, sol.after(id).flags()) {
                branches.push(ConstBranch { inst: id, taken });
            }
        }
    }
    (branches, unreached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use tiara_ir::{FuncId, ProgramBuilder};

    fn rr(r: Reg) -> Operand {
        Operand::reg(r)
    }

    #[test]
    fn constants_fold_through_arithmetic() {
        // mov eax, 6; add eax, 7 → eax = 13
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Eax), src: Operand::imm(6) });
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Eax), src: Operand::imm(7) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let sol = solve(&p, FuncId(0), &Constprop);
        assert_eq!(sol.after(InstId(1)).reg(Reg::Eax), CVal::Const(13));
        // Loads and entry state are varying.
        assert_eq!(sol.before(InstId(0)).reg(Reg::Ebx), CVal::Varying);
    }

    #[test]
    fn decided_branch_prunes_the_dead_arm_golden() {
        // mov eax, 1; cmp eax, 0; je L  → the branch is never taken, the
        // fall-through mov executes, and eax is Const(2) at the ret.
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let l = b.new_label();
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Eax), src: Operand::imm(1) });
        b.inst(Opcode::Cmp, InstKind::Use { oprs: vec![rr(Reg::Eax), Operand::imm(0)] });
        b.jump(Opcode::Je, l);
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Eax), src: Operand::imm(2) });
        b.bind_label(l);
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let (branches, unreached) = const_conditions(&p, FuncId(0));
        assert_eq!(branches, vec![ConstBranch { inst: InstId(2), taken: false }]);
        assert!(unreached.is_empty()); // the merge point is still reached
        let sol = solve(&p, FuncId(0), &Constprop);
        assert_eq!(sol.before(InstId(4)).reg(Reg::Eax), CVal::Const(2));
    }

    #[test]
    fn always_taken_branch_leaves_the_fall_through_unreached() {
        // xor eax, eax; test eax, eax; je L; mov ebx, 1; L: ret
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let l = b.new_label();
        b.inst(Opcode::Xor, InstKind::Op { op: BinOp::Xor, dst: rr(Reg::Eax), src: rr(Reg::Eax) });
        b.inst(Opcode::Test, InstKind::Use { oprs: vec![rr(Reg::Eax), rr(Reg::Eax)] });
        b.jump(Opcode::Je, l);
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ebx), src: Operand::imm(1) });
        b.bind_label(l);
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let (branches, unreached) = const_conditions(&p, FuncId(0));
        assert_eq!(branches, vec![ConstBranch { inst: InstId(2), taken: true }]);
        assert_eq!(unreached, vec![InstId(3)]);
    }

    #[test]
    fn loop_counters_join_to_varying() {
        // mov ecx, 3; top: dec ecx; jne top; ret — after the back-edge join
        // the counter is varying, so the exit branch is undecided.
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let top = b.new_label();
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ecx), src: Operand::imm(3) });
        b.bind_label(top);
        b.inst(
            Opcode::Dec,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Ecx), src: Operand::imm(1) },
        );
        b.jump(Opcode::Jne, top);
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let (branches, unreached) = const_conditions(&p, FuncId(0));
        assert!(branches.is_empty(), "{branches:?}");
        assert!(unreached.is_empty());
    }

    #[test]
    fn carry_predicates_are_not_decided_from_arithmetic_flags() {
        let flags =
            FlagState::Known { lhs: CVal::Const(5), rhs: CVal::Const(0), test: false, arith: true };
        assert_eq!(decide_branch(Opcode::Jne, flags), Some(true));
        assert_eq!(decide_branch(Opcode::Ja, flags), None);
    }
}
