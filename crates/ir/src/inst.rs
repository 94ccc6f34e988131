//! Instructions of the paper's small language (Section III-A, eq. 1):
//!
//! ```text
//! I := mov opr1, opr2 | op⊕ opr1, opr2 | use ... oprk ... | push r | pop r
//! ```
//!
//! plus explicit `call`/`ret` markers. The paper models a call as a `push`
//! followed by a `use` (jmp) and a return as a `pop` followed by a `use`, but
//! notes that call instructions are *flagged* (by IDA Pro) so that the slicer
//! can record return addresses and proceed context-sensitively. We keep the
//! flags as first-class instruction kinds; the slicer implements the
//! push+jmp / pop+jmp semantics itself.

use crate::{Opcode, Operand};

/// A dense instruction identifier: the index of the instruction in its
/// [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub u32);

impl InstId {
    /// The index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for InstId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// A dense function identifier: the index of the function in its
/// [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// The binary arithmetic operator `⊕` of an `op⊕` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (`add`, `inc`).
    Add,
    /// Subtraction (`sub`, `dec`).
    Sub,
    /// Multiplication (`imul`).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Logical right shift.
    Shr,
}

impl BinOp {
    /// Applies the operator to two concrete constants, wrapping on overflow
    /// (matching two's-complement machine arithmetic).
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 31) as u32),
            BinOp::Shr => ((a as u64).wrapping_shr((b & 31) as u32)) as i64,
        }
    }
}

/// The target of a `call` instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// A direct call to a function in the same binary.
    Direct(FuncId),
    /// A call to a named external routine (an import), e.g. `malloc`.
    External(ExternKind),
    /// An indirect call through an operand, e.g.
    /// `call dword ptr [_Xlength_error (073034h)]`.
    Indirect(Operand),
}

/// The class of an external routine, as resolved from the import table.
///
/// The feature encoding (Section III-B1) cares about heap allocation
/// (`F5`) and heap free (`F6`) routines; everything else is opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternKind {
    /// `malloc` / `operator new` style heap allocation.
    Malloc,
    /// `free` / `operator delete` style heap release.
    Free,
    /// `realloc`: both allocates and frees.
    Realloc,
    /// Any other external (`memcpy`, `_Xlength_error`, …).
    Other,
}

impl ExternKind {
    /// Returns `true` if the routine allocates heap memory.
    #[inline]
    pub fn allocates(self) -> bool {
        matches!(self, ExternKind::Malloc | ExternKind::Realloc)
    }

    /// Returns `true` if the routine frees heap memory.
    #[inline]
    pub fn frees(self) -> bool {
        matches!(self, ExternKind::Free | ExternKind::Realloc)
    }
}

/// The semantic form of an instruction in the paper's language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// `mov opr1, opr2`: moves a value from `opr2` to `opr1`.
    Mov {
        /// Destination operand.
        dst: Operand,
        /// Source operand.
        src: Operand,
    },
    /// `op⊕ opr1, opr2`: computes `opr1 ⊕ opr2` and stores it in `opr1`.
    Op {
        /// The arithmetic operator.
        op: BinOp,
        /// Destination (and left) operand.
        dst: Operand,
        /// Right operand.
        src: Operand,
    },
    /// `use ... oprk ...`: reads the operands without side effects
    /// (conditional jumps, `cmp`, `test`, …).
    Use {
        /// The operands read.
        oprs: Vec<Operand>,
    },
    /// `push opr`: pushes a value onto the call stack.
    Push {
        /// The value pushed.
        src: Operand,
    },
    /// `pop opr`: pops the top of the call stack into the operand.
    Pop {
        /// The destination.
        dst: Operand,
    },
    /// A call, modeled as push-return-address + jmp.
    Call {
        /// The callee.
        target: CallTarget,
    },
    /// A return, modeled as pop-return-address + jmp.
    Ret,
}

impl InstKind {
    /// The operands of the instruction, in (dst, src) order where applicable.
    /// Borrows the instruction: nothing is allocated, so the hot loops that
    /// ask every instruction they visit (the slicer's decay, discovery, the
    /// lints) pay no heap traffic for it.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (first, second, rest): (Option<Operand>, Option<Operand>, &[Operand]) = match self {
            InstKind::Mov { dst, src } | InstKind::Op { dst, src, .. } => {
                (Some(*dst), Some(*src), &[])
            }
            InstKind::Use { oprs } => (None, None, oprs),
            InstKind::Push { src: opr }
            | InstKind::Pop { dst: opr }
            | InstKind::Call { target: CallTarget::Indirect(opr) } => (Some(*opr), None, &[]),
            InstKind::Call { .. } | InstKind::Ret => (None, None, &[]),
        };
        first.into_iter().chain(second).chain(rest.iter().copied())
    }

    /// Returns `true` if any operand is an indirect memory access (`[loc]`);
    /// such instructions decay faith faster (Algorithm 1, line 5).
    pub fn uses_indirect_addressing(&self) -> bool {
        self.operands().any(|o| o.is_indirect())
    }

    /// Returns `true` for `push`/`pop` (including the implicit push/pop of
    /// `call`/`ret`), the middle decay tier of Algorithm 1.
    pub fn is_stack_op(&self) -> bool {
        matches!(
            self,
            InstKind::Push { .. } | InstKind::Pop { .. } | InstKind::Call { .. } | InstKind::Ret
        )
    }
}

/// One instruction of a binary program.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The virtual address of the instruction in the binary.
    pub addr: u64,
    /// The concrete x86 mnemonic (for feature `F2`).
    pub opcode: Opcode,
    /// The semantic form consumed by the slicer.
    pub kind: InstKind,
}

impl Inst {
    /// Creates an instruction.
    pub fn new(addr: u64, opcode: Opcode, kind: InstKind) -> Inst {
        Inst { addr, opcode, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn binop_apply_wraps() {
        assert_eq!(BinOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Sub.apply(3, 5), -2);
        assert_eq!(BinOp::Shl.apply(1, 4), 16);
        assert_eq!(BinOp::Shr.apply(16, 4), 1);
        assert_eq!(BinOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn extern_kind_classification() {
        assert!(ExternKind::Malloc.allocates());
        assert!(!ExternKind::Malloc.frees());
        assert!(ExternKind::Realloc.allocates() && ExternKind::Realloc.frees());
        assert!(!ExternKind::Other.allocates() && !ExternKind::Other.frees());
    }

    #[test]
    fn indirect_addressing_detection() {
        let direct = InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Ebx) };
        assert!(!direct.uses_indirect_addressing());
        let indirect =
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::mem_reg(Reg::Esi, 4) };
        assert!(indirect.uses_indirect_addressing());
    }

    #[test]
    fn stack_ops_include_call_ret() {
        assert!(InstKind::Push { src: Operand::reg(Reg::Eax) }.is_stack_op());
        assert!(InstKind::Ret.is_stack_op());
        assert!(!InstKind::Use { oprs: vec![] }.is_stack_op());
    }

    #[test]
    fn operand_lists() {
        let k = InstKind::Op {
            op: BinOp::Sub,
            dst: Operand::reg(Reg::Ebx),
            src: Operand::reg(Reg::Ecx),
        };
        assert_eq!(
            k.operands().collect::<Vec<_>>(),
            [Operand::reg(Reg::Ebx), Operand::reg(Reg::Ecx)]
        );
        let target = Operand::mem_abs(0x73034u64, 0);
        let call = InstKind::Call { target: CallTarget::Indirect(target) };
        assert_eq!(call.operands().collect::<Vec<_>>(), [target]);
        let oprs = vec![Operand::reg(Reg::Eax), Operand::imm(1), Operand::reg(Reg::Edx)];
        let use_ = InstKind::Use { oprs: oprs.clone() };
        assert_eq!(use_.operands().collect::<Vec<_>>(), oprs);
        assert_eq!(InstKind::Pop { dst: Operand::reg(Reg::Esi) }.operands().count(), 1);
        assert_eq!(InstKind::Ret.operands().count(), 0);
        assert_eq!(InstKind::Call { target: CallTarget::Direct(FuncId(0)) }.operands().count(), 0);
    }
}
