//! Shared register def/use extraction — the one place that knows which
//! registers an instruction reads and writes.
//!
//! Modeling choices (every consumer, the verifier's def-before-use pass
//! included, reads them from here, so all agree on the machine model):
//!
//! * `xor r, r` / `sub r, r` zero idioms define `r` without reading it;
//! * calls clobber (define) the x86 caller-saved set `eax`, `ecx`, `edx`
//!   and read only the registers their operand dereferences through —
//!   arguments travel on the stack in the generator's cdecl world;
//! * memory operands (both the `loc` and `[loc]` forms) read their base
//!   register; only plain register destinations count as register writes.

use tiara_ir::{BinOp, CallTarget, InstKind, Operand, Reg};

/// A compact set of the eight general-purpose registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(pub u8);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// A singleton set.
    pub fn of(r: Reg) -> RegSet {
        RegSet(1 << r.index())
    }

    /// Builds a set from a slice of registers.
    pub fn from_regs(regs: &[Reg]) -> RegSet {
        regs.iter().fold(RegSet::EMPTY, |s, &r| s.with(r))
    }

    /// This set plus `r`.
    pub fn with(self, r: Reg) -> RegSet {
        RegSet(self.0 | (1 << r.index()))
    }

    /// This set minus `r`.
    pub fn without(self, r: Reg) -> RegSet {
        RegSet(self.0 & !(1 << r.index()))
    }

    /// Membership test.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference.
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// `true` if no register is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the members in encoding order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl std::fmt::Display for RegSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, r) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// The registers an instruction reads and writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegEffects {
    /// Registers whose values the instruction may read.
    pub reads: RegSet,
    /// Registers the instruction defines.
    pub writes: RegSet,
}

fn operand_reads(o: Operand, reads: &mut RegSet) {
    match o {
        Operand::Imm(_) => {}
        Operand::Loc(loc) | Operand::Deref(loc) => {
            if let Some(r) = loc.base_reg() {
                *reads = reads.with(r);
            }
        }
    }
}

/// Computes the register reads and writes of one instruction.
pub fn reg_effects(kind: &InstKind) -> RegEffects {
    let mut e = RegEffects::default();
    match kind {
        InstKind::Mov { dst, src } => {
            operand_reads(*src, &mut e.reads);
            match dst.as_reg() {
                Some(r) => e.writes = e.writes.with(r),
                None => operand_reads(*dst, &mut e.reads),
            }
        }
        InstKind::Op { op, dst, src } => {
            let zeroing = matches!(op, BinOp::Xor | BinOp::Sub)
                && dst.as_reg().is_some()
                && dst.as_reg() == src.as_reg();
            if !zeroing {
                operand_reads(*src, &mut e.reads);
                operand_reads(*dst, &mut e.reads); // read-modify-write
            }
            if let Some(r) = dst.as_reg() {
                e.writes = e.writes.with(r);
            }
        }
        InstKind::Use { oprs } => {
            for o in oprs {
                operand_reads(*o, &mut e.reads);
            }
        }
        InstKind::Push { src } => operand_reads(*src, &mut e.reads),
        InstKind::Pop { dst } => match dst.as_reg() {
            Some(r) => e.writes = e.writes.with(r),
            None => operand_reads(*dst, &mut e.reads),
        },
        InstKind::Call { target } => {
            if let CallTarget::Indirect(o) = target {
                operand_reads(*o, &mut e.reads);
            }
            e.writes = RegSet::from_regs(&[Reg::Eax, Reg::Ecx, Reg::Edx]);
        }
        InstKind::Ret => {}
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regset_basics() {
        let s = RegSet::of(Reg::Eax).with(Reg::Esi);
        assert!(s.contains(Reg::Eax) && s.contains(Reg::Esi) && !s.contains(Reg::Ebx));
        assert_eq!(s.len(), 2);
        assert_eq!(s.without(Reg::Eax), RegSet::of(Reg::Esi));
        assert_eq!(s.to_string(), "{eax, esi}");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::Eax, Reg::Esi]);
    }

    #[test]
    fn mov_into_memory_reads_the_base() {
        let e = reg_effects(&InstKind::Mov {
            dst: Operand::mem_reg(Reg::Esi, 4),
            src: Operand::reg(Reg::Eax),
        });
        assert_eq!(e.reads, RegSet::of(Reg::Eax).with(Reg::Esi));
        assert!(e.writes.is_empty());
    }

    #[test]
    fn zero_idiom_writes_without_reading() {
        let e = reg_effects(&InstKind::Op {
            op: BinOp::Xor,
            dst: Operand::reg(Reg::Ecx),
            src: Operand::reg(Reg::Ecx),
        });
        assert!(e.reads.is_empty());
        assert_eq!(e.writes, RegSet::of(Reg::Ecx));
    }

    #[test]
    fn calls_clobber_the_caller_saved_set() {
        let e = reg_effects(&InstKind::Call {
            target: CallTarget::External(tiara_ir::ExternKind::Malloc),
        });
        assert_eq!(e.writes, RegSet::from_regs(&[Reg::Eax, Reg::Ecx, Reg::Edx]));
        assert!(e.reads.is_empty());
    }
}
