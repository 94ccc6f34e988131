//! Rule-firing traces, reproducing the "Rules" / "Faith" / "Dep" columns of
//! the paper's Figure 2(a) table.

use tiara_ir::InstId;

/// The inference rules of Figure 4 (plus the documented extensions this
/// implementation adds for instruction forms the figure leaves implicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RuleName {
    MovRv,
    MovRvKill,
    MovRiv,
    MovRivKill,
    MovRr,
    MovRi,
    MovRs,
    MovSr,
    MovRc,
    MovRcKill,
    MovRc1,
    MovFp,
    MovSp,
    MovDr,
    /// Store to the criterion's own global memory (`mov [v0+c], r`); the
    /// global analogue of `[Mov-dr]`, applied to `I16` in Figure 2.
    MovDv,
    OpRc,
    OpRc1,
    OpRr,
    OpRref,
    OpRi,
    OpRs,
    OpSr,
    /// Arithmetic reading the criterion's global memory (`op⊕ r, [v0+c]`);
    /// the `op⊕` analogue of `[Mov-riv]`.
    OpRiv,
    /// Arithmetic store through a dependent pointer (`op⊕ [r+c], …`);
    /// the `op⊕` analogue of `[Mov-dr]`.
    OpDr,
    /// Arithmetic store to the criterion's global memory.
    OpDv,
    StkPush,
    StkPop,
    UseDep,
}

impl RuleName {
    /// The paper's bracketed rule notation, e.g. `[Mov-riv]`.
    pub fn notation(self) -> &'static str {
        match self {
            RuleName::MovRv => "[Mov-rv]",
            RuleName::MovRvKill => "[Mov-rv-kill]",
            RuleName::MovRiv => "[Mov-riv]",
            RuleName::MovRivKill => "[Mov-riv-kill]",
            RuleName::MovRr => "[Mov-rr]",
            RuleName::MovRi => "[Mov-ri]",
            RuleName::MovRs => "[Mov-rs]",
            RuleName::MovSr => "[Mov-sr]",
            RuleName::MovRc => "[Mov-rc]",
            RuleName::MovRcKill => "[Mov-rc-kill]",
            RuleName::MovRc1 => "[Mov-rc-1]",
            RuleName::MovFp => "[Mov-fp]",
            RuleName::MovSp => "[Mov-sp]",
            RuleName::MovDr => "[Mov-dr]",
            RuleName::MovDv => "[Mov-dv]",
            RuleName::OpRc => "[Op-rc]",
            RuleName::OpRc1 => "[Op-rc-1]",
            RuleName::OpRr => "[Op-rr]",
            RuleName::OpRref => "[Op-rref]",
            RuleName::OpRi => "[Op-ri]",
            RuleName::OpRs => "[Op-rs]",
            RuleName::OpSr => "[Op-sr]",
            RuleName::OpRiv => "[Op-riv]",
            RuleName::OpDr => "[Op-dr]",
            RuleName::OpDv => "[Op-dv]",
            RuleName::StkPush => "[Stk-Push]",
            RuleName::StkPop => "[Stk-Pop]",
            RuleName::UseDep => "[Use-dep]",
        }
    }
}

impl std::fmt::Display for RuleName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.notation())
    }
}

/// One row of the Figure 2(a)-style trace: an analysis step on one
/// instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The instruction analyzed.
    pub inst: InstId,
    /// The rules that fired on this visit.
    pub rules: Vec<RuleName>,
    /// The faith `F(i)` after the visit.
    pub faith: f64,
    /// The dependence flag `D(i)` after the visit.
    pub dep: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_round_trips_through_display() {
        assert_eq!(RuleName::MovRiv.to_string(), "[Mov-riv]");
        assert_eq!(RuleName::StkPush.to_string(), "[Stk-Push]");
        assert_eq!(RuleName::UseDep.to_string(), "[Use-dep]");
    }
}
