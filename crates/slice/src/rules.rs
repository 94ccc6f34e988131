//! The transfer function of TSLICE: the inference rules of Figure 4.
//!
//! Each call updates `(V(i), S(i), D(i))` from `(V(pre), S(pre))` for one
//! instruction `i` (Algorithm 1, line 9). The register/stack state of `pre`
//! has already been joined into `i`'s state by the driver; the rules read
//! their premises from the *pre* state, as written in the figure.
//!
//! ## Documented deviations from the literal figure
//!
//! The figure's formal rules disagree with the paper's own worked example
//! (Figure 2) in two places; we follow the example:
//!
//! 1. **Arithmetic on `ref` values yields `(other, ∗)`.** `[Op-rc]` as
//!    printed maps `(t, c′)` to `(t, c′ ⊕ c)` for every tag, but the example
//!    (instruction `I14`, `inc ecx` with `ecx ↦ {(ref, 4)}`) produces
//!    `(other, ∗)`: adding to a *loaded* value is not a new field reference.
//!    We fold constants, shift `ptr` offsets for `+`/`-`, and map `ref` to
//!    `(other, ∗)`.
//! 2. **`[Op-rref]` does not require `r1` to already hold a dependence.**
//!    The example's `I9` (`sub ebx, ecx` with `ebx` unknown and
//!    `ecx ↦ {(ref, 4)}`) records `ebx ↦ {(other, ∗)}`, which the printed
//!    premise `(t, c) ∈ V(i)(r1), t ≠ const` would forbid.
//!
//! Additionally, the figure abstracts the stack as unit-stride and
//! upward-growing (`push` stores at `s` and sets `sp ← s + 1`), with `pop`
//! reading `S(s)` — one slot past the top it just wrote. We use byte-accurate
//! x86 semantics instead: `push` stores at `s − 4` and sets `sp ← s − 4`;
//! `pop` reads `S(s)` (the true top) and sets `sp ← s + 4`. This is required
//! for the inter-procedural flow the paper relies on — a callee's
//! `mov r, [ebp+8]` must land exactly on the caller's pushed argument slot.

use crate::criterion::Criterion;
use crate::state::InstState;
use crate::trace::RuleName;
use crate::value::{AbsValue, ValueSet};
use crate::TsliceConfig;
use std::borrow::Cow;
use tiara_ir::{Addr, BinOp, FuncId, Inst, InstKind, Loc, Operand, Reg};

/// The outcome of one transfer-function application.
#[derive(Debug, Default)]
pub struct Transfer {
    /// Whether `(V(i), S(i), D(i))` changed (Algorithm 1, line 11).
    pub changed: bool,
}

/// Evaluates a *source* operand to the abstract value set it supplies,
/// without mutating any state. Shared by `mov`, `push`, and the store rules.
///
/// Returns the delta set, whether evaluating the operand *itself* touches the
/// criterion (a direct `v0` access), and the indirection level of that touch.
/// Register and stack-slot reads — the hot `[Mov-rr]` / `[Mov-rs]` cases —
/// borrow straight from the pre-state instead of cloning.
fn eval_src<'a>(
    src: Operand,
    pre: &'a InstState,
    crit: &Criterion,
    func: FuncId,
    fired: &mut Vec<RuleName>,
) -> (Cow<'a, ValueSet>, bool, u8) {
    match src {
        Operand::Imm(c) => {
            fired.push(RuleName::MovRc);
            (Cow::Owned(ValueSet::singleton(AbsValue::Const(c))), false, 0)
        }
        Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 }) => {
            fired.push(RuleName::MovRr);
            (Cow::Borrowed(pre.reg(r)), false, 0)
        }
        Operand::Loc(Loc { base: Addr::Reg(r), offset }) => {
            // lea-style address of a frame slot.
            if r.is_pointer_reg() {
                if let Some(rel) = crit.match_stack(func, offset) {
                    fired.push(RuleName::MovRv);
                    return (Cow::Owned(ValueSet::singleton(AbsValue::Ptr(rel))), true, 0);
                }
            }
            (Cow::Owned(ValueSet::new()), false, 0)
        }
        Operand::Loc(Loc { base: Addr::Mem(m), offset }) => {
            // `offset m`: the address of a global.
            if let Some(rel) = crit.match_mem(m, offset) {
                fired.push(RuleName::MovRv);
                (Cow::Owned(ValueSet::singleton(AbsValue::Ptr(rel))), true, 0)
            } else {
                (Cow::Owned(ValueSet::new()), false, 0)
            }
        }
        Operand::Deref(Loc { base: Addr::Mem(m), offset }) => {
            if let Some(rel) = crit.match_mem(m, offset) {
                fired.push(RuleName::MovRiv);
                (Cow::Owned(ValueSet::singleton(AbsValue::Ref(rel))), true, 1)
            } else {
                (Cow::Owned(ValueSet::new()), false, 0)
            }
        }
        Operand::Deref(Loc { base: Addr::Reg(r), offset }) => {
            if r.is_pointer_reg() {
                // Frame slot read: the criterion's own slot, else `S`.
                if let Some(rel) = crit.match_stack(func, offset) {
                    fired.push(RuleName::MovRiv);
                    return (Cow::Owned(ValueSet::singleton(AbsValue::Ref(rel))), true, 1);
                }
                if let Some(n) = pre.reg(r).singleton_const() {
                    fired.push(RuleName::MovRs);
                    return (Cow::Borrowed(pre.stack_slot_or_empty(n + offset)), false, 0);
                }
                (Cow::Owned(ValueSet::new()), false, 0)
            } else {
                // [Mov-ri]: loads through a tracked register.
                let mut delta = ValueSet::new();
                for v in pre.reg(r).iter() {
                    match v {
                        AbsValue::Ptr(c2) => {
                            delta.insert(AbsValue::Ref(c2 + offset));
                        }
                        AbsValue::Ref(_) => {
                            delta.insert(AbsValue::Other);
                        }
                        // (other, ∗) is deliberately not propagated through
                        // loads, to keep the slice small (Section II-A).
                        AbsValue::Other | AbsValue::Const(_) => {}
                    }
                }
                if !delta.is_empty() {
                    fired.push(RuleName::MovRi);
                }
                (Cow::Owned(delta), false, 0)
            }
        }
    }
}

/// Applies `⊕` to an abstract value and a constant, per deviation (1) above.
fn apply_const(op: BinOp, v: AbsValue, c: i64, const_on_left: bool) -> Option<AbsValue> {
    match v {
        AbsValue::Const(c0) => {
            let (a, b) = if const_on_left { (c, c0) } else { (c0, c) };
            Some(AbsValue::Const(op.apply(a, b)))
        }
        AbsValue::Ptr(c0) if matches!(op, BinOp::Add) => Some(AbsValue::Ptr(c0.wrapping_add(c))),
        AbsValue::Ptr(c0) if matches!(op, BinOp::Sub) && !const_on_left => {
            Some(AbsValue::Ptr(c0.wrapping_sub(c)))
        }
        AbsValue::Ptr(_) | AbsValue::Ref(_) | AbsValue::Other => Some(AbsValue::Other),
    }
}

/// Applies the Figure 4 rules for instruction `inst` to `cur`, reading
/// premises from `pre`. `func` is the function containing the instruction
/// (used to scope frame-slot criteria). Fired rule names are appended to
/// `fired` when `cfg.trace` is set. Returns whether `(V(i), S(i), D(i))`
/// changed.
#[allow(clippy::too_many_arguments)]
pub fn transfer(
    inst: &Inst,
    pre: &InstState,
    cur: &mut InstState,
    crit: &Criterion,
    func: FuncId,
    ret_addr: Option<i64>,
    cfg: &TsliceConfig,
    fired: &mut Vec<RuleName>,
) -> bool {
    let mut t = Transfer::default();
    match &inst.kind {
        InstKind::Mov { dst, src } => {
            transfer_mov(*dst, *src, pre, cur, crit, func, cfg, fired, &mut t)
        }
        InstKind::Op { op, dst, src } => {
            transfer_op(*op, *dst, *src, pre, cur, crit, func, fired, &mut t)
        }
        InstKind::Use { oprs } => transfer_use(oprs, pre, cur, crit, func, fired, &mut t),
        InstKind::Push { src } => transfer_push(*src, pre, cur, crit, func, fired, &mut t),
        InstKind::Pop { dst } => transfer_pop(*dst, pre, cur, fired, &mut t),
        InstKind::Call { target } => transfer_call(target, pre, cur, ret_addr, fired, &mut t),
        InstKind::Ret => transfer_ret(pre, cur, fired, &mut t),
    }
    t.changed
}

#[allow(clippy::too_many_arguments)]
fn transfer_mov(
    dst: Operand,
    src: Operand,
    pre: &InstState,
    cur: &mut InstState,
    crit: &Criterion,
    func: FuncId,
    cfg: &TsliceConfig,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    match dst {
        // ---- destination is a register ----
        Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 }) if r.is_pointer_reg() => {
            // [Mov-rc-1] / [Mov-fp] / [Mov-sp]: always strong updates.
            match src {
                Operand::Imm(c) => {
                    fired.push(RuleName::MovRc1);
                    t.changed |= cur.reg_assign(r, ValueSet::singleton(AbsValue::Const(c)));
                }
                Operand::Loc(Loc { base: Addr::Reg(s), offset: 0 }) if s.is_pointer_reg() => {
                    fired.push(if r.is_frame() { RuleName::MovFp } else { RuleName::MovSp });
                    let vs = match pre.reg(s).singleton_const() {
                        Some(n) => ValueSet::singleton(AbsValue::Const(n)),
                        None => ValueSet::new(),
                    };
                    t.changed |= cur.reg_assign(r, vs);
                }
                _ => {
                    // fp/sp loaded from elsewhere: tracking is lost.
                    t.changed |= cur.reg_assign(r, ValueSet::new());
                }
            }
        }
        Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 }) => {
            // General register destination.
            match src {
                Operand::Loc(Loc { base: Addr::Reg(r2), offset }) if offset != 0 => {
                    // lea r, [r2+c].
                    let (delta, direct, lvl) = eval_src(src, pre, crit, func, fired);
                    if direct {
                        t.changed |= cur.reg_union(r, &delta);
                        t.changed |= cur.mark_dep(lvl);
                    } else if cfg.lea_tracks_pointer_arith && !r2.is_pointer_reg() {
                        let mut d = ValueSet::new();
                        for v in pre.reg(r2).iter() {
                            if let AbsValue::Ptr(c2) = v {
                                d.insert(AbsValue::Ptr(c2 + offset));
                            }
                        }
                        if d.is_empty() {
                            fired.push(RuleName::MovRivKill);
                            t.changed |= cur.reg_assign(r, ValueSet::new());
                        } else {
                            fired.push(RuleName::MovRi);
                            t.changed |= cur.reg_union(r, &d);
                            t.changed |= cur.mark_dep(0);
                        }
                    } else {
                        // The paper kills on address computations it does not
                        // track (Figure 2, I1/I20).
                        fired.push(RuleName::MovRivKill);
                        t.changed |= cur.reg_assign(r, ValueSet::new());
                    }
                }
                Operand::Loc(Loc { base: Addr::Mem(_), .. }) => {
                    let (delta, direct, lvl) = eval_src(src, pre, crit, func, fired);
                    if direct {
                        // [Mov-rv].
                        t.changed |= cur.reg_union(r, &delta);
                        t.changed |= cur.mark_dep(lvl);
                    } else {
                        // [Mov-rv-kill].
                        fired.push(RuleName::MovRvKill);
                        t.changed |= cur.reg_assign(r, ValueSet::new());
                    }
                }
                Operand::Deref(Loc { base: Addr::Mem(_), .. }) => {
                    let (delta, direct, lvl) = eval_src(src, pre, crit, func, fired);
                    if direct {
                        // [Mov-riv].
                        t.changed |= cur.reg_union(r, &delta);
                        t.changed |= cur.mark_dep(lvl);
                    } else {
                        // [Mov-riv-kill].
                        fired.push(RuleName::MovRivKill);
                        t.changed |= cur.reg_assign(r, ValueSet::new());
                    }
                }
                _ => {
                    // [Mov-rr] / [Mov-ri] / [Mov-rs] / [Mov-rc] — all weak.
                    let (delta, direct, lvl) = eval_src(src, pre, crit, func, fired);
                    t.changed |= cur.reg_union(r, &delta);
                    if direct {
                        t.changed |= cur.mark_dep(lvl);
                    } else if delta.has_dep() {
                        let lvl = delta.max_dep_level().unwrap_or(0);
                        t.changed |= cur.mark_dep(lvl);
                    }
                }
            }
        }
        // ---- destination is a frame slot ----
        Operand::Deref(Loc { base: Addr::Reg(rd), offset }) if rd.is_pointer_reg() => {
            let (delta, direct, _) = eval_src(src, pre, crit, func, fired);
            if let Some(_rel) = crit.match_stack(func, offset) {
                // Writing the criterion's own slot is a use of v0.
                fired.push(RuleName::MovSr);
                t.changed |= cur.mark_dep(0);
            } else if let Some(n) = pre.reg(rd).singleton_const() {
                // [Mov-sr].
                fired.push(RuleName::MovSr);
                t.changed |= cur.stack_union(n + offset, &delta);
            }
            if direct || delta.has_dep() {
                t.changed |= cur.mark_dep(delta.max_dep_level().unwrap_or(0));
            }
        }
        // ---- destination is memory through a register ----
        Operand::Deref(Loc { base: Addr::Reg(rd), .. }) => {
            // [Mov-dr]: writing through a v0-dependent address. Only the
            // destination register matters — the paper deliberately excludes
            // stores of dependent values through unrelated pointers (its
            // Figure 2 marks I19 `mov [eax], edx` independent even though
            // `edx` carries a v0-derived value).
            let base = pre.reg(rd);
            if base.has_dep() {
                fired.push(RuleName::MovDr);
                let lvl = base.max_dep_level().unwrap_or(0).saturating_add(1).min(3);
                t.changed |= cur.mark_dep(lvl);
            }
            // The source may still witness a *direct* v0 access.
            let (_, direct, lvl) = eval_src(src, pre, crit, func, fired);
            if direct {
                t.changed |= cur.mark_dep(lvl);
            }
        }
        // ---- destination is absolute memory ----
        Operand::Deref(Loc { base: Addr::Mem(m), offset }) => {
            if crit.match_mem(m, offset).is_some() {
                // [Mov-dv]: store into v0's own memory (Figure 2, I16).
                fired.push(RuleName::MovDv);
                t.changed |= cur.mark_dep(1);
            }
            let (_, direct, lvl) = eval_src(src, pre, crit, func, fired);
            if direct {
                t.changed |= cur.mark_dep(lvl);
            }
        }
        // A constant destination is malformed; ignore.
        Operand::Imm(_) | Operand::Loc(_) => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn transfer_op(
    op: BinOp,
    dst: Operand,
    src: Operand,
    pre: &InstState,
    cur: &mut InstState,
    crit: &Criterion,
    func: FuncId,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    match dst {
        Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 }) if r.is_pointer_reg() => {
            // [Op-rc-1]: strong update of fp/sp arithmetic.
            match (src, pre.reg(r).singleton_const()) {
                (Operand::Imm(c), Some(n)) => {
                    fired.push(RuleName::OpRc1);
                    t.changed |=
                        cur.reg_assign(r, ValueSet::singleton(AbsValue::Const(op.apply(n, c))));
                }
                _ => {
                    t.changed |= cur.reg_assign(r, ValueSet::new());
                }
            }
        }
        Operand::Loc(Loc { base: Addr::Reg(r1), offset: 0 }) => match src {
            Operand::Imm(c) => {
                // [Op-rc].
                let mut delta = ValueSet::new();
                for v in pre.reg(r1).iter() {
                    if let Some(nv) = apply_const(op, v, c, false) {
                        delta.insert(nv);
                    }
                }
                if !delta.is_empty() {
                    fired.push(RuleName::OpRc);
                }
                t.changed |= cur.reg_union(r1, &delta);
                if pre.reg(r1).has_dep() {
                    let lvl = pre.reg(r1).max_dep_level().unwrap_or(0).saturating_add(1).min(2);
                    t.changed |= cur.mark_dep(lvl);
                }
            }
            Operand::Loc(Loc { base: Addr::Reg(r2), offset: 0 }) => {
                // [Op-rr] + [Op-rref].
                let mut delta = ValueSet::new();
                for v1 in pre.reg(r1).iter() {
                    if let AbsValue::Const(c) = v1 {
                        for v2 in pre.reg(r2).iter() {
                            if let Some(nv) = apply_const(op, v2, c, true) {
                                delta.insert(nv);
                            }
                        }
                    }
                }
                for v2 in pre.reg(r2).iter() {
                    if let AbsValue::Const(c2) = v2 {
                        for v1 in pre.reg(r1).iter() {
                            if let Some(nv) = apply_const(op, v1, c2, false) {
                                delta.insert(nv);
                            }
                        }
                    }
                }
                if !delta.is_empty() {
                    fired.push(RuleName::OpRr);
                }
                // [Op-rref] (amended per the module docs): a ref/other in r2
                // makes r1 unknown-but-dependent.
                if pre.reg(r2).iter().any(|v| matches!(v, AbsValue::Ref(_) | AbsValue::Other)) {
                    fired.push(RuleName::OpRref);
                    delta.insert(AbsValue::Other);
                }
                t.changed |= cur.reg_union(r1, &delta);
                if pre.reg(r2).has_dep() {
                    let lvl = pre.reg(r2).max_dep_level().unwrap_or(0).saturating_add(1).min(2);
                    t.changed |= cur.mark_dep(lvl);
                }
            }
            Operand::Deref(Loc { base: Addr::Reg(r2), offset }) => {
                if r2.is_pointer_reg() {
                    if crit.match_stack(func, offset).is_some() {
                        // op⊕ r, [v0-slot]: arithmetic on the variable.
                        fired.push(RuleName::OpRs);
                        t.changed |= cur.reg_union(r1, &ValueSet::singleton(AbsValue::Other));
                        t.changed |= cur.mark_dep(1);
                    } else if let Some(n) = pre.reg(r2).singleton_const() {
                        // [Op-rs].
                        let slot = pre.stack_slot_or_empty(n + offset);
                        if slot.iter().any(|v| v.is_dep()) {
                            fired.push(RuleName::OpRs);
                            t.changed |= cur.reg_union(r1, &ValueSet::singleton(AbsValue::Other));
                            let lvl = slot.max_dep_level().unwrap_or(0).saturating_add(1).min(2);
                            t.changed |= cur.mark_dep(lvl);
                        }
                    }
                } else {
                    // [Op-ri].
                    if pre.reg(r2).iter().any(|v| matches!(v, AbsValue::Ptr(_))) {
                        fired.push(RuleName::OpRi);
                        t.changed |= cur.reg_union(r1, &ValueSet::singleton(AbsValue::Other));
                    }
                    if pre.reg(r2).has_dep() {
                        let lvl = pre.reg(r2).max_dep_level().unwrap_or(0).saturating_add(1).min(2);
                        t.changed |= cur.mark_dep(lvl);
                    }
                }
            }
            Operand::Deref(Loc { base: Addr::Mem(m), offset })
                // [Op-riv] extension: arithmetic on a loaded v0 field.
                if crit.match_mem(m, offset).is_some() => {
                    fired.push(RuleName::OpRiv);
                    t.changed |= cur.reg_union(r1, &ValueSet::singleton(AbsValue::Other));
                    t.changed |= cur.mark_dep(1);
                }
            _ => {}
        },
        Operand::Deref(Loc { base: Addr::Reg(rd), offset }) if rd.is_pointer_reg() => {
            // [Op-sr].
            if crit.match_stack(func, offset).is_some() {
                fired.push(RuleName::OpSr);
                t.changed |= cur.mark_dep(1);
            } else if let Some(n) = pre.reg(rd).singleton_const() {
                let delta = match src {
                    Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 }) => {
                        if pre.reg(r).iter().any(|v| v.is_dep()) {
                            if pre.reg(r).has_dep() {
                                let lvl = pre
                                    .reg(r)
                                    .max_dep_level()
                                    .unwrap_or(0)
                                    .saturating_add(1)
                                    .min(2);
                                t.changed |= cur.mark_dep(lvl);
                            }
                            ValueSet::singleton(AbsValue::Other)
                        } else {
                            ValueSet::new()
                        }
                    }
                    Operand::Imm(_) => {
                        // Read-modify-write of a slot by a constant: a
                        // dependent slot stays dependent but loses precision.
                        let slot = pre.stack_slot_or_empty(n + offset);
                        if slot.has_dep() {
                            t.changed |= cur.mark_dep(slot.max_dep_level().unwrap_or(0));
                            ValueSet::singleton(AbsValue::Other)
                        } else {
                            ValueSet::new()
                        }
                    }
                    _ => ValueSet::new(),
                };
                if !delta.is_empty() {
                    fired.push(RuleName::OpSr);
                    t.changed |= cur.stack_union(n + offset, &delta);
                }
            }
        }
        Operand::Deref(Loc { base: Addr::Reg(rd), .. }) => {
            // [Op-dr] extension: arithmetic store through a dependent pointer.
            if pre.reg(rd).has_dep() {
                fired.push(RuleName::OpDr);
                let lvl = pre.reg(rd).max_dep_level().unwrap_or(0).saturating_add(1).min(3);
                t.changed |= cur.mark_dep(lvl);
            }
        }
        Operand::Deref(Loc { base: Addr::Mem(m), offset }) => {
            // [Op-dv] extension: arithmetic on v0's own memory.
            if crit.match_mem(m, offset).is_some() {
                fired.push(RuleName::OpDv);
                t.changed |= cur.mark_dep(1);
            }
        }
        Operand::Imm(_) | Operand::Loc(_) => {}
    }
}

fn transfer_use(
    oprs: &[Operand],
    pre: &InstState,
    cur: &mut InstState,
    crit: &Criterion,
    func: FuncId,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    let mut dep = false;
    let mut level = 0u8;
    for &opr in oprs {
        match opr {
            Operand::Loc(Loc { base: Addr::Reg(r), offset: 0 })
                if !r.is_pointer_reg()
                // oprk = r: check the register's values (note: V(i), i.e. the
                // merged current state, per the figure).
                && cur.reg(r).has_dep() =>
            {
                dep = true;
                level = level.max(cur.reg(r).max_dep_level().unwrap_or(0));
            }
            Operand::Deref(Loc { base: Addr::Reg(r), offset }) => {
                if r.is_pointer_reg() {
                    if crit.match_stack(func, offset).is_some() {
                        dep = true;
                        level = level.max(1);
                    } else if let Some(n) = pre.reg(r).singleton_const() {
                        let slot = cur.stack_slot_or_empty(n + offset);
                        if slot.has_dep() {
                            dep = true;
                            level = level.max(slot.max_dep_level().unwrap_or(0));
                        }
                    }
                } else if cur.reg(r).has_dep() {
                    // oprk = [r+c]: the figure checks the register.
                    dep = true;
                    level =
                        level.max(cur.reg(r).max_dep_level().unwrap_or(0).saturating_add(1).min(2));
                }
            }
            Operand::Deref(Loc { base: Addr::Mem(m), offset })
                if crit.match_mem(m, offset).is_some() =>
            {
                dep = true;
                level = level.max(1);
            }
            Operand::Loc(Loc { base: Addr::Mem(m), offset })
                if crit.match_mem(m, offset).is_some() =>
            {
                dep = true;
            }
            _ => {}
        }
    }
    if dep {
        fired.push(RuleName::UseDep);
        t.changed |= cur.mark_dep(level);
    }
}

fn transfer_push(
    src: Operand,
    pre: &InstState,
    cur: &mut InstState,
    crit: &Criterion,
    func: FuncId,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    let (delta, direct, lvl) = eval_src(src, pre, crit, func, fired);
    fired.push(RuleName::StkPush);
    if direct {
        t.changed |= cur.mark_dep(lvl);
    } else if delta.has_dep() {
        t.changed |= cur.mark_dep(delta.max_dep_level().unwrap_or(0));
    }
    if let Some(s) = pre.reg(Reg::Esp).singleton_const() {
        // A push definitely overwrites its slot: strong update, so stale
        // argument values from earlier calls at the same depth cannot leak
        // into later callees.
        t.changed |= cur.stack_assign(s - 4, delta.into_owned());
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s - 4)));
    } else {
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::new());
    }
}

fn transfer_pop(
    dst: Operand,
    pre: &InstState,
    cur: &mut InstState,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    fired.push(RuleName::StkPop);
    if let Some(s) = pre.reg(Reg::Esp).singleton_const() {
        // Read the top of stack (see the module docs) and shrink the stack.
        let delta = pre.stack_slot_or_empty(s);
        if let Some(r) = dst.as_reg() {
            if !r.is_pointer_reg() {
                t.changed |= cur.reg_union(r, delta);
            } else if r.is_frame() {
                // `pop ebp` restores the saved frame pointer: if the saved
                // value is a tracked constant, frame addressing resumes.
                let restored = match delta.singleton_const() {
                    Some(n) => ValueSet::singleton(AbsValue::Const(n)),
                    None => ValueSet::new(),
                };
                t.changed |= cur.reg_assign(r, restored);
            } else {
                t.changed |= cur.reg_assign(r, ValueSet::new());
            }
        }
        if delta.has_dep() {
            t.changed |= cur.mark_dep(delta.max_dep_level().unwrap_or(0));
        }
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s + 4)));
    } else {
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::new());
    }
}

fn transfer_call(
    target: &tiara_ir::CallTarget,
    pre: &InstState,
    cur: &mut InstState,
    ret_addr: Option<i64>,
    fired: &mut Vec<RuleName>,
    t: &mut Transfer,
) {
    use tiara_ir::CallTarget;
    fired.push(RuleName::StkPush);
    // A call passing v0-dependent arguments is itself dependent (the paper's
    // Figure 2 marks I6 `call _Buynode` with Dep = T): inspect the cdecl
    // argument slots just above the stack pointer.
    if let Some(s) = pre.reg(Reg::Esp).singleton_const() {
        let mut lvl = None;
        for k in 0..3 {
            let slot = pre.stack_slot_or_empty(s + 4 * k);
            if let Some(l) = slot.max_dep_level() {
                lvl = Some(lvl.map_or(l, |p: u8| p.max(l)));
            }
        }
        if let Some(l) = lvl {
            t.changed |= cur.mark_dep(l);
        }
    }
    match target {
        CallTarget::Direct(_) => {
            // Push the return address (a constant) and transfer to the callee;
            // the callee's `ret` pops it.
            if let Some(s) = pre.reg(Reg::Esp).singleton_const() {
                if let Some(ra) = ret_addr {
                    t.changed |= cur.stack_assign(s - 4, ValueSet::singleton(AbsValue::Const(ra)));
                }
                t.changed |= cur.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s - 4)));
            }
        }
        CallTarget::External(_) | CallTarget::Indirect(_) => {
            // The callee body is opaque: its `ret` rebalances `sp`, and the
            // cdecl caller-save registers come back clobbered.
            t.changed |= cur.reg_assign(Reg::Eax, ValueSet::new());
            t.changed |= cur.reg_assign(Reg::Ecx, ValueSet::new());
            t.changed |= cur.reg_assign(Reg::Edx, ValueSet::new());
        }
    }
}

fn transfer_ret(pre: &InstState, cur: &mut InstState, fired: &mut Vec<RuleName>, t: &mut Transfer) {
    fired.push(RuleName::StkPop);
    if let Some(s) = pre.reg(Reg::Esp).singleton_const() {
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s + 4)));
    } else {
        t.changed |= cur.reg_assign(Reg::Esp, ValueSet::new());
    }
}
