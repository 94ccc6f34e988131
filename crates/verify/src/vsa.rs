//! VSA-backed lint passes.
//!
//! Four passes consume the value-set analysis of [`tiara_dataflow::vsa`]:
//!
//! * `vsa-out-of-frame` — a memory access whose abstract address is a
//!   provable frame slot must stay inside the live frame: below the current
//!   stack pointer is an error (the slot can be clobbered by any push or
//!   call), implausibly far above the return-address slot is a warning.
//! * `vsa-esp-balance` — at every `ret` the stack pointer must provably sit
//!   back at the return-address slot (`Frame(f) + 0`). A provably different
//!   singleton is an error; a value VSA cannot pin down is a warning. This
//!   subsumes the push/pop depth counting of `stack-balance` for code that
//!   moves `esp` through registers.
//! * `vsa-overlap` — two provable frame-slot accesses of the same function
//!   whose offsets are distinct but closer than a machine word overlap;
//!   that is legal x86 but almost always a generator or slicer-model bug,
//!   so it warns.
//! * `vsa-soundness` — an executable oracle for the analysis itself: every
//!   straight-line (single-basic-block) function is run on a tiny concrete
//!   machine, and every concrete memory-operand address must be a member of
//!   the abstract value set VSA computed for that operand. A miss is an
//!   error — it means the abstract transfer lost a concrete behavior, which
//!   would silently poison discovery and the slicer's must-alias kills.
//!
//! The oracle deliberately mirrors VSA's call model (callee clobbers
//! general registers, allocation sites return fresh heap pointers) and uses
//! fixed, documented constants for everything VSA treats as ⊤, so a clean
//! run is reproducible bit for bit.

use crate::{Diagnostic, PassId};
use std::collections::HashMap;
use tiara_dataflow::vsa::{vsa_function, Region, VsaResult, Vsv};
use tiara_ir::{FuncId, InstId, InstKind, Loc, Operand, Program, Reg};

/// Frame-slot accesses above `entry esp + frame allocation + ARG_WINDOW`
/// draw a warning: no generated calling convention passes arguments deeper
/// than this past the slots the function explicitly reserved. (The
/// generator addresses locals at *positive* `ebp` offsets — the paper's `v`
/// lives at `[ebp+8]` — so the plausible ceiling scales with the `sub esp`
/// allocation rather than being a fixed argument window.)
const ARG_WINDOW: i64 = 0x48;

/// Concrete entry `esp` of the oracle machine.
const ESP0: i64 = 0x7000_0000;

/// Concrete addresses within `ESP0 ± FRAME_SPAN` classify as frame slots.
const FRAME_SPAN: i64 = 1 << 20;

/// Base of the oracle's heap; allocation site `k` gets the block
/// `HEAP0 + k·HEAP_BLOCK`.
const HEAP0: i64 = 0x6000_0000;

/// Size of one oracle heap block.
const HEAP_BLOCK: i64 = 0x1000;

/// Value of a never-written oracle memory cell (also the post-call clobber
/// seed); classifies as a global, far from stack and heap.
const FILL: i64 = 0x0090_0000;

/// Initial value of the oracle's `ebp` (VSA models it as ⊤ at entry).
const EBP0: i64 = 0x5000_0000;

pub(crate) fn run(prog: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in prog.funcs() {
        let res = vsa_function(prog, f.id);
        check_frame_accesses(prog, &res, &mut diags);
        check_esp_balance(prog, &res, &mut diags);
        check_soundness(prog, &res, &mut diags);
    }
    diags
}

/// Total bytes the function explicitly reserves with `sub esp, imm`.
fn frame_alloc(prog: &Program, func: FuncId) -> i64 {
    prog.func(func)
        .inst_ids()
        .filter_map(|id| match &prog.inst(id).kind {
            InstKind::Op { op: tiara_ir::BinOp::Sub, dst, src: Operand::Imm(c) }
                if dst.as_reg() == Some(Reg::Esp) =>
            {
                Some(*c)
            }
            _ => None,
        })
        .sum()
}

/// `vsa-out-of-frame` and `vsa-overlap` over one function's resolved
/// memory operands.
fn check_frame_accesses(prog: &Program, res: &VsaResult, diags: &mut Vec<Diagnostic>) {
    let frame = Region::Frame(res.func);
    let ceiling = frame_alloc(prog, res.func) + ARG_WINDOW;
    let mut slots: Vec<(i64, InstId)> = Vec::new();
    for op in res.mem_ops(prog) {
        let Some(off) = op.addr.singleton_in(frame) else { continue };
        slots.push((off, op.inst));
        if let Some(esp) = op.esp.singleton_in(frame) {
            if off < esp {
                diags.push(
                    Diagnostic::error(
                        PassId::VsaOutOfFrame,
                        format!(
                            "access to frame slot {off:#x} below the stack pointer ({esp:#x}) \
                             in `{}`",
                            prog.func(res.func).name
                        ),
                    )
                    .in_func(res.func)
                    .at(op.inst),
                );
            }
        }
        if off > ceiling {
            diags.push(
                Diagnostic::warning(
                    PassId::VsaOutOfFrame,
                    format!(
                        "access to frame slot {off:#x} implausibly far above the frame of `{}`",
                        prog.func(res.func).name
                    ),
                )
                .in_func(res.func)
                .at(op.inst),
            );
        }
    }
    slots.sort_unstable();
    slots.dedup_by_key(|(off, _)| *off);
    for w in slots.windows(2) {
        let ((a, _), (b, id)) = (w[0], w[1]);
        if b - a < 4 {
            diags.push(
                Diagnostic::warning(
                    PassId::VsaOverlap,
                    format!(
                        "frame slots {a:#x} and {b:#x} of `{}` overlap within one word",
                        prog.func(res.func).name
                    ),
                )
                .in_func(res.func)
                .at(id),
            );
            break; // one finding per function is enough to flag it
        }
    }
}

/// `vsa-esp-balance`: at each reached `ret`, `esp` must provably be back at
/// the return-address slot.
fn check_esp_balance(prog: &Program, res: &VsaResult, diags: &mut Vec<Diagnostic>) {
    let frame = Region::Frame(res.func);
    res.walk(prog, |id, fact| {
        if !matches!(prog.inst(id).kind, InstKind::Ret) {
            return;
        }
        match fact.reg(Reg::Esp).singleton_in(frame) {
            Some(0) => {}
            Some(off) => diags.push(
                Diagnostic::error(
                    PassId::VsaEspBalance,
                    format!(
                        "`{}` returns with esp at frame offset {off:#x} instead of the \
                         return-address slot",
                        prog.func(res.func).name
                    ),
                )
                .in_func(res.func)
                .at(id),
            ),
            None => diags.push(
                Diagnostic::warning(
                    PassId::VsaEspBalance,
                    format!(
                        "cannot prove esp is balanced at this `ret` of `{}` (value set: {})",
                        prog.func(res.func).name,
                        fact.reg(Reg::Esp)
                    ),
                )
                .in_func(res.func)
                .at(id),
            ),
        }
    });
}

/// The oracle's concrete machine: eight registers and a sparse memory.
struct Machine {
    regs: [i64; 8],
    mem: HashMap<i64, i64>,
    /// Allocation sites in first-execution order; the index fixes the
    /// concrete block address.
    sites: Vec<InstId>,
}

impl Machine {
    fn new() -> Machine {
        let mut regs = [0i64; 8];
        for (i, r) in Reg::ALL.iter().enumerate() {
            // Distinct, deterministic junk for every general register.
            regs[r.index()] = FILL + (i as i64 + 1) * 0x100;
        }
        regs[Reg::Esp.index()] = ESP0;
        regs[Reg::Ebp.index()] = EBP0;
        Machine { regs, mem: HashMap::new(), sites: Vec::new() }
    }

    fn read(&self, addr: i64) -> i64 {
        *self.mem.get(&addr).unwrap_or(&FILL)
    }

    fn loc_addr(&self, loc: Loc) -> i64 {
        match loc.base {
            tiara_ir::Addr::Reg(r) => self.regs[r.index()].wrapping_add(loc.offset),
            tiara_ir::Addr::Mem(m) => (m.value() as i64).wrapping_add(loc.offset),
        }
    }

    /// Classifies a concrete address into the abstract region model.
    fn classify(&self, func: FuncId, addr: i64) -> (Region, i64) {
        if (ESP0 - FRAME_SPAN..ESP0 + FRAME_SPAN).contains(&addr) {
            return (Region::Frame(func), addr - ESP0);
        }
        let heap_end = HEAP0 + self.sites.len() as i64 * HEAP_BLOCK;
        if (HEAP0..heap_end).contains(&addr) {
            let k = (addr - HEAP0) / HEAP_BLOCK;
            return (Region::Heap(self.sites[k as usize]), addr - HEAP0 - k * HEAP_BLOCK);
        }
        (Region::Global, addr)
    }
}

/// `vsa-soundness`: concretely executes every single-basic-block function
/// and checks each observed memory-operand address against the abstract
/// value set at that point.
fn check_soundness(prog: &Program, res: &VsaResult, diags: &mut Vec<Diagnostic>) {
    if res.cfg().num_blocks() != 1 {
        return;
    }
    let mut m = Machine::new();
    // The one block is the entry, so the walk visits every instruction.
    res.walk(prog, |id, fact| {
        // Checks one memory operand: the concrete address must be a member
        // of the abstract address set computed for it (⊤ trivially covers).
        let mut check = |m: &Machine, opr: Operand, addr: i64| {
            let Operand::Deref(loc) = opr else { return };
            let abs = fact.eval_addr(loc);
            let (region, off) = m.classify(res.func, addr);
            let covered = match &abs {
                Vsv::Top => true,
                Vsv::Set(map) => map.get(region).is_some_and(|si| si.contains(off)),
            };
            if !covered {
                diags.push(
                    Diagnostic::error(
                        PassId::VsaSoundness,
                        format!(
                            "concrete address {addr:#x} ({region}+{off:#x}) of operand `{opr}` \
                             escapes its computed value set {abs}"
                        ),
                    )
                    .in_func(res.func)
                    .at(id),
                );
            }
        };
        // One step of the concrete machine, mirroring the VSA transfer.
        let eval = |m: &Machine, o: Operand| -> i64 {
            match o {
                Operand::Imm(c) => c,
                Operand::Loc(loc) => m.loc_addr(loc),
                Operand::Deref(loc) => m.read(m.loc_addr(loc)),
            }
        };
        match &prog.inst(id).kind {
            InstKind::Mov { dst, src } => {
                if let Operand::Deref(loc) = src {
                    check(&m, *src, m.loc_addr(*loc));
                }
                let v = eval(&m, *src);
                match dst {
                    Operand::Deref(loc) => {
                        let a = m.loc_addr(*loc);
                        check(&m, *dst, a);
                        m.mem.insert(a, v);
                    }
                    _ => {
                        if let Some(r) = dst.as_reg() {
                            m.regs[r.index()] = v;
                        }
                    }
                }
            }
            InstKind::Op { op, dst, src } => {
                if let Operand::Deref(loc) = src {
                    check(&m, *src, m.loc_addr(*loc));
                }
                let v = op.apply(eval(&m, *dst), eval(&m, *src));
                match dst {
                    Operand::Deref(loc) => {
                        let a = m.loc_addr(*loc);
                        check(&m, *dst, a);
                        m.mem.insert(a, v);
                    }
                    _ => {
                        if let Some(r) = dst.as_reg() {
                            m.regs[r.index()] = v;
                        }
                    }
                }
            }
            InstKind::Use { oprs } => {
                for o in oprs {
                    if let Operand::Deref(loc) = o {
                        check(&m, *o, m.loc_addr(*loc));
                    }
                }
            }
            InstKind::Push { src } => {
                if let Operand::Deref(loc) = src {
                    check(&m, *src, m.loc_addr(*loc));
                }
                let v = eval(&m, *src);
                let esp = m.regs[Reg::Esp.index()] - 4;
                m.regs[Reg::Esp.index()] = esp;
                m.mem.insert(esp, v);
            }
            InstKind::Pop { dst } => {
                if let Operand::Deref(loc) = dst {
                    // The address convention matches the before-fact (esp
                    // prior to the increment).
                    check(&m, *dst, m.loc_addr(*loc));
                }
                let esp = m.regs[Reg::Esp.index()];
                let v = m.read(esp);
                m.regs[Reg::Esp.index()] = esp + 4;
                match dst {
                    Operand::Deref(loc) => {
                        let a = m.loc_addr(*loc);
                        m.mem.insert(a, v);
                    }
                    _ => {
                        if let Some(r) = dst.as_reg() {
                            m.regs[r.index()] = v;
                        }
                    }
                }
            }
            InstKind::Call { target } => {
                if let tiara_ir::CallTarget::Indirect(o) = target {
                    if let Operand::Deref(loc) = o {
                        check(&m, *o, m.loc_addr(*loc));
                    }
                }
                for (i, r) in Reg::GENERAL.iter().enumerate() {
                    m.regs[r.index()] = FILL + 0x10_000 + (i as i64 + 1) * 0x100;
                }
                if prog.call_allocates(id) {
                    let k = m.sites.len() as i64;
                    m.sites.push(id);
                    m.regs[Reg::Eax.index()] = HEAP0 + k * HEAP_BLOCK;
                }
            }
            InstKind::Ret => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{BinOp, ExternKind, Opcode, ProgramBuilder};

    fn rr(r: Reg) -> Operand {
        Operand::reg(r)
    }

    #[test]
    fn access_below_esp_is_out_of_frame() {
        let mut b = ProgramBuilder::new();
        b.begin_func("red_zone");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Esp, -8), src: Operand::imm(1) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert!(
            diags.iter().any(|d| d.pass == PassId::VsaOutOfFrame
                && d.severity == crate::Severity::Error
                && d.message.contains("below the stack pointer")),
            "{diags:?}"
        );
    }

    #[test]
    fn far_above_ceiling_scales_with_the_frame_allocation() {
        // The generator addresses locals at positive ebp offsets, so a slot
        // inside `alloc + ARG_WINDOW` is plausible; one past it warns.
        let build = |off: i64| {
            let mut b = ProgramBuilder::new();
            b.begin_func("deep");
            b.inst(Opcode::Push, InstKind::Push { src: rr(Reg::Ebp) });
            b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ebp), src: rr(Reg::Esp) });
            b.inst(
                Opcode::Sub,
                InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Esp), src: Operand::imm(0x40) },
            );
            b.inst(
                Opcode::Mov,
                InstKind::Mov { dst: Operand::mem_reg(Reg::Ebp, off), src: Operand::imm(1) },
            );
            b.inst(
                Opcode::Add,
                InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esp), src: Operand::imm(0x40) },
            );
            b.inst(Opcode::Pop, InstKind::Pop { dst: rr(Reg::Ebp) });
            b.ret();
            b.end_func();
            b.finish().unwrap()
        };
        let far_above = |p: &Program| {
            run(p)
                .into_iter()
                .any(|d| d.pass == PassId::VsaOutOfFrame && d.message.contains("far above"))
        };
        // ebp = Frame[-4]: slot = off - 4. Ceiling is 0x40 + ARG_WINDOW.
        assert!(!far_above(&build(0x40 + ARG_WINDOW)), "inside the allocated frame + window");
        assert!(far_above(&build(0x40 + ARG_WINDOW + 12)), "past the plausible ceiling");
    }

    #[test]
    fn unbalanced_esp_at_ret_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.begin_func("leaky");
        b.inst(Opcode::Push, InstKind::Push { src: rr(Reg::Ebp) });
        b.ret(); // returns with the push still on the stack
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.pass == PassId::VsaEspBalance && d.severity == crate::Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn overlapping_slots_warn() {
        let mut b = ProgramBuilder::new();
        b.begin_func("overlap");
        b.inst(Opcode::Push, InstKind::Push { src: rr(Reg::Ebp) });
        b.inst(Opcode::Mov, InstKind::Mov { dst: rr(Reg::Ebp), src: rr(Reg::Esp) });
        b.inst(
            Opcode::Sub,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Esp), src: Operand::imm(0x10) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Ebp, -8), src: Operand::imm(1) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Ebp, -5), src: Operand::imm(2) },
        );
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esp), src: Operand::imm(0x10) },
        );
        b.inst(Opcode::Pop, InstKind::Pop { dst: rr(Reg::Ebp) });
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert!(
            diags.iter().any(|d| d.pass == PassId::VsaOverlap && d.message.contains("overlap")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == crate::Severity::Warning));
    }

    #[test]
    fn soundness_oracle_accepts_computed_address_shapes() {
        // lea-base, esp-arithmetic and heap traffic in straight-line
        // functions — the oracle must execute all of them without a miss.
        let mut b = ProgramBuilder::new();
        b.begin_func("lea_shape");
        b.inst(
            Opcode::Sub,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Esp), src: Operand::imm(0x40) },
        );
        b.inst(
            Opcode::Lea,
            InstKind::Mov {
                dst: rr(Reg::Esi),
                src: Operand::Loc(Loc::with_offset(Reg::Esp, 0x10)),
            },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Esi, 4), src: Operand::imm(7) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: rr(Reg::Eax), src: Operand::mem_reg(Reg::Esi, 4) },
        );
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esp), src: Operand::imm(0x40) },
        );
        b.ret();
        b.end_func();
        b.begin_func("heap_shape");
        b.inst(Opcode::Push, InstKind::Push { src: Operand::imm(0x20) });
        b.call_extern(ExternKind::Malloc);
        b.inst(
            Opcode::Add,
            InstKind::Op { op: BinOp::Add, dst: rr(Reg::Esp), src: Operand::imm(4) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_reg(Reg::Eax, 8), src: Operand::imm(3) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn soundness_oracle_skips_branching_functions() {
        let mut b = ProgramBuilder::new();
        b.begin_func("branchy");
        let l = b.new_label();
        b.inst(
            Opcode::Sub,
            InstKind::Op { op: BinOp::Sub, dst: rr(Reg::Ecx), src: Operand::imm(1) },
        );
        b.jump(Opcode::Jne, l);
        b.bind_label(l);
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert!(run(&p).is_empty());
    }
}
