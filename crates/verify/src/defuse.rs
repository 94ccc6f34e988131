//! Def-before-use register analysis over the intra-procedural CFG.
//!
//! A forward *must* dataflow: a register counts as defined at an instruction
//! only if it is defined along **every** path reaching it from the function
//! entry. Reads of must-undefined registers — the signature of interleaving
//! or noise bugs in the generator — are errors.
//!
//! Modeling choices:
//!
//! * `ebp` and `esp` are defined at function entry (the ABI guarantees
//!   both); all other registers start undefined.
//! * which registers an instruction reads and defines is
//!   [`tiara_dataflow::reg_effects`]'s machine model: calls define `eax`,
//!   `ecx`, `edx` (the x86 caller-saved set — callees may clobber them, and
//!   `eax` carries return values), and `xor r, r` / `sub r, r` zero idioms
//!   define `r` without reading it.

use crate::{Diagnostic, PassId};
use std::collections::HashMap;
use tiara_dataflow::{reg_effects, RegSet};
use tiara_ir::{Program, Reg};
// The unit tests below build instructions through `super::*`.
#[cfg(test)]
use tiara_ir::{BinOp, InstKind, Operand};

pub(crate) fn run(prog: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let entry_defined = RegSet::from_regs(&[Reg::Ebp, Reg::Esp]);

    for f in prog.funcs() {
        // Fixpoint: defined[i] = intersection over all reaching paths of the
        // registers defined before i.
        let mut defined: HashMap<u32, RegSet> = HashMap::new();
        let mut work = vec![(f.entry(), entry_defined)];
        while let Some((id, incoming)) = work.pop() {
            let cur = match defined.get(&id.0) {
                Some(&old) => {
                    let joined = RegSet(old.0 & incoming.0);
                    if joined == old {
                        continue;
                    }
                    defined.insert(id.0, joined);
                    joined
                }
                None => {
                    defined.insert(id.0, incoming);
                    incoming
                }
            };
            let out = cur.union(reg_effects(&prog.inst(id).kind).writes);
            for &s in prog.flow_succs(id) {
                if f.contains(s) {
                    work.push((s, out));
                }
            }
        }

        // Each read register is reported once per instruction, in register
        // encoding order.
        for id in f.inst_ids() {
            let Some(&mask) = defined.get(&id.0) else {
                continue;
            };
            for r in reg_effects(&prog.inst(id).kind).reads.minus(mask).iter() {
                diags.push(
                    Diagnostic::error(
                        PassId::DefBeforeUse,
                        format!("register {r} may be read before it is defined"),
                    )
                    .in_func(f.id)
                    .at(id),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{Opcode, ProgramBuilder};

    #[test]
    fn read_of_undefined_register_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(
            Opcode::Mov,
            InstKind::Mov {
                dst: Operand::reg(Reg::Ebx),
                src: Operand::reg(Reg::Eax), // eax never defined
            },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("eax"));
    }

    #[test]
    fn defs_cover_later_reads() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(3) });
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::mem_reg(Reg::Eax, 4) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert!(run(&p).is_empty());
    }

    #[test]
    fn zero_idiom_defines_without_reading() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(
            Opcode::Xor,
            InstKind::Op {
                op: BinOp::Xor,
                dst: Operand::reg(Reg::Ecx),
                src: Operand::reg(Reg::Ecx),
            },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::reg(Reg::Ecx) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert!(run(&p).is_empty());
    }

    #[test]
    fn one_armed_def_does_not_survive_the_join() {
        // esi is defined on the fall path only; reading it after the merge
        // is a must-undefined read.
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let merge = b.new_label();
        b.inst(Opcode::Cmp, InstKind::Use { oprs: vec![Operand::imm(1), Operand::imm(2)] });
        b.jump(Opcode::Je, merge);
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::imm(7) });
        b.bind_label(merge);
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Esi) });
        b.inst(Opcode::Pop, InstKind::Pop { dst: Operand::reg(Reg::Esi) });
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let diags = run(&p);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("esi"));
    }

    #[test]
    fn calls_define_the_caller_saved_set() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.call_extern(tiara_ir::ExternKind::Malloc);
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::reg(Reg::Eax) },
        );
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        assert!(run(&p).is_empty());
    }
}
