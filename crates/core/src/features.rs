//! The 42-dimensional instruction feature encoding of Section III-B1
//! (Figure 5):
//!
//! | bits   | feature                                                   |
//! |--------|-----------------------------------------------------------|
//! | 1      | `F1` — instruction is a direct call/jump target           |
//! | 2–13   | `F2` — 12-bit binary representation of the opcode id      |
//! | 14–26  | `F3` — one-hot operand type of operand 1 (13 IDA types)   |
//! | 27–39  | `F4` — one-hot operand type of operand 2                  |
//! | 40     | `F5` — calls a heap allocation routine (possibly via a    |
//! |        |        call chain)                                        |
//! | 41     | `F6` — calls a heap free routine                          |
//! | 42     | `F7` — pointer-indirection level of the `v0` use          |

use tiara_ir::{CallTarget, InstKind, OperandType, Program};
use tiara_slice::SliceNode;

/// Width of the encoding.
pub const FEATURE_DIM: usize = 42;

/// The operand types of an instruction as IDA reports them: the first two
/// operands' classifications, with `Nil` for missing operands. A call's
/// first operand is the target (an immediate near address for direct calls).
pub fn operand_types(kind: &InstKind) -> (OperandType, OperandType) {
    match kind {
        InstKind::Call { target } => match target {
            CallTarget::Direct(_) | CallTarget::External(_) => {
                (OperandType::ImmediateNear, OperandType::Nil)
            }
            CallTarget::Indirect(opr) => (opr.operand_type(), OperandType::Nil),
        },
        InstKind::Ret => (OperandType::Nil, OperandType::Nil),
        _ => {
            let mut oprs = kind.operands();
            let t1 = oprs.next().map_or(OperandType::Nil, |o| o.operand_type());
            let t2 = oprs.next().map_or(OperandType::Nil, |o| o.operand_type());
            (t1, t2)
        }
    }
}

/// Encodes one slice node into its 42-dimensional feature vector.
pub fn encode(prog: &Program, node: &SliceNode) -> [f32; FEATURE_DIM] {
    let mut f = [0.0f32; FEATURE_DIM];
    let inst = prog.inst(node.inst);

    // F1: call/jump target.
    if prog.is_call_jump_target(node.inst) {
        f[0] = 1.0;
    }
    // F2: 12-bit opcode id, most significant bit first.
    let id = inst.opcode.id();
    for bit in 0..12 {
        if id & (1 << (11 - bit)) != 0 {
            f[1 + bit] = 1.0;
        }
    }
    // F3/F4: one-hot operand types.
    let (t1, t2) = operand_types(&inst.kind);
    f[13 + t1.index()] = 1.0;
    f[26 + t2.index()] = 1.0;
    // F5/F6: heap reachability.
    if prog.call_allocates(node.inst) {
        f[39] = 1.0;
    }
    if prog.call_frees(node.inst) {
        f[40] = 1.0;
    }
    // F7: indirection level of the v0 use.
    f[41] = f32::from(node.indirection);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{ExternKind, InstId, Opcode, Operand, ProgramBuilder, Reg};

    fn node(i: u32, ind: u8) -> SliceNode {
        SliceNode { inst: InstId(i), faith: 1.0, indirection: ind }
    }

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        // I0: mov esi, [74404h]
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(0x74404u64, 0) },
        );
        // I1: call wrapper (reaches malloc)
        b.call_named("wrapper");
        b.ret();
        b.end_func();
        b.begin_func("wrapper");
        b.call_extern(ExternKind::Malloc);
        b.call_extern(ExternKind::Free);
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn encoding_layout_matches_figure5() {
        let p = sample_program();
        // The wrapper call instruction: not a target, calls malloc+free
        // indirectly, first operand is an immediate near address.
        let f = encode(&p, &node(1, 0));
        assert_eq!(f[0], 0.0, "F1: not itself a target");
        // F2: opcode id of `call` = 340 = 0b000101010100.
        let bits: Vec<u8> = (0..12).map(|k| f[1 + k] as u8).collect();
        assert_eq!(bits, vec![0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0]);
        // F3: one-hot immediate-near at index 7.
        assert_eq!(f[13 + OperandType::ImmediateNear.index()], 1.0);
        assert_eq!(f[13..26].iter().sum::<f32>(), 1.0, "F3 is one-hot");
        // F4: nil operand.
        assert_eq!(f[26 + OperandType::Nil.index()], 1.0);
        assert_eq!(f[26..39].iter().sum::<f32>(), 1.0, "F4 is one-hot");
        // F5/F6: reaches malloc and free along the call chain.
        assert_eq!(f[39], 1.0);
        assert_eq!(f[40], 1.0);
        assert_eq!(f[41], 0.0);
    }

    #[test]
    fn mov_encoding_and_indirection() {
        let p = sample_program();
        let f = encode(&p, &node(0, 1));
        // F2 of mov (id 20 = 0b000000010100).
        let id: u16 = (0..12).map(|k| (f[1 + k] as u16) << (11 - k)).sum();
        assert_eq!(id, Opcode::Mov.id());
        // Operand 1 is a register, operand 2 a direct memory ref.
        assert_eq!(f[13 + OperandType::Register.index()], 1.0);
        assert_eq!(f[26 + OperandType::MemoryDirect.index()], 1.0);
        // No heap calls; F7 records the indirection level.
        assert_eq!(f[39], 0.0);
        assert_eq!(f[40], 0.0);
        assert_eq!(f[41], 1.0);
    }

    #[test]
    fn callee_entry_is_a_call_target() {
        let p = sample_program();
        // Instruction 3 is the wrapper entry.
        let f = encode(&p, &node(3, 0));
        assert_eq!(f[0], 1.0, "F1 set for call targets");
    }

    #[test]
    fn every_vector_has_exactly_two_onehots_plus_flags() {
        let p = sample_program();
        for i in 0..p.num_insts() as u32 {
            let f = encode(&p, &node(i, 0));
            assert_eq!(f.len(), FEATURE_DIM);
            assert_eq!(f[13..26].iter().sum::<f32>(), 1.0);
            assert_eq!(f[26..39].iter().sum::<f32>(), 1.0);
        }
    }
}
