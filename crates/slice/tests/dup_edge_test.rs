// Appended as a test into tslice.rs test module? Easier: an integration test in crates/slice/tests.
use tiara_ir::{InstKind, MemAddr, Opcode, Operand, ProgramBuilder, Reg, VarAddr};
use tiara_slice::{tslice_reference, tslice_with, TsliceConfig};

#[test]
fn dup_succ_equivalence() {
    let v0 = 0x74404u64;
    let mut b = ProgramBuilder::new();
    b.begin_func("main");
    b.inst(
        Opcode::Mov,
        InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
    );
    // Conditional jump whose target is the fall-through instruction:
    let l = b.new_label();
    b.jump(Opcode::Jae, l);
    b.bind_label(l);
    b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Esi) });
    b.ret();
    b.end_func();
    let prog = b.finish().unwrap();
    let addr = VarAddr::Global(MemAddr(v0));
    let cfg = TsliceConfig::default();
    let fast = tslice_with(&prog, addr, &cfg);
    let refr = tslice_reference(&prog, addr, &cfg);
    eprintln!("fast stats: {:?}", fast.stats);
    eprintln!("refr stats: {:?}", refr.stats);
    assert_eq!(fast.slice, refr.slice, "slice mismatch");
    assert_eq!(fast.stats.steps, refr.stats.steps, "step mismatch");
}
