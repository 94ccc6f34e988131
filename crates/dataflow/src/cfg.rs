//! Explicit basic-block CFG construction over [`tiara_ir::Program`].
//!
//! The IR stores two successor relations per instruction (`flow_succs` for
//! the intra-procedural flow with call fall-through, `cfg_succs` for the
//! paper's single whole-program CFG). Dataflow wants neither directly: it
//! wants *basic blocks* — maximal straight-line runs — so the worklist can
//! amortize transfer functions over whole blocks and so per-block facts stay
//! small. [`BlockCfg::intra`] builds the per-function block graph over the
//! flow relation, where a call falls through to its return site.

use tiara_ir::{FuncId, InstId, InstKind, Opcode, Program};

/// A dense basic-block identifier, local to one [`BlockCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One basic block: a maximal single-entry straight-line instruction run.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction of the block.
    pub start: InstId,
    /// Last instruction of the block (inclusive).
    pub end: InstId,
    /// Successor blocks, in edge order.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks, in edge order.
    pub preds: Vec<BlockId>,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        (self.end.0 - self.start.0 + 1) as usize
    }

    /// Always `false`: blocks hold at least one instruction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the block's instructions in program order.
    pub fn insts(&self) -> impl DoubleEndedIterator<Item = InstId> {
        (self.start.0..=self.end.0).map(InstId)
    }
}

/// A basic-block control-flow graph over a contiguous instruction range.
#[derive(Debug, Clone)]
pub struct BlockCfg {
    blocks: Vec<Block>,
    /// Entry blocks (one per function entry covered by the range).
    entries: Vec<BlockId>,
    /// First instruction index covered.
    base: u32,
    /// `block_of[i - base]` = block containing instruction `i`.
    block_of: Vec<u32>,
}

/// Whether an instruction ends a basic block. The flow relation falls
/// through a call, so a call can sit mid-block.
fn ends_block(prog: &Program, id: InstId) -> bool {
    let inst = prog.inst(id);
    matches!(inst.kind, InstKind::Ret)
        || inst.opcode == Opcode::Jmp
        || inst.opcode.is_conditional_jump()
}

impl BlockCfg {
    /// Builds the intra-procedural block graph of `func` over the flow
    /// relation (`flow_succs` restricted to the function).
    pub fn intra(prog: &Program, func: FuncId) -> BlockCfg {
        let f = prog.func(func);
        let start = f.entry().0;
        let end = start + f.len() as u32; // exclusive
        Self::build(prog, start, end, &[f.entry()], |id, out| {
            out.extend(prog.flow_succs(id).iter().copied().filter(|s| f.contains(*s)));
        })
    }

    /// Carves `start..end` into blocks; `succs_of(id, out)` appends the
    /// successors of `id` to `out`, one buffer reused for every query.
    fn build(
        prog: &Program,
        start: u32,
        end: u32,
        entries: &[InstId],
        succs_of: impl Fn(InstId, &mut Vec<InstId>),
    ) -> BlockCfg {
        let n = (end - start) as usize;
        let mut succs = Vec::new();
        let mut leader = vec![false; n];
        for &e in entries {
            leader[(e.0 - start) as usize] = true;
        }
        for i in start..end {
            let id = InstId(i);
            if ends_block(prog, id) && i + 1 < end {
                leader[(i + 1 - start) as usize] = true;
            }
            succs.clear();
            succs_of(id, &mut succs);
            for &s in &succs {
                if (start..end).contains(&s.0) && s.0 != i + 1 {
                    leader[(s.0 - start) as usize] = true;
                }
            }
            // Any join point (a call/jump target) starts a block even when
            // its other predecessors fall through.
            if prog.is_call_jump_target(id) {
                leader[(i - start) as usize] = true;
            }
        }
        if n > 0 {
            leader[0] = true;
        }

        // Carve the range into blocks.
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut i = start;
        while i < end {
            let bstart = i;
            let mut bend = i;
            while bend + 1 < end
                && !leader[(bend + 1 - start) as usize]
                && !ends_block(prog, InstId(bend))
            {
                bend += 1;
            }
            let bid = blocks.len() as u32;
            for j in bstart..=bend {
                block_of[(j - start) as usize] = bid;
            }
            blocks.push(Block {
                start: InstId(bstart),
                end: InstId(bend),
                succs: Vec::new(),
                preds: Vec::new(),
            });
            i = bend + 1;
        }

        // Wire block edges from the last instruction of each block.
        for bi in 0..blocks.len() {
            succs.clear();
            succs_of(blocks[bi].end, &mut succs);
            let mut ss = Vec::new();
            for s in &succs {
                if (start..end).contains(&s.0) {
                    let sb = BlockId(block_of[(s.0 - start) as usize]);
                    if !ss.contains(&sb) {
                        ss.push(sb);
                    }
                }
            }
            let me = BlockId(bi as u32);
            for &sb in &ss {
                if !blocks[sb.index()].preds.contains(&me) {
                    blocks[sb.index()].preds.push(me);
                }
            }
            blocks[bi].succs = ss;
        }

        let entry_blocks =
            entries.iter().map(|e| BlockId(block_of[(e.0 - start) as usize])).collect();
        BlockCfg { blocks, entries: entry_blocks, base: start, block_of }
    }

    /// All blocks, in program order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// One block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Entry blocks (function entries covered by this graph).
    pub fn entries(&self) -> &[BlockId] {
        &self.entries
    }

    /// The block containing `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the instruction range this graph covers.
    pub fn block_of(&self, id: InstId) -> BlockId {
        BlockId(self.block_of[(id.0 - self.base) as usize])
    }

    /// Returns `true` if `id` is inside the instruction range this graph
    /// covers.
    pub fn covers(&self, id: InstId) -> bool {
        id.0 >= self.base && ((id.0 - self.base) as usize) < self.block_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};

    fn diamond() -> Program {
        // f: cmp; je L; mov; L: mov; ret  → 3 blocks intra.
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        let l = b.new_label();
        b.inst(Opcode::Cmp, InstKind::Use { oprs: vec![Operand::imm(1), Operand::imm(2)] });
        b.jump(Opcode::Je, l);
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(1) });
        b.bind_label(l);
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::imm(2) });
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn intra_blocks_of_a_diamond() {
        let p = diamond();
        let cfg = BlockCfg::intra(&p, tiara_ir::FuncId(0));
        assert_eq!(cfg.num_blocks(), 3);
        let b0 = cfg.block(BlockId(0));
        assert_eq!((b0.start, b0.end), (InstId(0), InstId(1)));
        assert_eq!(b0.succs.len(), 2);
        // Both arms merge into the final block.
        let b2 = cfg.block(BlockId(2));
        assert_eq!(b2.preds.len(), 2);
        assert_eq!(cfg.block_of(InstId(4)), BlockId(2));
        assert_eq!(cfg.entries(), &[BlockId(0)]);
    }

    #[test]
    fn every_instruction_is_covered_exactly_once() {
        let p = diamond();
        let cfg = BlockCfg::intra(&p, tiara_ir::FuncId(0));
        let mut seen = vec![false; p.num_insts()];
        for b in cfg.blocks() {
            for i in b.insts() {
                assert!(!seen[i.index()], "{i} covered twice");
                seen[i.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
