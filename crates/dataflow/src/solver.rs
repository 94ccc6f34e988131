//! The generic worklist fixpoint solver.
//!
//! An analysis supplies a join-semilattice of facts ([`Lattice`]) and a
//! per-instruction transfer function with an optional SCCP-style edge filter
//! ([`Transfer`]); `fixpoint` iterates block-level facts over a
//! [`BlockCfg`] to the least fixpoint, and [`solve`] then materializes
//! per-instruction facts by replaying each block once.
//!
//! The same engine runs forward and backward over one function's flow
//! relation; inter-procedural facts come from the bottom-up summaries of
//! [`crate::escape`] instead. Facts at blocks never reached from the
//! boundary stay ⊥, which is how reachability under the edge
//! filter falls out of the solve (used by constant propagation to prune
//! provably-untaken branches).
//!
//! Determinism: all state lives in index-ordered vectors and the worklist is
//! seeded and drained in block order, so a solve is a pure function of the
//! program — re-solving reaches the identical fixpoint (property-tested in
//! `tests/`).

use crate::cfg::{Block, BlockCfg, BlockId};
use tiara_ir::{FuncId, InstId, Program};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from function entry toward `ret` (reaching defs, constprop).
    Forward,
    /// Facts flow from `ret` toward the entry (liveness).
    Backward,
}

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone + PartialEq {
    /// Joins `other` into `self`, returning `true` if `self` changed.
    ///
    /// Must be monotone: after `a.join(b)`, both the old `a` and `b` are
    /// `≤` the new `a`.
    fn join(&mut self, other: &Self) -> bool;

    /// The partial order `self ⊑ other` (default: joining `self` into
    /// `other` changes nothing).
    fn le(&self, other: &Self) -> bool {
        let mut o = other.clone();
        !o.join(self)
    }
}

/// A dataflow analysis: direction, boundary/⊥ facts, and the transfer
/// function.
pub trait Transfer {
    /// The fact domain.
    type Fact: Lattice;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// ⊥ — the fact at points no information has reached.
    fn bottom(&self) -> Self::Fact;

    /// The boundary fact, injected at the entry blocks (forward) or the
    /// exit blocks (backward).
    fn boundary(&self) -> Self::Fact;

    /// Applies one instruction to `fact`, in the analysis direction.
    fn apply(&self, prog: &Program, id: InstId, fact: &mut Self::Fact);

    /// Whether facts flow along the CFG edge `from → to`, given the fact at
    /// the `from` end (in the analysis direction). Returning `false` prunes
    /// the edge — SCCP-style. Default: every edge flows.
    fn edge(&self, prog: &Program, fact: &Self::Fact, from: InstId, to: InstId) -> bool {
        let _ = (prog, fact, from, to);
        true
    }
}

/// The fixpoint: per-instruction facts plus the block graph they were
/// computed on.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    cfg: BlockCfg,
    /// Fact at the program point *before* each covered instruction
    /// (program order), indexed by `inst - base`.
    before: Vec<F>,
    /// Fact at the point *after* each covered instruction.
    after: Vec<F>,
    /// Per block: was it ever reached from the boundary?
    reached: Vec<bool>,
    base: u32,
}

impl<F: Lattice> Solution<F> {
    /// The block graph the solve ran on.
    pub fn cfg(&self) -> &BlockCfg {
        &self.cfg
    }

    /// The fact at the program point immediately before `id` (program
    /// order). For a backward analysis this is the fact the instruction
    /// *produces* (e.g. live-in).
    pub fn before(&self, id: InstId) -> &F {
        &self.before[(id.0 - self.base) as usize]
    }

    /// The fact at the program point immediately after `id` (program
    /// order). For a backward analysis this is the fact the instruction
    /// *consumes* (e.g. live-out).
    pub fn after(&self, id: InstId) -> &F {
        &self.after[(id.0 - self.base) as usize]
    }

    /// `true` if the block containing `id` was reached from the boundary
    /// (under the analysis's edge filter).
    pub fn reached(&self, id: InstId) -> bool {
        self.reached[self.cfg.block_of(id).index()]
    }
}

/// Solves `analysis` intra-procedurally over one function.
pub fn solve<T: Transfer>(prog: &Program, func: FuncId, analysis: &T) -> Solution<T::Fact> {
    solve_on(prog, BlockCfg::intra(prog, func), analysis)
}

/// Solves over an explicit block graph (exposed so callers can reuse one
/// [`BlockCfg`] across several analyses).
pub fn solve_on<T: Transfer>(prog: &Program, cfg: BlockCfg, analysis: &T) -> Solution<T::Fact> {
    let dir = analysis.direction();
    let (input, reached) = fixpoint(prog, &cfg, analysis);

    // Materialize per-instruction facts by replaying each reached block.
    let base = if cfg.num_blocks() > 0 { cfg.block(BlockId(0)).start.0 } else { 0 };
    let total: usize = cfg.blocks().iter().map(Block::len).sum();
    let mut before: Vec<T::Fact> = (0..total).map(|_| analysis.bottom()).collect();
    let mut after: Vec<T::Fact> = (0..total).map(|_| analysis.bottom()).collect();
    for (bi, blk) in cfg.blocks().iter().enumerate() {
        if !reached[bi] {
            continue;
        }
        let mut fact = input[bi].clone();
        match dir {
            Direction::Forward => {
                for id in blk.insts() {
                    before[(id.0 - base) as usize] = fact.clone();
                    analysis.apply(prog, id, &mut fact);
                    after[(id.0 - base) as usize] = fact.clone();
                }
            }
            Direction::Backward => {
                for id in blk.insts().rev() {
                    after[(id.0 - base) as usize] = fact.clone();
                    analysis.apply(prog, id, &mut fact);
                    before[(id.0 - base) as usize] = fact.clone();
                }
            }
        }
    }
    Solution { cfg, before, after, reached, base }
}

/// Iterates block-level facts over `cfg` to the least fixpoint. Returns,
/// per block, the fact where the block is entered in the analysis
/// direction (before its first instruction forward, after its last
/// backward), and whether the boundary reached it. Replaying a reached
/// block's transfer from its entry fact reproduces every per-instruction
/// fact, which is how [`solve_on`] materializes a [`Solution`] and how
/// value-set analysis visits its facts without storing them.
pub(crate) fn fixpoint<T: Transfer>(
    prog: &Program,
    cfg: &BlockCfg,
    analysis: &T,
) -> (Vec<T::Fact>, Vec<bool>) {
    let n = cfg.num_blocks();
    let dir = analysis.direction();
    let mut input: Vec<T::Fact> = (0..n).map(|_| analysis.bottom()).collect();
    let mut reached = vec![false; n];

    // Boundary blocks: entries for forward; exit blocks (no successors in
    // the direction of flow) for backward.
    let boundary: Vec<BlockId> = match dir {
        Direction::Forward => cfg.entries().to_vec(),
        Direction::Backward => {
            (0..n as u32).map(BlockId).filter(|b| cfg.block(*b).succs.is_empty()).collect()
        }
    };

    let mut work: std::collections::VecDeque<BlockId> = boundary.iter().copied().collect();
    let mut in_work = vec![false; n];
    for &b in &boundary {
        let bnd = analysis.boundary();
        input[b.index()].join(&bnd);
        reached[b.index()] = true;
        in_work[b.index()] = true;
    }

    // One scratch fact, refilled per block visit with `clone_from`.
    let mut fact = analysis.bottom();
    while let Some(b) = work.pop_front() {
        in_work[b.index()] = false;
        // Run the block's transfer in the analysis direction.
        fact.clone_from(&input[b.index()]);
        let blk = cfg.block(b);
        match dir {
            Direction::Forward => {
                for id in blk.insts() {
                    analysis.apply(prog, id, &mut fact);
                }
            }
            Direction::Backward => {
                for id in blk.insts().rev() {
                    analysis.apply(prog, id, &mut fact);
                }
            }
        }
        // Propagate to the direction-successors through the edge filter.
        let (from, nexts) = match dir {
            Direction::Forward => (blk.end, &blk.succs),
            Direction::Backward => (blk.start, &blk.preds),
        };
        for &nb in nexts {
            let to = match dir {
                Direction::Forward => cfg.block(nb).start,
                Direction::Backward => cfg.block(nb).end,
            };
            if !analysis.edge(prog, &fact, from, to) {
                continue;
            }
            let first = !reached[nb.index()];
            reached[nb.index()] = true;
            if (input[nb.index()].join(&fact) || first) && !in_work[nb.index()] {
                in_work[nb.index()] = true;
                work.push_back(nb);
            }
        }
    }
    (input, reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::Liveness;
    use crate::regs::RegSet;
    use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};

    #[test]
    fn backward_boundary_is_the_exit_block() {
        let mut b = ProgramBuilder::new();
        b.begin_func("f");
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(1) });
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Eax) });
        b.inst(Opcode::Pop, InstKind::Pop { dst: Operand::reg(Reg::Eax) });
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let sol = solve(&p, tiara_ir::FuncId(0), &Liveness::new());
        // eax is live between the def and the push that reads it.
        assert!(sol.after(InstId(0)).contains(Reg::Eax));
        assert_eq!(*sol.after(InstId(3)), RegSet::EMPTY);
    }
}
