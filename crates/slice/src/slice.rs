//! The output of a slicer: a set of instructions expressed as a CFG
//! (the graph fed to the GCN classifier, Figure 2(b)).

use crate::hash::{FxHashMap, FxHashSet};
use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasher;
use tiara_ir::{InstId, Program, VarAddr};

/// One node of a slice: an instruction found dependent on the criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceNode {
    /// The instruction.
    pub inst: InstId,
    /// The faith `F(i)` at the end of the analysis (1.0 for SSLICE).
    pub faith: f64,
    /// The pointer-indirection level with which `v0` is used here
    /// (feature `F7`).
    pub indirection: u8,
}

/// A forward slice for one variable address, expressed as a CFG over the
/// dependent instructions.
///
/// Edges are the contraction of the program CFG onto the slice nodes: there
/// is an edge `u → w` iff some CFG path runs from `u` to `w` through the
/// explored region without passing another slice node. Under
/// summary-driven slicing the traversal's call→return-site summary edges
/// count as CFG edges for this purpose (see
/// [`build_slice_graph_with_links`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// The slicing criterion `v0`.
    pub criterion: VarAddr,
    /// The dependent instructions, in program order.
    pub nodes: Vec<SliceNode>,
    /// Edges as index pairs into `nodes`.
    pub edges: Vec<(u32, u32)>,
    /// Size of the region the analysis explored (reached instructions).
    pub explored: usize,
    /// Number of `(pre, i)` analysis steps performed.
    pub steps: usize,
}

impl Slice {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the slice has no instructions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The index of an instruction within `nodes`, if present.
    pub fn node_index(&self, inst: InstId) -> Option<usize> {
        self.nodes.binary_search_by_key(&inst, |n| n.inst).ok()
    }

    /// Returns `true` if the instruction is in the slice.
    pub fn contains(&self, inst: InstId) -> bool {
        self.node_index(inst).is_some()
    }

    /// Predecessor lists per node (for the GCN's neighborhood `N(v)`).
    pub fn predecessor_lists(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for &(u, w) in &self.edges {
            preds[w as usize].push(u as usize);
        }
        preds
    }

    /// Renders the slice as a Graphviz `dot` digraph (the Figure 2(b)
    /// picture), labeling each node with its disassembly and faith.
    pub fn to_dot(&self, prog: &Program) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph slice {{");
        let _ = writeln!(s, "  rankdir=TB; node [shape=box, fontname=\"monospace\"];");
        let _ = writeln!(s, "  label=\"slice of {}\";", self.criterion);
        for (k, n) in self.nodes.iter().enumerate() {
            let text = crate::escape_dot(&tiara_ir::format_inst(prog, n.inst));
            let _ = writeln!(s, "  n{k} [label=\"{} (F={:.3})\"];", text, n.faith);
        }
        for &(u, w) in &self.edges {
            let _ = writeln!(s, "  n{u} -> n{w};");
        }
        let _ = writeln!(s, "}}");
        s
    }
}

/// Builds the contracted slice CFG from a dependent-instruction set.
///
/// `explored` restricts paths to the region the analysis visited; pass a set
/// covering the whole program to contract over the full CFG (as SSLICE does).
pub fn build_slice_graph<S: BuildHasher>(
    prog: &Program,
    criterion: VarAddr,
    nodes: Vec<SliceNode>,
    explored: &HashSet<u32, S>,
    steps: usize,
) -> Slice {
    build_slice_graph_with_links(prog, criterion, nodes, explored, steps, &[])
}

/// As [`build_slice_graph`], with extra `u → w` successor links treated as
/// CFG edges during contraction.
///
/// TSLICE passes the summary edges it traversed (call site → return site),
/// so a slice that stepped over an opaque callee with a mod-ref summary
/// stays connected even though the callee's `ret` was never explored.
pub fn build_slice_graph_with_links<S: BuildHasher>(
    prog: &Program,
    criterion: VarAddr,
    mut nodes: Vec<SliceNode>,
    explored: &HashSet<u32, S>,
    steps: usize,
    links: &[(u32, u32)],
) -> Slice {
    nodes.sort_by_key(|n| n.inst);
    nodes.dedup_by_key(|n| n.inst);
    // Edges are sorted and deduplicated below, so the maps' iteration order
    // cannot reach the output.
    let index: FxHashMap<u32, u32> =
        nodes.iter().enumerate().map(|(k, n)| (n.inst.0, k as u32)).collect();
    let mut extra: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(u, w) in links {
        extra.entry(u).or_default().push(w);
    }

    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut queue: VecDeque<InstId> = VecDeque::new();
    for (k, n) in nodes.iter().enumerate() {
        seen.clear();
        queue.clear();
        queue.push_back(n.inst);
        seen.insert(n.inst.0);
        // BFS from the node; stop expanding at other slice nodes.
        while let Some(u) = queue.pop_front() {
            let extra_succs = extra.get(&u.0).map(Vec::as_slice).unwrap_or(&[]);
            let cfg_succs = prog.cfg_succs(u).iter().copied();
            for s in cfg_succs.chain(extra_succs.iter().map(|&raw| InstId(raw))) {
                if !explored.contains(&s.0) || !seen.insert(s.0) {
                    continue;
                }
                if let Some(&w) = index.get(&s.0) {
                    edges.push((k as u32, w));
                } else {
                    queue.push_back(s);
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    Slice { criterion, nodes, edges, explored: explored.len(), steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{InstKind, MemAddr, Opcode, Operand, ProgramBuilder, Reg};

    fn nop_kind() -> InstKind {
        InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Eax) }
    }

    fn node(i: u32) -> SliceNode {
        SliceNode { inst: InstId(i), faith: 1.0, indirection: 0 }
    }

    /// Builds a 5-instruction straight-line program.
    fn straight_line() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        for _ in 0..4 {
            b.inst(Opcode::Mov, nop_kind());
        }
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn contraction_skips_non_slice_nodes() {
        let prog = straight_line();
        let explored: HashSet<u32> = (0..5).collect();
        // Slice nodes 0 and 3; 1 and 2 are contracted away.
        let s = build_slice_graph(
            &prog,
            VarAddr::Global(MemAddr(0)),
            vec![node(0), node(3)],
            &explored,
            0,
        );
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.edges, vec![(0, 1)]);
    }

    #[test]
    fn contraction_respects_explored_region() {
        let prog = straight_line();
        // Instruction 2 not explored: the path 0 -> 3 is broken.
        let explored: HashSet<u32> = [0u32, 1, 3, 4].into_iter().collect();
        let s = build_slice_graph(
            &prog,
            VarAddr::Global(MemAddr(0)),
            vec![node(0), node(3)],
            &explored,
            0,
        );
        assert!(s.edges.is_empty());
    }

    #[test]
    fn node_lookup_and_preds() {
        let prog = straight_line();
        let explored: HashSet<u32> = (0..5).collect();
        let s = build_slice_graph(
            &prog,
            VarAddr::Global(MemAddr(0)),
            vec![node(0), node(1), node(3)],
            &explored,
            7,
        );
        assert_eq!(s.node_index(InstId(1)), Some(1));
        assert_eq!(s.node_index(InstId(2)), None);
        assert!(s.contains(InstId(3)));
        assert_eq!(s.steps, 7);
        let preds = s.predecessor_lists();
        assert_eq!(preds[0], Vec::<usize>::new());
        assert_eq!(preds[1], vec![0]);
        assert_eq!(preds[2], vec![1]);
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let prog = straight_line();
        let explored: HashSet<u32> = (0..5).collect();
        let s = build_slice_graph(
            &prog,
            VarAddr::Global(MemAddr(0x74404)),
            vec![node(0), node(3)],
            &explored,
            0,
        );
        let dot = s.to_dot(&prog);
        assert!(dot.starts_with("digraph slice {"));
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.contains("mov eax, eax"));
        assert!(dot.contains("074404h"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn duplicate_nodes_are_deduped() {
        let prog = straight_line();
        let explored: HashSet<u32> = (0..5).collect();
        let s = build_slice_graph(
            &prog,
            VarAddr::Global(MemAddr(0)),
            vec![node(2), node(2), node(0)],
            &explored,
            0,
        );
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.nodes[0].inst, InstId(0), "nodes sorted by instruction");
    }
}
