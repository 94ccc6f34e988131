//! Slice-soundness oracles for TSLICE and SSLICE.
//!
//! Three machine-checkable properties back the claims DESIGN.md makes about
//! the slicers:
//!
//! 1. **Structure** — a slice is a well-formed, *connected* sub-CFG: nodes
//!    are unique instructions in program order with faith in `[0, 1]`, edge
//!    endpoints are in bounds, the criterion's first access is a node, and
//!    every node is reachable from it along slice edges.
//! 2. **Monotonicity** — along TSLICE's recorded trace, the faith of any
//!    one instruction never increases (faith only decays).
//! 3. **Containment** — differential check: TSLICE explores the first-access
//!    function and its direct callees, so its node set must be contained in
//!    SSLICE's for the same criterion.
//! 4. **Kill soundness** — differential check against the reaching-defs
//!    engine in `tiara-dataflow`: every strong update (`[Mov-*-kill]`) in
//!    the trace must be a genuine killing definition of its register.

use crate::{Diagnostic, PassId};
use std::collections::HashSet;
use tiara_ir::{Program, VarAddr};
use tiara_slice::{
    check_kill_rules, first_access, sslice_with_facts, tslice_with_facts, ProgramFacts, Slice,
    TraceEvent, TsliceConfig,
};

/// Faith comparisons tolerate accumulated floating-point error up to this.
const FAITH_EPS: f64 = 1e-9;

/// Checks that `slice` is a well-formed, connected sub-CFG of `prog`.
pub fn check_slice(prog: &Program, slice: &Slice) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = prog.num_insts();

    let mut ok = true;
    for (i, node) in slice.nodes.iter().enumerate() {
        if node.inst.index() >= n {
            diags.push(Diagnostic::error(
                PassId::SliceOracle,
                format!("slice node {} refers to dead instruction {}", i, node.inst.index()),
            ));
            ok = false;
        }
        if i > 0 && slice.nodes[i - 1].inst >= node.inst {
            diags.push(Diagnostic::error(
                PassId::SliceOracle,
                format!("slice nodes out of program order at index {i}"),
            ));
            ok = false;
        }
        if !(node.faith >= 0.0 && node.faith <= 1.0) {
            diags.push(
                Diagnostic::error(
                    PassId::SliceOracle,
                    format!("slice node {} has faith {} outside [0, 1]", i, node.faith),
                )
                .at(node.inst),
            );
        }
    }
    let count = slice.nodes.len() as u32;
    for &(u, v) in &slice.edges {
        if u >= count || v >= count {
            diags.push(Diagnostic::error(
                PassId::SliceOracle,
                format!("slice edge ({u}, {v}) is out of bounds for {count} nodes"),
            ));
            ok = false;
        }
    }
    if !ok {
        return diags;
    }

    let entry = match first_access(prog, slice.criterion) {
        Some(e) => e,
        None => {
            if !slice.is_empty() {
                diags.push(Diagnostic::error(
                    PassId::SliceOracle,
                    "non-empty slice for a criterion that is never accessed".to_string(),
                ));
            }
            return diags;
        }
    };
    if slice.is_empty() {
        return diags;
    }
    let Some(start) = slice.node_index(entry) else {
        diags.push(
            Diagnostic::error(
                PassId::SliceOracle,
                "the criterion's first access is not a slice node".to_string(),
            )
            .at(entry),
        );
        return diags;
    };

    // Connectivity: every node must be reachable from the first access
    // along slice edges (the contraction of the CFG onto the slice).
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); slice.nodes.len()];
    for &(u, v) in &slice.edges {
        succs[u as usize].push(v as usize);
    }
    let mut seen = vec![false; slice.nodes.len()];
    let mut stack = vec![start];
    seen[start] = true;
    while let Some(u) = stack.pop() {
        for &v in &succs[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    for (i, reached) in seen.iter().enumerate() {
        if !reached {
            diags.push(
                Diagnostic::error(
                    PassId::SliceOracle,
                    format!("slice is not connected: node {i} unreachable from the criterion"),
                )
                .at(slice.nodes[i].inst),
            );
        }
    }
    diags
}

/// Checks that along `trace` the faith of each instruction never increases.
pub fn check_trace_monotone(trace: &[TraceEvent]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut last: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for ev in trace {
        if let Some(&prev) = last.get(&ev.inst.0) {
            if ev.faith > prev + FAITH_EPS {
                diags.push(
                    Diagnostic::error(
                        PassId::SliceOracle,
                        format!("trace faith increased from {} to {}", prev, ev.faith),
                    )
                    .at(ev.inst),
                );
            }
        }
        last.insert(ev.inst.0, ev.faith);
    }
    diags
}

/// Differential check: every TSLICE node must also be an SSLICE node for
/// the same criterion (TSLICE ⊆ SSLICE).
pub fn check_tslice_in_sslice(tslice: &Slice, sslice: &Slice) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let in_sslice: HashSet<u32> = sslice.nodes.iter().map(|n| n.inst.0).collect();
    for node in &tslice.nodes {
        if !in_sslice.contains(&node.inst.0) {
            diags.push(
                Diagnostic::error(
                    PassId::SliceOracle,
                    format!(
                        "TSLICE ⊄ SSLICE: instruction {} is in TSLICE but not SSLICE",
                        node.inst.index()
                    ),
                )
                .at(node.inst),
            );
        }
    }
    diags
}

/// Runs the full oracle for each criterion: slices with TSLICE (tracing on)
/// and SSLICE, then checks structure, monotonicity, containment, and kill
/// soundness.
pub fn verify_slices(prog: &Program, criteria: &[VarAddr]) -> Vec<Diagnostic> {
    verify_slices_with(prog, criteria, &TsliceConfig::with_trace())
}

/// [`verify_slices`] under an explicit slicer configuration — the gate for
/// non-default modes such as
/// [`use_call_summaries`](TsliceConfig::use_call_summaries). Tracing is
/// forced on (the monotonicity oracle needs the event stream).
pub fn verify_slices_with(
    prog: &Program,
    criteria: &[VarAddr],
    cfg: &TsliceConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let cfg = TsliceConfig { trace: true, ..cfg.clone() };
    let facts = ProgramFacts::new(prog);
    for &v0 in criteria {
        let out = tslice_with_facts(&facts, v0, &cfg);
        let base = sslice_with_facts(&facts, v0);
        diags.extend(check_slice(prog, &out.slice));
        diags.extend(check_trace_monotone(&out.trace));
        diags.extend(check_tslice_in_sslice(&out.slice, &base));
        for v in check_kill_rules(prog, v0).violations {
            let mut d = Diagnostic::error(
                PassId::SliceOracle,
                format!("kill-rule/reaching-defs disagreement: {}", v.message),
            )
            .at(v.inst);
            d.func = Some(prog.func_of(v.inst));
            diags.push(d);
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{InstId, InstKind, MemAddr, Opcode, Operand, ProgramBuilder, Reg};
    use tiara_slice::{sslice, SliceNode};

    const V0: u64 = 0x100000;

    /// A function that touches the global at `V0` a few times.
    fn touching_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::mem_abs(V0, 0) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ecx), src: Operand::mem_reg(Reg::Eax, 4) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_abs(V0, 0), src: Operand::reg(Reg::Ecx) },
        );
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    fn criterion() -> VarAddr {
        VarAddr::Global(MemAddr(V0))
    }

    #[test]
    fn real_slices_pass_the_oracle() {
        let p = touching_program();
        let diags = verify_slices(&p, &[criterion()]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn disconnected_slice_is_an_error() {
        let p = touching_program();
        let mut slice = tiara_slice::tslice(&p, criterion());
        assert!(slice.num_nodes() >= 2);
        // Sever every edge: all non-entry nodes become unreachable.
        slice.edges.clear();
        let diags = check_slice(&p, &slice);
        assert!(diags.iter().any(|d| d.message.contains("not connected")));
    }

    #[test]
    fn faith_above_one_is_an_error() {
        let p = touching_program();
        let mut slice = tiara_slice::tslice(&p, criterion());
        slice.nodes[0].faith = 1.5;
        let diags = check_slice(&p, &slice);
        assert!(diags.iter().any(|d| d.message.contains("outside [0, 1]")));
    }

    #[test]
    fn non_monotone_trace_is_an_error() {
        let trace = vec![
            TraceEvent { inst: InstId(0), rules: vec![], faith: 0.5, dep: true },
            TraceEvent { inst: InstId(0), rules: vec![], faith: 0.9, dep: true },
        ];
        let diags = check_trace_monotone(&trace);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("increased"));
    }

    #[test]
    fn monotone_trace_is_clean() {
        let trace = vec![
            TraceEvent { inst: InstId(0), rules: vec![], faith: 1.0, dep: true },
            TraceEvent { inst: InstId(1), rules: vec![], faith: 0.9, dep: false },
            TraceEvent { inst: InstId(0), rules: vec![], faith: 1.0, dep: true },
        ];
        assert!(check_trace_monotone(&trace).is_empty());
    }

    #[test]
    fn tslice_escaping_sslice_is_a_differential_error() {
        // Corrupt a genuine TSLICE output with a node SSLICE cannot contain
        // (an instruction past the root function and its callees).
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::mem_abs(V0, 0) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_abs(V0, 0), src: Operand::reg(Reg::Eax) },
        );
        b.ret();
        b.end_func();
        b.begin_func("stranger");
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::imm(1) });
        b.ret();
        b.end_func();
        b.set_entry("main");
        let p = b.finish().unwrap();

        let mut t = tiara_slice::tslice(&p, criterion());
        let s = sslice(&p, criterion());
        assert!(check_tslice_in_sslice(&t, &s).is_empty());

        let stranger = p.func_by_name("stranger").unwrap().entry();
        t.nodes.push(SliceNode { inst: stranger, faith: 1.0, indirection: 0 });
        let diags = check_tslice_in_sslice(&t, &s);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("TSLICE ⊄ SSLICE"));
    }
}
