//! Per-function fact summaries — the payload behind `tiara analyze`.
//!
//! [`analyze_function`] runs all four analyses over one function and distils
//! their solutions into a [`FunctionFacts`] record; [`render_text`] and
//! [`render_json`] turn a batch of records into the CLI's two output
//! formats. The JSON is a [`tiara_json::Value`] rendered compact, with the
//! field layout documented on [`render_json`].

use crate::constprop::{const_conditions, CVal, Constprop};
use crate::liveness::Liveness;
use crate::pointsto::points_to;
use crate::reaching::{def_use_chains, ReachingDefs};
use crate::regs::{reg_effects, RegSet};
use crate::solver::solve;
use tiara_ir::{FuncId, InstId, InstKind, Program, Reg};
use tiara_json::Value;

/// The distilled dataflow facts of one function.
#[derive(Debug, Clone)]
pub struct FunctionFacts {
    /// The function analyzed.
    pub func: FuncId,
    /// Its diagnostic name.
    pub name: String,
    /// Instruction count.
    pub num_insts: usize,
    /// Basic-block count of the intra-procedural CFG.
    pub num_blocks: usize,
    /// Registers live on entry (non-empty means the function consumes
    /// caller state through registers).
    pub entry_live: RegSet,
    /// The widest simultaneously-live register set at any point.
    pub max_live: usize,
    /// Instructions whose every written register is dead immediately after
    /// (calls excluded — their clobber writes are ABI, not data flow).
    pub dead_writes: Vec<InstId>,
    /// Number of def→use edges from the reaching-definitions solve.
    pub def_use_edges: usize,
    /// Use sites reached by more than one definition of the register read
    /// (control-flow merge evidence).
    pub multi_def_uses: usize,
    /// Conditional branches constant propagation decided, with the decided
    /// outcome.
    pub const_branches: Vec<(InstId, bool)>,
    /// Instructions unreachable under decided branches.
    pub unreached: Vec<InstId>,
    /// `(instruction, register)` points where the register provably holds a
    /// constant.
    pub const_points: usize,
    /// The abstract objects (globals, frame slots, heap sites) whose
    /// addresses the function manipulates, rendered.
    pub objects: Vec<String>,
    /// Register pairs observed to share a points-to target.
    pub alias_pairs: Vec<(Reg, Reg)>,
}

/// Runs liveness, reaching definitions, constant propagation, and points-to
/// over `func` and summarizes the solutions.
pub fn analyze_function(prog: &Program, func: FuncId) -> FunctionFacts {
    let f = prog.func(func);

    let live = solve(prog, func, &Liveness::new());
    let mut max_live = 0;
    let mut dead_writes = Vec::new();
    for id in f.inst_ids() {
        if !live.reached(id) {
            continue;
        }
        max_live = max_live.max(live.before(id).len());
        let kind = &prog.inst(id).kind;
        if matches!(kind, InstKind::Call { .. }) {
            continue;
        }
        let w = reg_effects(kind).writes;
        if !w.is_empty() && w.minus(*live.after(id)) == w {
            dead_writes.push(id);
        }
    }

    let chains = def_use_chains(prog, func);
    let reach = solve(prog, func, &ReachingDefs);
    let mut multi_def_uses = 0;
    for id in f.inst_ids() {
        if !reach.reached(id) {
            continue;
        }
        let reads = reg_effects(&prog.inst(id).kind).reads;
        if reads.iter().any(|r| reach.before(id).defs(r).len() > 1) {
            multi_def_uses += 1;
        }
    }

    let (branches, unreached) = const_conditions(prog, func);
    let consts = solve(prog, func, &Constprop);
    let mut const_points = 0;
    for id in f.inst_ids() {
        if !consts.reached(id) {
            continue;
        }
        const_points += Reg::ALL
            .iter()
            .filter(|r| matches!(consts.before(id).reg(**r), CVal::Const(_)))
            .count();
    }

    let pts = points_to(prog, func);
    let mut objects: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for r in Reg::ALL {
        objects.extend(pts.reg(r).iter().map(|l| l.to_string()));
    }
    for (obj, s) in pts.pointer_cells() {
        objects.insert(obj.to_string());
        objects.extend(s.iter().map(|l| l.to_string()));
    }
    let mut alias_pairs = Vec::new();
    for (i, &a) in Reg::ALL.iter().enumerate() {
        for &b in &Reg::ALL[i + 1..] {
            if pts.may_alias(a, b) {
                alias_pairs.push((a, b));
            }
        }
    }

    FunctionFacts {
        func,
        name: f.name.clone(),
        num_insts: f.inst_ids().count(),
        num_blocks: live.cfg().num_blocks(),
        entry_live: *live.before(f.start),
        max_live,
        dead_writes,
        def_use_edges: chains.len(),
        multi_def_uses,
        const_branches: branches.into_iter().map(|b| (b.inst, b.taken)).collect(),
        unreached,
        const_points,
        objects: objects.into_iter().collect(),
        alias_pairs,
    }
}

/// Analyzes every function of the program, in id order.
pub fn analyze_program(prog: &Program) -> Vec<FunctionFacts> {
    (0..prog.funcs().len() as u32).map(|i| analyze_function(prog, FuncId(i))).collect()
}

/// Renders a batch of summaries as indented human-readable text.
pub fn render_text(facts: &[FunctionFacts]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for f in facts {
        let _ = writeln!(out, "fn {} ({} insts, {} blocks)", f.name, f.num_insts, f.num_blocks);
        let _ = writeln!(
            out,
            "  liveness:  entry-live {}, max {} live, {} dead write(s)",
            f.entry_live,
            f.max_live,
            f.dead_writes.len()
        );
        let _ = writeln!(
            out,
            "  reaching:  {} def-use edge(s), {} merged use(s)",
            f.def_use_edges, f.multi_def_uses
        );
        let _ = write!(
            out,
            "  constprop: {} const point(s), {} decided branch(es)",
            f.const_points,
            f.const_branches.len()
        );
        if !f.unreached.is_empty() {
            let _ = write!(out, ", {} unreachable inst(s)", f.unreached.len());
        }
        out.push('\n');
        let _ = write!(out, "  points-to: {} object(s)", f.objects.len());
        if !f.objects.is_empty() {
            let _ = write!(out, " [{}]", f.objects.join(", "));
        }
        if !f.alias_pairs.is_empty() {
            let pairs: Vec<String> =
                f.alias_pairs.iter().map(|(a, b)| format!("{a}~{b}")).collect();
            let _ = write!(out, ", aliases {}", pairs.join(" "));
        }
        out.push('\n');
    }
    out
}

fn ids(ids: &[InstId]) -> Value {
    Value::Array(ids.iter().map(|id| Value::Int(id.0.into())).collect())
}

fn names<T: ToString>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(|x| Value::Str(x.to_string())).collect())
}

/// Renders a batch of summaries as a JSON array.
///
/// Each element has the shape
/// `{"function", "insts", "blocks", "liveness": {"entry_live", "max_live",
/// "dead_writes"}, "reaching": {"def_use_edges", "multi_def_uses"},
/// "constprop": {"const_points", "const_branches": [{"inst", "taken"}],
/// "unreached"}, "pointsto": {"objects", "alias_pairs": [[a, b]]}}`.
pub fn render_json(facts: &[FunctionFacts]) -> String {
    let int = |n: usize| Value::Int(n as i64);
    let doc = facts.iter().map(|f| {
        let branches = f.const_branches.iter().map(|&(inst, taken)| {
            Value::obj([("inst", Value::Int(inst.0.into())), ("taken", Value::Bool(taken))])
        });
        Value::obj([
            ("function", Value::Str(f.name.clone())),
            ("insts", int(f.num_insts)),
            ("blocks", int(f.num_blocks)),
            (
                "liveness",
                Value::obj([
                    ("entry_live", names(f.entry_live.iter())),
                    ("max_live", int(f.max_live)),
                    ("dead_writes", ids(&f.dead_writes)),
                ]),
            ),
            (
                "reaching",
                Value::obj([
                    ("def_use_edges", int(f.def_use_edges)),
                    ("multi_def_uses", int(f.multi_def_uses)),
                ]),
            ),
            (
                "constprop",
                Value::obj([
                    ("const_points", int(f.const_points)),
                    ("const_branches", Value::Array(branches.collect())),
                    ("unreached", ids(&f.unreached)),
                ]),
            ),
            (
                "pointsto",
                Value::obj([
                    ("objects", names(&f.objects)),
                    (
                        "alias_pairs",
                        Value::Array(f.alias_pairs.iter().map(|(a, b)| names([a, b])).collect()),
                    ),
                ]),
            ),
        ])
    });
    Value::Array(doc.collect()).render()
}

fn mask_bits(mask: u8) -> Vec<usize> {
    (0..crate::escape::TRACKED_ARGS).filter(|k| mask & (1 << k) != 0).collect()
}

fn fmt_slots(slots: &std::collections::BTreeSet<i64>) -> String {
    let parts: Vec<String> = slots
        .iter()
        .map(|o| if *o < 0 { format!("ebp-{:#x}", -o) } else { format!("ebp+{o:#x}") })
        .collect();
    parts.join(", ")
}

/// Renders the inter-procedural summaries as human-readable text — the
/// payload behind `tiara analyze --interproc`.
pub fn render_interproc_text(sums: &crate::escape::ProgramSummaries) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for s in sums.all() {
        let _ = writeln!(out, "fn {}", s.name);
        let _ = write!(out, "  mod-ref:  clobbers {}, reads {}", s.clobbered, s.reads);
        if s.reads_arg_mem || s.writes_arg_mem {
            let _ = write!(
                out,
                ", arg-mem {}{}",
                if s.reads_arg_mem { "r" } else { "" },
                if s.writes_arg_mem { "w" } else { "" }
            );
        }
        let _ = writeln!(out, ", globals r:{} w:{}", s.globals_read, s.globals_written);
        let _ = write!(
            out,
            "  args:     reads {:?}, writes {:?}",
            mask_bits(s.arg_reads),
            mask_bits(s.arg_writes)
        );
        let mut traits: Vec<&str> = Vec::new();
        if s.preserves_frame {
            traits.push("preserves-frame");
        }
        if s.allocates {
            traits.push("allocates");
        }
        if s.frees {
            traits.push("frees");
        }
        if s.has_unknown_callee {
            traits.push("unknown-callee");
        }
        if !traits.is_empty() {
            let _ = write!(out, ", {}", traits.join(" "));
        }
        out.push('\n');
        if !s.address_taken.is_empty() {
            let _ = writeln!(
                out,
                "  escape:   address-taken [{}], escaped [{}]",
                fmt_slots(&s.address_taken),
                fmt_slots(&s.escaped)
            );
        }
    }
    out
}

fn globals(g: &crate::escape::GlobalsEffect) -> Value {
    match g {
        crate::escape::GlobalsEffect::Top => Value::Str("top".to_owned()),
        crate::escape::GlobalsEffect::Set(s) => {
            Value::Array(s.iter().map(|m| Value::Int(m.0 as i64)).collect())
        }
    }
}

/// Renders the inter-procedural summaries as a JSON array.
///
/// Each element has the shape `{"function", "interproc": {"clobbered",
/// "reads", "arg_reads", "arg_writes", "reads_arg_mem", "writes_arg_mem",
/// "globals_read", "globals_written", "allocates", "frees",
/// "preserves_frame", "has_unknown_callee", "address_taken", "escaped"}}`,
/// with register sets as name arrays, argument masks as index arrays, and
/// global effects as either an address array or the string `"top"`.
pub fn render_interproc_json(sums: &crate::escape::ProgramSummaries) -> String {
    let args = |mask: u8| {
        Value::Array(mask_bits(mask).into_iter().map(|a| Value::Int(a as i64)).collect())
    };
    let offsets = |slots: &std::collections::BTreeSet<i64>| {
        Value::Array(slots.iter().map(|&o| Value::Int(o)).collect())
    };
    let doc = sums.all().iter().map(|s| {
        Value::obj([
            ("function", Value::Str(s.name.clone())),
            (
                "interproc",
                Value::obj([
                    ("clobbered", names(s.clobbered.iter())),
                    ("reads", names(s.reads.iter())),
                    ("arg_reads", args(s.arg_reads)),
                    ("arg_writes", args(s.arg_writes)),
                    ("reads_arg_mem", Value::Bool(s.reads_arg_mem)),
                    ("writes_arg_mem", Value::Bool(s.writes_arg_mem)),
                    ("globals_read", globals(&s.globals_read)),
                    ("globals_written", globals(&s.globals_written)),
                    ("allocates", Value::Bool(s.allocates)),
                    ("frees", Value::Bool(s.frees)),
                    ("preserves_frame", Value::Bool(s.preserves_frame)),
                    ("has_unknown_callee", Value::Bool(s.has_unknown_callee)),
                    ("address_taken", offsets(&s.address_taken)),
                    ("escaped", offsets(&s.escaped)),
                ]),
            ),
        ])
    });
    Value::Array(doc.collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{Opcode, Operand, ProgramBuilder};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(1) });
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::mem_abs(0x40u64, 0), src: Operand::reg(Reg::Eax) },
        );
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn summary_covers_all_four_fact_kinds() {
        let p = tiny_program();
        let facts = analyze_program(&p);
        assert_eq!(facts.len(), 1);
        let f = &facts[0];
        assert_eq!(f.name, "main");
        assert_eq!(f.num_insts, 3);
        assert!(f.def_use_edges >= 1); // eax: mov → store
        assert!(f.const_points >= 1); // eax const before the store
        assert!(f.dead_writes.is_empty()); // the write is read by the store
    }

    #[test]
    fn json_is_well_formed_and_mentions_every_fact_kind() {
        let p = tiny_program();
        let json = render_json(&analyze_program(&p));
        let doc = tiara_json::parse(&json).unwrap();
        let f = &doc.as_array().unwrap()[0];
        assert_eq!(f.get("function").and_then(Value::as_str), Some("main"), "{json}");
        for key in ["liveness", "reaching", "constprop", "pointsto"] {
            assert!(matches!(f.get(key), Some(Value::Object(_))), "missing {key} in {json}");
        }
    }

    #[test]
    fn text_rendering_names_the_function() {
        let p = tiny_program();
        let text = render_text(&analyze_program(&p));
        assert!(text.contains("fn main"));
        assert!(text.contains("liveness:"));
        assert!(text.contains("points-to:"));
    }

    #[test]
    fn interproc_renderings_cover_the_summary_fields() {
        let p = tiny_program();
        let sums = crate::escape::summarize_program(&p);
        let text = render_interproc_text(&sums);
        assert!(text.contains("fn main"));
        assert!(text.contains("mod-ref:"));
        let json = render_interproc_json(&sums);
        let doc = tiara_json::parse(&json).unwrap();
        let f = &doc.as_array().unwrap()[0];
        assert_eq!(f.get("function").and_then(Value::as_str), Some("main"), "{json}");
        let interproc = f.get("interproc").unwrap();
        for key in ["clobbered", "arg_reads", "globals_written", "escaped"] {
            assert!(interproc.get(key).is_some(), "missing {key} in {json}");
        }
    }
}
