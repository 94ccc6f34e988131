//! # tiara-verify
//!
//! A multi-pass static-analysis verifier for [`tiara_ir`] programs, plus
//! slice-soundness oracles for the TSLICE/SSLICE slicers.
//!
//! TSLICE's correctness silently depends on invariants nobody else checks:
//! the synthetic generator must emit well-formed CFGs, stack traffic must
//! balance for the stack map `S` to be meaningful, and every TSLICE output
//! must be a connected sub-CFG contained in its SSLICE counterpart. This
//! crate makes those invariants machine-checkable so generator and slicer
//! regressions are caught before they poison training data.
//!
//! ## Passes
//!
//! | pass | checks |
//! |------|--------|
//! | `cfg` | edges target live instructions, call/return edges pair up, function table tiles the program, jump targets are marked, every function entry is reachable |
//! | `stack-balance` | push/pop depth balances on every path through a function |
//! | `def-before-use` | no register is read before it is defined on every path |
//! | `heap-discipline` | malloc results are not freed twice, used after free, or trivially leaked |
//! | `frame-mode` | no `ebp`-relative accesses inside frame-pointer-omitted functions |
//! | `dead-store` | no frame-slot store is overwritten on every path before being read |
//! | `unreachable-code` | no instruction is dead under conditional constant propagation |
//! | `uninit-stack-read` | no local slot is read before any path initializes it |
//! | `const-condition` | no conditional branch is decided by compile-time-constant flags |
//! | `escaped-slot-never-read` | no frame slot escapes its function without the function ever reading it |
//! | `callee-clobbers-live-caller-reg` | no register live across a direct call sits in the callee's transitive clobber set |
//! | `dead-argument` | no call site pushes an argument its callee provably ignores |
//! | `mod-ref-violation` | the escape/mod-ref summaries absorb independently re-derived per-instruction effects and call-edge flows |
//! | `vsa-out-of-frame` | no provable frame-slot access lands below the stack pointer or implausibly far above the frame (VSA-based) |
//! | `vsa-esp-balance` | `esp` provably sits at the return-address slot at every `ret` (VSA-based) |
//! | `vsa-overlap` | no two provable frame-slot accesses overlap within one machine word (VSA-based) |
//! | `vsa-soundness` | concrete execution of every straight-line function stays inside the VSA value sets (oracle for the analysis itself) |
//! | `slice-oracle` | TSLICE outputs are connected sub-CFGs, trace faith is monotone, TSLICE ⊆ SSLICE, kill rules agree with reaching definitions |
//!
//! The `dead-store` through `const-condition` passes are built on the
//! fixpoint dataflow engine in [`tiara_dataflow`] (liveness, reaching
//! definitions, conditional constant propagation) rather than the ad-hoc
//! walks of the earlier passes; the four passes after them consume the
//! bottom-up inter-procedural summaries of [`tiara_dataflow`]'s `escape`
//! module — see `DESIGN.md`, "Dataflow substrate" and "Inter-procedural
//! analysis".
//!
//! ## Example
//!
//! ```
//! use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.begin_func("f");
//! b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Ebp) });
//! b.ret(); // returns with one word still pushed
//! b.end_func();
//! let prog = b.finish().unwrap();
//!
//! let report = tiara_verify::verify(&prog);
//! assert!(report.has_errors());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cfg;
mod constcond;
mod deadstore;
mod defuse;
mod frame;
mod heap;
mod interproc;
mod oracle;
mod stack;
mod uninit;
mod unreachable;
mod vsa;

pub use oracle::{
    check_slice, check_trace_monotone, check_tslice_in_sslice, verify_slices, verify_slices_with,
};

use tiara_ir::{FuncId, InstId, Program, VarAddr};
use tiara_json::Value;

/// Identifies the verifier pass that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// CFG well-formedness.
    Cfg,
    /// Per-function stack-balance analysis.
    StackBalance,
    /// Def-before-use register analysis.
    DefBeforeUse,
    /// Heap-discipline type-state check.
    HeapDiscipline,
    /// Frame-mode consistency.
    FrameMode,
    /// Dead frame-slot stores (dataflow-based).
    DeadStore,
    /// Code unreachable under constant propagation (dataflow-based).
    UnreachableCode,
    /// Local stack slots read before initialization (dataflow-based).
    UninitStackRead,
    /// Conditional branches with compile-time-constant outcome (dataflow-based).
    ConstCondition,
    /// Escaped frame slots the owning function never reads (summary-based).
    EscapedSlotNeverRead,
    /// Caller registers live across a call the callee may clobber
    /// (summary-based).
    CalleeClobbersLiveReg,
    /// Pushed call arguments the callee provably ignores (summary-based).
    DeadArgument,
    /// Mod-ref summary self-check: per-instruction effects and call-edge
    /// monotonicity re-derived independently must be absorbed by the stored
    /// summaries.
    ModRefViolation,
    /// Provable frame-slot accesses outside the live frame (VSA-based).
    VsaOutOfFrame,
    /// `esp` not provably at the return-address slot at a `ret` (VSA-based).
    VsaEspBalance,
    /// Provable frame-slot accesses that overlap within one word (VSA-based).
    VsaOverlap,
    /// Concrete-execution soundness oracle for the VSA value sets.
    VsaSoundness,
    /// Slice-soundness oracle.
    SliceOracle,
}

impl PassId {
    /// Stable, kebab-case pass name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            PassId::Cfg => "cfg",
            PassId::StackBalance => "stack-balance",
            PassId::DefBeforeUse => "def-before-use",
            PassId::HeapDiscipline => "heap-discipline",
            PassId::FrameMode => "frame-mode",
            PassId::DeadStore => "dead-store",
            PassId::UnreachableCode => "unreachable-code",
            PassId::UninitStackRead => "uninit-stack-read",
            PassId::ConstCondition => "const-condition",
            PassId::EscapedSlotNeverRead => "escaped-slot-never-read",
            PassId::CalleeClobbersLiveReg => "callee-clobbers-live-caller-reg",
            PassId::DeadArgument => "dead-argument",
            PassId::ModRefViolation => "mod-ref-violation",
            PassId::VsaOutOfFrame => "vsa-out-of-frame",
            PassId::VsaEspBalance => "vsa-esp-balance",
            PassId::VsaOverlap => "vsa-overlap",
            PassId::VsaSoundness => "vsa-soundness",
            PassId::SliceOracle => "slice-oracle",
        }
    }
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (e.g. an unreachable function).
    Warning,
    /// A violated invariant: the program or slice is malformed.
    Error,
}

impl Severity {
    /// `"warning"` or `"error"`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of a verifier pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The pass that found it.
    pub pass: PassId,
    /// Error or warning.
    pub severity: Severity,
    /// The function it is located in, if any.
    pub func: Option<FuncId>,
    /// The instruction it is located at, if any.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates an error diagnostic with no location.
    pub fn error(pass: PassId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pass,
            severity: Severity::Error,
            func: None,
            inst: None,
            message: message.into(),
        }
    }

    /// Creates a warning diagnostic with no location.
    pub fn warning(pass: PassId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pass,
            severity: Severity::Warning,
            func: None,
            inst: None,
            message: message.into(),
        }
    }

    /// Attaches a function location.
    pub fn in_func(mut self, func: FuncId) -> Diagnostic {
        self.func = Some(func);
        self
    }

    /// Attaches an instruction location.
    pub fn at(mut self, inst: InstId) -> Diagnostic {
        self.inst = Some(inst);
        self
    }
}

/// The result of running the verifier: every diagnostic found, in pass order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics, grouped by pass in the order the passes ran.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` if any error was found.
    pub fn has_errors(&self) -> bool {
        self.num_errors() > 0
    }

    /// `true` if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as human-readable text, one diagnostic per line,
    /// resolving function names and instruction addresses against `prog`.
    pub fn render_human(&self, prog: &Program) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(d.severity.name());
            out.push('[');
            out.push_str(d.pass.name());
            out.push(']');
            if let Some(f) = d.func {
                if f.index() < prog.funcs().len() {
                    out.push_str(&format!(" {}", prog.func(f).name));
                } else {
                    out.push_str(&format!(" <func {}>", f.index()));
                }
            }
            if let Some(i) = d.inst {
                if i.index() < prog.num_insts() {
                    out.push_str(&format!(" @ {:#010x}", prog.inst(i).addr));
                } else {
                    out.push_str(&format!(" @ inst {}", i.index()));
                }
            }
            out.push_str(": ");
            out.push_str(&d.message);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.num_errors(),
            self.num_warnings()
        ));
        out
    }

    /// Renders the report as the `tiara lint --json` object:
    /// `{"errors", "warnings", "diagnostics": [{"pass", "severity", "func",
    /// "inst", "message"}]}`, with `null` for a missing function or
    /// instruction.
    pub fn render_json(&self) -> String {
        let index = |i: Option<usize>| i.map_or(Value::Null, |i| Value::Int(i as i64));
        let diagnostics = self.diagnostics.iter().map(|d| {
            Value::obj([
                ("pass", Value::Str(d.pass.name().to_owned())),
                ("severity", Value::Str(d.severity.name().to_owned())),
                ("func", index(d.func.map(|f| f.index()))),
                ("inst", index(d.inst.map(|i| i.index()))),
                ("message", Value::Str(d.message.clone())),
            ])
        });
        Value::obj([
            ("errors", Value::Int(self.num_errors() as i64)),
            ("warnings", Value::Int(self.num_warnings() as i64)),
            ("diagnostics", Value::Array(diagnostics.collect())),
        ])
        .render()
    }
}

/// Runs the static passes over a program.
///
/// If the CFG pass finds structural errors the remaining passes are skipped:
/// they assume a sane instruction/function layout and would either panic or
/// produce noise on a malformed program.
pub fn verify(prog: &Program) -> Report {
    let mut diagnostics = cfg::run(prog);
    let structural = diagnostics.iter().any(|d| d.severity == Severity::Error);
    if !structural {
        diagnostics.extend(stack::run(prog));
        diagnostics.extend(defuse::run(prog));
        diagnostics.extend(heap::run(prog));
        diagnostics.extend(frame::run(prog));
        diagnostics.extend(deadstore::run(prog));
        diagnostics.extend(unreachable::run(prog));
        diagnostics.extend(uninit::run(prog));
        diagnostics.extend(constcond::run(prog));
        diagnostics.extend(interproc::run(prog));
        diagnostics.extend(vsa::run(prog));
    }
    Report { diagnostics }
}

/// Runs the static passes, then the slice-soundness oracle for each
/// criterion in `criteria` (skipped when the static passes already found
/// errors — slicing a malformed program proves nothing).
pub fn verify_with_slices(prog: &Program, criteria: &[VarAddr]) -> Report {
    let mut report = verify(prog);
    if !report.has_errors() {
        report.diagnostics.extend(oracle::verify_slices(prog, criteria));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};

    fn balanced_func(b: &mut ProgramBuilder, name: &str) {
        b.begin_func(name);
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Ebp) });
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebp), src: Operand::reg(Reg::Esp) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esp), src: Operand::reg(Reg::Ebp) },
        );
        b.inst(Opcode::Pop, InstKind::Pop { dst: Operand::reg(Reg::Ebp) });
        b.ret();
        b.end_func();
    }

    #[test]
    fn clean_program_produces_clean_report() {
        let mut b = ProgramBuilder::new();
        balanced_func(&mut b, "main");
        let p = b.finish().unwrap();
        let report = verify(&p);
        assert!(report.is_clean(), "{}", report.render_human(&p));
    }

    #[test]
    fn report_renders_both_formats() {
        let mut b = ProgramBuilder::new();
        b.begin_func("bad");
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Eax) });
        b.ret();
        b.end_func();
        let p = b.finish().unwrap();
        let report = verify(&p);
        assert!(report.has_errors());
        let human = report.render_human(&p);
        assert!(human.contains("error[stack-balance]"));
        assert!(human.contains("bad"));
        let json = tiara_json::parse(&report.render_json()).unwrap();
        let diagnostics = json.get("diagnostics").and_then(Value::as_array).unwrap();
        assert!(diagnostics
            .iter()
            .any(|d| d.get("pass").and_then(Value::as_str) == Some("stack-balance")
                && d.get("severity").and_then(Value::as_str) == Some("error")));
    }
}
