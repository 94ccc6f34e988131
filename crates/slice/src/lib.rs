//! # tiara-slice
//!
//! The slicing stage of TIARA (Wang et al., CGO 2022): **TSLICE**, the
//! type-relevant inter-procedural forward slicer (the paper's primary
//! contribution — Section III-A, Algorithm 1 and Figure 4), and **SSLICE**,
//! the simple baseline it is compared against in RQ3.
//!
//! Given a variable address `v0` in a binary [`tiara_ir::Program`], TSLICE
//! computes a small CFG of instructions that *use* values derived from `v0`.
//! Three mechanisms keep the slice small and type-relevant:
//!
//! 1. an abstract value domain `{ptr, ref, const} × Z ∪ {(other, ∗)}` that
//!    tracks only register and stack dependences precisely, abstracting heap
//!    values reached by arithmetic as `(other, ∗)`;
//! 2. *kill* rules that drop tracking as soon as a register is overwritten
//!    with an unrelated address;
//! 3. a **faith/decay** function: every visited instruction decays the
//!    confidence of the path (0.001 by default, 0.005 for stack traffic,
//!    0.01 for indirect addressing); a path is abandoned at faith 0.
//!
//! ## Example
//!
//! ```
//! use tiara_ir::{InstKind, MemAddr, Opcode, Operand, ProgramBuilder, Reg, VarAddr};
//! use tiara_slice::tslice;
//!
//! let v0 = 0x74404u64;
//! let mut b = ProgramBuilder::new();
//! b.begin_func("main");
//! b.inst(Opcode::Mov, InstKind::Mov {
//!     dst: Operand::reg(Reg::Esi),
//!     src: Operand::mem_abs(v0, 0),
//! });
//! b.ret();
//! b.end_func();
//! let prog = b.finish()?;
//!
//! let slice = tslice(&prog, VarAddr::Global(MemAddr(v0)));
//! assert_eq!(slice.num_nodes(), 1);
//! # Ok::<(), tiara_ir::BuildError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod criterion;
mod defuse_oracle;
mod hash;
mod rules;
mod slice;
mod sslice;
mod state;
mod stats;
mod trace;
mod tslice;
mod value;

pub use config::{DecayFunction, TsliceConfig};
pub use criterion::Criterion;
pub use defuse_oracle::{check_kill_rules, KillCheck, KillViolation};
pub use slice::{build_slice_graph, build_slice_graph_with_links, Slice, SliceNode};
pub use sslice::{first_access, sslice};
pub use state::{AnalysisState, InstState};
pub use stats::{add_to_global, global_stats, reset_global_stats, thread_spills, SliceStats};
pub use trace::{RuleName, TraceEvent};
pub use tslice::{tslice, tslice_with, tslice_with_facts, ProgramFacts, TsliceOutput};
pub use value::{AbsValue, ValueSet};

/// Escapes a string for use inside a Graphviz double-quoted label.
pub(crate) fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
