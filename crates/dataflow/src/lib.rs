//! tiara-dataflow — a fixpoint dataflow engine over the TIARA binary IR.
//!
//! The paper's pipeline leans on ad-hoc local reasoning (the slicer's
//! kill rules, the verifier's single-purpose walks). This crate supplies the
//! missing substrate: an explicit basic-block CFG ([`cfg`](mod@cfg)), a generic
//! intra-procedural worklist solver over join-semilattices ([`solver`]), the
//! one register def/use model ([`regs`]), and four concrete analyses —
//!
//! * [`liveness`] — backward register liveness,
//! * [`reaching`] — reaching definitions and def→use chains,
//! * [`constprop`] — SCCP-style conditional constant propagation,
//! * [`pointsto`] — flow-insensitive may-point-to and aliasing —
//!
//! plus a per-function summarizer ([`summary`]) and a value-set analysis
//! ([`vsa`]) that back the `tiara analyze` subcommand, and a bottom-up
//! inter-procedural escape / mod-ref summary analysis ([`escape`]) computed
//! over the call graph's SCCs with recursive-cycle widening; facts cross
//! calls only through those summaries. The `--json` renderings build
//! [`tiara_json::Value`] documents. Consumers: the verifier's
//! def-before-use, dead-store, unreachable-code, uninitialized-read and
//! constant-condition passes and its four inter-procedural lints, the
//! slicer's kill-rule oracle and its summary-driven call transfer, and the
//! synthesizer's debug self-check that injected noise is provably dead.
//!
//! The solver is deterministic by construction — all state is kept in
//! index-ordered vectors and the worklist drains in block order — so equal
//! programs produce equal fixpoints (property-tested).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod constprop;
pub mod escape;
pub mod liveness;
pub mod pointsto;
pub mod reaching;
pub mod regs;
pub mod solver;
pub mod summary;
pub mod vsa;

pub use cfg::{Block, BlockCfg, BlockId};
pub use constprop::{const_conditions, CVal, ConstBranch, ConstFact, Constprop, FlagState};
pub use escape::{summarize_program, FuncSummary, GlobalsEffect, ProgramSummaries};
pub use liveness::Liveness;
pub use pointsto::{points_to, AbsLoc, PointsTo, PtsSet};
pub use reaching::{def_use_chains, DefSite, DefUseChains, ReachFact, ReachingDefs};
pub use regs::{reg_effects, RegEffects, RegSet};
pub use solver::{solve, solve_on, Direction, Lattice, Solution, Transfer};
pub use summary::{
    analyze_function, analyze_program, render_interproc_json, render_interproc_text, render_json,
    render_text, FunctionFacts,
};
pub use vsa::{
    enumerate_alocs, render_vsa_json, render_vsa_text, vsa_function, vsa_program, ALoc, MemOp,
    Region, RegionMap, StridedInterval, VsaAnalysis, VsaFact, VsaResult, VsaTotals, Vsv,
};
