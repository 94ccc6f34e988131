//! TSLICE: the type-relevant slicing algorithm (Algorithm 1).
//!
//! Starting from `I0` — *the first instruction operating on `v0`*, as in the
//! paper's worked example (Figure 2, where `I0` is `mov esi, [v0]`) — the
//! analysis walks the control flow depth-first, applying the Figure 4 rules
//! at each step to update `(V, S, D)` and decaying the faith `F` (line 10).
//! A path stops as soon as the faith of its frontier reaches 0 (line 8) or
//! its state stops changing (line 11). Calls are followed
//! context-sensitively: reaching a direct call records the return site and
//! descends into the callee; reaching `ret` resumes at the recorded site.
//!
//! (Algorithm 1 describes `I0` as the program entry "as any instruction may
//! operate on v0", but with a linear decay of 0.001 per visit, faith would be
//! exhausted within ~1000 instructions of `main` — no slice for any variable
//! further in could ever be found, contradicting the example, the measured
//! 0.2 s/slice, and the `D(I0) = true` initialization on line 3, which only
//! makes sense when `I0` itself accesses `v0`.)
//!
//! ## One traversal and its oracle
//!
//! The shipping traversal ([`tslice_with_facts`]) borrows the pre-state
//! straight out of the state arena (`AnalysisState::pair_mut`) instead of
//! deep-cloning it per edge, and memoizes `(pre, i)` edges by state version
//! so a revisit whose endpoints are provably unchanged skips the join +
//! transfer outright (faith still decays — the pop is observable through
//! `F`).
//!
//! [`tslice_reference`] is the literal Algorithm 1 shape: snapshot the
//! pre-state, join, transfer. It is no configuration option; it exists as
//! the oracle the equivalence tests hold the fast path to. Both share the
//! same seeding, join/transfer, faith and successor helpers and must produce
//! bitwise-identical slices and traces; `tests/equivalence.rs` checks that.
//! [`SliceStats`] counts what the fast path saved.
//!
//! ## Buffers reused across criteria
//!
//! A slice's tables (the analysis state, the worklist, the edge memo, the
//! pending set) grow to the size of the region it explores. The shipping
//! traversal keeps them in a per-thread scratch ([`Scratch`]) and clears
//! them between criteria, so a thread that slices many criteria grows them
//! once: in steady state a slice allocates a small constant, most of it
//! the value sets that outgrow their inline buffer. The scratch is a
//! thread-local rather than a caller-owned value because the parallel map
//! that drives batches has no per-worker state; it changes no signature.
//!
//! ## Summary edges
//!
//! With [`TsliceConfig::use_call_summaries`] on, every direct call pushes a
//! second worklist edge — call site straight to its return site — whose
//! pre-state is the call state with the callee's mod-ref summary
//! ([`tiara_dataflow::summarize_program`]) applied: pop the return address,
//! kill exactly the registers the callee may clobber (instead of all of
//! them, or none), keep `ebp` when the callee provably restores it, and
//! invalidate the stack cells reachable through the tracked argument slots
//! when the callee may write argument memory. The interior descent still
//! happens — the summary edge is a *may* path joined like any other — but a
//! container pointer parked in a callee-saved register now survives helpers
//! whose body the faith machinery would cut (e.g. at an interior indirect
//! call under [`TsliceConfig::cut_indirect_calls`]).

use crate::criterion::Criterion;
use crate::hash::{FxHashMap, FxHashSet};
use crate::rules::transfer;
use crate::slice::{build_slice_graph, Slice, SliceNode};
use crate::sslice::AccessIndex;
use crate::state::{AnalysisState, InstState};
use crate::stats::SliceStats;
use crate::trace::{RuleName, TraceEvent};
use crate::value::{AbsValue, ValueSet};
use crate::TsliceConfig;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use tiara_dataflow::{escape::TRACKED_ARGS, FuncSummary, ProgramSummaries};
use tiara_ir::{CallTarget, InstId, InstKind, Program, Reg, VarAddr};

/// The abstract stack base assigned to `sp` at the program entry. The value
/// is arbitrary — only offsets relative to it matter.
const STACK_BASE: i64 = 1 << 20;

/// A persistent list of recorded return sites (the analysis call stack).
#[derive(Debug)]
struct CtxNode {
    ret: InstId,
    parent: Ctx,
}

type Ctx = Option<Rc<CtxNode>>;

fn ctx_push(ctx: &Ctx, ret: InstId) -> Ctx {
    Some(Rc::new(CtxNode { ret, parent: ctx.clone() }))
}

/// One pending `CompDependences(pre, i)` invocation. `pre_ver` is the version
/// of `pre`'s state record at push time; it keys the pending-edge set.
struct Work {
    pre: InstId,
    i: InstId,
    ctx: Ctx,
    pre_ver: u32,
}

/// The result of running TSLICE: the slice plus the optional rule trace.
#[derive(Debug, Clone)]
pub struct TsliceOutput {
    /// The computed slice.
    pub slice: Slice,
    /// Rule-firing trace (only populated when [`TsliceConfig::trace`] is on).
    pub trace: Vec<TraceEvent>,
    /// Hot-loop counters for this run (also folded into the process-wide
    /// aggregate, see [`crate::global_stats`]).
    pub stats: SliceStats,
}

/// Runs TSLICE for the variable at `v0` and returns the slice.
///
/// This is the convenience wrapper around [`tslice_with`] using the default
/// configuration.
pub fn tslice(prog: &Program, v0: VarAddr) -> Slice {
    tslice_with(prog, v0, &TsliceConfig::default()).slice
}

/// The per-program facts the slicers consult: the index of first accesses
/// that locates `I0`, and the callee mod-ref summaries
/// ([`tiara_dataflow::summarize_program`]) behind
/// [`TsliceConfig::use_call_summaries`].
///
/// Both are deterministic functions of the program alone, so the traversal
/// stays a pure function of (program, criterion, config) however they are
/// shared. Each is computed on first use: callers that slice many criteria
/// of one program build one `ProgramFacts` and pay for each at most once,
/// and a run that does not need the summaries (the default configuration)
/// pays nothing for them. The cells are thread-safe, so one value serves a
/// parallel batch.
#[derive(Debug)]
pub struct ProgramFacts<'p> {
    prog: &'p Program,
    accesses: OnceLock<AccessIndex>,
    summaries: OnceLock<ProgramSummaries>,
}

impl<'p> ProgramFacts<'p> {
    /// Facts for `prog`, none computed yet.
    pub fn new(prog: &'p Program) -> ProgramFacts<'p> {
        ProgramFacts { prog, accesses: OnceLock::new(), summaries: OnceLock::new() }
    }

    /// The program the facts describe.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The first instruction, in program order, that accesses `v0`: the
    /// slicers' `I0`. The index behind it is built on first call, in one
    /// pass over the program; every later criterion is a range query. For a
    /// heap criterion it is the allocating call at the named site.
    pub fn first_access(&self, v0: VarAddr) -> Option<InstId> {
        self.accesses.get_or_init(|| AccessIndex::build(self.prog)).first_access(v0)
    }

    /// The callee mod-ref summaries, computed on first call.
    fn summaries(&self) -> &ProgramSummaries {
        self.summaries.get_or_init(|| tiara_dataflow::summarize_program(self.prog))
    }
}

/// Runs TSLICE with an explicit configuration.
///
/// Computes the per-program facts `cfg` needs for this one run; to slice
/// several criteria of one program, share them through
/// [`tslice_with_facts`].
pub fn tslice_with(prog: &Program, v0: VarAddr, cfg: &TsliceConfig) -> TsliceOutput {
    tslice_with_facts(&ProgramFacts::new(prog), v0, cfg)
}

/// The output for a criterion no instruction accesses: an empty slice.
fn unreached(prog: &Program, v0: VarAddr) -> TsliceOutput {
    let slice = build_slice_graph(prog, v0, Vec::new(), &FxHashSet::default(), 0);
    TsliceOutput { slice, trace: Vec::new(), stats: SliceStats::default() }
}

/// The buffers both traversals walk in. [`Walk::start`] clears them, so
/// they can carry capacity from one criterion to the next.
#[derive(Default)]
struct Buffers {
    st: AnalysisState,
    stack: Vec<Work>,
    fired: Vec<RuleName>,
    /// The explored region, collected by [`Walk::finish`].
    explored: FxHashSet<u32>,
}

/// Everything the shipping traversal reuses across criteria on one thread:
/// the shared [`Buffers`] plus the fast path's own tables.
#[derive(Default)]
struct Scratch {
    walk: Buffers,
    /// `(pre, i)` → the endpoint versions when the edge last ran.
    memo: FxHashMap<(u32, u32), (u32, u32)>,
    /// Queued edges, keyed `(pre, i, pre_ver)`.
    pending: FxHashSet<(u32, u32, u32)>,
    /// Snapshot sizes cached per (record, version): states stabilize
    /// quickly, so most pops reuse the cached size instead of walking the
    /// stack map.
    size_cache: FxHashMap<u32, (u32, u64)>,
    /// The pre-state copy that self-loop and summary edges need.
    pre: InstState,
}

thread_local! {
    /// The shipping traversal's per-thread [`Scratch`].
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The traversal state both loops share: seeded at `I0` by [`Walk::start`]
/// and turned into a [`TsliceOutput`] by [`Walk::finish`].
struct Walk<'p, 's> {
    prog: &'p Program,
    cfg: &'p TsliceConfig,
    crit: Criterion,
    summaries: Option<&'p ProgramSummaries>,
    st: &'s mut AnalysisState,
    stack: &'s mut Vec<Work>,
    fired: &'s mut Vec<RuleName>,
    explored: &'s mut FxHashSet<u32>,
    trace: Vec<TraceEvent>,
    stats: SliceStats,
    steps: usize,
    spills_at_start: u64,
}

impl<'p, 's> Walk<'p, 's> {
    /// Clears `bufs`, processes `I0` against the boot state and queues its
    /// successors. `None` when no instruction accesses `v0`.
    fn start(
        facts: &'p ProgramFacts<'_>,
        v0: VarAddr,
        cfg: &'p TsliceConfig,
        bufs: &'s mut Buffers,
    ) -> Option<Walk<'p, 's>> {
        let prog = facts.program();
        let summaries = cfg.use_call_summaries.then(|| facts.summaries());
        // I0: the first instruction operating on v0 (see the module docs).
        let entry = facts.first_access(v0)?;
        let Buffers { st, stack, fired, explored } = bufs;
        st.clear();
        stack.clear();
        fired.clear();
        explored.clear();
        let mut w = Walk {
            prog,
            cfg,
            crit: Criterion::new(v0, cfg.criterion_window),
            summaries,
            st,
            stack,
            fired,
            explored,
            trace: Vec::new(),
            stats: SliceStats::default(),
            steps: 0,
            spills_at_start: crate::stats::thread_spills(),
        };

        // Initial state "before I0": sp and fp hold the abstract stack base
        // so prologue sequences (`push ebp; mov ebp, esp`) are trackable.
        // The paper initializes V(I0) to ⊥; without a concrete sp no stack
        // rule could ever fire, so the implementation seeds the stack
        // registers.
        let mut boot = InstState::default();
        boot.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(STACK_BASE)));
        boot.reg_assign(Reg::Ebp, ValueSet::singleton(AbsValue::Const(STACK_BASE)));

        // The bootstrap edge has no `pre` instruction and is not a counted
        // step.
        let cur = w.st.get_mut(entry);
        if merge_and_transfer(prog, &w.crit, cfg, &boot, cur, entry, w.fired) {
            w.st.bump(entry);
        }
        let faith0 = apply_faith(w.st, cfg, prog, entry, None);
        w.record_trace(entry, faith0);
        // Line 3: D(I0) = true — the first access is dependent by definition.
        if w.st.get_mut(entry).mark_dep(0) {
            w.st.bump(entry);
        }
        push_successors(prog, entry, &None, w.stack, w.st, None, summaries, &mut w.stats);
        Some(w)
    }

    /// Appends one [`TraceEvent`] for `i` when tracing is enabled.
    fn record_trace(&mut self, i: InstId, faith: f64) {
        if self.cfg.trace {
            self.trace.push(TraceEvent {
                inst: i,
                rules: self.fired.clone(),
                faith,
                dep: self.st.get(i).map(|s| s.dep).unwrap_or(false),
            });
        }
    }

    /// Builds the slice graph from the explored states and folds the
    /// counters into the process-wide aggregate.
    fn finish(self, v0: VarAddr) -> TsliceOutput {
        let Walk {
            prog, st, explored, trace, mut stats, steps, summaries, spills_at_start, ..
        } = self;
        explored.extend(st.iter().map(|(id, _)| id.0));
        let nodes: Vec<SliceNode> = st
            .iter()
            .filter(|(_, s)| s.dep)
            .map(|(id, s)| SliceNode { inst: id, faith: st.faith(id), indirection: s.indirection })
            .collect();
        // Summary edges the traversal could take (call site → return site,
        // both explored) are CFG links for graph contraction: without them,
        // a slice carried past an opaque callee would be disconnected from
        // its far side. Derived from the explored set alone, so both
        // traversals agree.
        let mut summary_links: Vec<(u32, u32)> = Vec::new();
        if summaries.is_some() {
            for &raw in explored.iter() {
                let id = InstId(raw);
                if let InstKind::Call { target: CallTarget::Direct(_) } = &prog.inst(id).kind {
                    if let Some(site) = prog.return_site(id) {
                        if explored.contains(&site.0) {
                            summary_links.push((raw, site.0));
                        }
                    }
                }
            }
            summary_links.sort_unstable();
        }
        let slice = crate::slice::build_slice_graph_with_links(
            prog,
            v0,
            nodes,
            explored,
            steps,
            &summary_links,
        );
        stats.steps = steps as u64;
        stats.set_spills = crate::stats::thread_spills() - spills_at_start;
        crate::stats::add_to_global(&stats);
        TsliceOutput { slice, trace, stats }
    }
}

/// Runs TSLICE over per-program facts shared across criteria. The output
/// is identical to [`tslice_with`] on the same program.
///
/// This is the shipping traversal: it borrows the pre-state from the arena,
/// memoizes edges by state version, dedupes pushes of edges already
/// pending at the same pre-state version, and works in buffers the calling
/// thread reuses from one criterion to the next.
pub fn tslice_with_facts(
    facts: &ProgramFacts<'_>,
    v0: VarAddr,
    cfg: &TsliceConfig,
) -> TsliceOutput {
    SCRATCH.with(|cell| {
        // Nothing the traversal calls slices again, so the scratch is never
        // borrowed twice; a failure here is a bug in this module.
        let mut sc = cell.try_borrow_mut().expect("TSLICE re-entered its own scratch");
        run_fast(facts, v0, cfg, &mut sc)
    })
}

/// The shipping traversal's loop, in `scratch`'s buffers.
fn run_fast(
    facts: &ProgramFacts<'_>,
    v0: VarAddr,
    cfg: &TsliceConfig,
    sc: &mut Scratch,
) -> TsliceOutput {
    let Scratch { walk, memo, pending, size_cache, pre: scratch } = sc;
    let Some(mut w) = Walk::start(facts, v0, cfg, walk) else {
        return unreached(facts.program(), v0);
    };
    let (prog, summaries) = (w.prog, w.summaries);
    memo.clear();
    pending.clear();
    size_cache.clear();

    while let Some(Work { pre, i, ctx, pre_ver }) = w.stack.pop() {
        pending.remove(&(pre.0, i.0, pre_ver));
        // Line 8: once faith is exhausted, the path is cut. A cut pop does
        // no transfer work and does not consume step budget.
        if w.st.faith(pre) <= 0.0 {
            w.stats.faith_cut_pops += 1;
            continue;
        }
        if w.steps >= cfg.max_steps {
            break;
        }
        w.steps += 1;
        // Every counted pop is one snapshot the reference traversal deep-
        // clones.
        let pre_cur_ver = w.st.version(pre);
        w.stats.snapshot_bytes_avoided += match size_cache.get(&pre.0) {
            Some(&(v, b)) if v == pre_cur_ver => b,
            _ => {
                let b = w.st.snapshot_bytes(pre) as u64;
                size_cache.insert(pre.0, (pre_cur_ver, b));
                b
            }
        };
        // If neither endpoint's state changed since this exact edge was last
        // processed, the join + transfer are provably no-ops: skip them.
        // Faith still decays — the pop is observable through `F` — so the
        // memo only elides state work, never a visit. Disabled under
        // tracing, where every pop must log its rule firings.
        let key = (pre.0, i.0);
        let vers = (pre_cur_ver, w.st.version(i));
        if !cfg.trace && memo.get(&key) == Some(&vers) {
            w.stats.merges_skipped += 1;
            apply_faith(w.st, cfg, prog, i, Some(pre));
            continue;
        }
        let summary = summary_for_edge(prog, summaries, pre, i);
        let changed = if pre == i || summary.is_some() {
            // Two edge shapes need a scratch copy of the pre-state: a
            // self-loop (the split borrow is impossible) and a summary edge
            // (the pre-state is transformed before the join, and the arena
            // record must stay untouched). Both reuse the one scratch buffer.
            match w.st.get(pre) {
                Some(s) => scratch.clone_from(s),
                None => scratch.reset(),
            }
            if let Some(sum) = summary {
                apply_call_summary(scratch, sum);
                w.stats.summary_edges += 1;
            }
            let cur = w.st.get_mut(i);
            merge_and_transfer(prog, &w.crit, cfg, scratch, cur, i, w.fired)
        } else {
            let (pre_state, cur) = w.st.pair_mut(pre, i);
            merge_and_transfer(prog, &w.crit, cfg, pre_state, cur, i, w.fired)
        };
        if changed {
            w.st.bump(i);
        }
        memo.insert(key, (w.st.version(pre), w.st.version(i)));
        let faith = apply_faith(w.st, cfg, prog, i, Some(pre));
        w.record_trace(i, faith);
        // Line 11: descend only if (V, S, D) changed.
        if changed {
            push_successors(prog, i, &ctx, w.stack, w.st, Some(pending), summaries, &mut w.stats);
        }
    }
    w.finish(v0)
}

/// The reference traversal: Algorithm 1 as written, deep-snapshotting the
/// pre-state of every edge. Produces exactly the slice and trace of
/// [`tslice_with`]; it exists as the oracle for the equivalence tests and
/// is not part of the shipping path.
#[doc(hidden)]
pub fn tslice_reference(prog: &Program, v0: VarAddr, cfg: &TsliceConfig) -> TsliceOutput {
    let facts = ProgramFacts::new(prog);
    let mut bufs = Buffers::default();
    let Some(mut w) = Walk::start(&facts, v0, cfg, &mut bufs) else {
        return unreached(prog, v0);
    };
    let summaries = w.summaries;
    while let Some(Work { pre, i, ctx, .. }) = w.stack.pop() {
        if w.st.faith(pre) <= 0.0 {
            w.stats.faith_cut_pops += 1;
            continue;
        }
        if w.steps >= cfg.max_steps {
            break;
        }
        w.steps += 1;
        let mut pre_state = w.st.snapshot(pre);
        if let Some(sum) = summary_for_edge(prog, summaries, pre, i) {
            apply_call_summary(&mut pre_state, sum);
            w.stats.summary_edges += 1;
        }
        let cur = w.st.get_mut(i);
        let changed = merge_and_transfer(prog, &w.crit, cfg, &pre_state, cur, i, w.fired);
        if changed {
            w.st.bump(i);
        }
        let faith = apply_faith(w.st, cfg, prog, i, Some(pre));
        w.record_trace(i, faith);
        if changed {
            push_successors(prog, i, &ctx, w.stack, w.st, None, summaries, &mut w.stats);
        }
    }
    w.finish(v0)
}

/// The join + transfer for one `(pre, i)` edge (Algorithm 1, lines 9 and 11).
/// Returns whether `(V(i), S(i), D(i))` changed. Pure with respect to the
/// analysis state: both traversals funnel through here, which is what keeps
/// them semantically identical.
fn merge_and_transfer(
    prog: &Program,
    crit: &Criterion,
    cfg: &TsliceConfig,
    pre_state: &InstState,
    cur: &mut InstState,
    i: InstId,
    fired: &mut Vec<RuleName>,
) -> bool {
    let inst = prog.inst(i);
    let func = prog.func_of(i);
    let ret_addr = prog.return_site(i).map(|r| prog.inst(r).addr as i64);

    fired.clear();
    let changed = cur.merge_from(pre_state);
    transfer(inst, pre_state, cur, crit, func, ret_addr, cfg, fired) | changed
}

/// Faith decay (Algorithm 1, line 10) plus the indirect-call path cut.
/// Returns the updated faith of `i`.
fn apply_faith(
    st: &mut AnalysisState,
    cfg: &TsliceConfig,
    prog: &Program,
    i: InstId,
    pre: Option<InstId>,
) -> f64 {
    let inst = prog.inst(i);
    // Line 10: F(i) <- max(min(F(pre), F(i)) - Decay(i), 0).
    let faith = match pre {
        Some(p) => st.decay_faith_with(p, i, decay(cfg, &inst.kind), cfg.decay_function),
        None => st.faith(i),
    };
    // Paths through unresolvable indirect calls are cut entirely (the
    // paper's example drives faith to 0 at `call [_Xlength_error]`).
    if cfg.cut_indirect_calls
        && matches!(&inst.kind, InstKind::Call { target: CallTarget::Indirect(_) })
    {
        st.zero_faith(i);
    }
    faith
}

/// The decay function of Algorithm 1, line 5.
fn decay(cfg: &TsliceConfig, kind: &InstKind) -> f64 {
    if kind.uses_indirect_addressing() {
        cfg.decay_indirect
    } else if kind.is_stack_op() {
        cfg.decay_stack
    } else {
        cfg.decay_default
    }
}

/// The callee summary of a summary edge `(pre, i)`: `pre` is a direct call
/// whose return site is `i`. The normal traversal never queues that pair —
/// a call's only successor edge goes to the callee entry, and the matching
/// `ret` edge has the `ret` instruction as `pre` — so the shape identifies
/// summary edges unambiguously, with no flag threaded through [`Work`].
fn summary_for_edge<'a>(
    prog: &Program,
    summaries: Option<&'a ProgramSummaries>,
    pre: InstId,
    i: InstId,
) -> Option<&'a FuncSummary> {
    let summaries = summaries?;
    match &prog.inst(pre).kind {
        InstKind::Call { target: CallTarget::Direct(f) } if prog.return_site(pre) == Some(i) => {
            Some(summaries.of(*f))
        }
        _ => None,
    }
}

/// Applies a callee's mod-ref summary to the post-state of its call site,
/// yielding the pre-state a summary edge feeds into the return site:
///
/// * `esp` is popped past the return address (`ret` semantics), or killed
///   outright when the call-site `esp` is not a single constant;
/// * exactly the summarized clobber set is killed — everything else,
///   including callee-saved registers holding container pointers, survives;
/// * `ebp` survives iff the callee provably restores it;
/// * when the callee may write argument-reachable memory, every stack cell
///   whose abstract address appears as a constant in a tracked argument slot
///   is invalidated (one level of reachability — the paper's domain keeps
///   concrete addresses only as `(const, c)` values). `(ptr, c)` arguments
///   need no invalidation: anything the callee stores through the criterion
///   pointer is itself `v0`-dependent, which the domain already expresses.
///
/// Globals need no treatment: the `S` map is keyed by constant register
/// bases, which generated code only produces for stack addresses; absolute
/// stores never enter it. The transform is a pure function of the input
/// state and the summary, so the fast path's edge memo remains valid.
fn apply_call_summary(state: &mut InstState, sum: &FuncSummary) {
    match state.reg(Reg::Esp).singleton_const() {
        Some(s) => {
            state.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s + 4)));
            if sum.writes_arg_mem {
                let mut targets: Vec<i64> = Vec::new();
                for k in 0..TRACKED_ARGS as i64 {
                    if let Some(vs) = state.stack_slot(s + 4 + 4 * k) {
                        targets.extend(vs.iter().filter_map(|v| match v {
                            AbsValue::Const(c) => Some(c),
                            _ => None,
                        }));
                    }
                }
                for t in targets {
                    state.stack_assign(t, ValueSet::new());
                }
            }
        }
        None => {
            state.reg_assign(Reg::Esp, ValueSet::new());
        }
    }
    for r in sum.clobbered.iter() {
        state.reg_assign(r, ValueSet::new());
    }
    if !sum.preserves_frame {
        state.reg_assign(Reg::Ebp, ValueSet::new());
    }
}

/// Pushes the control-flow successors of `i` with the right context:
/// direct calls descend into the callee, `ret` resumes at the recorded
/// return site, everything else follows the intra-procedural flow.
///
/// When `pending` is given (the fast path), an edge already queued at the
/// same pre-state version is not pushed again: its pop could only repeat
/// work the queued twin will already do.
#[allow(clippy::too_many_arguments)]
fn push_successors(
    prog: &Program,
    i: InstId,
    ctx: &Ctx,
    stack: &mut Vec<Work>,
    st: &AnalysisState,
    mut pending: Option<&mut FxHashSet<(u32, u32, u32)>>,
    summaries: Option<&ProgramSummaries>,
    stats: &mut SliceStats,
) {
    let pre_ver = st.version(i);
    let mut push = |stack: &mut Vec<Work>, work: Work| {
        if let Some(pending) = pending.as_deref_mut() {
            if !pending.insert((work.pre.0, work.i.0, work.pre_ver)) {
                stats.worklist_hits += 1;
                return;
            }
        }
        stack.push(work);
    };
    match &prog.inst(i).kind {
        InstKind::Call { target: CallTarget::Direct(f) } => {
            let callee_entry = prog.func(*f).entry();
            let new_ctx = match prog.return_site(i) {
                Some(site) => ctx_push(ctx, site),
                None => ctx.clone(),
            };
            push(stack, Work { pre: i, i: callee_entry, ctx: new_ctx, pre_ver });
            // Summary edge: also step straight over the callee. The return
            // site keeps the *caller's* context — the callee was consumed
            // by the summary, not descended into.
            if summaries.is_some() {
                if let Some(site) = prog.return_site(i) {
                    push(stack, Work { pre: i, i: site, ctx: ctx.clone(), pre_ver });
                }
            }
        }
        InstKind::Ret => {
            if let Some(node) = ctx {
                push(stack, Work { pre: i, i: node.ret, ctx: node.parent.clone(), pre_ver });
            }
            // Returning with an empty context leaves the analyzed region.
        }
        _ => {
            // A conditional jump whose target is its own fall-through lists
            // the same successor twice, but the CFG edge is one: push it
            // once, or the reference path would decay faith twice where the
            // fast path's pending-set dedupe decays it once.
            let succs = prog.flow_succs(i);
            for (k, &s) in succs.iter().enumerate() {
                if succs[..k].contains(&s) {
                    continue;
                }
                push(stack, Work { pre: i, i: s, ctx: ctx.clone(), pre_ver });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::{ExternKind, InstKind, MemAddr, Opcode, Operand, ProgramBuilder};

    /// mov esi, [V0]; push esi; call buy (mallocs); add esi, 4; ret
    /// with an unrelated register move in between.
    fn little_program(v0: u64) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        // I0: mov esi, dword ptr [v0]        <- dep (Mov-riv)
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
        );
        // I1: mov eax, ebx                   <- not dep
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Ebx) },
        );
        // I2: push esi                       <- dep (Stk-Push)
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Esi) });
        // I3: call buynode                   <- descends
        b.call_named("buynode");
        // I4: mov edx, esi                   <- dep (Mov-rr)
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::reg(Reg::Esi) },
        );
        b.ret();
        b.end_func();

        b.begin_func("buynode");
        // I6: pop ecx (the pushed arg is *below* the return addr; this pops
        // the return address slot in our abstraction - a const, no dep).
        b.call_extern(ExternKind::Malloc);
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn finds_dependent_instructions_across_calls() {
        let v0 = 0x74404u64;
        let prog = little_program(v0);
        let slice = tslice(&prog, VarAddr::Global(MemAddr(v0)));
        // I0 (load), I2 (push), I4 (reg move) are dependent.
        assert!(slice.contains(InstId(0)), "load of v0");
        assert!(slice.contains(InstId(2)), "push of dependent esi");
        assert!(slice.contains(InstId(4)), "move of dependent esi after call");
        assert!(!slice.contains(InstId(1)), "unrelated move");
        assert!(slice.num_nodes() >= 3);
        assert!(slice.explored >= prog.num_insts() - 1);
    }

    #[test]
    fn unrelated_variable_yields_empty_slice() {
        let prog = little_program(0x74404);
        let slice = tslice(&prog, VarAddr::Global(MemAddr(0x90000)));
        assert!(slice.is_empty());
    }

    #[test]
    fn trace_records_rule_firings() {
        let v0 = 0x74404u64;
        let prog = little_program(v0);
        let out = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::with_trace());
        assert!(!out.trace.is_empty());
        let first = out.trace.iter().find(|e| e.inst == InstId(0)).unwrap();
        assert!(first.rules.contains(&RuleName::MovRiv));
        assert!(first.dep);
        // Faith decays monotonically within the trace of one instruction.
        let faiths: Vec<f64> =
            out.trace.iter().filter(|e| e.inst == InstId(4)).map(|e| e.faith).collect();
        assert!(faiths.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn faith_cut_stops_exploration() {
        // With an enormous default decay every step kills faith immediately:
        // only the entry's direct successors are explored.
        let v0 = 0x74404u64;
        let prog = little_program(v0);
        let cfg = TsliceConfig {
            decay_default: 1.0,
            decay_stack: 1.0,
            decay_indirect: 1.0,
            ..TsliceConfig::default()
        };
        let out = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &cfg);
        assert!(out.slice.explored <= 3, "explored {}", out.slice.explored);
        assert!(out.stats.faith_cut_pops > 0, "cut pops are counted");
    }

    #[test]
    fn stack_criterion_is_tracked() {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        // lea eax, [ebp+8]  -- address of the local v
        b.inst(
            Opcode::Lea,
            InstKind::Mov {
                dst: Operand::reg(Reg::Eax),
                src: Operand::Loc(tiara_ir::Loc::with_offset(Reg::Ebp, 8)),
            },
        );
        // mov ecx, [ebp+8]  -- load of v
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ecx), src: Operand::mem_reg(Reg::Ebp, 8) },
        );
        // mov edx, [ebp+20h] -- unrelated local
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::mem_reg(Reg::Ebp, 0x20) },
        );
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let v0 = VarAddr::Stack { func: prog.entry_func(), offset: 8 };
        let slice = tslice(&prog, v0);
        assert!(slice.contains(InstId(0)), "lea of v0 slot");
        assert!(slice.contains(InstId(1)), "load of v0 slot");
        assert!(!slice.contains(InstId(2)), "other local");
    }

    /// A three-instruction straight line under total decay: the entry is
    /// processed outside the loop, exactly one in-loop pop has positive
    /// faith, and the final faith-cut pop must consume no step budget.
    fn chain_program(v0: u64) -> (Program, VarAddr) {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::reg(Reg::Esi) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::reg(Reg::Eax) },
        );
        b.ret();
        b.end_func();
        (b.finish().unwrap(), VarAddr::Global(MemAddr(v0)))
    }

    #[test]
    fn faith_cut_pops_do_not_consume_step_budget() {
        let (prog, v0) = chain_program(0x74404);
        let cfg = TsliceConfig {
            decay_default: 1.0,
            decay_stack: 1.0,
            decay_indirect: 1.0,
            ..TsliceConfig::default()
        };
        let full = tslice_with(&prog, v0, &cfg);
        assert_eq!(full.slice.steps, 1, "one productive pop, cut pops uncounted");
        assert!(full.stats.faith_cut_pops >= 1);
        // A budget of exactly the productive steps reproduces the full run:
        // under the old accounting the cut pop burned the budget first.
        let tight = tslice_with(&prog, v0, &TsliceConfig { max_steps: 1, ..cfg });
        assert_eq!(tight.slice, full.slice);
    }

    #[test]
    fn reference_mode_matches_fast_path_on_the_little_program() {
        let v0 = 0x74404u64;
        let prog = little_program(v0);
        for cfg in [TsliceConfig::default(), TsliceConfig::with_trace()] {
            let fast = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &cfg);
            let refr = tslice_reference(&prog, VarAddr::Global(MemAddr(v0)), &cfg);
            assert_eq!(fast.slice, refr.slice);
            assert_eq!(fast.trace, refr.trace);
        }
    }

    /// `main` loads the criterion into `esi`, calls a helper whose body is
    /// cut immediately (an indirect call through an import table), then
    /// keeps using `esi` on the far side. Without summaries the interior
    /// path is the only route to the return site and it dies at the cut.
    fn opaque_helper_program(v0: u64) -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        // I0: mov esi, [v0]                  <- dep
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
        );
        // I1: push esi                       <- dep (arg to helper)
        b.inst(Opcode::Push, InstKind::Push { src: Operand::reg(Reg::Esi) });
        // I2: call helper
        b.call_named("helper");
        // I3: mov edx, esi                   <- far side: dep iff esi survives
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::reg(Reg::Esi) },
        );
        b.ret();
        b.end_func();
        b.begin_func("helper");
        // I5: call [0x5000]                  <- faith := 0 (cut_indirect_calls)
        b.call_indirect(Operand::mem_abs(0x5000u64, 0));
        b.ret();
        b.end_func();
        b.finish().unwrap()
    }

    #[test]
    fn summary_edges_carry_the_slice_past_opaque_helpers() {
        let v0 = 0x74404u64;
        let prog = opaque_helper_program(v0);
        let base = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::default());
        assert!(base.slice.contains(InstId(0)), "load of v0");
        assert!(!base.slice.contains(InstId(3)), "baseline dies at the interior cut");
        assert_eq!(base.stats.summary_edges, 0);

        let summ =
            tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::with_call_summaries());
        assert!(summ.slice.contains(InstId(3)), "esi survives the summarized call");
        assert!(summ.stats.summary_edges > 0, "the summary edge was taken");
        assert!(
            summ.slice.num_nodes() > base.slice.num_nodes(),
            "summaries make this slice strictly larger"
        );
    }

    #[test]
    fn summary_edges_kill_exactly_the_clobbered_registers() {
        let v0 = 0x74404u64;
        let mut b = ProgramBuilder::new();
        b.begin_func("main");
        // I0: mov esi, [v0]; I1: mov ebx, esi
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::mem_abs(v0, 0) },
        );
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ebx), src: Operand::reg(Reg::Esi) },
        );
        b.call_named("helper");
        // I3: mov edx, esi — esi is in the helper's clobber set: not dep.
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Edx), src: Operand::reg(Reg::Esi) },
        );
        // I4: mov ecx, ebx — ebx survives the summary: dep.
        b.inst(
            Opcode::Mov,
            InstKind::Mov { dst: Operand::reg(Reg::Ecx), src: Operand::reg(Reg::Ebx) },
        );
        b.ret();
        b.end_func();
        b.begin_func("helper");
        // I6: mov esi, 0 — puts esi into the clobber set; I7 cuts the body.
        b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Esi), src: Operand::imm(0) });
        b.call_indirect(Operand::mem_abs(0x5000u64, 0));
        b.ret();
        b.end_func();
        let prog = b.finish().unwrap();
        let out =
            tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::with_call_summaries());
        assert!(!out.slice.contains(InstId(3)), "clobbered esi must not leak through");
        assert!(out.slice.contains(InstId(4)), "untouched ebx survives the call");
    }

    #[test]
    fn summary_mode_fast_path_matches_reference_mode() {
        let v0 = 0x74404u64;
        for prog in [little_program(v0), opaque_helper_program(v0)] {
            let cfg = TsliceConfig::with_call_summaries();
            let fast = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &cfg);
            let refr = tslice_reference(&prog, VarAddr::Global(MemAddr(v0)), &cfg);
            assert_eq!(fast.slice, refr.slice);
            assert_eq!(fast.stats.summary_edges, refr.stats.summary_edges);
        }
    }

    #[test]
    fn apply_call_summary_models_ret_and_arg_memory() {
        use tiara_dataflow::GlobalsEffect;
        use tiara_dataflow::RegSet;
        let mut st = InstState::default();
        // Post-call state: esp = s (ret addr at [s]), arg 0 at [s+4] holding
        // the abstract address of a caller cell that itself holds (ref, 0).
        let s = STACK_BASE - 4;
        st.reg_assign(Reg::Esp, ValueSet::singleton(AbsValue::Const(s)));
        st.reg_assign(Reg::Ebp, ValueSet::singleton(AbsValue::Const(STACK_BASE)));
        st.reg_assign(Reg::Ebx, ValueSet::singleton(AbsValue::Ref(0)));
        st.stack_assign(s + 4, ValueSet::singleton(AbsValue::Const(STACK_BASE - 64)));
        st.stack_assign(STACK_BASE - 64, ValueSet::singleton(AbsValue::Ref(0)));

        let sum = FuncSummary {
            func: tiara_ir::FuncId(1),
            name: "helper".into(),
            clobbered: RegSet::of(Reg::Eax).with(Reg::Ecx),
            reads: RegSet::EMPTY,
            arg_reads: 1,
            arg_writes: 0,
            reads_arg_mem: true,
            writes_arg_mem: true,
            globals_read: GlobalsEffect::bottom(),
            globals_written: GlobalsEffect::bottom(),
            allocates: false,
            frees: false,
            preserves_frame: true,
            has_unknown_callee: false,
            address_taken: Default::default(),
            escaped: Default::default(),
            slot_reads: Default::default(),
            slot_writes: Default::default(),
        };
        apply_call_summary(&mut st, &sum);
        assert_eq!(st.reg(Reg::Esp).singleton_const(), Some(s + 4), "ret popped");
        assert_eq!(
            st.reg(Reg::Ebp).singleton_const(),
            Some(STACK_BASE),
            "frame-preserving callee keeps ebp"
        );
        assert!(st.reg(Reg::Eax).is_empty() && st.reg(Reg::Ecx).is_empty(), "clobbers kill");
        assert!(st.reg(Reg::Ebx).contains(AbsValue::Ref(0)), "non-clobbered survives");
        assert!(
            st.stack_slot_or_empty(STACK_BASE - 64).is_empty(),
            "argument-reachable cell invalidated"
        );
        assert!(
            st.stack_slot_or_empty(s + 4).contains(AbsValue::Const(STACK_BASE - 64)),
            "the argument slot itself is untouched"
        );
    }

    /// `main` loads `v0` into `esi` and calls `helper`, which parks the
    /// dependent value in a frame slot, overwrites that slot through a
    /// *computed* register (`lea edi, [ebp-8]; mov [edi], 0`), then reads
    /// the slot back. The store through `edi` has no memory effect in the
    /// domain, so the read-back sees the stale `(ref, 0)`.
    fn computed_store_program(v0: u64) -> Program {
        let text = format!(
            "func helper {{\n\
                 push ebp\n\
                 mov ebp, esp\n\
                 sub esp, 16\n\
                 mov [ebp-8], esi\n\
                 lea edi, [ebp-8]\n\
                 mov dword ptr [edi], 0\n\
                 mov ecx, [ebp-8]\n\
                 mov esp, ebp\n\
                 pop ebp\n\
                 ret\n\
             }}\n\
             func main {{\n\
                 mov esi, dword ptr [{v0:X}h]\n\
                 call helper\n\
                 mov eax, 1\n\
                 ret\n\
             }}\n\
             entry main\n"
        );
        tiara_ir::parse_program(&text).expect("listing parses")
    }

    #[test]
    fn computed_store_slice_stays_within_sslice() {
        // The stale read-back is a spurious dependence, but TSLICE ⊆ SSLICE
        // must still hold: the stale value never pulls in an instruction
        // SSLICE lacks.
        let v0 = 0x74404u64;
        let prog = computed_store_program(v0);
        let crit = VarAddr::Global(tiara_ir::MemAddr(v0));
        let out = tslice_with(&prog, crit, &TsliceConfig::default());
        // I6 is `mov ecx, [ebp-8]`, the read-back after the computed store.
        assert!(out.slice.contains(InstId(6)), "the read-back sees the stale dependent value");
        let ss = crate::sslice::sslice(&prog, crit);
        for node in &out.slice.nodes {
            assert!(ss.contains(node.inst), "tslice node {:?} missing from sslice", node.inst);
        }
    }

    #[test]
    fn stats_count_productive_work() {
        let v0 = 0x74404u64;
        let prog = little_program(v0);
        let out = tslice_with(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::default());
        assert_eq!(out.stats.steps, out.slice.steps as u64);
        assert!(out.stats.snapshot_bytes_avoided > 0, "every pop avoids a snapshot");
        // The reference traversal avoids nothing by construction.
        let refr = tslice_reference(&prog, VarAddr::Global(MemAddr(v0)), &TsliceConfig::default());
        assert_eq!(refr.stats.snapshot_bytes_avoided, 0);
        assert_eq!(refr.stats.merges_skipped, 0);
    }
}
