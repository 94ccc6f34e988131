//! Variable-address discovery: proposing the slicing criteria.
//!
//! The paper assumes variable addresses are given (extracted from PDBs via
//! the DIA SDK) and notes that for truly stripped binaries "finding such
//! addresses is much less challenging than finding their types", citing TIE.
//! This module implements that orthogonal step for our IR, twice:
//!
//! * [`discover_variables`] — the syntactic heuristic: globals from
//!   absolute accesses, locals from literal `[ebp ± c]` accesses in
//!   functions that keep their frame pointer. It is blind to
//!   `lea`-materialized bases, `esp`-relative frames, frame-pointer-omitted
//!   functions, and heap objects.
//! * [`discover_variables_vsa`] — the same clustering fed by value-set
//!   analysis ([`tiara_dataflow::vsa`]): every memory operand — including
//!   derefs through computed registers — resolves to abstract a-locs, so
//!   frame slots are proposed in *all* functions (entry-`esp`-relative in
//!   `/Oy` functions, `ebp`-relative otherwise) and heap allocation sites
//!   become a new criterion class ([`VarAddr::Heap`]).

use tiara_dataflow::vsa::{vsa_function, Region, ENUM_LIMIT};
use tiara_ir::{detect_frame_mode, FrameMode, Function, Operand, Program, VarAddr};

/// Tunable knobs of the discovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryConfig {
    /// Accesses within this many bytes of a cluster base are fields of the
    /// same variable (matches the slicing criterion window).
    pub window: i64,
    /// Frame offsets in `(-spill_region..0)` are ignored: compilers place
    /// register spills immediately below the saved frame pointer.
    pub spill_region: i64,
}

impl Default for DiscoveryConfig {
    fn default() -> DiscoveryConfig {
        DiscoveryConfig { window: 16, spill_region: 0x20 }
    }
}

/// Clusters a sorted list of addresses/offsets into window-separated bases.
fn cluster(mut points: Vec<i64>, window: i64) -> Vec<i64> {
    points.sort_unstable();
    points.dedup();
    let mut bases = Vec::new();
    let mut current: Option<i64> = None;
    for p in points {
        match current {
            Some(base) if p < base + window => {}
            _ => {
                bases.push(p);
                current = Some(p);
            }
        }
    }
    bases
}

/// Discovers candidate variable addresses in a program.
///
/// Returns global candidates (from absolute memory accesses) and
/// frame-slot candidates (from `[ebp ± c]` accesses in frame-pointer
/// functions, excluding the spill region and the argument/return area
/// `0..8`).
pub fn discover_variables(prog: &Program, cfg: &DiscoveryConfig) -> Vec<VarAddr> {
    let mut globals: Vec<i64> = Vec::new();
    let mut per_func: Vec<Vec<i64>> = vec![Vec::new(); prog.funcs().len()];

    for f in prog.funcs() {
        let framed = matches!(detect_frame_mode(prog, f.id), FrameMode::FramePointer);
        for id in f.inst_ids() {
            for opr in prog.inst(id).kind.operands() {
                match opr {
                    Operand::Deref(loc) | Operand::Loc(loc) => {
                        if let Some(m) = loc.base_mem() {
                            // Skip `offset label` push/jump targets that are
                            // plainly code or string addresses? We cannot
                            // know; clustering keeps the noise bounded.
                            globals.push(m.value() as i64 + loc.offset);
                        } else if framed && loc.base_reg() == Some(tiara_ir::Reg::Ebp) {
                            let off = loc.offset;
                            let in_spills = -cfg.spill_region <= off && off < 0;
                            let in_linkage = (0..8).contains(&off);
                            if !in_spills && !in_linkage {
                                per_func[f.id.index()].push(off);
                            }
                        }
                    }
                    Operand::Imm(_) => {}
                }
            }
        }
    }

    let mut out: Vec<VarAddr> = cluster(globals, cfg.window)
        .into_iter()
        .filter(|&b| b >= 0)
        .map(|b| VarAddr::Global(tiara_ir::MemAddr(b as u64)))
        .collect();
    for (k, offsets) in per_func.into_iter().enumerate() {
        let func = prog.funcs()[k].id;
        for off in cluster(offsets, cfg.window) {
            out.push(VarAddr::Stack { func, offset: off });
        }
    }
    out
}

/// Discovers candidate variable addresses with value-set analysis.
///
/// Runs [`tiara_dataflow::vsa`] per function, on the shared `tiara_par`
/// executor, and resolves every explicit memory operand (`Deref` *and*
/// address-forming `Loc`, matching the heuristic's sensitivity) to
/// abstract a-locs:
///
/// * `Global` points cluster into global candidates, exactly like the
///   heuristic's absolute operands — but now also through computed bases;
/// * `Frame` points cluster per function in **all** functions. In
///   frame-pointer functions offsets convert to the `ebp`-relative
///   convention the ground truth uses (`ebp` = entry `esp` − 4) with the
///   heuristic's spill/linkage exclusions; in frame-pointer-omitted
///   functions the entry-`esp`-relative offsets are proposed directly;
/// * `Heap` regions propose one [`VarAddr::Heap`] allocation-site
///   criterion per site — a class the heuristic cannot represent at all.
///
/// Operand address sets that are ⊤ or too wide to enumerate (more than
/// [`ENUM_LIMIT`] points in a region) contribute nothing — an unresolved
/// access never pollutes precision.
pub fn discover_variables_vsa(prog: &Program, cfg: &DiscoveryConfig) -> Vec<VarAddr> {
    // Functions are analysed independently on the shared executor and
    // folded back in function order, so the output is the same at every
    // thread count.
    let found = tiara_par::global().par_map(prog.funcs(), |_, f| vsa_points(prog, f, cfg));
    let globals = found.iter().flat_map(|p| p.globals.iter().copied()).collect();
    let heap_sites: std::collections::BTreeSet<_> =
        found.iter().flat_map(|p| p.heap.iter().copied()).collect();
    let mut out: Vec<VarAddr> = cluster(globals, cfg.window)
        .into_iter()
        .filter(|&b| b >= 0)
        .map(|b| VarAddr::Global(tiara_ir::MemAddr(b as u64)))
        .collect();
    for (f, p) in prog.funcs().iter().zip(found) {
        for off in cluster(p.frame, cfg.window) {
            out.push(VarAddr::Stack { func: f.id, offset: off });
        }
    }
    for site in heap_sites {
        out.push(VarAddr::Heap { site: tiara_ir::MemAddr(prog.inst(site).addr) });
    }
    out
}

/// What one function's memory operands resolve to under VSA: global
/// points, frame offsets in the ground truth's convention, and heap
/// allocation sites, each in instruction order.
#[derive(Default)]
struct VsaPoints {
    globals: Vec<i64>,
    frame: Vec<i64>,
    heap: Vec<tiara_ir::InstId>,
}

/// Runs VSA on `f` and resolves its memory operands (see
/// [`discover_variables_vsa`]).
fn vsa_points(prog: &Program, f: &Function, cfg: &DiscoveryConfig) -> VsaPoints {
    let mut found = VsaPoints::default();
    let framed = matches!(detect_frame_mode(prog, f.id), FrameMode::FramePointer);
    vsa_function(prog, f.id).walk(prog, |id, fact| {
        for opr in prog.inst(id).kind.operands() {
            let loc = match opr {
                Operand::Deref(loc) | Operand::Loc(loc) => loc,
                Operand::Imm(_) => continue,
            };
            let addr = fact.eval_addr(loc);
            let Some(regions) = addr.regions() else { continue };
            for (region, si) in regions {
                match region {
                    Region::Heap(site) => {
                        found.heap.push(*site);
                    }
                    _ if si.count() > ENUM_LIMIT => {}
                    Region::Global => {
                        found.globals.extend(si.points().filter(|&p| p >= 0));
                    }
                    Region::Frame(func) if *func == f.id => {
                        for frame_off in si.points() {
                            if framed {
                                // `ebp` sits at entry `esp` − 4.
                                let off = frame_off + 4;
                                let in_spills = -cfg.spill_region <= off && off < 0;
                                let in_linkage = (0..8).contains(&off);
                                if !in_spills && !in_linkage {
                                    found.frame.push(off);
                                }
                            } else if !(0..8).contains(&frame_off) {
                                found.frame.push(frame_off);
                            }
                        }
                    }
                    Region::Frame(_) => {}
                }
            }
        }
    });
    found
}

/// Discovery quality against ground truth: how many labeled variables were
/// proposed, and how many proposals have no label (spurious — unlabeled
/// temporaries, strings, import slots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryScore {
    /// Labeled variables whose base was proposed.
    pub found: usize,
    /// Labeled variables missed.
    pub missed: usize,
    /// Proposals with no matching label.
    pub spurious: usize,
    /// Total number of proposals scored.
    pub proposed: usize,
}

impl DiscoveryScore {
    /// Recall over the labeled variables.
    pub fn recall(&self) -> f64 {
        let total = self.found + self.missed;
        if total == 0 {
            return 0.0;
        }
        self.found as f64 / total as f64
    }

    /// Precision over the proposals (the fraction that hit a label).
    pub fn precision(&self) -> f64 {
        if self.proposed == 0 {
            return 0.0;
        }
        (self.proposed - self.spurious) as f64 / self.proposed as f64
    }

    /// Harmonic mean of [`recall`](Self::recall) and
    /// [`precision`](Self::precision).
    pub fn f1(&self) -> f64 {
        let (r, p) = (self.recall(), self.precision());
        if r + p == 0.0 {
            return 0.0;
        }
        2.0 * r * p / (r + p)
    }
}

/// `true` if proposal `p` names record address `r` under a tolerance
/// `window`: same inclusive/exclusive semantics as `Criterion::new` — the
/// proposal lands in `[r, r + window)` of the right kind and scope.
/// `window = 0` degenerates to exact equality.
fn matches_windowed(p: &VarAddr, r: &VarAddr, window: i64) -> bool {
    if window == 0 {
        return p == r;
    }
    match (p, r) {
        (VarAddr::Global(pm), VarAddr::Global(rm)) => {
            let (p, r) = (pm.value() as i64, rm.value() as i64);
            p >= r && p < r + window
        }
        (VarAddr::Stack { func: pf, offset: po }, VarAddr::Stack { func: rf, offset: ro }) => {
            pf == rf && *po >= *ro && *po < *ro + window
        }
        (VarAddr::Heap { site: ps }, VarAddr::Heap { site: rs }) => ps == rs,
        _ => false,
    }
}

fn score_with_window(
    discovered: &[VarAddr],
    truth: &tiara_ir::DebugInfo,
    window: i64,
) -> DiscoveryScore {
    let mut found = 0usize;
    let mut missed = 0usize;
    for rec in truth.iter() {
        if discovered.iter().any(|d| matches_windowed(d, &rec.addr, window)) {
            found += 1;
        } else {
            missed += 1;
        }
    }
    let spurious = discovered
        .iter()
        .filter(|d| truth.iter().all(|rec| !matches_windowed(d, &rec.addr, window)))
        .count();
    DiscoveryScore { found, missed, spurious, proposed: discovered.len() }
}

/// Scores a discovery result against a ground-truth table with exact base
/// matching.
pub fn score_discovery(discovered: &[VarAddr], truth: &tiara_ir::DebugInfo) -> DiscoveryScore {
    score_with_window(discovered, truth, 0)
}

/// Scores with the slicing criterion's window tolerance: a proposal landing
/// anywhere in `[base, base + window)` of a labeled variable counts as
/// finding it (same inclusive/exclusive semantics as `Criterion::new`).
/// The strict score calls a proposal 4 bytes into a variable both missed
/// *and* spurious even though a criterion built from it would slice the
/// variable fine; this variant reports what the slicer would accept.
pub fn score_discovery_windowed(
    discovered: &[VarAddr],
    truth: &tiara_ir::DebugInfo,
    window: i64,
) -> DiscoveryScore {
    score_with_window(discovered, truth, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    #[test]
    fn clustering_respects_the_window() {
        assert_eq!(cluster(vec![100, 104, 108, 132, 133], 16), vec![100, 132]);
        assert_eq!(cluster(vec![], 16), Vec::<i64>::new());
        assert_eq!(cluster(vec![5, 5, 5], 16), vec![5]);
    }

    #[test]
    fn discovers_most_labeled_variables() {
        let bin = generate(&ProjectSpec {
            name: "disc".into(),
            index: 0,
            seed: 33,
            counts: TypeCounts { list: 4, vector: 6, map: 6, primitive: 20, ..Default::default() },
        });
        let discovered = discover_variables(&bin.program, &DiscoveryConfig::default());
        let score = score_discovery(&discovered, &bin.debug);
        assert!(
            score.recall() > 0.85,
            "recall {:.2} ({} found, {} missed)",
            score.recall(),
            score.found,
            score.missed
        );
        // Spurious proposals exist (noise globals, string tables) but stay
        // within the same order of magnitude.
        assert!(score.spurious < discovered.len());
    }

    #[test]
    fn windowed_scoring_pins_the_boundary() {
        use tiara_ir::{DebugInfo, MemAddr};
        let base = 0x74404u64;
        let mut truth = DebugInfo::new();
        truth.record(VarAddr::Global(MemAddr(base)), tiara_ir::ContainerClass::List, 0);
        let window = 16i64;
        // base + window - 1 still matches…
        let inside = vec![VarAddr::Global(MemAddr(base + window as u64 - 1))];
        let s = score_discovery_windowed(&inside, &truth, window);
        assert_eq!((s.found, s.missed, s.spurious), (1, 0, 0));
        // …base + window does not (exclusive upper bound).
        let outside = vec![VarAddr::Global(MemAddr(base + window as u64))];
        let s = score_discovery_windowed(&outside, &truth, window);
        assert_eq!((s.found, s.missed, s.spurious), (0, 1, 1));
        // The strict score rejects both.
        assert_eq!(score_discovery(&inside, &truth).found, 0);
        // Stack offsets use the same semantics, scoped to the function.
        let mut truth = DebugInfo::new();
        let rec = VarAddr::Stack { func: tiara_ir::FuncId(1), offset: -0x20 };
        truth.record(rec, tiara_ir::ContainerClass::Vector, 0);
        let p = |off| vec![VarAddr::Stack { func: tiara_ir::FuncId(1), offset: off }];
        assert_eq!(score_discovery_windowed(&p(-0x20 + 15), &truth, 16).found, 1);
        assert_eq!(score_discovery_windowed(&p(-0x20 + 16), &truth, 16).found, 0);
        assert_eq!(score_discovery_windowed(&p(-0x21), &truth, 16).found, 0, "below base");
        let wrong_func = vec![VarAddr::Stack { func: tiara_ir::FuncId(0), offset: -0x20 }];
        assert_eq!(score_discovery_windowed(&wrong_func, &truth, 16).found, 0);
    }

    #[test]
    fn precision_and_f1_follow_the_counts() {
        let s = DiscoveryScore { found: 3, missed: 1, spurious: 2, proposed: 5 };
        assert!((s.recall() - 0.75).abs() < 1e-12);
        assert!((s.precision() - 0.6).abs() < 1e-12);
        let f1 = 2.0 * 0.75 * 0.6 / (0.75 + 0.6);
        assert!((s.f1() - f1).abs() < 1e-12);
        let empty = DiscoveryScore { found: 0, missed: 0, spurious: 0, proposed: 0 };
        assert_eq!((empty.recall(), empty.precision(), empty.f1()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn vsa_discovery_strictly_beats_the_heuristic_on_computed_scenarios() {
        let bin = generate(&ProjectSpec {
            name: "cva".into(),
            index: 2,
            seed: 17,
            counts: TypeCounts {
                list: 2,
                vector: 3,
                map: 2,
                primitive: 8,
                computed: 8,
                ..Default::default()
            },
        });
        let cfg = DiscoveryConfig::default();
        let heur = discover_variables(&bin.program, &cfg);
        let vsa = discover_variables_vsa(&bin.program, &cfg);
        let hs = score_discovery_windowed(&heur, &bin.debug, cfg.window);
        let vs = score_discovery_windowed(&vsa, &bin.debug, cfg.window);
        assert!(
            vs.recall() > hs.recall(),
            "VSA recall {:.3} must strictly beat heuristic recall {:.3}",
            vs.recall(),
            hs.recall()
        );
        // The heuristic cannot see any of the 8 computed-address variables.
        assert!(vs.found >= hs.found + 8, "vsa found {} vs heuristic {}", vs.found, hs.found);
        // Heap allocation sites only exist in the VSA proposals.
        assert!(vsa.iter().any(|d| matches!(d, VarAddr::Heap { .. })));
        assert!(heur.iter().all(|d| !matches!(d, VarAddr::Heap { .. })));
    }

    #[test]
    fn globals_and_stack_slots_are_both_proposed() {
        let bin = generate(&ProjectSpec {
            name: "disc2".into(),
            index: 1,
            seed: 8,
            counts: TypeCounts { list: 2, vector: 3, map: 3, primitive: 10, ..Default::default() },
        });
        let discovered = discover_variables(&bin.program, &DiscoveryConfig::default());
        assert!(discovered.iter().any(|d| matches!(d, VarAddr::Global(_))));
        assert!(discovered.iter().any(|d| matches!(d, VarAddr::Stack { .. })));
    }
}
