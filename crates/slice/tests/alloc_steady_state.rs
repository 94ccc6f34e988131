//! TSLICE's steady state allocates a small constant per slice.
//!
//! The shipping traversal keeps its tables (analysis state, worklist, edge
//! memo, pending set) in a per-thread scratch that is cleared, not freed,
//! between criteria. Once one pass over a suite has grown them, a second
//! pass allocates only what every slice must: the value sets that outgrow
//! their inline buffer (counted as `set_spills`), the returned `Slice`, and
//! a few small per-slice tables. A table rebuilt per criterion would cost
//! hundreds of allocations per slice and fail the bound.
//!
//! The second test checks the other side of reuse: no state leaks from one
//! criterion into the next, whatever order a thread slices them in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tiara_ir::{Program, VarAddr};
use tiara_slice::{tslice_with_facts, ProgramFacts, TsliceConfig, TsliceOutput};
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Non-spill allocations allowed per slice in steady state. What a slice
/// still allocates: its output (`Slice` nodes and edges), the graph
/// builder's node index, BFS queue and visited set, the explored-region
/// links, the call contexts it descends through, the value sets transfer
/// functions copy out of spilled ones, and its share of the per-program
/// first-access index. About 17 were measured on the `analyze-cold` seed-1
/// corpus and 16 on this suite, where a slice made about 980 before the
/// scratch was reused; the bound leaves room for small changes to what a
/// slice returns while staying far below what a per-slice table costs.
const K: u64 = 24;

/// A small project with every container class and the computed-address
/// scenarios (stores through computed registers, FPO frames, heap sites).
fn spec(index: usize, seed: u64) -> ProjectSpec {
    ProjectSpec {
        name: format!("alloc_{seed}"),
        index,
        seed,
        counts: TypeCounts {
            list: 2,
            vector: 3,
            map: 3,
            deque: 1,
            set: 1,
            primitive: 8,
            escape: 2,
            computed: 3,
        },
    }
}

fn suite() -> Vec<Binary> {
    [(0usize, 3u64), (4, 17), (7, 2024)].into_iter().map(|(i, s)| generate(&spec(i, s))).collect()
}

/// Slices every labeled variable of `bins` on the calling thread, sharing
/// one `ProgramFacts` per program as batch callers do. Returns the slice
/// count, the allocations and the value-set spills of the pass.
fn pass(bins: &[Binary], cfg: &TsliceConfig) -> (u64, u64, u64) {
    let allocs = ALLOCS.with(Cell::get);
    let spills = tiara_slice::thread_spills();
    let mut slices = 0;
    for bin in bins {
        let facts = ProgramFacts::new(&bin.program);
        for (v0, _) in bin.labeled_vars() {
            std::hint::black_box(tslice_with_facts(&facts, v0, cfg));
            slices += 1;
        }
    }
    (slices, ALLOCS.with(Cell::get) - allocs, tiara_slice::thread_spills() - spills)
}

#[test]
fn second_pass_allocates_a_small_constant_per_slice() {
    let bins = suite();
    let cfg = TsliceConfig::default();
    let (slices, cold, _) = pass(&bins, &cfg);
    let (again, warm, spills) = pass(&bins, &cfg);
    assert_eq!(slices, again);
    assert!(slices >= 60, "the suite offers {slices} criteria");
    let bound = spills + K * slices;
    assert!(
        warm <= bound,
        "steady state made {warm} allocations for {slices} slices \
         ({spills} spills; bound {bound}; the cold pass made {cold})"
    );
    assert!(warm < cold, "a warm pass reuses what the cold one grew ({warm} vs {cold})");
}

/// Every (program, criterion) pair of the suite.
fn criteria(bins: &[Binary]) -> Vec<(&Program, VarAddr)> {
    bins.iter().flat_map(|b| b.labeled_vars().map(move |(v0, _)| (&b.program, v0))).collect()
}

fn slice_all(crits: &[(&Program, VarAddr)], cfg: &TsliceConfig) -> Vec<TsliceOutput> {
    crits.iter().map(|&(prog, v0)| tslice_with_facts(&ProgramFacts::new(prog), v0, cfg)).collect()
}

#[test]
fn reused_scratch_leaks_nothing_between_criteria() {
    let bins = suite();
    let crits = criteria(&bins);
    for cfg in [
        TsliceConfig::default(),
        TsliceConfig { trace: true, ..TsliceConfig::with_call_summaries() },
    ] {
        let forward = slice_all(&crits, &cfg);
        let reversed: Vec<TsliceOutput> = {
            let back: Vec<_> = crits.iter().rev().copied().collect();
            let mut outs = slice_all(&back, &cfg);
            outs.reverse();
            outs
        };
        // A fresh thread starts from an empty scratch.
        let alone: Vec<TsliceOutput> = crits
            .iter()
            .map(|crit| {
                std::thread::scope(|s| s.spawn(|| slice_all(&[*crit], &cfg)).join().unwrap())
                    .remove(0)
            })
            .collect();
        for (k, (prog_v0, f)) in crits.iter().zip(&forward).enumerate() {
            for (order, other) in [("reversed", &reversed[k]), ("alone", &alone[k])] {
                let v0 = prog_v0.1;
                assert_eq!(f.slice, other.slice, "{order}: slice of {v0}");
                assert_eq!(f.trace, other.trace, "{order}: trace of {v0}");
                assert_eq!(f.stats, other.stats, "{order}: stats of {v0}");
            }
        }
    }
}
