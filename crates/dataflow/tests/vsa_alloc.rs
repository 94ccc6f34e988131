//! Value-set analysis allocates a small constant per instruction.
//!
//! A value set holds its region map inline, and a fact's frame slots are
//! one sorted vector. The fixpoint keeps one fact per block and refills a
//! scratch fact with `clone_from`, and `VsaResult::walk` replays blocks into
//! one scratch fact too. What is left per function is its block graph, the
//! block-entry facts and their frame vectors. A value set that allocated a
//! map, or a fact stored per instruction, would cost several allocations per
//! instruction and fail the bound.
//!
//! Measured on this suite: 2,805 allocations over 4,141 instructions, 0.68
//! per instruction. The bound, [`PER_INST`] = 1.5, leaves room for small
//! changes to the block graph. The same walk over `BTreeMap` value sets and
//! stored per-instruction facts made 66,215, about 16 per instruction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tiara_dataflow::vsa_function;
use tiara_ir::Reg;
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

/// Allocations allowed per analyzed instruction.
const PER_INST: f64 = 1.5;

/// A small project with every container class and the computed-address
/// scenarios (stores through computed registers, FPO frames, heap sites).
fn spec(index: usize, seed: u64) -> ProjectSpec {
    ProjectSpec {
        name: format!("vsa_alloc_{seed}"),
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

#[test]
fn vsa_walk_allocates_a_small_constant_per_instruction() {
    let bins = suite();
    let (mut insts, mut visited) = (0u64, 0u64);
    let before = ALLOCS.with(Cell::get);
    for bin in &bins {
        let prog = &bin.program;
        for f in prog.funcs() {
            vsa_function(prog, f.id).walk(prog, |id, fact| {
                black_box((id, fact.reg(Reg::Esp)));
                visited += 1;
            });
        }
        insts += prog.num_insts() as u64;
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(visited * 2 > insts, "the walk visited {visited} of {insts} instructions");
    let per_inst = allocs as f64 / insts as f64;
    eprintln!("{allocs} allocations over {insts} instructions ({per_inst:.3} per instruction)");
    assert!(
        per_inst <= PER_INST,
        "VSA made {allocs} allocations over {insts} instructions ({per_inst:.2} each, bound \
         {PER_INST})"
    );
}
