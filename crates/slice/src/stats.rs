//! Perf counters for the TSLICE hot loop.
//!
//! Two layers:
//!
//! * [`SliceStats`] — per-slice counters carried on
//!   [`crate::TsliceOutput`], cheap plain fields bumped inline by the
//!   traversal loop.
//! * a process-wide aggregate ([`add_to_global`] / [`global_stats`]) that
//!   survives across the many slices of a dataset build, so a caller such
//!   as the perfbench harness can report totals without threading state
//!   through every call.
//!
//! Value-set spills are counted through a thread-local ([`note_spill`]):
//! `ValueSet` has no handle on any stats struct, and each slice runs
//! to completion on a single executor thread, so a before/after read of the
//! thread-local attributes spills to the right slice without contention.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one TSLICE run. All counters are exact (not sampled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Worklist pops that ran the transfer function (`process`). Matches
    /// `Slice::steps`.
    pub steps: u64,
    /// Worklist pops dropped by the faith cut before any processing.
    pub faith_cut_pops: u64,
    /// Pops where both endpoint state versions were unchanged since the edge
    /// was last processed, so merge + transfer were skipped as provably
    /// idempotent.
    pub merges_skipped: u64,
    /// Bytes the retired per-pop `AnalysisState::snapshot` deep clone would
    /// have copied (pre-state footprint priced per pop). Zero from the
    /// reference traversal, which takes the snapshot.
    pub snapshot_bytes_avoided: u64,
    /// `ValueSet`s that outgrew the inline buffer and moved to the heap.
    pub set_spills: u64,
    /// Pushes suppressed because the identical edge was already pending at
    /// the same pre-state version.
    pub worklist_hits: u64,
    /// Call→return-site edges processed with a callee mod-ref summary
    /// applied to the pre-state. Zero unless
    /// [`TsliceConfig`](crate::TsliceConfig)`::use_call_summaries` is on.
    pub summary_edges: u64,
}

impl SliceStats {
    /// Field-wise accumulation.
    pub fn absorb(&mut self, other: &SliceStats) {
        self.steps += other.steps;
        self.faith_cut_pops += other.faith_cut_pops;
        self.merges_skipped += other.merges_skipped;
        self.snapshot_bytes_avoided += other.snapshot_bytes_avoided;
        self.set_spills += other.set_spills;
        self.worklist_hits += other.worklist_hits;
        self.summary_edges += other.summary_edges;
    }
}

impl std::fmt::Display for SliceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steps {}, faith-cut pops {}, merges skipped {}, snapshot bytes avoided {}, \
             set spills {}, worklist hits {}, summary edges {}",
            self.steps,
            self.faith_cut_pops,
            self.merges_skipped,
            self.snapshot_bytes_avoided,
            self.set_spills,
            self.worklist_hits,
            self.summary_edges
        )
    }
}

thread_local! {
    static SPILLS: Cell<u64> = const { Cell::new(0) };
}

/// Records one inline→heap spill on the current thread. Called from
/// `ValueSet` internals.
#[inline]
pub(crate) fn note_spill() {
    SPILLS.with(|c| c.set(c.get() + 1));
}

/// The current thread's monotone spill count. Callers diff a before/after
/// pair around a region to attribute spills to it.
pub fn thread_spills() -> u64 {
    SPILLS.with(Cell::get)
}

static G_STEPS: AtomicU64 = AtomicU64::new(0);
static G_FAITH_CUT: AtomicU64 = AtomicU64::new(0);
static G_MERGES_SKIPPED: AtomicU64 = AtomicU64::new(0);
static G_SNAPSHOT_BYTES: AtomicU64 = AtomicU64::new(0);
static G_SPILLS: AtomicU64 = AtomicU64::new(0);
static G_WORKLIST_HITS: AtomicU64 = AtomicU64::new(0);
static G_SUMMARY_EDGES: AtomicU64 = AtomicU64::new(0);

/// Folds one slice's counters into the process-wide aggregate.
pub fn add_to_global(s: &SliceStats) {
    G_STEPS.fetch_add(s.steps, Ordering::Relaxed);
    G_FAITH_CUT.fetch_add(s.faith_cut_pops, Ordering::Relaxed);
    G_MERGES_SKIPPED.fetch_add(s.merges_skipped, Ordering::Relaxed);
    G_SNAPSHOT_BYTES.fetch_add(s.snapshot_bytes_avoided, Ordering::Relaxed);
    G_SPILLS.fetch_add(s.set_spills, Ordering::Relaxed);
    G_WORKLIST_HITS.fetch_add(s.worklist_hits, Ordering::Relaxed);
    G_SUMMARY_EDGES.fetch_add(s.summary_edges, Ordering::Relaxed);
}

/// The process-wide aggregate since the last [`reset_global_stats`].
pub fn global_stats() -> SliceStats {
    SliceStats {
        steps: G_STEPS.load(Ordering::Relaxed),
        faith_cut_pops: G_FAITH_CUT.load(Ordering::Relaxed),
        merges_skipped: G_MERGES_SKIPPED.load(Ordering::Relaxed),
        snapshot_bytes_avoided: G_SNAPSHOT_BYTES.load(Ordering::Relaxed),
        set_spills: G_SPILLS.load(Ordering::Relaxed),
        worklist_hits: G_WORKLIST_HITS.load(Ordering::Relaxed),
        summary_edges: G_SUMMARY_EDGES.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide aggregate (e.g. between bench passes).
pub fn reset_global_stats() {
    G_STEPS.store(0, Ordering::Relaxed);
    G_FAITH_CUT.store(0, Ordering::Relaxed);
    G_MERGES_SKIPPED.store(0, Ordering::Relaxed);
    G_SNAPSHOT_BYTES.store(0, Ordering::Relaxed);
    G_SPILLS.store(0, Ordering::Relaxed);
    G_WORKLIST_HITS.store(0, Ordering::Relaxed);
    G_SUMMARY_EDGES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_is_fieldwise_sum() {
        let mut a = SliceStats { steps: 1, set_spills: 2, ..Default::default() };
        let b = SliceStats { steps: 10, worklist_hits: 5, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.steps, 11);
        assert_eq!(a.set_spills, 2);
        assert_eq!(a.worklist_hits, 5);
    }

    #[test]
    fn global_aggregate_accumulates_and_resets() {
        reset_global_stats();
        add_to_global(&SliceStats { steps: 3, merges_skipped: 1, ..Default::default() });
        add_to_global(&SliceStats { steps: 4, ..Default::default() });
        let g = global_stats();
        assert_eq!(g.steps, 7);
        assert_eq!(g.merges_skipped, 1);
        reset_global_stats();
        assert_eq!(global_stats(), SliceStats::default());
    }

    #[test]
    fn display_lists_every_counter() {
        let s = SliceStats::default().to_string();
        for key in ["steps", "merges skipped", "set spills", "worklist hits", "summary edges"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
