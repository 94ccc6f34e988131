//! Golden TSLICE counters: every labeled variable of two generated suites,
//! sliced under the default and call-summary configurations, must
//! reproduce a pinned slice digest and every [`SliceStats`] field.
//!
//! The slicer's hot loop is tuned for speed (the `ValueSet` join, shared
//! per-program facts); this test holds each such change to the exact
//! slices, step counts and allocation behaviour it had before. A change
//! that is meant to alter slicing semantics must re-pin these numbers and
//! say why.

use tiara_slice::{tslice_with, SliceStats, TsliceConfig};

/// FNV-1a over a canonical encoding of every slice.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Slices every labeled variable of `build_suite(seed, 0.05)` under `cfg`
/// and returns `(slices, digest, summed stats)`.
fn run(seed: u64, cfg: &TsliceConfig) -> (usize, u64, SliceStats) {
    let mut digest = Digest::new();
    let mut total = SliceStats::default();
    let mut slices = 0;
    for bin in tiara_eval::build_suite(seed, 0.05) {
        for (addr, _) in bin.labeled_vars() {
            let out = tslice_with(&bin.program, addr, cfg);
            let s = &out.slice;
            digest.word(s.nodes.len() as u64);
            for n in &s.nodes {
                digest.word(u64::from(n.inst.0));
                digest.word(n.faith.to_bits());
                digest.word(u64::from(n.indirection));
            }
            digest.word(s.edges.len() as u64);
            for &(u, w) in &s.edges {
                digest.word(u64::from(u) << 32 | u64::from(w));
            }
            digest.word(s.explored as u64);
            digest.word(s.steps as u64);
            total.absorb(&out.stats);
            slices += 1;
        }
    }
    (slices, digest.0, total)
}

#[allow(clippy::too_many_arguments)]
fn stats(
    steps: u64,
    faith_cut_pops: u64,
    merges_skipped: u64,
    snapshot_bytes_avoided: u64,
    set_spills: u64,
    worklist_hits: u64,
    summary_edges: u64,
) -> SliceStats {
    SliceStats {
        steps,
        faith_cut_pops,
        merges_skipped,
        snapshot_bytes_avoided,
        set_spills,
        worklist_hits,
        summary_edges,
    }
}

fn check(seed: u64, name: &str, cfg: &TsliceConfig, want: (usize, u64, SliceStats)) {
    let got = run(seed, cfg);
    assert_eq!(got, want, "seed {seed}, {name} config: got {got:?}");
}

// Captured before the linear-time join and the shared per-program facts
// landed, and re-captured when `ValueSet::CAP` went from 48 to 8: a smaller
// cap lets counting loops settle sooner, which changes steps, faiths and a
// few slices.

#[test]
fn golden_slices_and_counters_seed_1() {
    let default = stats(104_537, 4_950, 70, 99_589_632, 14_203, 0, 0);
    check(1, "default", &TsliceConfig::default(), (170, 1_001_591_405_567_429_503, default));
    check(
        1,
        "summaries",
        &TsliceConfig::with_call_summaries(),
        (170, 8_913_339_929_291_094_034, stats(138_203, 7_057, 11, 136_413_536, 18_338, 0, 1_584)),
    );
}

#[test]
fn golden_slices_and_counters_seed_2() {
    let default = stats(99_771, 4_758, 63, 98_122_128, 15_624, 0, 0);
    check(2, "default", &TsliceConfig::default(), (170, 8_963_138_482_666_480_737, default));
    check(
        2,
        "summaries",
        &TsliceConfig::with_call_summaries(),
        (170, 7_036_724_618_918_967_625, stats(126_176, 5_775, 11, 125_309_376, 18_378, 0, 825)),
    );
}
