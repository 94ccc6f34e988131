//! Fast-path ↔ reference-path equivalence.
//!
//! The arena-based hot loop (`reference_mode: false`) must be observationally
//! identical to the snapshot-per-edge reference traversal: the same slice
//! nodes with the same faith and indirection, the same edges, the same step
//! count, and — under tracing — the same rule firings in the same order.
//! These tests drive both paths over synthetic binaries and compare outputs
//! structurally (`Slice` and `TraceEvent` are `PartialEq`).

use tiara_slice::{
    tslice_with, tslice_with_facts, DecayFunction, ProgramFacts, TsliceConfig, TsliceOutput,
};
use tiara_synth::{generate, ProjectSpec, TypeCounts};

/// A small-but-varied project: every container class, a few dozen variables,
/// style knobs drawn from the style table via `index`.
fn small_spec(name: &str, index: usize, seed: u64) -> ProjectSpec {
    ProjectSpec {
        name: name.to_owned(),
        index,
        seed,
        counts: TypeCounts {
            list: 2,
            vector: 4,
            map: 4,
            deque: 1,
            set: 1,
            primitive: 10,
            escape: 2,
            computed: 0,
        },
    }
}

/// Like [`small_spec`] but with computed-address scenarios mixed in, so the
/// VSA must-write facts actually refine something.
fn computed_spec(name: &str, index: usize, seed: u64) -> ProjectSpec {
    let mut spec = small_spec(name, index, seed);
    spec.counts.computed = 4;
    spec
}

fn reference(cfg: &TsliceConfig) -> TsliceConfig {
    TsliceConfig { reference_mode: true, ..cfg.clone() }
}

/// Asserts full observational equivalence for one (binary, criterion, cfg).
fn assert_equivalent(
    bin: &tiara_synth::Binary,
    v0: tiara_ir::VarAddr,
    cfg: &TsliceConfig,
) -> (TsliceOutput, TsliceOutput) {
    let fast = tslice_with(&bin.program, v0, cfg);
    let refr = tslice_with(&bin.program, v0, &reference(cfg));
    assert_eq!(
        fast.slice, refr.slice,
        "slice mismatch for {} at {:?} (cfg: trace={}, decay={:?})",
        bin.name, v0, cfg.trace, cfg.decay_function
    );
    assert_eq!(fast.trace, refr.trace, "trace mismatch for {} at {:?}", bin.name, v0);
    assert_eq!(fast.stats.steps, refr.stats.steps, "step count must match");
    (fast, refr)
}

#[test]
fn fast_path_matches_reference_across_seeds_and_styles() {
    for seed in [1u64, 7, 42, 1234] {
        for index in [0usize, 3, 8] {
            let bin = generate(&small_spec("equiv", index, seed));
            let cfg = TsliceConfig::default();
            for (v0, _) in bin.labeled_vars() {
                assert_equivalent(&bin, v0, &cfg);
            }
        }
    }
}

#[test]
fn fast_path_matches_reference_with_tracing() {
    // Tracing disables the edge memo, so this exercises the pure
    // borrow-vs-snapshot difference, and checks rule firings event by event.
    let bin = generate(&small_spec("equiv_trace", 1, 99));
    let cfg = TsliceConfig::with_trace();
    for (v0, _) in bin.labeled_vars().take(12) {
        let (fast, _) = assert_equivalent(&bin, v0, &cfg);
        assert_eq!(fast.stats.merges_skipped, 0, "memo must be off under tracing");
    }
}

#[test]
fn fast_path_matches_reference_under_exponential_decay_and_tight_budget() {
    let bin = generate(&small_spec("equiv_cfg", 5, 2024));
    let variants = [
        TsliceConfig {
            decay_function: DecayFunction::Exponential { scale: 50.0, floor: 0.02 },
            ..TsliceConfig::default()
        },
        // A tight step budget must truncate both traversals identically.
        TsliceConfig { max_steps: 40, ..TsliceConfig::default() },
        TsliceConfig { cut_indirect_calls: false, ..TsliceConfig::default() },
        TsliceConfig { lea_tracks_pointer_arith: true, ..TsliceConfig::default() },
        TsliceConfig::with_call_summaries(),
        TsliceConfig { trace: true, ..TsliceConfig::with_call_summaries() },
        TsliceConfig::with_vsa(),
        TsliceConfig { trace: true, ..TsliceConfig::with_vsa() },
    ];
    for cfg in &variants {
        for (v0, _) in bin.labeled_vars().take(10) {
            assert_equivalent(&bin, v0, cfg);
        }
    }
}

#[test]
fn vsa_mode_stays_equivalent_on_computed_address_projects() {
    // Projects with computed-address scenarios are where the must-write map
    // is non-empty; fast and reference mode must still agree bit for bit,
    // and turning VSA on without any facts firing must change nothing.
    for seed in [5u64, 71] {
        let bin = generate(&computed_spec("equiv_vsa", (seed % 8) as usize, seed));
        for cfg in
            [TsliceConfig::with_vsa(), TsliceConfig { trace: true, ..TsliceConfig::with_vsa() }]
        {
            for (v0, _) in bin.labeled_vars().take(10) {
                assert_equivalent(&bin, v0, &cfg);
            }
        }
    }
}

#[test]
fn shared_program_facts_match_per_call_slicing() {
    // One `ProgramFacts` shared across every criterion of a program must
    // give exactly what `tslice_with` computes per call: slice, trace and
    // every counter, under summaries, VSA, and both.
    let mut summary_edges = 0;
    for seed in [5u64, 71] {
        let bin = generate(&computed_spec("equiv_facts", (seed % 8) as usize, seed));
        let facts = ProgramFacts::new(&bin.program);
        for cfg in [
            TsliceConfig::with_call_summaries(),
            TsliceConfig::with_vsa(),
            TsliceConfig { use_call_summaries: true, trace: true, ..TsliceConfig::with_vsa() },
        ] {
            for (v0, _) in bin.labeled_vars() {
                let shared = tslice_with_facts(&facts, v0, &cfg);
                let alone = tslice_with(&bin.program, v0, &cfg);
                assert_eq!(shared.slice, alone.slice, "{} at {v0:?}", bin.name);
                assert_eq!(shared.trace, alone.trace, "{} at {v0:?}", bin.name);
                assert_eq!(shared.stats, alone.stats, "{} at {v0:?}", bin.name);
                summary_edges += shared.stats.summary_edges;
            }
        }
        assert!(facts.kills().iter().any(Option::is_some), "the must-write table holds facts");
    }
    assert!(summary_edges > 0, "summary edges were taken");
}

#[test]
fn fast_path_does_real_work_savings() {
    // Sanity that the counters are live on realistic inputs: across a whole
    // project some slice must avoid snapshot bytes, and reference mode must
    // report zero savings.
    let bin = generate(&small_spec("equiv_stats", 2, 7));
    let cfg = TsliceConfig::default();
    let mut avoided = 0u64;
    for (v0, _) in bin.labeled_vars() {
        let (fast, refr) = assert_equivalent(&bin, v0, &cfg);
        avoided += fast.stats.snapshot_bytes_avoided;
        assert_eq!(refr.stats.snapshot_bytes_avoided, 0);
        assert_eq!(refr.stats.merges_skipped, 0);
        assert_eq!(refr.stats.worklist_hits, 0);
    }
    assert!(avoided > 0, "no snapshot bytes avoided across the whole project");
}

mod random_programs {
    use super::*;
    use rand::{check, Rng};

    /// Node-for-node, faith-for-faith identical output on arbitrary
    /// synthetic projects and decay configurations.
    #[test]
    fn equivalence_over_random_projects() {
        check::cases(12, |rng| {
            let seed = rng.random_range(0u64..10_000);
            let index = rng.random_range(0usize..11);
            let trace = rng.random_bool(0.5);
            let use_call_summaries = rng.random_bool(0.5);
            let use_vsa = rng.random_bool(0.5);
            let max_steps = rng.random_range(32usize..4096);
            let bin = generate(&small_spec("equiv_prop", index, seed));
            let cfg = TsliceConfig {
                trace,
                max_steps,
                use_call_summaries,
                use_vsa,
                ..TsliceConfig::default()
            };
            for (v0, _) in bin.labeled_vars().take(6) {
                let fast = tslice_with(&bin.program, v0, &cfg);
                let refr = tslice_with(&bin.program, v0, &reference(&cfg));
                assert_eq!(&fast.slice, &refr.slice);
                assert_eq!(&fast.trace, &refr.trace);
            }
        });
    }
}
