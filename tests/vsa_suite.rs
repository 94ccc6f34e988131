//! Repository-level acceptance tests for the value-set analysis pipeline:
//! the fixpoint is bitwise deterministic at any thread count, VSA-backed
//! discovery strictly beats the syntactic heuristic on computed-address
//! scenarios while the concrete-execution soundness oracle stays clean, and
//! slices of computed-address scenarios pass the full slice oracle gate.

use tiara::discovery::{
    discover_variables, discover_variables_vsa, score_discovery, DiscoveryConfig,
};
use tiara_dataflow::{render_vsa_json, vsa_program};
use tiara_par::set_global_threads;
use tiara_slice::TsliceConfig;
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

fn computed_binary(seed: u64, index: usize) -> Binary {
    generate(&ProjectSpec {
        name: "vsa_suite".into(),
        index,
        seed,
        counts: TypeCounts {
            list: 2,
            vector: 3,
            map: 2,
            primitive: 8,
            computed: 6,
            ..Default::default()
        },
    })
}

#[test]
fn vsa_is_bitwise_deterministic_across_runs_and_thread_counts() {
    let bin = computed_binary(42, 2);
    set_global_threads(1);
    let a = render_vsa_json(&bin.program, &vsa_program(&bin.program));
    let b = render_vsa_json(&bin.program, &vsa_program(&bin.program));
    assert_eq!(a, b, "repeated runs must agree exactly");
    set_global_threads(4);
    let c = render_vsa_json(&bin.program, &vsa_program(&bin.program));
    assert_eq!(a, c, "value sets must not depend on the thread count");
}

#[test]
fn vsa_discovery_strictly_beats_the_heuristic_on_computed_scenarios() {
    // The acceptance criterion of the PR: on every project with
    // `computed > 0`, VSA-backed discovery recalls strictly more labeled
    // variables than the syntactic operand heuristic, and the verifier
    // (including the concrete-execution VSA soundness oracle) accepts the
    // binary without a single error.
    let cfg = DiscoveryConfig::default();
    for (seed, index) in [(3u64, 1usize), (17, 4), (29, 7)] {
        let bin = computed_binary(seed, index);
        let heur = score_discovery(&discover_variables(&bin.program, &cfg), &bin.debug);
        let vsa: Vec<_> = discover_variables_vsa(&bin.program, &cfg)
            .into_iter()
            .filter(|a| !matches!(a, tiara_ir::VarAddr::Heap { .. }))
            .collect();
        let vsa = score_discovery(&vsa, &bin.debug);
        assert!(
            vsa.recall() > heur.recall(),
            "seed {seed}, style {index}: VSA recall {} must strictly beat heuristic {}",
            vsa.recall(),
            heur.recall()
        );
        let report = tiara_verify::verify(&bin.program);
        assert_eq!(
            report.num_errors(),
            0,
            "seed {seed}, style {index}: the soundness oracle rejected the binary"
        );
    }
}

#[test]
fn vsa_slices_pass_the_full_oracle_gate() {
    // Structure, faith monotonicity, TSLICE ⊆ SSLICE, and kill soundness
    // must all hold on the computed-address shapes VSA exists for: stores
    // and loads through lea-materialized pointers, FPO frames, heap sites.
    for (seed, index) in [(5u64, 3usize), (23, 6)] {
        let bin = computed_binary(seed, index);
        let criteria: Vec<_> = bin.labeled_vars().map(|(a, _)| a).collect();
        let diags =
            tiara_verify::verify_slices_with(&bin.program, &criteria, &TsliceConfig::default());
        assert!(
            diags.is_empty(),
            "oracle violations on computed addresses (seed {seed}, style {index}): {diags:#?}"
        );
    }
}

#[test]
fn discovery_experiment_reports_all_three_metrics_per_mode() {
    let r = tiara_eval::run_discovery_experiment(9, 0.4);
    assert_eq!(r.oracle_errors, 0);
    for windowed in [false, true] {
        for total in [r.total_heuristic(windowed), r.total_vsa(windowed)] {
            for metric in [total.recall(), total.precision(), total.f1()] {
                assert!((0.0..=1.0).contains(&metric));
            }
        }
        assert!(r.total_vsa(windowed).recall() > r.total_heuristic(windowed).recall());
    }
    let json = tiara_eval::render_discovery_json(&r, 9, 0.4);
    for key in ["\"recall\"", "\"precision\"", "\"f1\"", "\"oracle_errors\""] {
        assert!(json.contains(key), "artifact is missing {key}");
    }
}

/// FNV-1a64 of the `tiara analyze --vsa` renderings (text, then JSON) over
/// every binary of the benchmark suite and the discovery suite, in order.
/// Pinned so that a change to the value-set representation can prove its
/// output byte-identical.
#[test]
fn vsa_renderings_are_pinned() {
    use tiara_container::{fnv1a64, FNV_OFFSET};
    use tiara_dataflow::render_vsa_text;
    let mut bins = tiara_eval::build_suite(1, 0.05);
    bins.extend(tiara_eval::build_discovery_suite(42, 0.4));
    let (mut text, mut json) = (FNV_OFFSET, FNV_OFFSET);
    for bin in &bins {
        let results = vsa_program(&bin.program);
        text = fnv1a64(text, render_vsa_text(&bin.program, &results).as_bytes());
        json = fnv1a64(json, render_vsa_json(&bin.program, &results).as_bytes());
    }
    assert_eq!(text, 0x935e_b991_c81b_27cb, "the text rendering moved");
    assert_eq!(json, 0x4a95_520b_4938_3d60, "the JSON rendering moved");
}
