//! The dataflow engine's acceptance bar over the benchmark suite: every
//! function of every project yields all four fact kinds, the dataflow-backed
//! lint passes run clean on generator output, and TSLICE's kill rules agree
//! with reaching definitions on every sampled criterion.

use tiara_dataflow::{analyze_program, render_json};
use tiara_slice::check_kill_rules;
use tiara_verify::{verify, PassId};

const DATAFLOW_PASSES: [PassId; 4] =
    [PassId::DeadStore, PassId::UnreachableCode, PassId::UninitStackRead, PassId::ConstCondition];

#[test]
fn analyze_covers_every_function_of_the_suite() {
    let bins = tiara_eval::build_suite(42, 0.1);
    assert_eq!(bins.len(), 8, "Table I has eight projects");
    for bin in &bins {
        let facts = analyze_program(&bin.program);
        assert_eq!(
            facts.len(),
            bin.program.funcs().len(),
            "`{}`: one fact record per function",
            bin.name
        );
        let json = render_json(&facts);
        for key in ["\"liveness\"", "\"reaching\"", "\"constprop\"", "\"pointsto\""] {
            assert_eq!(
                json.matches(key).count(),
                facts.len(),
                "`{}`: {key} present for every function",
                bin.name
            );
        }
        // Generated code is never trivial: the suite must exercise each
        // analysis somewhere, not just emit empty sections.
        assert!(facts.iter().any(|f| f.def_use_edges > 0), "`{}`: reaching", bin.name);
        assert!(facts.iter().any(|f| f.max_live > 0), "`{}`: liveness", bin.name);
        assert!(facts.iter().any(|f| f.const_points > 0), "`{}`: constprop", bin.name);
        assert!(facts.iter().any(|f| !f.objects.is_empty()), "`{}`: points-to", bin.name);
    }
}

#[test]
fn dataflow_passes_run_clean_on_the_suite() {
    let bins = tiara_eval::build_suite(42, 0.1);
    for bin in &bins {
        let report = verify(&bin.program);
        let offenders: Vec<_> =
            report.diagnostics.iter().filter(|d| DATAFLOW_PASSES.contains(&d.pass)).collect();
        assert!(
            offenders.is_empty(),
            "`{}`: dataflow passes must be clean on generator output:\n{:?}",
            bin.name,
            offenders
        );
    }
}

#[test]
fn kill_rules_agree_with_reaching_defs_across_the_suite() {
    let bins = tiara_eval::build_suite(42, 0.1);
    let mut events = 0usize;
    for bin in &bins {
        // Sample up to 16 labeled variables per binary as slicing criteria.
        for (addr, _class) in bin.labeled_vars().take(16) {
            let check = check_kill_rules(&bin.program, addr);
            events += check.events_checked;
            assert!(check.is_clean(), "`{}` criterion {addr}: {:?}", bin.name, check.violations);
        }
    }
    assert!(events > 0, "the suite must exercise the kill rules at least once");
}

/// FNV-1a64 of the `tiara analyze --json`, `tiara analyze --interproc
/// --json` and `tiara lint --json` documents over every binary of the
/// benchmark suite and the discovery suite, in order. Pinned so that a
/// change to how the documents are assembled can prove its output
/// byte-identical.
#[test]
fn json_dumps_are_pinned() {
    use tiara_container::{fnv1a64, FNV_OFFSET};
    use tiara_dataflow::{render_interproc_json, summarize_program};
    let mut bins = tiara_eval::build_suite(1, 0.05);
    bins.extend(tiara_eval::build_discovery_suite(42, 0.4));
    let (mut facts, mut interproc, mut lint) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for bin in &bins {
        let p = &bin.program;
        facts = fnv1a64(facts, render_json(&analyze_program(p)).as_bytes());
        interproc = fnv1a64(interproc, render_interproc_json(&summarize_program(p)).as_bytes());
        lint = fnv1a64(lint, verify(p).render_json().as_bytes());
    }
    assert_eq!(facts, 0x9c93_9736_d702_195d, "the analyze JSON moved");
    assert_eq!(interproc, 0x81c3_14ab_aaa0_b5b6, "the interproc JSON moved");
    assert_eq!(lint, 0xacb4_ba8d_50c2_1dbd, "the lint JSON moved");
}
