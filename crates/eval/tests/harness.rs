//! Integration tests of the experiment harness public API on a micro suite.

use tiara::{ClassifierConfig, Slicer};
use tiara_eval::report::{render_table1, render_table2_rows, render_table3};
use tiara_eval::tables::{table1, table3};
use tiara_eval::{build_suite, cross_experiments, intra_experiments, run_experiment, SlicedSuite};

fn micro() -> Vec<tiara_synth::Binary> {
    build_suite(19, 0.03)
}

#[test]
fn full_intra_row_pair_runs_and_reports() {
    let bins = micro();
    let t = SlicedSuite::build(&bins, &Slicer::default(), 2);
    let s = SlicedSuite::build(&bins, &Slicer::Sslice, 2);
    let cfg = ClassifierConfig { epochs: 8, ..Default::default() };
    let spec = &intra_experiments()[0];
    let ra = run_experiment(&t, spec, &cfg, 3);
    let rb = run_experiment(&s, spec, &cfg, 3);
    assert_eq!(ra.id, "I1a");
    assert_eq!(rb.id, "I1b");
    assert_eq!(ra.train_size + ra.test_size, rb.train_size + rb.test_size);
    assert!(ra.train_secs > 0.0);
    let text = render_table2_rows(&[ra, rb]);
    assert!(text.contains("I1a") && text.contains("I1b"));
}

#[test]
fn cross_experiment_train_and_test_are_disjoint_projects() {
    let bins = micro();
    let t = SlicedSuite::build(&bins, &Slicer::default(), 2);
    let cfg = ClassifierConfig { epochs: 4, ..Default::default() };
    let spec = &cross_experiments()[1]; // all - clang -> clang
    let res = run_experiment(&t, spec, &cfg, 1);
    let clang_total = t.dataset("clang").len();
    assert_eq!(res.test_size, clang_total, "tests exactly the held-out project");
    let all_total: usize = t.datasets.iter().map(|d| d.len()).sum();
    assert_eq!(res.train_size, all_total - clang_total);
}

#[test]
fn tables_render_from_a_real_suite() {
    let bins = micro();
    let t1 = render_table1(&table1(&bins));
    for name in ["clang", "cmake", "bitcoind", "spdlog", "soci", "re2", "arduinojson", "list_ext"] {
        assert!(t1.contains(name), "{name} missing from Table I:\n{t1}");
    }
    let t = SlicedSuite::build(&bins, &Slicer::default(), 2);
    let s = SlicedSuite::build(&bins, &Slicer::Sslice, 2);
    let t3 = render_table3(&table3(&t, &s));
    assert!(t3.contains("std::vector"));
    assert!(t3.contains("primitive"));
}

#[test]
fn sliced_suite_lookup_and_merge() {
    let bins = micro();
    let t = SlicedSuite::build(&bins, &Slicer::default(), 2);
    assert_eq!(t.project_names().len(), 8);
    let merged = t.merged(&["re2", "list_ext"]);
    assert_eq!(merged.len(), t.dataset("re2").len() + t.dataset("list_ext").len());
    assert!(t.total_slice_secs() > 0.0);
}

#[test]
fn seed_above_i64_max_is_a_usage_error() {
    let run = |seed: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tiara-eval"))
            .args(["table1", "--scale", "0.01", "--seed", seed])
            .output()
            .unwrap()
    };
    for bad in ["9223372036854775808", "18446744073709551615", "-1"] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "--seed {bad}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"), "--seed {bad}");
    }
    assert_eq!(run("9223372036854775807").status.code(), Some(0));
}

#[test]
fn unwritable_artifact_path_fails_before_the_experiment() {
    let out = "/nonexistent-dir/x.json";
    for command in ["escape", "discovery"] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_tiara-eval"))
            .args([command, "--scale", "0.01", "--epochs", "1", "--json", "--out", out])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(out), "{command}: names the path: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(!stderr.contains("experiment"), "{command}: ran before failing: {stderr}");
    }
}
