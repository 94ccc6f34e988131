//! The escape-through-call experiment: what inter-procedural mod-ref
//! summaries buy the classifier.
//!
//! The generator's escape scenarios ([`tiara_synth::escape`]) construct a
//! container in a caller, pass its address through an opaque helper, and
//! keep using it afterwards. An intra-procedural slice dies at the helper's
//! indirect call, so the classifier sees only the near side of each escaped
//! variable; summary-driven slicing
//! ([`TsliceConfig::use_call_summaries`]) carries the slice past the call.
//!
//! The experiment holds the *escaped* variables out entirely: the
//! classifier trains on the ordinary (non-escape) variables of an
//! escape-heavy suite and is tested on the escape criteria only, once per
//! slicing mode. It reports per-label accuracy for the scenario class,
//! plus the slice-size evidence (how many escape slices grew strictly).

use crate::report::rounded;
use crate::suite::parallel_dataset;
use std::collections::{HashMap, HashSet};
use tiara::{Classifier, ClassifierConfig, Dataset, Sample, Slicer};
use tiara_ir::{ContainerClass, VarAddr};
use tiara_json::Value;
use tiara_slice::TsliceConfig;
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

/// Three escape-heavy projects across distinct styles. Every container
/// class appears both as ordinary variables (training signal) and as
/// escape scenarios (held-out test criteria).
pub fn escape_suite(seed: u64) -> Vec<ProjectSpec> {
    let mk = |name: &str, index: usize, counts: TypeCounts| ProjectSpec {
        name: name.to_owned(),
        index,
        seed,
        counts,
    };
    vec![
        mk(
            "esc_app",
            1,
            TypeCounts {
                list: 6,
                vector: 10,
                map: 10,
                deque: 6,
                set: 6,
                primitive: 30,
                escape: 10,
                computed: 0,
            },
        ),
        mk(
            "esc_svc",
            4,
            TypeCounts {
                list: 5,
                vector: 8,
                map: 8,
                deque: 5,
                set: 5,
                primitive: 24,
                escape: 10,
                computed: 0,
            },
        ),
        mk(
            "esc_kit",
            7,
            TypeCounts {
                list: 4,
                vector: 8,
                map: 8,
                deque: 4,
                set: 4,
                primitive: 20,
                escape: 10,
                computed: 0,
            },
        ),
    ]
}

/// Generates the escape suite, optionally scaled (see
/// [`crate::suite::scale_spec`]).
pub fn build_escape_suite(seed: u64, scale: f64) -> Vec<Binary> {
    escape_suite(seed).iter().map(|spec| generate(&crate::suite::scale_spec(spec, scale))).collect()
}

/// The escape-scenario criteria of one binary: the labeled stack slots
/// living in `esc_caller_*` functions.
pub fn escape_criteria(bin: &Binary) -> HashSet<VarAddr> {
    bin.debug
        .iter()
        .filter(|r| match r.addr {
            VarAddr::Stack { func, .. } => bin.program.func(func).name.starts_with("esc_caller_"),
            _ => false,
        })
        .map(|r| r.addr)
        .collect()
}

/// Per-label accuracy on the held-out escape criteria.
#[derive(Debug, Clone)]
pub struct EscapeLabelRow {
    /// Ground-truth container class.
    pub class: ContainerClass,
    /// Held-out escape variables with this label.
    pub n: usize,
    /// Correct predictions with intra-procedural slicing.
    pub baseline_correct: usize,
    /// Correct predictions with summary-driven slicing.
    pub summary_correct: usize,
}

impl EscapeLabelRow {
    /// Accuracy of the intra-procedural baseline on this label.
    pub fn baseline_accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.baseline_correct as f64 / self.n as f64
        }
    }

    /// Accuracy of summary-driven slicing on this label.
    pub fn summary_accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.summary_correct as f64 / self.n as f64
        }
    }
}

/// The full result of the escape experiment.
#[derive(Debug, Clone)]
pub struct EscapeResult {
    /// Per-label rows (only labels that occur among the escape criteria).
    pub rows: Vec<EscapeLabelRow>,
    /// Number of held-out escape criteria.
    pub escape_criteria: usize,
    /// Escape slices that grew strictly under summary-driven slicing.
    pub strictly_larger: usize,
    /// Mean escape-slice size (nodes), intra-procedural baseline.
    pub mean_nodes_baseline: f64,
    /// Mean escape-slice size (nodes), summary-driven.
    pub mean_nodes_summary: f64,
}

impl EscapeResult {
    /// Overall accuracy on the escape criteria, baseline slicing.
    pub fn baseline_accuracy(&self) -> f64 {
        let (c, n) = self.totals();
        if n == 0 {
            0.0
        } else {
            c.0 as f64 / n as f64
        }
    }

    /// Overall accuracy on the escape criteria, summary-driven slicing.
    pub fn summary_accuracy(&self) -> f64 {
        let (c, n) = self.totals();
        if n == 0 {
            0.0
        } else {
            c.1 as f64 / n as f64
        }
    }

    fn totals(&self) -> ((usize, usize), usize) {
        let base = self.rows.iter().map(|r| r.baseline_correct).sum();
        let summ = self.rows.iter().map(|r| r.summary_correct).sum();
        let n = self.rows.iter().map(|r| r.n).sum();
        ((base, summ), n)
    }
}

/// One slicing mode's view of the suite: training samples (everything that
/// is not an escape criterion) and the held-out escape samples.
struct ModeData {
    train: Dataset,
    test: Vec<Sample>,
}

fn slice_mode(bins: &[Binary], slicer: &Slicer, threads: usize) -> ModeData {
    let mut train = Dataset::new();
    let mut test = Vec::new();
    for bin in bins {
        let esc = escape_criteria(bin);
        let ds = parallel_dataset(bin, slicer, threads);
        for s in ds.samples {
            if esc.contains(&s.addr) {
                test.push(s);
            } else {
                train.samples.push(s);
            }
        }
    }
    ModeData { train, test }
}

/// Runs the escape experiment: slice the suite once per mode, train on the
/// ordinary variables, test on the held-out escape criteria.
pub fn run_escape_experiment(
    seed: u64,
    scale: f64,
    classifier: &ClassifierConfig,
    threads: usize,
) -> EscapeResult {
    let bins = build_escape_suite(seed, scale);
    let baseline = slice_mode(&bins, &Slicer::Tslice(TsliceConfig::default()), threads);
    let summary = slice_mode(&bins, &Slicer::Tslice(TsliceConfig::with_call_summaries()), threads);

    // Slice-size evidence, paired by criterion address.
    let base_nodes: HashMap<(String, String), usize> = baseline
        .test
        .iter()
        .map(|s| ((s.project.clone(), s.addr.to_string()), s.slice_nodes))
        .collect();
    let mut strictly_larger = 0usize;
    let mut sum_base = 0usize;
    let mut sum_summ = 0usize;
    for s in &summary.test {
        let base = base_nodes.get(&(s.project.clone(), s.addr.to_string())).copied().unwrap_or(0);
        sum_base += base;
        sum_summ += s.slice_nodes;
        if s.slice_nodes > base {
            strictly_larger += 1;
        }
    }
    let n_esc = summary.test.len();

    // One classifier per mode, trained on that mode's ordinary variables.
    let predict = |mode: &ModeData| -> Vec<(ContainerClass, ContainerClass)> {
        let mut clf = Classifier::new(classifier);
        clf.train(&mode.train).expect("escape suite has training samples");
        mode.test.iter().map(|s| (s.label, clf.predict(&s.graph))).collect()
    };
    let base_pred = predict(&baseline);
    let summ_pred = predict(&summary);

    let mut rows: Vec<EscapeLabelRow> = ContainerClass::ALL
        .iter()
        .map(|&class| EscapeLabelRow { class, n: 0, baseline_correct: 0, summary_correct: 0 })
        .collect();
    for &(label, pred) in &base_pred {
        let row = rows.iter_mut().find(|r| r.class == label).expect("known class");
        row.n += 1;
        row.baseline_correct += usize::from(pred == label);
    }
    for &(label, pred) in &summ_pred {
        let row = rows.iter_mut().find(|r| r.class == label).expect("known class");
        row.summary_correct += usize::from(pred == label);
    }
    rows.retain(|r| r.n > 0);

    EscapeResult {
        rows,
        escape_criteria: n_esc,
        strictly_larger,
        mean_nodes_baseline: if n_esc == 0 { 0.0 } else { sum_base as f64 / n_esc as f64 },
        mean_nodes_summary: if n_esc == 0 { 0.0 } else { sum_summ as f64 / n_esc as f64 },
    }
}

/// Renders the experiment as a report table.
pub fn render_escape_report(r: &EscapeResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Escape-through-call experiment (held-out escape criteria)");
    let _ = writeln!(
        s,
        "  criteria: {}   slices grown strictly by summaries: {}   \
         mean nodes: {:.1} -> {:.1}",
        r.escape_criteria, r.strictly_larger, r.mean_nodes_baseline, r.mean_nodes_summary
    );
    let _ =
        writeln!(s, "  {:<12} {:>4} {:>18} {:>18}", "label", "n", "baseline acc", "summary acc");
    for row in &r.rows {
        let _ = writeln!(
            s,
            "  {:<12} {:>4} {:>17.1}% {:>17.1}%",
            row.class.to_string(),
            row.n,
            100.0 * row.baseline_accuracy(),
            100.0 * row.summary_accuracy()
        );
    }
    let _ = writeln!(
        s,
        "  {:<12} {:>4} {:>17.1}% {:>17.1}%",
        "overall",
        r.escape_criteria,
        100.0 * r.baseline_accuracy(),
        100.0 * r.summary_accuracy()
    );
    s
}

/// Renders the experiment as JSON (the `ESCAPE_PR6.json` artifact): the
/// run's parameters, the overall slice sizes and accuracies, and one object
/// per label, as one compact line.
pub fn render_escape_json(r: &EscapeResult, seed: u64, scale: f64) -> String {
    let int = |n: usize| Value::Int(n as i64);
    let labels = r.rows.iter().map(|row| {
        Value::obj([
            ("label", Value::Str(row.class.to_string())),
            ("n", int(row.n)),
            ("baseline_correct", int(row.baseline_correct)),
            ("summary_correct", int(row.summary_correct)),
        ])
    });
    let doc = Value::obj([
        ("experiment", Value::Str("escape".to_owned())),
        ("seed", Value::Int(seed as i64)),
        ("scale", Value::Float(scale)),
        ("escape_criteria", int(r.escape_criteria)),
        ("strictly_larger", int(r.strictly_larger)),
        ("mean_nodes_baseline", rounded(r.mean_nodes_baseline, 3)),
        ("mean_nodes_summary", rounded(r.mean_nodes_summary, 3)),
        ("baseline_accuracy", rounded(r.baseline_accuracy(), 6)),
        ("summary_accuracy", rounded(r.summary_accuracy(), 6)),
        ("labels", Value::Array(labels.collect())),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_suite_has_escape_counts_everywhere() {
        for spec in escape_suite(3) {
            assert!(spec.counts.escape > 0, "{}", spec.name);
        }
    }

    #[test]
    fn criteria_extraction_matches_the_spec() {
        let bin = generate(&ProjectSpec {
            name: "esc".into(),
            index: 2,
            seed: 19,
            counts: TypeCounts { vector: 2, primitive: 4, escape: 5, ..Default::default() },
        });
        let esc = escape_criteria(&bin);
        assert_eq!(esc.len(), 5);
        assert_eq!(bin.debug.len(), 2 + 4 + 5);
    }

    #[test]
    fn experiment_runs_and_reports_growth() {
        let cfg = ClassifierConfig { epochs: 4, seed: 7, ..Default::default() };
        let r = run_escape_experiment(23, 0.5, &cfg, 2);
        assert!(r.escape_criteria > 0);
        assert_eq!(
            r.strictly_larger, r.escape_criteria,
            "every escape slice must grow strictly under summaries"
        );
        assert!(r.mean_nodes_summary > r.mean_nodes_baseline);
        assert_eq!(r.rows.iter().map(|w| w.n).sum::<usize>(), r.escape_criteria);
        let report = render_escape_report(&r);
        assert!(report.contains("overall"));
        let json = render_escape_json(&r, 23, 0.5);
        assert!(json.ends_with("}\n") && json.matches('\n').count() == 1, "{json}");
        let doc = tiara_json::parse(&json).unwrap();
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("escape"));
        assert_eq!(doc.get("escape_criteria"), Some(&Value::Int(r.escape_criteria as i64)));
        let labels = doc.get("labels").and_then(Value::as_array).unwrap();
        assert_eq!(labels.len(), r.rows.len());
        assert_eq!(
            labels[0].get("label").and_then(Value::as_str),
            Some(&*r.rows[0].class.to_string())
        );
    }
}
