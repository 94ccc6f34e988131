//! The variable-discovery experiment: what value-set analysis buys over the
//! syntactic operand heuristic.
//!
//! The generator's computed-address scenarios ([`tiara_synth::computed`])
//! access every variable through `lea`-materialized pointers, `esp`
//! arithmetic, frame slots of FPO functions, and heap allocation sites —
//! exactly the operand shapes the syntactic heuristic
//! ([`tiara::discovery::discover_variables`]) is blind to. VSA-backed
//! discovery ([`tiara::discovery::discover_variables_vsa`]) resolves the
//! same accesses through abstract a-locs and must close the recall gap.
//!
//! Each mode is scored twice per project: strictly (exact base match) and
//! with the slicing criterion's window tolerance
//! ([`score_discovery_windowed`]). Heap-site proposals are reported
//! separately — the ground-truth tables label globals and frame slots only,
//! so counting a (correct) allocation-site criterion as "spurious" would
//! misstate precision. The VSA soundness oracle (`tiara-verify`'s
//! `vsa-soundness` pass) runs over every generated binary as part of the
//! experiment; its error count is part of the result.

use crate::report::rounded;
use tiara::discovery::{
    discover_variables, discover_variables_vsa, score_discovery, score_discovery_windowed,
    DiscoveryConfig, DiscoveryScore,
};
use tiara_ir::VarAddr;
use tiara_json::Value;
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

/// Three computed-address-heavy projects across distinct styles. Ordinary
/// variables keep the heuristic honest; the computed scenarios carry the
/// recall gap VSA must close.
pub fn discovery_suite(seed: u64) -> Vec<ProjectSpec> {
    let mk = |name: &str, index: usize, counts: TypeCounts| ProjectSpec {
        name: name.to_owned(),
        index,
        seed,
        counts,
    };
    vec![
        mk(
            "disc_app",
            2,
            TypeCounts {
                list: 3,
                vector: 6,
                map: 6,
                deque: 2,
                set: 2,
                primitive: 16,
                computed: 8,
                ..Default::default()
            },
        ),
        mk(
            "disc_svc",
            5,
            TypeCounts {
                list: 2,
                vector: 5,
                map: 5,
                primitive: 12,
                computed: 6,
                ..Default::default()
            },
        ),
        mk(
            "disc_kit",
            7,
            TypeCounts {
                list: 2,
                vector: 4,
                map: 4,
                deque: 2,
                primitive: 10,
                computed: 8,
                ..Default::default()
            },
        ),
    ]
}

/// Generates the discovery suite, optionally scaled (see
/// [`crate::suite::scale_spec`]). `computed` counts are preserved by the
/// scaler's at-least-one rule, so the recall gap never vanishes.
pub fn build_discovery_suite(seed: u64, scale: f64) -> Vec<Binary> {
    discovery_suite(seed)
        .iter()
        .map(|spec| generate(&crate::suite::scale_spec(spec, scale)))
        .collect()
}

/// Both scoring views of one discovery mode on one project.
#[derive(Debug, Clone, Copy)]
pub struct ModeScore {
    /// Exact-base scoring.
    pub strict: DiscoveryScore,
    /// Window-tolerant scoring (the slicer's `Criterion` semantics).
    pub windowed: DiscoveryScore,
}

/// One project's discovery outcome under both modes.
#[derive(Debug, Clone)]
pub struct DiscoveryProjectRow {
    /// Project name.
    pub project: String,
    /// Ground-truth labeled variables.
    pub labeled: usize,
    /// The syntactic operand heuristic.
    pub heuristic: ModeScore,
    /// VSA-backed discovery.
    pub vsa: ModeScore,
    /// Heap allocation-site criteria proposed by VSA (a criterion class the
    /// heuristic cannot produce; excluded from the scores above).
    pub vsa_heap_sites: usize,
}

/// The full result of the discovery experiment.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// Per-project rows.
    pub rows: Vec<DiscoveryProjectRow>,
    /// `Severity::Error` diagnostics across the suite under `tiara-verify`
    /// (which includes the VSA soundness oracle). Must be zero.
    pub oracle_errors: usize,
}

fn fold(scores: impl Iterator<Item = DiscoveryScore>) -> DiscoveryScore {
    let mut total = DiscoveryScore { found: 0, missed: 0, spurious: 0, proposed: 0 };
    for s in scores {
        total.found += s.found;
        total.missed += s.missed;
        total.spurious += s.spurious;
        total.proposed += s.proposed;
    }
    total
}

impl DiscoveryResult {
    /// Suite-wide heuristic score.
    pub fn total_heuristic(&self, windowed: bool) -> DiscoveryScore {
        fold(
            self.rows
                .iter()
                .map(|r| if windowed { r.heuristic.windowed } else { r.heuristic.strict }),
        )
    }

    /// Suite-wide VSA score.
    pub fn total_vsa(&self, windowed: bool) -> DiscoveryScore {
        fold(self.rows.iter().map(|r| if windowed { r.vsa.windowed } else { r.vsa.strict }))
    }
}

/// Scores one proposal list both ways, with heap proposals split out.
fn score_mode(discovered: &[VarAddr], bin: &Binary, window: i64) -> (ModeScore, usize) {
    let heap = discovered.iter().filter(|a| matches!(a, VarAddr::Heap { .. })).count();
    let scored: Vec<VarAddr> =
        discovered.iter().copied().filter(|a| !matches!(a, VarAddr::Heap { .. })).collect();
    (
        ModeScore {
            strict: score_discovery(&scored, &bin.debug),
            windowed: score_discovery_windowed(&scored, &bin.debug, window),
        },
        heap,
    )
}

/// Runs the discovery experiment: generate the suite, propose criteria with
/// both discoverers, score strictly and window-tolerantly, and run the
/// verifier (including the VSA soundness oracle) over every binary.
pub fn run_discovery_experiment(seed: u64, scale: f64) -> DiscoveryResult {
    let bins = build_discovery_suite(seed, scale);
    let cfg = DiscoveryConfig::default();
    let mut rows = Vec::new();
    let mut oracle_errors = 0usize;
    for bin in &bins {
        let (heuristic, _) = score_mode(&discover_variables(&bin.program, &cfg), bin, cfg.window);
        let (vsa, vsa_heap_sites) =
            score_mode(&discover_variables_vsa(&bin.program, &cfg), bin, cfg.window);
        oracle_errors += tiara_verify::verify(&bin.program).num_errors();
        rows.push(DiscoveryProjectRow {
            project: bin.name.clone(),
            labeled: bin.debug.len(),
            heuristic,
            vsa,
            vsa_heap_sites,
        });
    }
    DiscoveryResult { rows, oracle_errors }
}

fn pct(x: f64) -> f64 {
    100.0 * x
}

/// Renders the experiment as a report table.
pub fn render_discovery_report(r: &DiscoveryResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Variable-discovery experiment (heuristic vs. VSA)");
    let _ = writeln!(s, "  oracle errors across the suite: {}", r.oracle_errors);
    let _ = writeln!(
        s,
        "  {:<10} {:>7} {:>6}  {:>23}  {:>23}  {:>5}",
        "project", "labeled", "mode", "strict R/P/F1", "windowed R/P/F1", "heap"
    );
    for row in &r.rows {
        for (mode, score, heap) in
            [("heur", &row.heuristic, 0), ("vsa", &row.vsa, row.vsa_heap_sites)]
        {
            let _ = writeln!(
                s,
                "  {:<10} {:>7} {:>6}  {:>6.1}/{:>6.1}/{:>6.1}%  {:>6.1}/{:>6.1}/{:>6.1}%  {:>5}",
                row.project,
                row.labeled,
                mode,
                pct(score.strict.recall()),
                pct(score.strict.precision()),
                pct(score.strict.f1()),
                pct(score.windowed.recall()),
                pct(score.windowed.precision()),
                pct(score.windowed.f1()),
                heap
            );
        }
    }
    for (mode, t_strict, t_win) in [
        ("heur", r.total_heuristic(false), r.total_heuristic(true)),
        ("vsa", r.total_vsa(false), r.total_vsa(true)),
    ] {
        let _ = writeln!(
            s,
            "  {:<10} {:>7} {:>6}  {:>6.1}/{:>6.1}/{:>6.1}%  {:>6.1}/{:>6.1}/{:>6.1}%  {:>5}",
            "overall",
            r.rows.iter().map(|w| w.labeled).sum::<usize>(),
            mode,
            pct(t_strict.recall()),
            pct(t_strict.precision()),
            pct(t_strict.f1()),
            pct(t_win.recall()),
            pct(t_win.precision()),
            pct(t_win.f1()),
            if mode == "vsa" { r.rows.iter().map(|w| w.vsa_heap_sites).sum() } else { 0 }
        );
    }
    s
}

fn score_json(score: &DiscoveryScore) -> Value {
    let int = |n: usize| Value::Int(n as i64);
    Value::obj([
        ("found", int(score.found)),
        ("missed", int(score.missed)),
        ("spurious", int(score.spurious)),
        ("proposed", int(score.proposed)),
        ("recall", rounded(score.recall(), 6)),
        ("precision", rounded(score.precision(), 6)),
        ("f1", rounded(score.f1(), 6)),
    ])
}

/// Renders the experiment as JSON (the `DISCOVERY_PR7.json` artifact): the
/// run's parameters, the four suite-wide scores and one object per project,
/// as one compact line.
pub fn render_discovery_json(r: &DiscoveryResult, seed: u64, scale: f64) -> String {
    let scores = |[hs, hw, vs, vw]: [DiscoveryScore; 4]| {
        [
            ("heuristic_strict", score_json(&hs)),
            ("heuristic_windowed", score_json(&hw)),
            ("vsa_strict", score_json(&vs)),
            ("vsa_windowed", score_json(&vw)),
        ]
    };
    let totals = scores([
        r.total_heuristic(false),
        r.total_heuristic(true),
        r.total_vsa(false),
        r.total_vsa(true),
    ]);
    let projects = r.rows.iter().map(|row| {
        let head = [
            ("project", Value::Str(row.project.clone())),
            ("labeled", Value::Int(row.labeled as i64)),
            ("vsa_heap_sites", Value::Int(row.vsa_heap_sites as i64)),
        ];
        let (h, v) = (row.heuristic, row.vsa);
        Value::obj(head.into_iter().chain(scores([h.strict, h.windowed, v.strict, v.windowed])))
    });
    let doc = Value::obj([
        ("experiment", Value::Str("discovery".to_owned())),
        ("seed", Value::Int(seed as i64)),
        ("scale", Value::Float(scale)),
        ("oracle_errors", Value::Int(r.oracle_errors as i64)),
        ("totals", Value::obj(totals)),
        ("projects", Value::Array(projects.collect())),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_suite_has_computed_counts_everywhere() {
        for spec in discovery_suite(3) {
            assert!(spec.counts.computed > 0, "{}", spec.name);
        }
    }

    #[test]
    fn vsa_beats_the_heuristic_and_the_oracle_stays_clean() {
        let r = run_discovery_experiment(23, 0.5);
        assert_eq!(r.oracle_errors, 0, "the VSA soundness oracle must accept every binary");
        for windowed in [false, true] {
            let h = r.total_heuristic(windowed);
            let v = r.total_vsa(windowed);
            assert!(
                v.recall() > h.recall(),
                "VSA recall must strictly beat the heuristic (windowed={windowed}): \
                 {} vs {}",
                v.recall(),
                h.recall()
            );
        }
        assert!(r.rows.iter().any(|row| row.vsa_heap_sites > 0), "heap criteria are VSA-only");
    }

    #[test]
    fn report_and_json_have_the_expected_shape() {
        let r = run_discovery_experiment(7, 0.4);
        let report = render_discovery_report(&r);
        assert!(report.contains("overall"));
        assert!(report.contains("vsa"));
        let json = render_discovery_json(&r, 7, 0.4);
        assert!(json.ends_with("}\n") && json.matches('\n').count() == 1, "{json}");
        let doc = tiara_json::parse(&json).unwrap();
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("discovery"));
        assert_eq!(doc.get("seed"), Some(&Value::Int(7)));
        let vsa = doc.get("totals").and_then(|t| t.get("vsa_strict")).unwrap();
        let recall = vsa.get("recall").and_then(Value::as_f64).unwrap();
        assert_eq!(recall, (r.total_vsa(false).recall() * 1e6).round() / 1e6);
        let projects = doc.get("projects").and_then(Value::as_array).unwrap();
        assert_eq!(projects.len(), r.rows.len());
    }

    #[test]
    fn json_escapes_project_names() {
        let zero = DiscoveryScore { found: 0, missed: 0, spurious: 0, proposed: 0 };
        let mode = ModeScore { strict: zero, windowed: zero };
        let r = DiscoveryResult {
            rows: vec![DiscoveryProjectRow {
                project: "a\"b\\c".to_owned(),
                labeled: 0,
                heuristic: mode,
                vsa: mode,
                vsa_heap_sites: 0,
            }],
            oracle_errors: 0,
        };
        let doc = tiara_json::parse(&render_discovery_json(&r, 1, 0.5)).unwrap();
        let project = &doc.get("projects").and_then(Value::as_array).unwrap()[0];
        assert_eq!(project.get("project").and_then(Value::as_str), Some("a\"b\\c"));
    }
}
