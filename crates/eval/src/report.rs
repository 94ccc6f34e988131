//! Text rendering of the reproduced tables, in the layout of the paper, and
//! the number rounding the JSON artifacts share.

use crate::experiments::ExperimentResult;
use crate::tables::{Table1Row, Table3Row, Table4Row};
use std::fmt::Write as _;
use tiara_ir::ContainerClass;

/// `x` rounded to `decimals` places, as a JSON number: an integer divided by
/// a power of ten, which parses back to the same `f64` as the `{:.N}` text.
pub(crate) fn rounded(x: f64, decimals: i32) -> tiara_json::Value {
    let scale = 10f64.powi(decimals);
    tiara_json::Value::Float((x * scale).round() / scale)
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "N/A ".to_owned(),
    }
}

/// The classes that actually occur in a set of Table I rows (the paper
/// suite has four; the extension suite has six).
fn active_classes_t1(rows: &[Table1Row]) -> Vec<ContainerClass> {
    ContainerClass::ALL
        .into_iter()
        .filter(|c| rows.iter().any(|r| r.counts[c.index()] > 0))
        .collect()
}

/// Renders Table I.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let classes = active_classes_t1(rows);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE I — BENCHMARK STATISTICS (synthetic suite; counts scaled from the paper)"
    );
    let mut header = format!("{:<14} {:>8} {:>10}", "Program", "#insts", "est. size");
    for c in &classes {
        let _ = write!(header, " {:>13}", format!("#{c}"));
    }
    let _ = writeln!(s, "{header}");
    for r in rows {
        let mut line = format!("{:<14} {:>8} {:>9}K", r.name, r.instructions, r.est_bytes / 1024);
        for c in &classes {
            let _ = write!(line, " {:>13}", r.counts[c.index()]);
        }
        let _ = writeln!(s, "{line}");
    }
    s
}

/// Renders one Table II row group (per-class P/R/F1 + macro average). The
/// macro average prints to three places, enough to resolve moves well
/// under the seed-to-seed spread.
pub fn render_table2_rows(results: &[ExperimentResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<5} {:<24} {:<7} {}  Macro Avg (Pr/Re/F1)",
        "#",
        "Training Data",
        "Slicer",
        ContainerClass::ALL.iter().map(|c| format!("{:<17}", format!("{c}"))).collect::<String>()
    );
    let _ = writeln!(
        s,
        "{:<5} {:<24} {:<7} {}",
        "",
        "",
        "",
        ContainerClass::ALL.iter().map(|_| format!("{:<17}", "Pr/Re/F1")).collect::<String>(),
    );
    for r in results {
        let mut cells = String::new();
        for c in ContainerClass::ALL {
            let cell = format!(
                "{}/{}/{}",
                fmt_opt(r.eval.precision(c)),
                fmt_opt(r.eval.recall(c)),
                fmt_opt(r.eval.f1(c))
            );
            let _ = write!(cells, "{cell:<17}");
        }
        let _ = writeln!(
            s,
            "{:<5} {:<24} {:<7} {} {:.3}/{:.3}/{:.3}",
            r.id,
            r.training_label,
            r.slicer,
            cells,
            r.eval.macro_precision(),
            r.eval.macro_recall(),
            r.eval.macro_f1(),
        );
    }
    s
}

/// Renders the Table II macro-average summary comparing TIARA vs
/// TIARA_SSLICE over a set of experiment rows.
pub fn render_table2_summary(results: &[ExperimentResult]) -> String {
    let mut s = String::new();
    for slicer in ["TSLICE", "SSLICE"] {
        let sel: Vec<&ExperimentResult> = results.iter().filter(|r| r.slicer == slicer).collect();
        if sel.is_empty() {
            continue;
        }
        let n = sel.len() as f64;
        let p: f64 = sel.iter().map(|r| r.eval.macro_precision()).sum::<f64>() / n;
        let re: f64 = sel.iter().map(|r| r.eval.macro_recall()).sum::<f64>() / n;
        let f1: f64 = sel.iter().map(|r| r.eval.macro_f1()).sum::<f64>() / n;
        let name = if slicer == "TSLICE" { "Average (TIARA)" } else { "Average (TIARA_SSLICE)" };
        let _ = writeln!(s, "{name:<26} Pr {p:.3}  Re {re:.3}  F1 {f1:.3}");
    }
    s
}

/// Renders Table III.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE III — AVERAGE SLICE SIZES (TSLICE vs SSLICE)");
    let _ = writeln!(
        s,
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "Type", "SSLICE #nodes", "SSLICE #edges", "TSLICE #nodes", "TSLICE #edges"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<14} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            r.class.to_string(),
            r.sslice.0,
            r.sslice.1,
            r.tslice.0,
            r.tslice.1
        );
    }
    s
}

/// Renders Table IV.
pub fn render_table4(tslice: &[Table4Row], sslice: &[Table4Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE IV — EFFICIENCY (wall-clock seconds)");
    let _ = writeln!(s, "{:<8} {:>16} {:>16}", "Row", "Slicing (s)", "Training (s)");
    for r in tslice.iter().chain(sslice) {
        let _ = writeln!(s, "{:<8} {:>16.2} {:>16.2}", r.id, r.slice_secs, r.train_secs);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara::Evaluation;
    use ContainerClass::{List, Vector};

    #[test]
    fn table2_rendering_contains_metrics() {
        let eval = Evaluation::from_pairs([(List, List), (Vector, Vector), (List, Vector)]);
        let r = ExperimentResult {
            id: "I1a".into(),
            training_label: "clang".into(),
            slicer: "TSLICE",
            eval,
            train_secs: 1.0,
            train_size: 3,
            test_size: 3,
        };
        let text = render_table2_rows(std::slice::from_ref(&r));
        assert!(text.contains("I1a"));
        assert!(text.contains("clang"));
        assert!(text.contains("1.00/0.50/0.67"), "list P/R/F1 cell:\n{text}");
        let summary = render_table2_summary(&[r]);
        assert!(text.contains("0.750/0.750/0.667"), "macro P/R/F1 to three places:\n{text}");
        assert!(summary.contains("Average (TIARA)"));
        assert!(summary.contains("Pr 0.750  Re 0.750  F1 0.667"), "{summary}");
        assert!(!summary.contains("TIARA_SSLICE"), "no SSLICE rows given");
    }

    #[test]
    fn table1_and_3_and_4_render() {
        let t1 = render_table1(&[Table1Row {
            name: "clang".into(),
            instructions: 1000,
            est_bytes: 3700,
            counts: [1, 2, 3, 0, 0, 4],
        }]);
        assert!(t1.contains("clang"));
        let t3 = render_table3(&[Table3Row {
            class: List,
            sslice: (1873.41, 2055.12),
            tslice: (68.39, 95.53),
        }]);
        assert!(t3.contains("std::list"));
        assert!(t3.contains("68.39"));
        let t4 = render_table4(
            &[Table4Row { id: "I1a".into(), slice_secs: 10.0, train_secs: 20.0 }],
            &[],
        );
        assert!(t4.contains("I1a"));
    }

    #[test]
    fn undefined_metrics_render_as_na() {
        assert_eq!(fmt_opt(None), "N/A ");
        assert_eq!(fmt_opt(Some(0.5)), "0.50");
    }
}
