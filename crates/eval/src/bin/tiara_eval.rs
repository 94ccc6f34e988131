//! The `tiara-eval` CLI: regenerates every table and figure of the paper's
//! evaluation section on the synthetic benchmark suite.
//!
//! ```text
//! tiara-eval <command> [--scale F] [--epochs N] [--seed N] [--threads N]
//!
//! commands:
//!   table1        benchmark statistics (Table I)
//!   table2-intra  intra-project prediction, rows I1a–I5b (Table II, RQ1+RQ3)
//!   table2-cross  cross-project prediction, rows C6a–C9b (Table II, RQ2+RQ3)
//!   table3        average slice sizes (Table III)
//!   table4        efficiency (Table IV; implied by running table2)
//!   fig2          the motivating example's slicing trace (Figure 2)
//!   ablation      TSLICE design-choice + classifier-architecture ablations
//!   escape        escape-through-call accuracy with vs. without call
//!                 summaries (`--json [--out FILE]` writes ESCAPE_PR6.json)
//!   discovery     variable-discovery recall/precision/F1, heuristic vs. VSA
//!                 (`--json [--out FILE]` writes DISCOVERY_PR7.json)
//!   extended      six-class extension (std::deque and std::set added)
//!   all           everything above
//! ```
//!
//! A malformed flag or an unknown command exits with status 2. A `--json`
//! artifact that cannot be created, or a suite that fails the verifier gate,
//! exits with status 1 and a one-line message; the artifact file is created
//! before the experiment runs, so an unwritable `--out` fails at once.

use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;
use tiara::{ClassifierConfig, Slicer};
use tiara_eval::report::{
    render_table1, render_table2_rows, render_table2_summary, render_table3, render_table4,
};
use tiara_eval::tables::{table1, table3, Table4Row};
use tiara_eval::{
    build_suite, cross_experiments, intra_experiments, run_experiment, ExperimentResult,
    SlicedSuite,
};

#[derive(Debug, Clone)]
struct Options {
    command: String,
    scale: f64,
    epochs: usize,
    seed: u64,
    threads: usize,
    json: bool,
    out: Option<String>,
}

fn usage() -> String {
    "usage: tiara-eval <table1|table2-intra|table2-cross|table3|table4|fig2|ablation|escape|discovery|extended|all> \
     [--scale F] [--epochs N] [--seed N] [--threads N] [--json] [--out FILE]"
        .to_owned()
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        scale: 1.0,
        epochs: 60,
        seed: 42,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        json: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => opts.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--epochs" => opts.epochs = value()?.parse().map_err(|e| format!("--epochs: {e}"))?,
            // Artifacts record the seed as a JSON integer, which is signed.
            "--seed" => {
                opts.seed = value()?
                    .parse::<i64>()
                    .ok()
                    .and_then(|seed| u64::try_from(seed).ok())
                    .ok_or(format!("--seed: expected an integer in 0..={}", i64::MAX))?;
            }
            "--threads" => {
                opts.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--json" => opts.json = true,
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(opts)
}

/// A failure after the arguments parsed.
#[derive(Debug)]
enum RunError {
    /// The `--json` artifact could not be created or written.
    Artifact { path: String, source: std::io::Error },
    /// A generated suite failed the verifier gate.
    Verify(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Artifact { path, source } => write!(f, "writing {path}: {source}"),
            RunError::Verify(report) => write!(f, "{report}"),
        }
    }
}

/// The `--json` artifact, created before its experiment runs.
struct Artifact {
    path: String,
    file: File,
}

impl Artifact {
    /// Creates the artifact at `--out` (or `default`) if `--json` was given.
    fn create(opts: &Options, default: &str) -> Result<Option<Artifact>, RunError> {
        if !opts.json {
            return Ok(None);
        }
        let path = opts.out.clone().unwrap_or_else(|| default.to_owned());
        match File::create(&path) {
            Ok(file) => Ok(Some(Artifact { path, file })),
            Err(source) => Err(RunError::Artifact { path, source }),
        }
    }

    fn write(mut self, body: &str) -> Result<(), RunError> {
        match self.file.write_all(body.as_bytes()) {
            Ok(()) => {
                eprintln!("[tiara-eval] wrote {}", self.path);
                Ok(())
            }
            Err(source) => Err(RunError::Artifact { path: self.path, source }),
        }
    }
}

fn verify_suite(bins: &[tiara_synth::Binary]) -> Result<(), RunError> {
    eprintln!("[tiara-eval] verifying the suite …");
    tiara_eval::verify_suite(bins).map_err(RunError::Verify)
}

fn classifier_config(opts: &Options) -> ClassifierConfig {
    ClassifierConfig { epochs: opts.epochs, seed: opts.seed, ..ClassifierConfig::default() }
}

fn build_suites(opts: &Options) -> Result<(SlicedSuite, SlicedSuite), RunError> {
    eprintln!(
        "[tiara-eval] generating the 8-project suite (scale {}, seed {}) …",
        opts.scale, opts.seed
    );
    let bins = build_suite(opts.seed, opts.scale);
    verify_suite(&bins)?;
    eprintln!("[tiara-eval] slicing with TSLICE ({} threads) …", opts.threads);
    let t = SlicedSuite::build(&bins, &Slicer::default(), opts.threads);
    eprintln!(
        "[tiara-eval]   TSLICE done in {:.1}s ({} slices)",
        t.total_slice_secs(),
        t.datasets.iter().map(|d| d.len()).sum::<usize>()
    );
    eprintln!("[tiara-eval] slicing with SSLICE …");
    let s = SlicedSuite::build(&bins, &Slicer::Sslice, opts.threads);
    eprintln!("[tiara-eval]   SSLICE done in {:.1}s", s.total_slice_secs());
    Ok((t, s))
}

fn run_rows(
    suites: &(SlicedSuite, SlicedSuite),
    specs: &[tiara_eval::ExperimentSpec],
    opts: &Options,
) -> (Vec<ExperimentResult>, Vec<Table4Row>, Vec<Table4Row>) {
    let cfg = classifier_config(opts);
    let mut results = Vec::new();
    let mut t_rows = Vec::new();
    let mut s_rows = Vec::new();
    for spec in specs {
        for suite in [&suites.0, &suites.1] {
            let suffix = if suite.slicer_name == "TSLICE" { "a" } else { "b" };
            eprintln!("[tiara-eval] running {}{} …", spec.id, suffix);
            let res = run_experiment(suite, spec, &cfg, opts.seed);
            let row = Table4Row {
                id: res.id.clone(),
                slice_secs: tiara_eval::tables::experiment_slice_secs(suite, spec),
                train_secs: res.train_secs,
            };
            if suite.slicer_name == "TSLICE" {
                t_rows.push(row);
            } else {
                s_rows.push(row);
            }
            results.push(res);
        }
    }
    (results, t_rows, s_rows)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // Kernels inside training dispatch on the shared executor; honor
    // `--threads` everywhere, not just in the slicing fan-out.
    tiara_par::set_global_threads(opts.threads);

    run(&opts).unwrap_or_else(|e| {
        eprintln!("tiara-eval: {e}");
        ExitCode::FAILURE
    })
}

fn run(opts: &Options) -> Result<ExitCode, RunError> {
    match opts.command.as_str() {
        "fig2" => {
            println!("{}", tiara_eval::fig2::render_figure2());
        }
        "ablation" => {
            let bins = build_suite(opts.seed, opts.scale);
            let clang = bins.into_iter().next().expect("suite is nonempty");
            eprintln!("[tiara-eval] ablating TSLICE configurations on `{}` …", clang.name);
            let rows = tiara_eval::ablation::run_ablation(
                &clang,
                &classifier_config(opts),
                opts.seed,
                opts.threads,
            );
            println!("{}", tiara_eval::ablation::render_ablation(&rows));
            eprintln!("[tiara-eval] ablating classifier architectures …");
            let model_rows = tiara_eval::ablation::run_model_ablation(
                &clang,
                opts.epochs,
                opts.seed,
                opts.threads,
            );
            println!("{}", tiara_eval::ablation::render_model_ablation(&model_rows));
        }
        "escape" => {
            let artifact = Artifact::create(opts, "ESCAPE_PR6.json")?;
            eprintln!(
                "[tiara-eval] escape-through-call experiment (scale {}, seed {}, {} epochs) …",
                opts.scale, opts.seed, opts.epochs
            );
            let r = tiara_eval::run_escape_experiment(
                opts.seed,
                opts.scale,
                &classifier_config(opts),
                opts.threads,
            );
            print!("{}", tiara_eval::render_escape_report(&r));
            if let Some(artifact) = artifact {
                artifact.write(&tiara_eval::render_escape_json(&r, opts.seed, opts.scale))?;
            }
        }
        "discovery" => {
            let artifact = Artifact::create(opts, "DISCOVERY_PR7.json")?;
            eprintln!(
                "[tiara-eval] variable-discovery experiment (scale {}, seed {}) …",
                opts.scale, opts.seed
            );
            let r = tiara_eval::run_discovery_experiment(opts.seed, opts.scale);
            print!("{}", tiara_eval::render_discovery_report(&r));
            if let Some(artifact) = artifact {
                artifact.write(&tiara_eval::render_discovery_json(&r, opts.seed, opts.scale))?;
            }
            if r.oracle_errors > 0 {
                eprintln!(
                    "[tiara-eval] ERROR: {} verifier errors across the discovery suite",
                    r.oracle_errors
                );
                return Ok(ExitCode::FAILURE);
            }
        }
        "extended" => {
            eprintln!("[tiara-eval] building the 6-class extension suite (scale {}) …", opts.scale);
            let bins = tiara_eval::build_extended_suite(opts.seed, opts.scale);
            verify_suite(&bins)?;
            let suite = SlicedSuite::build(&bins, &Slicer::default(), opts.threads);
            let cfg = classifier_config(opts);
            let results: Vec<_> = tiara_eval::extended_experiments()
                .iter()
                .map(|spec| {
                    eprintln!("[tiara-eval] running {}a …", spec.id);
                    run_experiment(&suite, spec, &cfg, opts.seed)
                })
                .collect();
            println!("\nEXTENSION — SIX-CLASS TYPE RECOVERY (deque + set added)");
            println!("{}", render_table2_rows(&results));
            println!("{}", render_table2_summary(&results));
        }
        "table1" => {
            let bins = build_suite(opts.seed, opts.scale);
            println!("{}", render_table1(&table1(&bins)));
        }
        "table3" => {
            let (t, s) = build_suites(opts)?;
            println!("{}", render_table3(&table3(&t, &s)));
        }
        "table2-intra" | "table2-cross" | "table4" | "all" => {
            let suites = build_suites(opts)?;
            let intra = intra_experiments();
            let cross = cross_experiments();
            let mut t4_t = Vec::new();
            let mut t4_s = Vec::new();

            if opts.command != "table2-cross" {
                let (res, tt, ts) = run_rows(&suites, &intra, opts);
                println!("\nTABLE II — INTRA-PROJECT (RQ1, RQ3)");
                println!("{}", render_table2_rows(&res));
                println!("{}", render_table2_summary(&res));
                t4_t.extend(tt);
                t4_s.extend(ts);
            }
            if opts.command != "table2-intra" {
                let (res, tt, ts) = run_rows(&suites, &cross, opts);
                println!("\nTABLE II — CROSS-PROJECT (RQ2, RQ3)");
                println!("{}", render_table2_rows(&res));
                println!("{}", render_table2_summary(&res));
                t4_t.extend(tt);
                t4_s.extend(ts);
            }
            println!("\n{}", render_table4(&t4_t, &t4_s));
            if opts.command == "all" {
                println!("{}", render_table1(&table1(&suites.0.binaries)));
                println!("{}", render_table3(&table3(&suites.0, &suites.1)));
                println!("{}", tiara_eval::fig2::render_figure2());
            }
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}
