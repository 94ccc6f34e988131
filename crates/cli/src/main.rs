//! The `tiara` command-line tool: the full pipeline over on-disk artifacts,
//! plus the serving daemon.
//!
//! ```text
//! tiara asm     --in listing.asm --out prog.tira
//! tiara disasm  --binary prog.tira
//! tiara synth   --out prog.tira --pdb labels.json [--seed N] [--style K]
//!               [--counts LIST,VEC,MAP,PRIM]
//! tiara slice   --binary prog.tira --addr <ADDR> [--sslice] [--trace] [--dot] [--stats]
//! tiara analyze --binary prog.tira [--func <NAME>] [--interproc] [--vsa] [--json]
//! tiara lint    --binary prog.tira [--addr <ADDR>] [--json]
//! tiara train   --binary prog.tira --pdb labels.json --save model.tc
//!               [--epochs N] [--batch N] [--sslice] [--stats]
//! tiara predict --binary prog.tira --model model.tc --addr <ADDR>
//! tiara inspect model.tc [--json]
//! tiara serve   --model model.tc | --models a=a.tc b=b.tc [--listen HOST:PORT]
//!               [--workers N] [--queue N] [--max-batch N] [--deadline-ms N]
//!               [--max-conns N] [--idle-timeout-ms N] [--no-persist]
//! ```
//!
//! Model files are `.tc` containers (see `tiara-container`): weights are
//! mapped zero-copy at load, and `serve` persists each model's slice cache
//! back into its container on shutdown so the next process starts warm.
//!
//! `serve` speaks protocol v2: `--model` loads one model under the
//! `default` alias (the v1 shape), `--models ALIAS=PATH...` loads several;
//! more can be loaded, aliased, and unloaded at runtime over the wire.
//!
//! `<ADDR>` is `0x74404` / `74404h` for a global, or `func:<name>:<offset>`
//! for a frame slot (e.g. `func:fn_0000:-0x18`).
//!
//! Every command accepts `--threads N` to bound the worker-thread count of
//! the shared executor (default: `TIARA_THREADS` or the machine's available
//! parallelism). Results are bitwise identical at any thread count. A flag
//! the command does not take is a usage error.
//!
//! ## Exit codes
//!
//! Failures map to distinct codes so scripts can branch without scraping
//! stderr: `2` usage, and [`tiara::Error::exit_code`] for pipeline errors
//! (`3` I/O, `4` retired, `5` untrained model, `6` unknown variable,
//! `7` empty dataset, `8` slice, `9` persistence, `10` serve, `11` unknown
//! model alias, `12` model busy, `13` overloaded, `14` connection limit).
//! `1` is reserved for unclassified errors. A closed stdout (e.g. piping
//! into `head`) ends the command quietly with `0`.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use tiara::{Classifier, ClassifierConfig, Dataset, Error, Slicer, Tiara, TiaraConfig};
use tiara_ir::{
    assemble, disassemble, format_inst, format_program, parse_program, parse_var_addr, DebugInfo,
    Program, VarAddr,
};
use tiara_serve::{Registry, ServeConfig, Server};
use tiara_slice::{tslice_with, TsliceConfig};

fn usage() -> &'static str {
    "usage: tiara <asm|disasm|synth|slice|analyze|lint|train|predict|inspect|serve> [flags]\n\
     \n\
     tiara asm     --in listing.asm --out prog.tira\n\
     tiara disasm  --binary prog.tira\n\
     tiara synth   --out prog.tira --pdb labels.json [--seed N] [--style K] [--counts L,V,M,P]\n\
     tiara slice   --binary prog.tira --addr ADDR [--sslice] [--trace] [--dot] [--stats]\n\
     tiara analyze --binary prog.tira [--func NAME] [--interproc] [--vsa] [--json]\n\
     tiara lint    --binary prog.tira [--addr ADDR] [--json]\n\
     tiara train   --binary prog.tira --pdb labels.json --save model.tc [--epochs N]\n\
                   [--batch N] [--sslice] [--stats]\n\
     tiara predict --binary prog.tira --model model.tc --addr ADDR\n\
     tiara inspect model.tc [--json]\n\
     tiara serve   --model model.tc | --models ALIAS=PATH [ALIAS=PATH ...]\n\
                   [--listen HOST:PORT] [--workers N] [--queue N] [--max-batch N]\n\
                   [--deadline-ms N] [--max-conns N] [--idle-timeout-ms N]\n\
                   [--no-persist]\n\
     \n\
     ADDR: 0x74404 | 74404h (global) | func:<name>:<offset> (frame slot)\n\
     every command also accepts --threads N (default: TIARA_THREADS or all cores)\n\
     `serve` answers newline-delimited JSON (protocol v2) on stdin/stdout, or on a\n\
     multiplexed TCP reactor with --listen; --model loads under the `default` alias,\n\
     --models loads several, and model_load/model_alias/model_unload work at runtime.\n\
     On shutdown each model's slice cache is persisted into its container\n\
     (--no-persist to skip). `inspect` prints a .tc container's header and sections."
}

/// CLI failures, each with a stable exit code (see the module docs).
#[derive(Debug)]
enum CliError {
    /// Bad flags or arguments → exit 2.
    Usage(String),
    /// A pipeline error → [`Error::exit_code`].
    Pipeline(Error),
    /// Anything else (parse errors from on-disk artifacts, lint findings) →
    /// exit 1.
    Other(String),
    /// Stdout was closed by its reader → a quiet exit 0.
    Closed,
}

impl From<Error> for CliError {
    fn from(e: Error) -> CliError {
        CliError::Pipeline(e)
    }
}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError::Other(s)
    }
}

/// Failed writes to stdout: a broken pipe means the reader is done.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError::Closed
        } else {
            CliError::Pipeline(Error::Io(e))
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Pipeline(e) => e.exit_code(),
            CliError::Other(_) => 1,
            CliError::Closed => 0,
        }
    }

    fn message(&self) -> String {
        match self {
            CliError::Usage(m) | CliError::Other(m) => m.clone(),
            CliError::Pipeline(e) => e.to_string(),
            CliError::Closed => String::new(),
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tiara: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// The flags `command` takes besides the `--threads N` every command takes:
/// those that take a value, then the switches. `None` for an unknown
/// command.
fn command_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "asm" => (&["in", "out"], &[]),
        "disasm" => (&["binary"], &[]),
        "synth" => (&["out", "pdb", "seed", "style", "counts"], &[]),
        "slice" => (&["binary", "addr"], &["sslice", "trace", "dot", "stats"]),
        "analyze" => (&["binary", "func"], &["interproc", "vsa", "json"]),
        "lint" => (&["binary", "addr"], &["json"]),
        // `--model` is the pre-bundle spelling of `--save`.
        "train" => (&["binary", "pdb", "save", "model", "epochs", "batch"], &["sslice", "stats"]),
        "predict" => (&["binary", "model", "addr"], &[]),
        "inspect" => (&["model"], &["json"]),
        "serve" => (
            &[
                "model",
                "models",
                "listen",
                "workers",
                "queue",
                "max-batch",
                "deadline-ms",
                "max-conns",
                "idle-timeout-ms",
            ],
            &["no-persist"],
        ),
        _ => return None,
    })
}

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1).peekable();
    let command = args.next().ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    let (values, switch_names) = command_flags(&command)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{command}`\n{}", usage())))?;
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut switches: Vec<String> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut models: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        if let Some(name) = a.strip_prefix("--") {
            if switch_names.contains(&name) {
                switches.push(name.to_owned());
            } else if name == "models" && values.contains(&name) {
                // `--models` greedily takes every following ALIAS=PATH pair,
                // so `--models a=a.tc b=b.tc` loads two models.
                let before = models.len();
                while let Some(next) = args.peek() {
                    if next.starts_with("--") || !next.contains('=') {
                        break;
                    }
                    models.extend(args.next());
                }
                if models.len() == before {
                    return Err(CliError::Usage(
                        "--models expects one or more ALIAS=PATH pairs".into(),
                    ));
                }
            } else if values.contains(&name) || name == "threads" {
                let v = args
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("missing value for --{name}")))?;
                flags.insert(name.to_owned(), v);
            } else {
                return Err(CliError::Usage(format!(
                    "`tiara {command}` does not take --{name}\n{}",
                    usage()
                )));
            }
        } else if command == "inspect" && positional.is_empty() {
            // `inspect` takes its file as a positional argument.
            positional.push(a);
        } else {
            return Err(CliError::Usage(format!("unexpected argument `{a}`\n{}", usage())));
        }
    }
    let get = |k: &str| -> Result<&String, CliError> {
        flags
            .get(k)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{k}\n{}", usage())))
    };
    let has = |k: &str| switches.iter().any(|s| s == k);

    if let Some(t) = flags.get("threads") {
        let n: usize = t.parse().map_err(|e| CliError::Usage(format!("--threads: {e}")))?;
        if n == 0 {
            return Err(CliError::Usage("--threads must be at least 1".into()));
        }
        tiara_par::set_global_threads(n);
    }

    let mut out = std::io::stdout().lock();
    match command.as_str() {
        "asm" => {
            let text = read(get("in")?)?;
            let prog = parse_program(&text).map_err(|e| e.to_string())?;
            write(get("out")?, &assemble(&prog))?;
            eprintln!(
                "assembled {} instructions in {} functions",
                prog.num_insts(),
                prog.funcs().len()
            );
        }
        "disasm" => {
            let prog = load_binary(get("binary")?)?;
            write!(out, "{}", format_program(&prog))?;
        }
        "synth" => {
            let counts = match flags.get("counts") {
                Some(c) => parse_counts(c)?,
                None => tiara_synth::TypeCounts {
                    list: 4,
                    vector: 8,
                    map: 8,
                    primitive: 30,
                    ..Default::default()
                },
            };
            let index = match flags.get("style") {
                Some(k) => k.parse().map_err(|e| CliError::Usage(format!("--style: {e}")))?,
                None => 0,
            };
            let seed = match flags.get("seed") {
                Some(n) => n.parse().map_err(|e| CliError::Usage(format!("--seed: {e}")))?,
                None => 42,
            };
            let spec = tiara_synth::ProjectSpec { name: "synth".into(), index, seed, counts };
            let bin = tiara_synth::generate(&spec);
            write(get("out")?, &assemble(&bin.program))?;
            let pdb = bin.debug.to_json()?.render();
            std::fs::write(get("pdb")?, pdb).map_err(|e| e.to_string())?;
            eprintln!(
                "generated {} instructions, {} labeled variables",
                bin.program.num_insts(),
                bin.debug.len()
            );
        }
        "slice" => {
            let prog = load_binary(get("binary")?)?;
            let addr = parse_addr(get("addr")?, &prog)?;
            if has("sslice") {
                let s = tiara_slice::sslice(&prog, addr);
                if has("dot") {
                    writeln!(out, "{}", s.to_dot(&prog))?;
                } else {
                    print_slice(&mut out, &prog, &s)?;
                }
            } else {
                let cfg =
                    if has("trace") { TsliceConfig::with_trace() } else { TsliceConfig::default() };
                let sliced = tslice_with(&prog, addr, &cfg);
                if has("dot") {
                    writeln!(out, "{}", sliced.slice.to_dot(&prog))?;
                } else {
                    print_slice(&mut out, &prog, &sliced.slice)?;
                }
                if has("stats") {
                    eprintln!("{}", sliced.stats);
                }
                if has("trace") {
                    eprintln!("\ntrace ({} events):", sliced.trace.len());
                    for e in sliced.trace.iter().take(100) {
                        eprintln!(
                            "  {} {} faith {:.3} dep {}",
                            e.inst,
                            e.rules.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(";"),
                            e.faith,
                            e.dep
                        );
                    }
                }
            }
        }
        "analyze" => {
            let prog = load_binary(get("binary")?)?;
            if has("vsa") {
                if has("interproc") {
                    return Err(CliError::Usage(
                        "--vsa cannot be combined with --interproc (value-set analysis is \
                         intra-procedural; run the two reports separately)"
                            .into(),
                    ));
                }
                let results = match flags.get("func") {
                    Some(name) => {
                        let f = prog
                            .func_by_name(name)
                            .ok_or_else(|| {
                                CliError::Usage(format!(
                                    "no function named `{name}` (see `tiara disasm` for the \
                                     function list)"
                                ))
                            })?
                            .id;
                        vec![tiara_dataflow::vsa_function(&prog, f)]
                    }
                    None => tiara_dataflow::vsa_program(&prog),
                };
                if has("json") {
                    writeln!(out, "{}", tiara_dataflow::render_vsa_json(&prog, &results))?;
                } else {
                    write!(out, "{}", tiara_dataflow::render_vsa_text(&prog, &results))?;
                }
                return Ok(());
            }
            if has("interproc") {
                if flags.contains_key("func") {
                    return Err(CliError::Usage(
                        "--func cannot be combined with --interproc (escape/mod-ref \
                         summaries are computed bottom-up over the whole call graph)"
                            .into(),
                    ));
                }
                let sums = tiara_dataflow::summarize_program(&prog);
                if has("json") {
                    writeln!(out, "{}", tiara_dataflow::render_interproc_json(&sums))?;
                } else {
                    write!(out, "{}", tiara_dataflow::render_interproc_text(&sums))?;
                }
                return Ok(());
            }
            let facts = match flags.get("func") {
                Some(name) => {
                    let f = prog
                        .func_by_name(name)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "no function named `{name}` (see `tiara disasm` for the \
                                 function list)"
                            ))
                        })?
                        .id;
                    vec![tiara_dataflow::analyze_function(&prog, f)]
                }
                None => tiara_dataflow::analyze_program(&prog),
            };
            if has("json") {
                writeln!(out, "{}", tiara_dataflow::render_json(&facts))?;
            } else {
                write!(out, "{}", tiara_dataflow::render_text(&facts))?;
            }
        }
        "lint" => {
            let prog = load_binary(get("binary")?)?;
            let report = match flags.get("addr") {
                Some(a) => {
                    let addr = parse_addr(a, &prog)?;
                    tiara_verify::verify_with_slices(&prog, &[addr])
                }
                None => tiara_verify::verify(&prog),
            };
            if has("json") {
                writeln!(out, "{}", report.render_json())?;
            } else {
                write!(out, "{}", report.render_human(&prog))?;
            }
            if report.has_errors() {
                return Err(format!("lint found {} error(s)", report.num_errors()).into());
            }
        }
        "train" => {
            let epochs = match flags.get("epochs") {
                Some(e) => e.parse().map_err(|e| CliError::Usage(format!("--epochs: {e}")))?,
                None => 60,
            };
            if epochs == 0 {
                return Err(CliError::Usage("--epochs must be at least 1".into()));
            }
            let batch_size = match flags.get("batch") {
                Some(b) => b.parse().map_err(|e| CliError::Usage(format!("--batch: {e}")))?,
                None => ClassifierConfig::default().batch_size,
            };
            if batch_size == 0 {
                return Err(CliError::Usage("--batch must be at least 1".into()));
            }
            let prog = load_binary(get("binary")?)?;
            let pdb_path = get("pdb")?;
            let pdb = tiara_json::parse(&read(pdb_path)?)
                .map_err(|(at, e)| format!("{pdb_path}: byte {at}: {e}"))
                .and_then(|doc| {
                    DebugInfo::from_json(&doc).map_err(|e| format!("{pdb_path}: {e}"))
                })?;
            let slicer = if has("sslice") { Slicer::Sslice } else { Slicer::default() };
            // `--save` writes the whole system (slicer config + weights);
            // `--model` remains as an alias from the pre-bundle CLI.
            let out_path = flags.get("save").or_else(|| flags.get("model")).ok_or_else(|| {
                CliError::Usage(format!("missing required flag --save\n{}", usage()))
            })?;
            let ds = Dataset::from_binary(&prog, &pdb, "cli", &slicer);
            let mut clf =
                Classifier::new(&ClassifierConfig { epochs, batch_size, ..Default::default() });
            let stats = clf.train_with_progress(&ds, |s| {
                if s.epoch % 10 == 0 {
                    eprintln!("epoch {:>4}: loss {:.4} acc {:.2}", s.epoch, s.loss, s.accuracy);
                }
            })?;
            if has("stats") {
                eprintln!("{}", clf.train_stats());
            }
            let tiara = Tiara::new(TiaraConfig::new().with_slicer(slicer)).with_classifier(clf);
            tiara.save(&PathBuf::from(out_path))?;
            if let Some(last) = stats.last() {
                eprintln!(
                    "trained on {} slices: final loss {:.4}, accuracy {:.2}; system saved to {}",
                    ds.len(),
                    last.loss,
                    last.accuracy,
                    out_path
                );
            }
        }
        "predict" => {
            let prog = load_binary(get("binary")?)?;
            let tiara = load_model(get("model")?)?;
            let addr = parse_addr(get("addr")?, &prog)?;
            let p = tiara.try_predict(&prog, addr)?;
            writeln!(out, "{addr}: {}", p.class)?;
            for c in tiara_ir::ContainerClass::ALL {
                writeln!(out, "  {:<12} {:.3}", c.to_string(), p.probs[c.index()])?;
            }
        }
        "inspect" => {
            let path =
                positional.first().or_else(|| flags.get("model")).cloned().ok_or_else(|| {
                    CliError::Usage(format!("inspect needs a container file\n{}", usage()))
                })?;
            let bytes = tiara_container::AlignedBytes::read_file(std::path::Path::new(&path))
                .map_err(|e| io_err(&path, e))?;
            let reader = tiara_container::Reader::new(bytes)
                .map_err(|e| CliError::Pipeline(Error::Persistence(format!("{path}: {e}"))))?;
            if has("json") {
                writeln!(out, "{}", render_inspect_json(&path, &reader))?;
            } else {
                write!(out, "{}", render_inspect_text(&path, &reader))?;
            }
        }
        "serve" => {
            // `--model m.tc` is the v1 shape (one model, `default` alias);
            // `--models a=a.tc b=b.tc` names each alias explicitly. Both can
            // be combined, and more models can be loaded over the wire.
            let mut specs: Vec<(String, String)> = Vec::new();
            if let Some(m) = flags.get("model") {
                specs.push((tiara_serve::DEFAULT_ALIAS.to_owned(), m.clone()));
            }
            for pair in &models {
                let (alias, path) = pair
                    .split_once('=')
                    .filter(|(a, p)| !a.is_empty() && !p.is_empty())
                    .ok_or_else(|| {
                        CliError::Usage(format!("--models entry `{pair}` is not ALIAS=PATH"))
                    })?;
                specs.push((alias.to_owned(), path.to_owned()));
            }
            if specs.is_empty() {
                return Err(CliError::Usage(format!(
                    "serve needs --model PATH or --models ALIAS=PATH\n{}",
                    usage()
                )));
            }
            let registry = Registry::new();
            for (alias, path) in &specs {
                let tiara = load_model(path)?;
                let restored = tiara.restored_cache_entries();
                if restored > 0 {
                    eprintln!("restored {restored} cached slice(s) from {path}");
                }
                let (entry, fresh) = registry.insert(alias, tiara, Some(path.clone()))?;
                eprintln!(
                    "model {alias:<16} digest {:016x}  {}",
                    entry.digest(),
                    if fresh { path.as_str() } else { "(shared weights, aliased)" }
                );
            }
            let persist = !has("no-persist");
            let mut config = ServeConfig::default();
            if let Some(w) = flags.get("workers") {
                config.workers =
                    w.parse().map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
            }
            if let Some(q) = flags.get("queue") {
                config.queue_capacity =
                    q.parse().map_err(|e| CliError::Usage(format!("--queue: {e}")))?;
            }
            if let Some(m) = flags.get("max-batch") {
                config.max_batch =
                    m.parse().map_err(|e| CliError::Usage(format!("--max-batch: {e}")))?;
            }
            if let Some(d) = flags.get("deadline-ms") {
                config.default_deadline_ms =
                    Some(d.parse().map_err(|e| CliError::Usage(format!("--deadline-ms: {e}")))?);
            }
            if let Some(c) = flags.get("max-conns") {
                config.max_conns =
                    c.parse().map_err(|e| CliError::Usage(format!("--max-conns: {e}")))?;
            }
            if let Some(t) = flags.get("idle-timeout-ms") {
                config.idle_timeout_ms =
                    t.parse().map_err(|e| CliError::Usage(format!("--idle-timeout-ms: {e}")))?;
            }
            let server = Arc::new(Server::new(registry, config)?);
            match flags.get("listen") {
                Some(addr) => {
                    let listener = std::net::TcpListener::bind(addr)
                        .map_err(|e| Error::Serve(format!("cannot listen on {addr}: {e}")))?;
                    let local = listener.local_addr().map_err(Error::from)?;
                    eprintln!(
                        "tiara-serve listening on {local} (send {{\"op\":\"shutdown\"}} to stop)"
                    );
                    server
                        .run_tcp(listener)
                        .map_err(|e| Error::Serve(format!("serve loop failed: {e}")))?;
                }
                None => {
                    eprintln!(
                        "tiara-serve on stdin/stdout (EOF or {{\"op\":\"shutdown\"}} to stop)"
                    );
                    server
                        .run_stdio(std::io::stdin().lock(), &mut out)
                        .map_err(|e| Error::Serve(format!("serve loop failed: {e}")))?;
                }
            }
            eprintln!("tiara-serve drained and stopped");
            // On shutdown, write the (possibly grown) slice cache back into
            // each model's container so the next process starts warm; each
            // model keeps only its own slicer's entries. Models loaded over
            // the wire persist too; digest-deduped aliases (one entry per
            // digest) are skipped.
            if persist {
                for entry in server.registry().entries() {
                    let Some(src) = entry.source().map(str::to_owned) else { continue };
                    entry.tiara().save_with_cache(&PathBuf::from(&src))?;
                    eprintln!("persisted slice cache to {src}");
                }
            }
        }
        other => return Err(CliError::Usage(format!("unknown command `{other}`\n{}", usage()))),
    }
    out.flush()?;
    Ok(())
}

/// Wraps a filesystem error with its path so `Error::Io` (exit 3) keeps the
/// context the bare `std::io::Error` loses.
fn io_err(path: &str, e: std::io::Error) -> CliError {
    CliError::Pipeline(Error::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| io_err(path, e))
}

fn write(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| io_err(path, e))
}

fn load_binary(path: &str) -> Result<Program, CliError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    disassemble(&bytes).map_err(|e| CliError::Other(format!("{path}: {e}")))
}

/// Loads a saved `.tc` container (weights mapped zero-copy, slice cache
/// restored).
fn load_model(path: &str) -> Result<Tiara, CliError> {
    Tiara::load(std::path::Path::new(path)).map_err(|e| match e {
        Error::Io(e) => io_err(path, e),
        e => CliError::Pipeline(e),
    })
}

fn uuid_hex(uuid: [u8; 16]) -> String {
    uuid.iter().map(|b| format!("{b:02x}")).collect()
}

fn render_inspect_text(path: &str, r: &tiara_container::Reader) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{path}: TIARA.TC container");
    let _ = writeln!(out, "  format version {}", r.version());
    let _ = writeln!(out, "  uuid           {}", uuid_hex(r.uuid()));
    let _ = writeln!(out, "  file length    {} bytes", r.file_len());
    let _ = writeln!(out, "  sections       {}", r.toc().len());
    let _ = writeln!(
        out,
        "  {:<13} {:>3} {:>10} {:>10} {:>10}  {:<16}",
        "kind", "idx", "offset", "length", "aligned", "checksum"
    );
    for e in r.toc() {
        let _ = writeln!(
            out,
            "  {:<13} {:>3} {:>10} {:>10} {:>10}  {:016x}",
            tiara_container::kind::name(e.kind),
            e.index,
            e.offset,
            e.len,
            e.aligned_len(),
            e.checksum
        );
    }
    out
}

fn render_inspect_json(path: &str, r: &tiara_container::Reader) -> String {
    use tiara_json::Value;
    let int = |v: u64| Value::Int(v as i64);
    let sections = r.toc().iter().map(|e| {
        Value::obj([
            ("kind", Value::Str(tiara_container::kind::name(e.kind).to_owned())),
            ("kind_id", int(e.kind.into())),
            ("index", int(e.index.into())),
            ("offset", int(e.offset)),
            ("len", int(e.len)),
            ("aligned_len", int(e.aligned_len())),
            ("checksum", Value::Str(format!("{:016x}", e.checksum))),
        ])
    });
    Value::obj([
        ("file", Value::Str(path.to_owned())),
        ("format_version", int(r.version().into())),
        ("uuid", Value::Str(uuid_hex(r.uuid()))),
        ("file_len", int(r.file_len())),
        ("sections", Value::Array(sections.collect())),
    ])
    .render()
}

fn parse_counts(s: &str) -> Result<tiara_synth::TypeCounts, CliError> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|e| CliError::Usage(format!("--counts: {e}"))))
        .collect::<Result<_, _>>()?;
    if parts.len() != 4 {
        return Err(CliError::Usage("--counts expects LIST,VECTOR,MAP,PRIMITIVE".into()));
    }
    Ok(tiara_synth::TypeCounts {
        list: parts[0],
        vector: parts[1],
        map: parts[2],
        primitive: parts[3],
        ..Default::default()
    })
}

fn parse_addr(s: &str, prog: &Program) -> Result<VarAddr, CliError> {
    // An unparseable/unknown criterion is the CLI face of
    // `Error::UnknownVariable` — exit 6, not the generic 1.
    parse_var_addr(prog, s)
        .map_err(|m| CliError::Pipeline(Error::UnknownVariable(format!("`{s}` ({m})"))))
}

fn print_slice(
    out: &mut impl Write,
    prog: &Program,
    slice: &tiara_slice::Slice,
) -> std::io::Result<()> {
    writeln!(
        out,
        "slice of {}: {} nodes, {} edges",
        slice.criterion,
        slice.num_nodes(),
        slice.num_edges()
    )?;
    for n in &slice.nodes {
        writeln!(out, "  [{:.3}] {}", n.faith, format_inst(prog, n.inst))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_parsing() {
        let c = parse_counts("1, 2,3 ,4").unwrap();
        assert_eq!((c.list, c.vector, c.map, c.primitive), (1, 2, 3, 4));
        assert!(parse_counts("1,2,3").is_err());
        assert!(parse_counts("a,b,c,d").is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for cmd in [
            "asm", "disasm", "synth", "slice", "analyze", "lint", "train", "predict", "inspect",
            "serve",
        ] {
            assert!(usage().contains(cmd), "usage is missing `{cmd}`");
            assert!(command_flags(cmd).is_some(), "no flag table for `{cmd}`");
        }
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(CliError::Usage("u".into()).exit_code(), 2);
        assert_eq!(CliError::Other("o".into()).exit_code(), 1);
        assert_eq!(CliError::Pipeline(Error::Untrained).exit_code(), 5);
        assert_eq!(
            CliError::Pipeline(Error::Serve("s".into())).exit_code(),
            Error::Serve("s".into()).exit_code()
        );
        // Protocol v2 registry/admission failures keep their own codes.
        assert_eq!(CliError::Pipeline(Error::UnknownModel("m".into())).exit_code(), 11);
        assert_eq!(CliError::Pipeline(Error::ModelBusy("m".into())).exit_code(), 12);
        assert_eq!(CliError::Pipeline(Error::Overloaded("o".into())).exit_code(), 13);
        assert_eq!(CliError::Pipeline(Error::ConnLimit("c".into())).exit_code(), 14);
    }
}
