//! End-to-end tests of the `tiara` binary itself: exit codes follow the
//! documented contract, `analyze --interproc` emits the summary report,
//! `inspect` walks `.tc` containers, and `serve` persists the slice cache
//! across processes.

use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn tiara(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiara"))
        .args(args)
        .output()
        .expect("spawning the tiara binary")
}

/// Runs `tiara serve <args>` on stdio, feeding it `input` and returning its
/// stdout (one response line per request).
fn serve_args(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tiara"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning tiara serve");
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("waiting for tiara serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `tiara serve --model <model>` on stdio, feeding it `input` and
/// returning its stdout (one response line per request).
fn serve_once(model: &Path, input: &str) -> String {
    serve_args(&["--model", model.to_str().unwrap()], input)
}

/// Trains a tiny system in-process and saves it as a `.tc` container next to
/// the assembled program; returns the model path, the program path, and a
/// few labeled criterion addresses in CLI notation.
fn trained_model(dir: &Path) -> (PathBuf, PathBuf, Vec<String>) {
    let bin = tiara_synth::generate(&tiara_synth::ProjectSpec {
        name: "clm".into(),
        index: 1,
        seed: 21,
        counts: tiara_synth::TypeCounts { vector: 2, map: 1, primitive: 3, ..Default::default() },
    });
    let mut t =
        tiara::Tiara::new(tiara::TiaraConfig::new().with_classifier(tiara::ClassifierConfig {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        }));
    t.train(&[("clm", &bin.program, &bin.debug)]).unwrap();
    let model = dir.join("model.tc");
    t.save(&model).unwrap();
    let prog = dir.join("prog.tira");
    std::fs::write(&prog, tiara_ir::assemble(&bin.program)).unwrap();
    let addrs = bin
        .debug
        .vars
        .iter()
        .take(3)
        .map(|v| match v.addr {
            tiara_ir::VarAddr::Global(m) => format!("0x{:x}", m.value()),
            tiara_ir::VarAddr::Stack { func, offset } => {
                let name = &bin.program.funcs()[func.0 as usize].name;
                if offset < 0 {
                    format!("func:{name}:-0x{:x}", -offset)
                } else {
                    format!("func:{name}:0x{offset:x}")
                }
            }
            tiara_ir::VarAddr::Heap { site } => format!("heap:0x{:x}", site.value()),
        })
        .collect();
    (model, prog, addrs)
}

/// Generates a small escape-bearing binary on disk and returns its path.
fn synth_binary(dir: &std::path::Path) -> PathBuf {
    let bin = tiara_synth::generate(&tiara_synth::ProjectSpec {
        name: "cli".into(),
        index: 2,
        seed: 9,
        counts: tiara_synth::TypeCounts {
            vector: 2,
            map: 1,
            primitive: 4,
            escape: 2,
            ..Default::default()
        },
    });
    let path = dir.join("prog.tira");
    std::fs::write(&path, tiara_ir::assemble(&bin.program)).unwrap();
    path
}

/// Generates a binary with computed-address scenarios, so VSA has work to
/// do, and returns its path plus a labeled global criterion.
fn synth_computed_binary(dir: &std::path::Path) -> (PathBuf, String) {
    let bin = tiara_synth::generate(&tiara_synth::ProjectSpec {
        name: "cli-vsa".into(),
        index: 4,
        seed: 13,
        counts: tiara_synth::TypeCounts {
            vector: 2,
            primitive: 4,
            computed: 4,
            ..Default::default()
        },
    });
    let addr = bin
        .debug
        .iter()
        .find_map(|r| match r.addr {
            tiara_ir::VarAddr::Global(m) => Some(format!("0x{:X}", m.value())),
            _ => None,
        })
        .expect("a labeled global variable");
    let path = dir.join("prog.tira");
    std::fs::write(&path, tiara_ir::assemble(&bin.program)).unwrap();
    (path, addr)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tiara-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_func_is_a_usage_error_with_exit_2() {
    let dir = tempdir("func");
    let bin = synth_binary(&dir);
    let out = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--func", "no_such_fn"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no function named `no_such_fn`"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_interproc_reports_escape_helpers() {
    let dir = tempdir("interproc");
    let bin = synth_binary(&dir);
    let out = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--interproc"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fn esc_helper_000"), "missing helper summary:\n{text}");
    assert!(text.contains("unknown-callee"), "indirect call not surfaced:\n{text}");

    let json = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--interproc", "--json"]);
    assert_eq!(json.status.code(), Some(0));
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.contains("\"interproc\""), "json shape:\n{body}");
    assert!(body.contains("\"has_unknown_callee\":true"), "json shape:\n{body}");

    let both =
        tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--interproc", "--func", "main"]);
    assert_eq!(both.status.code(), Some(2), "--func + --interproc must be a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_vsa_reports_per_function_value_sets() {
    let dir = tempdir("vsa");
    let (bin, _) = synth_computed_binary(&dir);
    let out = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--vsa"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mem ops"), "missing per-function totals:\n{text}");
    assert!(text.contains("frame"), "missing region totals:\n{text}");

    let json = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--vsa", "--json"]);
    assert_eq!(json.status.code(), Some(0));
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.contains("\"mem_ops\""), "json shape:\n{body}");
    assert!(body.contains("\"computed\""), "json shape:\n{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_vsa_rejects_interproc_with_usage_exit() {
    let dir = tempdir("vsa-usage");
    let (bin, _) = synth_computed_binary(&dir);
    let out = tiara(&["analyze", "--binary", bin.to_str().unwrap(), "--vsa", "--interproc"]);
    assert_eq!(out.status.code(), Some(2), "--vsa + --interproc must be a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--vsa cannot be combined with --interproc"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_a_command_does_not_take_are_usage_errors_naming_the_flag() {
    let dir = tempdir("unknown-flags");
    let (bin, addr) = synth_computed_binary(&dir);
    let bin = bin.to_str().unwrap();
    let pdb = dir.join("labels.json");
    let save = dir.join("model.tc");
    let (pdb, save) = (pdb.to_str().unwrap(), save.to_str().unwrap());
    let slice = ["slice", "--binary", bin, "--addr", &addr];
    let train = ["train", "--binary", bin, "--pdb", pdb, "--save", save];
    for (args, flag) in [
        ([&slice[..], &["--vsa"]].concat(), "--vsa"),
        ([&slice[..], &["--reference"]].concat(), "--reference"),
        ([&train[..], &["--reference-mode"]].concat(), "--reference-mode"),
        ([&train[..], &["--epoch", "5"]].concat(), "--epoch"),
    ] {
        let out = tiara(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {err}");
        assert!(err.contains(&format!("does not take {flag}\n")), "{args:?}: stderr: {err}");
    }
    assert!(!Path::new(save).exists(), "a rejected train must write nothing");
    // `--vsa` remains a switch of `analyze`.
    let out = tiara(&["analyze", "--binary", bin, "--vsa"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_and_missing_files_keep_their_codes() {
    let none = tiara(&[]);
    assert_eq!(none.status.code(), Some(2));
    let unknown = tiara(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
    let missing = tiara(&["disasm", "--binary", "/nonexistent/prog.tira"]);
    assert_eq!(missing.status.code(), Some(3), "I/O failures exit 3");
}

#[test]
fn train_rejects_malformed_or_zero_epochs_with_usage_exit() {
    for (value, want) in
        [("abc", "--epochs:"), ("-3", "--epochs:"), ("0", "--epochs must be at least 1")]
    {
        let out = tiara(&[
            "train",
            "--binary",
            "/nonexistent/prog.tira",
            "--pdb",
            "/nonexistent/labels.json",
            "--save",
            "/nonexistent/model.tc",
            "--epochs",
            value,
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--epochs {value} must be a usage error: {err}");
        assert!(err.contains(want), "--epochs {value}: expected `{want}` in: {err}");
    }
}

#[test]
fn synth_rejects_malformed_seed_and_style_with_usage_exit() {
    let dir = tempdir("synth-usage");
    let prog = dir.join("prog.tira");
    let pdb = dir.join("labels.json");
    for (flag, value) in [("--seed", "abc"), ("--seed", "-1"), ("--style", "x"), ("--style", "")] {
        let out = tiara(&[
            "synth",
            "--out",
            prog.to_str().unwrap(),
            "--pdb",
            pdb.to_str().unwrap(),
            flag,
            value,
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value:?} must be a usage error: {err}");
        assert!(err.contains(&format!("{flag}:")), "{flag} {value:?}: stderr: {err}");
        assert!(!prog.exists(), "{flag} {value:?}: nothing may be written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The label file `synth --pdb` writes is the generator's table, and it
/// re-renders byte for byte after a parse.
#[test]
fn synth_pdb_round_trips_byte_for_byte() {
    let dir = tempdir("synth-pdb");
    let prog = dir.join("prog.tira");
    let pdb = dir.join("labels.json");
    let out = tiara(&[
        "synth",
        "--out",
        prog.to_str().unwrap(),
        "--pdb",
        pdb.to_str().unwrap(),
        "--seed",
        "5",
        "--style",
        "3",
        "--counts",
        "1,2,2,4",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&pdb).unwrap();
    let info = tiara_ir::DebugInfo::from_json(&tiara_json::parse(&text).unwrap()).unwrap();
    let spec = tiara_synth::ProjectSpec {
        name: "synth".into(),
        index: 3,
        seed: 5,
        counts: tiara_synth::TypeCounts {
            list: 1,
            vector: 2,
            map: 2,
            primitive: 4,
            ..Default::default()
        },
    };
    assert_eq!(info, tiara_synth::generate(&spec).debug);
    assert_eq!(info.to_json().unwrap().render(), text);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile label files end `train` with a message and exit 1, never a
/// panic.
#[test]
fn train_rejects_hostile_label_files() {
    let dir = tempdir("hostile-pdb");
    let prog = synth_binary(&dir);
    let pdb = dir.join("labels.json");
    let var = |addr: &str, class: &str, levels: &str| {
        format!(r#"{{"vars":[{{"addr":{addr},"class":"{class}","ptr_levels":{levels}}}]}}"#)
    };
    let cases = [
        ("negative address", var(r#"{"Global":-4}"#, "Vector", "0")),
        ("address above u64", var(r#"{"Global":18446744073709551616}"#, "Vector", "0")),
        ("ptr_levels 256", var(r#"{"Global":4096}"#, "Vector", "256")),
        ("unknown class", var(r#"{"Global":4096}"#, "Array", "0")),
        ("missing field", r#"{"vars":[{"addr":{"Global":4096},"class":"Map"}]}"#.to_owned()),
        ("depth bomb", "[".repeat(100_000)),
    ];
    for (what, doc) in cases {
        std::fs::write(&pdb, doc).unwrap();
        let out = tiara(&[
            "train",
            "--binary",
            prog.to_str().unwrap(),
            "--pdb",
            pdb.to_str().unwrap(),
            "--save",
            dir.join("model.tc").to_str().unwrap(),
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: stderr: {err}");
        assert!(err.contains("labels.json"), "{what}: the message names the file: {err}");
        assert!(!err.contains("panicked"), "{what}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Function names are free-form in `.tira` files; every `--json` dump must
/// stay valid JSON whatever they contain.
#[test]
fn json_dumps_escape_hostile_function_names() {
    use tiara_ir::{InstKind, Opcode, Operand, ProgramBuilder, Reg};
    let name = "f\"q\\b\nl\u{1}";
    let mut b = ProgramBuilder::new();
    b.begin_func("main");
    b.ret();
    b.end_func();
    b.begin_func(name);
    b.inst(Opcode::Mov, InstKind::Mov { dst: Operand::reg(Reg::Eax), src: Operand::imm(1) });
    b.inst(
        Opcode::Mov,
        InstKind::Mov { dst: Operand::mem_reg(Reg::Ecx, 4), src: Operand::reg(Reg::Eax) },
    );
    b.ret();
    b.end_func();
    let dir = tempdir("hostile-name");
    let prog = dir.join("prog.tira");
    std::fs::write(&prog, tiara_ir::assemble(&b.finish().unwrap())).unwrap();
    let bin = prog.to_str().unwrap();
    for args in [
        &["analyze", "--binary", bin, "--json"][..],
        &["analyze", "--binary", bin, "--interproc", "--json"],
        &["analyze", "--binary", bin, "--vsa", "--json"],
        &["lint", "--binary", bin, "--json"],
    ] {
        let out = tiara(args);
        let body = String::from_utf8_lossy(&out.stdout);
        let doc = tiara_json::parse(&body)
            .unwrap_or_else(|e| panic!("{args:?} printed invalid JSON ({e:?}):\n{body}"));
        assert!(doc.render().contains("f\\\"q\\\\b\\nl\\u0001"), "{args:?}: {body}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_stats_prints_the_training_split() {
    let dir = tempdir("train-stats");
    let prog = dir.join("prog.tira");
    let pdb = dir.join("labels.json");
    let model = dir.join("model.tc");
    let synth = tiara(&[
        "synth",
        "--out",
        prog.to_str().unwrap(),
        "--pdb",
        pdb.to_str().unwrap(),
        "--seed",
        "5",
        "--counts",
        "1,2,2,4",
    ]);
    assert_eq!(synth.status.code(), Some(0), "{}", String::from_utf8_lossy(&synth.stderr));
    let out = tiara(&[
        "train",
        "--binary",
        prog.to_str().unwrap(),
        "--pdb",
        pdb.to_str().unwrap(),
        "--save",
        model.to_str().unwrap(),
        "--epochs",
        "2",
        "--stats",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    for field in
        ["forward", "backward", "optimizer", "batches", "fused-kernel calls", "bytes reused"]
    {
        assert!(err.contains(field), "--stats must report `{field}`: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `inspect --json` document for `model`, assembled independently from
/// the container reader's own fields (plus the trailing newline).
fn expected_inspect_json(model: &Path) -> String {
    let r = tiara_container::Reader::new(tiara_container::AlignedBytes::copy_from(
        &std::fs::read(model).unwrap(),
    ))
    .unwrap();
    let sections: Vec<String> = r
        .toc()
        .iter()
        .map(|e| {
            format!(
                "{{\"kind\":\"{}\",\"kind_id\":{},\"index\":{},\"offset\":{},\"len\":{},\
                 \"aligned_len\":{},\"checksum\":\"{:016x}\"}}",
                tiara_container::kind::name(e.kind),
                e.kind,
                e.index,
                e.offset,
                e.len,
                e.aligned_len(),
                e.checksum
            )
        })
        .collect();
    let uuid: String = r.uuid().iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{{\"file\":{},\"format_version\":{},\"uuid\":\"{uuid}\",\"file_len\":{},\"sections\":[{}]}}\n",
        tiara_json::quote(model.to_str().unwrap()),
        r.version(),
        r.file_len(),
        sections.join(",")
    )
}

#[test]
fn inspect_reports_container_header_and_sections() {
    let dir = tempdir("inspect");
    let (model, _prog, _addrs) = trained_model(&dir);

    let out = tiara(&["inspect", model.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TIARA.TC container"), "missing header:\n{text}");
    assert!(text.contains("format version 1"), "missing version:\n{text}");
    for kind in ["model-config", "slicer-config", "label-vocab", "weight-f32"] {
        assert!(text.contains(kind), "missing `{kind}` section:\n{text}");
    }

    let json = tiara(&["inspect", model.to_str().unwrap(), "--json"]);
    assert_eq!(json.status.code(), Some(0));
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.contains("\"format_version\":1"), "json shape:\n{body}");
    assert!(body.contains("\"uuid\":\""), "json shape:\n{body}");
    assert!(body.contains("\"kind\":\"weight-f32\""), "json shape:\n{body}");
    assert!(body.contains("\"checksum\":\""), "json shape:\n{body}");
    assert_eq!(body, expected_inspect_json(&model), "inspect --json must match the reader");

    // A non-container file is an invalid bundle (exit 9), a missing file is
    // an I/O failure (exit 3), and no file at all is a usage error (exit 2).
    let junk = dir.join("junk.json");
    std::fs::write(&junk, b"{}").unwrap();
    assert_eq!(tiara(&["inspect", junk.to_str().unwrap()]).status.code(), Some(9));
    assert_eq!(tiara(&["inspect", "/nonexistent/model.tc"]).status.code(), Some(3));
    assert_eq!(tiara(&["inspect"]).status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_loads_tc_containers() {
    let dir = tempdir("predict-tc");
    let (model, prog, addrs) = trained_model(&dir);
    let out = tiara(&[
        "predict",
        "--binary",
        prog.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--addr",
        &addrs[0],
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("std::vector"), "missing the probability table:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_persists_and_reuses_the_slice_cache_across_processes() {
    let dir = tempdir("serve-cache");
    let (model, prog, addrs) = trained_model(&dir);
    let addr_list = addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",");
    let predict = format!(
        "{{\"op\":\"predict\",\"program_path\":\"{}\",\"addrs\":[{addr_list}]}}",
        prog.to_str().unwrap()
    );

    // Process 1 slices cold, then persists the cache into the container on
    // shutdown.
    let out1 = serve_once(&model, &format!("{predict}\n{{\"op\":\"shutdown\"}}\n"));
    let first = out1.lines().next().expect("a predict response");
    assert!(first.contains("\"ok\":true"), "predict failed: {first}");
    let ins = tiara(&["inspect", model.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&ins.stdout);
    assert!(text.contains("cache-shard"), "no persisted cache shard:\n{text}");

    // Process 2 starts warm: every address hits the restored cache, and the
    // response bytes are identical to the cold run.
    let out2 =
        serve_once(&model, &format!("{predict}\n{{\"op\":\"stats\"}}\n{{\"op\":\"shutdown\"}}\n"));
    let mut lines = out2.lines();
    let again = lines.next().expect("a predict response");
    assert_eq!(first, again, "cached responses must be byte-identical across processes");
    let stats = lines.next().expect("a stats response");
    let want = format!("\"slice_cache\":{{\"hits\":{},\"misses\":0", addrs.len());
    assert!(stats.contains(&want), "expected {want} in stats: {stats}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Trains a second, distinct model (different seed → different digest) and
/// saves it as `model-b.tc` in `dir`.
fn second_model(dir: &Path) -> PathBuf {
    let bin = tiara_synth::generate(&tiara_synth::ProjectSpec {
        name: "clm-b".into(),
        index: 3,
        seed: 77,
        counts: tiara_synth::TypeCounts { list: 2, vector: 1, primitive: 3, ..Default::default() },
    });
    let mut t =
        tiara::Tiara::new(tiara::TiaraConfig::new().with_classifier(tiara::ClassifierConfig {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        }));
    t.train(&[("clm-b", &bin.program, &bin.debug)]).unwrap();
    let model = dir.join("model-b.tc");
    t.save(&model).unwrap();
    model
}

#[test]
fn serve_models_flag_loads_two_models_and_routes_predicts() {
    let dir = tempdir("multi-model");
    let (model_a, prog, addrs) = trained_model(&dir);
    let model_b = second_model(&dir);
    let addr_list = addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",");
    let prog_path = prog.to_str().unwrap();
    let input = format!(
        "{{\"op\":\"hello\",\"id\":1}}\n\
         {{\"op\":\"predict\",\"program_path\":\"{prog_path}\",\"addrs\":[{addr_list}],\"model\":\"a\",\"id\":2}}\n\
         {{\"op\":\"predict\",\"program_path\":\"{prog_path}\",\"addrs\":[{addr_list}],\"model\":\"b\",\"id\":3}}\n\
         {{\"op\":\"predict\",\"program_path\":\"{prog_path}\",\"addrs\":[{addr_list}],\"model\":\"nope\",\"id\":4}}\n\
         {{\"op\":\"model_list\",\"id\":5}}\n\
         {{\"op\":\"shutdown\"}}\n"
    );
    let spec_a = format!("a={}", model_a.to_str().unwrap());
    let spec_b = format!("b={}", model_b.to_str().unwrap());
    let out = serve_args(&["--models", &spec_a, &spec_b, "--no-persist"], &input);
    let lines: Vec<&str> = out.lines().collect();

    assert!(lines[0].contains("\"proto\":2"), "hello must carry proto 2: {}", lines[0]);
    assert!(lines[0].contains("\"models\":[\"a\",\"b\"]"), "hello models: {}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "predict via a failed: {}", lines[1]);
    assert!(lines[2].contains("\"ok\":true"), "predict via b failed: {}", lines[2]);
    // Distinct weights must answer from distinct models — the two responses
    // differ beyond their ids.
    assert_ne!(
        lines[1].replace("\"id\":2", ""),
        lines[2].replace("\"id\":3", ""),
        "models a and b answered identically; routing is broken"
    );
    assert!(lines[3].contains("\"kind\":\"unknown_model\""), "bad alias: {}", lines[3]);
    assert!(lines[4].contains("\"count\":2"), "model_list count: {}", lines[4]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_wire_ops_round_trip_load_alias_unload() {
    let dir = tempdir("wire-registry");
    let (model_a, prog, addrs) = trained_model(&dir);
    let addr_list = addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",");
    let prog_path = prog.to_str().unwrap();
    let model_path = model_a.to_str().unwrap();
    let input = format!(
        "{{\"op\":\"model_load\",\"model\":\"fresh\",\"path\":\"{model_path}\",\"id\":1}}\n\
         {{\"op\":\"model_alias\",\"alias\":\"canary\",\"model\":\"fresh\",\"id\":2}}\n\
         {{\"op\":\"predict\",\"program_path\":\"{prog_path}\",\"addrs\":[{addr_list}],\"model\":\"canary\",\"id\":3}}\n\
         {{\"op\":\"model_unload\",\"model\":\"canary\",\"id\":4}}\n\
         {{\"op\":\"model_unload\",\"model\":\"fresh\",\"id\":5}}\n\
         {{\"op\":\"predict\",\"program_path\":\"{prog_path}\",\"addrs\":[{addr_list}],\"model\":\"fresh\",\"id\":6}}\n\
         {{\"op\":\"shutdown\"}}\n"
    );
    // Start with only the default model; load/alias/unload happen over the
    // wire against the same container file.
    let out = serve_once(&model_a, &input);
    let lines: Vec<&str> = out.lines().collect();

    // The container is already loaded as `default`, so the wire load dedups
    // by digest instead of mapping the weights twice.
    assert!(lines[0].contains("\"ok\":true"), "model_load failed: {}", lines[0]);
    assert!(lines[0].contains("\"fresh\":false"), "digest dedup missing: {}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "model_alias failed: {}", lines[1]);
    assert!(lines[2].contains("\"ok\":true"), "predict via alias failed: {}", lines[2]);
    // Dropping both wire aliases leaves `default` holding the model.
    assert!(lines[3].contains("\"dropped\":false"), "unload canary: {}", lines[3]);
    assert!(lines[4].contains("\"dropped\":false"), "unload fresh: {}", lines[4]);
    assert!(lines[5].contains("\"kind\":\"unknown_model\""), "stale alias: {}", lines[5]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_models_flag_rejects_malformed_pairs() {
    let bad = tiara(&["serve", "--models", "not-a-pair"]);
    assert_eq!(bad.status.code(), Some(2), "malformed --models must be a usage error");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("ALIAS=PATH"), "stderr should show the expected shape: {err}");
    let none = tiara(&["serve"]);
    assert_eq!(none.status.code(), Some(2), "serve without models must be a usage error");
}

#[test]
fn switches_do_not_take_values() {
    // Value-less switches must not eat a following flag as their "value".
    // Missing --binary / --model is the error we expect.
    let train = tiara(&["train", "--stats", "--pdb", "/nonexistent/labels.json"]);
    let err = String::from_utf8_lossy(&train.stderr);
    assert!(!err.contains("missing value for --stats"), "switch ate a value: {err}");
    assert!(err.contains("--binary"), "expected a missing --binary error: {err}");
    let serve = tiara(&["serve", "--no-persist", "--workers", "1"]);
    let err = String::from_utf8_lossy(&serve.stderr);
    assert!(!err.contains("missing value for --no-persist"), "switch ate a value: {err}");
    assert!(err.contains("serve needs --model"), "expected a missing --model error: {err}");
}

#[test]
fn closed_stdout_ends_quietly_with_exit_0() {
    // Like `tiara disasm --binary big.tira | head -1`: the output is far
    // larger than a pipe buffer, and the reader hangs up after one line.
    let dir = tempdir("closed-pipe");
    let big = dir.join("big.tira");
    let synth = tiara(&[
        "synth",
        "--out",
        big.to_str().unwrap(),
        "--pdb",
        dir.join("labels.json").to_str().unwrap(),
        "--counts",
        "40,80,80,300",
    ]);
    assert!(big.exists(), "synth failed: {}", String::from_utf8_lossy(&synth.stderr));
    let mut child = Command::new(env!("CARGO_BIN_EXE_tiara"))
        .args(["disasm", "--binary", big.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning tiara disasm");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "disasm printed nothing");
    let out = child.wait_with_output().expect("waiting for tiara disasm");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "disasm panicked on a closed pipe: {err}");
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
