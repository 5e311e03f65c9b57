//! End-to-end checks of the `vlt` binary: the `lint --json` schema read
//! back through the workspace's JSON parser (`vlt::stats::json`), and the
//! command-line contract — a bad command line is a usage error (exit 2)
//! in every subcommand, never a panic or a silently ignored flag. Only
//! fast cases: most stop at argument validation.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::Command;

use vlt::stats::json::Json;
use vlt::verify::json::{vlint_output_to_json, FileOutcome};
use vlt::verify::{Code, Diagnostic, Report};

const SAXPY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm/saxpy.s");

/// Run `vlt <args>`: exit status, stdout, stderr.
fn vlt(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vlt")).args(args).output().expect("vlt runs");
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Assert `vlt <args>` is a usage error: exit 2 with a message, no panic.
/// Returns the message.
fn usage_error(args: &[&str]) -> String {
    let (code, _, stderr) = vlt(args);
    assert_eq!(code, Some(2), "`vlt {}` should be a usage error:\n{stderr}", args.join(" "));
    assert!(!stderr.contains("panicked"), "`vlt {}` panicked:\n{stderr}", args.join(" "));
    stderr
}

/// One test's scratch directory, removed when dropped, so a failing test
/// cleans up too. The process id keeps concurrent runs of the suite apart.
struct Scratch(PathBuf);

impl Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(test: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("vlt-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

/// The file entries of a `vlt lint --json` document, after checking the
/// wrapper's schema and version.
fn lint_files(doc: &str) -> Vec<Json> {
    let v = Json::parse(doc).unwrap_or_else(|e| panic!("unparseable JSON ({e}):\n{doc}"));
    assert_eq!(v.get("schema").and_then(Json::as_str), Some("vlint"), "{doc}");
    assert_eq!(v.get("version").and_then(Json::as_f64), Some(1.0), "{doc}");
    v.get("files").and_then(Json::as_arr).expect("a `files` array").to_vec()
}

/// Member `key` of a JSON object, as a string.
fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string `{key}` in {v:?}"))
}

/// Member `key` of a JSON object, as a number.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number `{key}` in {v:?}"))
}

/// The `diagnostics` array of a file entry.
fn diags(file: &Json) -> &[Json] {
    file.get("diagnostics").and_then(Json::as_arr).expect("a `diagnostics` array")
}

/// How many members a JSON object has.
fn width(v: &Json) -> usize {
    match v {
        Json::Obj(m) => m.len(),
        _ => panic!("not an object: {v:?}"),
    }
}

/// The document `vlt_verify::json`'s byte golden pins, read back: every
/// member of every entry holds what was written, and nothing else is there.
#[test]
fn lint_json_document_reads_back_through_vlt_stats() {
    let diag = |code: Code, sidx, disasm: &str, msg: &str| Diagnostic {
        code,
        severity: code.severity(),
        sidx,
        disasm: disasm.into(),
        msg: msg.into(),
    };
    let report = Report {
        diags: vec![
            diag(Code::ZeroVl, Some(4), "setvl x0, x3", "request is 0"),
            diag(Code::RaceWw, Some(17), "vstx v1, x2, v3", "quotes \" and \\ back\\slash"),
            diag(Code::RaceUnknown, None, "", "newline\nand tab\tand bell\u{7} and é"),
            diag(Code::DlpShortVl, Some(0), "vadd.vv v1, v2, v3", "短い VL"),
        ],
        suppressed: 3,
    };
    let files = vec![
        ("dir/some file.s".to_string(), FileOutcome::Report(report)),
        ("empty.s".to_string(), FileOutcome::Report(Report::default())),
        ("b \"q\".s".to_string(), FileOutcome::AssemblyError("line 1: bad\tthing".into())),
    ];
    let back = lint_files(&vlint_output_to_json(&files));
    assert_eq!(back.len(), files.len());
    for ((path, outcome), f) in files.iter().zip(&back) {
        assert_eq!(text(f, "schema"), "vlint-report");
        assert_eq!(num(f, "version"), 1.0);
        assert_eq!(text(f, "path"), path);
        let r = match outcome {
            FileOutcome::AssemblyError(e) => {
                assert_eq!(width(f), 4, "{f:?}");
                assert_eq!(text(f, "assembly_error"), e);
                continue;
            }
            FileOutcome::Report(r) => r,
        };
        assert_eq!(width(f), 8, "{f:?}");
        assert_eq!(num(f, "errors"), r.errors() as f64);
        assert_eq!(num(f, "warnings"), r.warnings() as f64);
        assert_eq!(num(f, "infos"), r.infos() as f64);
        assert_eq!(num(f, "suppressed"), r.suppressed as f64);
        assert_eq!(diags(f).len(), r.diags.len());
        for (d, j) in r.diags.iter().zip(diags(f)) {
            assert_eq!(width(j), 6, "{j:?}");
            assert_eq!(text(j, "code"), d.code.name());
            assert_eq!(text(j, "severity"), d.severity.to_string());
            let at = |key: &str| match j.get(key) {
                Some(Json::Null) => None,
                _ => Some(num(j, key) as u64),
            };
            assert_eq!(at("sidx"), d.sidx.map(|i| i as u64));
            assert_eq!(at("pc"), d.pc());
            assert_eq!(text(j, "disasm"), d.disasm);
            assert_eq!(text(j, "msg"), d.msg);
        }
    }
    assert!(lint_files(&vlint_output_to_json(&[])).is_empty());
}

#[test]
fn lint_json_round_trips_through_the_library_parser() {
    let dir = scratch("json");
    // One clean file, one with findings (undef read + dead write).
    let clean = dir.join("clean.s");
    std::fs::write(
        &clean,
        ".data\nbuf:\n.zero 64\n.text\nla x1, buf\nli x2, 7\nsd x2, 0(x1)\nld x3, 8(x1)\n\
         add x4, x2, x3\nsd x4, 16(x1)\nhalt\n",
    )
    .unwrap();
    let dirty = dir.join("dirty.s");
    std::fs::write(&dirty, "add x2, x7, x7\nhalt\n").unwrap();

    let (code, stdout, _) =
        vlt(&["lint", "--json", clean.to_str().unwrap(), dirty.to_str().unwrap()]);
    assert_eq!(code, Some(1), "dirty file has an error finding");

    let files = lint_files(&stdout);
    assert_eq!(files.len(), 2, "expected two file reports:\n{stdout}");
    assert_eq!(text(&files[0], "path"), clean.to_str().unwrap());
    assert!(diags(&files[0]).is_empty(), "clean file reported findings:\n{stdout}");

    assert_eq!(text(&files[1], "path"), dirty.to_str().unwrap());
    assert!(num(&files[1], "errors") >= 1.0, "undef read must surface as an error:\n{stdout}");
    assert!(
        diags(&files[1])
            .iter()
            .any(|d| text(d, "severity") == "error" && d.get("sidx") == Some(&Json::Num(0.0))),
        "error not anchored at sidx 0:\n{stdout}"
    );
}

#[test]
fn lint_json_assembly_errors_are_structured() {
    let dir = scratch("json-asm");
    let bad = dir.join("bad.s");
    std::fs::write(&bad, "bogus operand soup\n").unwrap();

    let (code, stdout, _) = vlt(&["lint", "--json", bad.to_str().unwrap()]);
    assert_eq!(code, Some(1), "assembly errors fail the run");
    let files = lint_files(&stdout);
    assert_eq!(files.len(), 1);
    let msg = text(&files[0], "assembly_error");
    assert!(msg.contains("unknown mnemonic"), "unexpected message `{msg}`");
}

/// `--json` composes with the analysis flags: race and DLP diagnostics
/// appear in the same machine-readable stream.
#[test]
fn lint_json_carries_race_and_dlp_findings() {
    // Two threads both store to the same address every epoch: race-ww.
    let dir = scratch("json-races");
    let racy = dir.join("racy.s");
    std::fs::write(
        &racy,
        ".data\nbuf:\n.zero 64\n.text\nla x1, buf\nli x2, 1\nsd x2, 0(x1)\nhalt\n",
    )
    .unwrap();

    let (code, stdout, _) = vlt(&["lint", "--json", "--races=2", racy.to_str().unwrap()]);
    assert_eq!(code, Some(0), "races are warnings, not errors");
    let files = lint_files(&stdout);
    assert!(
        diags(&files[0]).iter().any(|d| text(d, "code").starts_with("race-")),
        "race finding missing from JSON:\n{stdout}"
    );
}

/// A race walk that faults gives no verdict, and the finding names the
/// fault: here only thread 1 runs `setvl` of 0.
#[test]
fn lint_races_names_the_fault_that_stopped_the_walk() {
    let dir = scratch("race-fault");
    let path = dir.join("fault.s");
    std::fs::write(&path, "tid x1\nli x2, 1\nsub x2, x2, x1\nsetvl x0, x2\nhalt\n").unwrap();
    let (code, stdout, stderr) = vlt(&["lint", "--races=2", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "race-unknown is a warning:\n{stdout}{stderr}");
    let finding = stdout.lines().find(|l| l.contains("race-unknown")).unwrap_or_else(|| {
        panic!("no race-unknown finding:\n{stdout}");
    });
    assert!(finding.contains("thread 1: setvl of 0"), "{finding}");
}

/// `repro` writes `results/` under the working directory, not into the
/// checkout the binary was built in.
#[test]
fn repro_writes_results_under_the_working_directory() {
    let dir = scratch("repro-cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_vlt"))
        .args(["repro", "table1"])
        .current_dir(&*dir)
        .output()
        .expect("vlt runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read(dir.join("results/table1.json")).expect("record written");
    let committed = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/results/table1.json"));
    assert_eq!(written, committed.unwrap(), "table1 differs from the committed record");
}

/// `as --list` prints the listing `dis` recovers from `as -o`, after a
/// one-line header.
#[test]
fn as_list_matches_dis_of_the_written_segment() {
    let dir = scratch("dis");
    let bin = dir.join("saxpy.bin");
    let (code, _, _) = vlt(&["as", SAXPY, "-o", bin.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    let (code, listing, _) = vlt(&["as", SAXPY, "--list"]);
    assert_eq!(code, Some(0));
    let (code, dis, _) = vlt(&["dis", bin.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    let (header, body) = listing.split_once('\n').unwrap();
    assert!(header.ends_with("26 instructions, 1024 data bytes, 4 symbols"), "{header}");
    assert_eq!(body, dis);
}

/// More threads than the design point hosts used to panic inside
/// `System::new`.
#[test]
fn run_rejects_more_threads_than_the_config_hosts() {
    usage_error(&["run", SAXPY, "--config", "v2-cmp", "-t", "4"]);
}

/// Zero threads and zero lanes used to panic inside the simulator.
#[test]
fn run_rejects_zero_threads_and_zero_lanes() {
    usage_error(&["run", SAXPY, "-t", "0"]);
    usage_error(&["run", SAXPY, "-f", "-t", "0"]);
    usage_error(&["run", SAXPY, "--lanes", "0"]);
}

/// A functional run beyond the simulator's thread limit used to panic.
#[test]
fn run_rejects_more_functional_threads_than_the_simulator_runs() {
    usage_error(&["run", SAXPY, "--functional", "-t", "100"]);
    usage_error(&["run", SAXPY, "-f", "-t", "65"]);
}

/// `vlt lint` walks every thread on the functional simulator's
/// interpreter. A count beyond its 64 threads used to panic (`--dlp`) or
/// run for minutes (`--races`, a file's `vlint.threads`), and a file
/// declaring 0 threads linted clean after analysing nothing.
#[test]
fn lint_thread_counts_outside_1_to_64_are_usage_errors() {
    usage_error(&["lint", "--dlp=300000", SAXPY]);
    usage_error(&["lint", "--races=65", SAXPY]);
    let dir = scratch("lint-threads");
    for n in [0, 100_000] {
        let file = dir.join(format!("threads-{n}.s"));
        std::fs::write(&file, format!(".eq vlint.threads, {n}\nhalt\n")).unwrap();
        let path = file.to_str().unwrap();
        let stderr = usage_error(&["lint", "--races", path]);
        assert!(stderr.starts_with(&format!("vlt lint: {path}: ")), "{stderr}");
    }
}

/// A malformed count used to mean the default, and `--lanes` was silently
/// dropped on any config but the base processor.
#[test]
fn run_rejects_malformed_counts_and_lanes_on_other_configs() {
    usage_error(&["run", SAXPY, "-t", "four"]);
    usage_error(&["run", SAXPY, "--max-cycles", "ten"]);
    usage_error(&["run", SAXPY, "--config", "v4-cmt", "--lanes", "4"]);
}

/// `vlt prof --max-cycles` parses like `vlt run`'s, and a program that
/// never halts times out at the budget instead of running for the default
/// two billion cycles.
#[test]
fn prof_stops_a_hang_at_its_cycle_budget() {
    let dir = scratch("prof-budget");
    let path = dir.join("spin.s");
    std::fs::write(&path, "loop: j loop\n").unwrap();
    let (file, out) = (path.to_str().unwrap(), dir.join("out"));
    usage_error(&["prof", file, "--max-cycles", "ten"]);
    let args = ["prof", file, "--max-cycles", "1000", "--out", out.to_str().unwrap()];
    let (code, _, stderr) = vlt(&args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("vlt prof: simulation failed: timed out after 1000 cycles"),
        "{stderr}"
    );
    assert!(!out.exists(), "a timed-out profile writes no documents");
}

/// `vlt prof --diff A B` over two hand-written metrics documents with
/// the given counters: exit status, stdout, stderr. A's file is `a.json`.
fn prof_diff(test: &str, a: &str, b: &str) -> (Option<i32>, String, String) {
    let dir = scratch(test);
    let doc = |counters: &str| {
        format!(
            r#"{{"schema": "vlt-metrics", "version": 1, "counters": {{{counters}}},
            "histograms": {{}}}}"#
        )
    };
    let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&pa, doc(a)).unwrap();
    std::fs::write(&pb, doc(b)).unwrap();
    vlt(&["prof", "--diff", pa.to_str().unwrap(), pb.to_str().unwrap()])
}

/// Identical documents print the no-difference line, a metric on one
/// side only diffs against zero, and a number too large for an `f64`
/// is a failed run naming the file, not a panic.
#[test]
fn prof_diff_compares_metrics_documents() {
    let (code, stdout, stderr) = prof_diff("diff-same", r#""x": 1, "y": 2"#, r#""x": 1, "y": 2"#);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("no differing metrics"), "{stdout}");

    let (code, stdout, stderr) =
        prof_diff("diff-one-side", r#""x": 1, "gone": 4"#, r#""x": 1, "new": 3"#);
    assert_eq!(code, Some(0), "{stderr}");
    let row = |name: &str| {
        let line = stdout.lines().find(|l| l.starts_with(&format!("{name} "))).unwrap_or_default();
        line.split('|').map(str::trim).collect::<Vec<_>>()
    };
    assert_eq!(row("gone"), ["gone", "4", "0", "-4"], "{stdout}");
    assert_eq!(row("new"), ["new", "0", "3", "+3"], "{stdout}");
    assert_eq!(row("x"), [""], "an unchanged metric is not listed:\n{stdout}");

    let (code, _, stderr) =
        prof_diff("diff-overflow", r#""x": 1e999, "y": 1"#, r#""x": 1, "y": 2"#);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("a.json: not a metrics document"), "{stderr}");
}

/// `--lanes N` keeps meaning the base processor with N lanes.
#[test]
fn lanes_select_the_base_processor() {
    let base = ["run", SAXPY, "--config", "base", "--lanes", "4"];
    for args in [&["run", SAXPY, "--lanes", "4"][..], &base[..]] {
        let (code, stdout, stderr) = vlt(args);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.starts_with("config base, 1 thread(s):"), "{stdout}");
    }
}

/// A vector program on a machine without a vector unit used to panic in
/// the timing model; it is a failed run naming the thread and PC.
#[test]
fn vector_code_on_a_machine_without_a_vector_unit_fails() {
    let out = scratch("novu");
    for config in ["cmt", "v4-cmt-lanes"] {
        let prof_out = out.join(config);
        let prof = ["prof", SAXPY, "--config", config, "--out", prof_out.to_str().unwrap()];
        for args in [&["run", SAXPY, "--config", config][..], &prof[..]] {
            let (code, _, stderr) = vlt(args);
            let cmd = args.join(" ");
            assert_eq!(code, Some(1), "`vlt {cmd}` should fail:\n{stderr}");
            assert!(!stderr.contains("panicked"), "`vlt {cmd}` panicked:\n{stderr}");
            let msg = format!("vlt {}: ", args[0]);
            assert!(stderr.contains(&msg), "`vlt {cmd}`: {stderr}");
            assert!(
                stderr.contains("thread ") && stderr.contains("vector instruction at 0x"),
                "`vlt {cmd}`: {stderr}"
            );
        }
    }
}

/// Addresses that wrap past the top of the address space used to panic a
/// debug build: a unit-stride vector access in both engines, an access
/// straddling the top in memory, and the last element of a vector
/// footprint in the linter. Every engine wraps them, like release builds.
#[test]
fn wrapping_addresses_run_and_lint_without_panicking() {
    let dir = scratch("wrap");
    let progs = [
        "li x1, -8\nli x2, 4\nsetvl x0, x2\nvld v1, x1\nvst v1, x1\nhalt\n",
        "li x1, -4\nld x2, 0(x1)\nsd x2, 0(x1)\nhalt\n",
        "li x1, 1\nslli x1, x1, 63\naddi x1, x1, -1\nli x2, 64\nsetvl x0, x2\n\
         vld v1, x1\nhalt\n",
    ];
    for (i, src) in progs.iter().enumerate() {
        let path = dir.join(format!("wrap{i}.s"));
        std::fs::write(&path, src).unwrap();
        let file = path.to_str().unwrap();
        for (args, want) in
            [(&["run", "-f", file][..], 0), (&["run", file], 0), (&["lint", "--dlp", file], 1)]
        {
            let (code, stdout, stderr) = vlt(args);
            let cmd = args.join(" ");
            assert!(!stderr.contains("panicked"), "`vlt {cmd}` panicked:\n{stderr}");
            assert_eq!(code, Some(want), "`vlt {cmd}`:\n{stdout}{stderr}");
        }
    }
}

/// `setvl` clamps its request as an unsigned number: a request of -1 sets
/// vl to the MVL. The linter used to clamp it signed, fold `vl = -1`, and
/// report a load the program never makes.
#[test]
fn lint_clamps_a_top_bit_setvl_request_like_the_interpreter() {
    let dir = scratch("setvl");
    let path = dir.join("top_bit.s");
    std::fs::write(
        &path,
        ".data\nxs:\n.zero 576\n.text\nli x1, -1\nsetvl x2, x1\nslli x3, x2, 3\nla x4, xs\n\
         add x5, x4, x3\nld x6, 0(x5)\nhalt\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for args in [&["run", "-f", file][..], &["lint", "--strict", file]] {
        let (code, stdout, stderr) = vlt(args);
        assert_eq!(code, Some(0), "`vlt {}`:\n{stdout}{stderr}", args.join(" "));
    }
}

/// A cluster spread the `vltcfg` encoding cannot express used to panic
/// while generating the kernel.
#[test]
fn src_rejects_unencodable_cluster_spreads() {
    usage_error(&["src", "spmv", "--threads", "4", "--clusters", "3"]);
    usage_error(&["src", "spmv", "--threads", "2", "--clusters", "4"]);
    usage_error(&["prof", "spmv", "--threads", "4", "--clusters", "3"]);
    let (code, stdout, _) = vlt(&["src", "spmv", "--threads", "8", "--clusters", "2"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("vltcfg"), "{stdout}");
}

/// Workload builds assert their thread count divides the work; a count
/// `vltcfg` cannot encode must stop at the command line instead.
#[test]
fn workload_thread_counts_outside_1_2_4_8_are_usage_errors() {
    for (args, sub) in [
        (&["src", "spmv", "--threads", "3"][..], "src"),
        (&["src", "sweep", "--threads", "5"], "src"),
        (&["src", "spmv", "--threads", "16"], "src"),
        (&["prof", "mpenc", "--threads", "3"], "prof"),
        (&["prof", "trfd", "--threads", "3"], "prof"),
        (&["prof", "ocean", "--threads", "3", "--config", "v4-cmt"], "prof"),
    ] {
        let stderr = usage_error(args);
        assert!(stderr.starts_with(&format!("vlt {sub}: ")), "{stderr}");
    }
}

/// A misspelt scale used to mean `small`.
#[test]
fn unknown_scales_are_usage_errors() {
    for sub in [&["advise"][..], &["repro", "fig1"], &["src", "spmv"], &["prof", "spmv"]] {
        usage_error(&[sub, &["--scale", "tset"][..]].concat());
    }
}

#[test]
fn usage_errors_exit_2_in_every_subcommand() {
    for sub in ["as", "dis", "run", "lint", "prof", "advise", "regress", "repro", "src"] {
        usage_error(&[sub, "--bogus"]);
        let (code, stdout, _) = vlt(&[sub, "--help"]);
        assert_eq!(code, Some(0), "`vlt {sub} --help`");
        assert!(stdout.starts_with("usage: vlt"), "{stdout}");
    }
    usage_error(&[]);
    usage_error(&["vlint"]);
    usage_error(&["run", SAXPY, "--config", "v9-cmt"]);
    usage_error(&["dis", SAXPY, "--asm"]);
    // The functional engine is not a user choice: both engines give the
    // same results, metrics and trace (the obs equivalence suite holds
    // them to it).
    usage_error(&["prof", "mpenc", "--scale", "test", "--engine", "interp"]);
}
