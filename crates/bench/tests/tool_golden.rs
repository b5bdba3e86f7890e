//! Golden output of the analysis tools: `dcl-lint`, `dcl-perf` and
//! `codec-sweep` run as processes from the workspace root, and each case's
//! exit code and stdout must equal `tests/golden/tools/<case>.out` (first
//! line `exit code: N`, then stdout byte for byte). The cases are the
//! builtin and file analyses in all three `--format`s, `--dot` of a file
//! and of the builtins (whose edges name each queue's schema region, value
//! bound and framing), an unreadable file, an unparsable and a
//! warning-only fixture (`tests/fixtures/`), each tool with nothing to analyze, the seeded-bug
//! corpus gates (`--corpus all`) and the codec characterization sweep in
//! text and JSON, and `dcl-lint --explain` for every code of the lint and
//! sanitizer registries, one lowercase lookup and an unknown code. Every
//! case takes well under a second in a debug build.
//!
//! `--suggest` and `codec-sweep` read `BENCH_codecs.json` from the
//! workspace root, so a re-measured trajectory changes their cases too.
//!
//! Regenerate the golden after an intentional output change with
//! `BLESS=1 cargo test -p spzip-bench --test tool_golden`.

use std::path::Path;
use std::process::Command;

const LINT: &str = env!("CARGO_BIN_EXE_dcl-lint");
const PERF: &str = env!("CARGO_BIN_EXE_dcl-perf");
const SWEEP: &str = env!("CARGO_BIN_EXE_codec-sweep");

const EXAMPLES: [&str; 3] = [
    "examples/dcl/compress.dcl",
    "examples/dcl/decompress.dcl",
    "examples/dcl/fig2.dcl",
];
const MISSING: &str = "examples/dcl/missing.dcl";
const UNPARSABLE: &str = "crates/bench/tests/fixtures/unparsable.dcl";
const WARNING: &str = "crates/bench/tests/fixtures/warning.dcl";

/// Every case: golden name, tool binary, arguments.
fn cases() -> Vec<(String, &'static str, Vec<&'static str>)> {
    let mut cases = Vec::new();
    for format in ["text", "json", "sarif"] {
        let with_format = |args: &[&'static str]| {
            let mut v = args.to_vec();
            v.extend(["--format", format]);
            v
        };
        let mut builtin_files = vec!["--all-builtin"];
        builtin_files.extend(EXAMPLES);
        cases.push((
            format!("lint-builtin-files.{format}"),
            LINT,
            with_format(&builtin_files),
        ));
        let mut deny = vec!["--deny-warnings"];
        deny.extend(&builtin_files);
        cases.push((
            format!("perf-builtin-files-deny.{format}"),
            PERF,
            with_format(&deny),
        ));
        cases.push((
            format!("lint-equiv.{format}"),
            LINT,
            with_format(&["--equiv"]),
        ));
        cases.push((
            format!("suggest-builtin.{format}"),
            PERF,
            with_format(&["--suggest", "--all-builtin"]),
        ));
        for (tool, name, mode) in [
            (LINT, "lint", None),
            (PERF, "perf", None),
            (PERF, "suggest", Some("--suggest")),
        ] {
            let mut args: Vec<&'static str> = mode.into_iter().collect();
            args.extend([UNPARSABLE, MISSING]);
            cases.push((
                format!("{name}-failures.{format}"),
                tool,
                with_format(&args),
            ));
        }
    }
    let single = |name: &str, tool, args: &[&'static str]| (name.to_string(), tool, args.to_vec());
    cases.extend([
        single("lint-dot-fig2", LINT, &["--dot", "examples/dcl/fig2.dcl"]),
        single("lint-builtin-dot", LINT, &["--all-builtin", "--dot"]),
        single("lint-missing-file", LINT, &[MISSING]),
        single("perf-missing-file", PERF, &[MISSING]),
        single("suggest-missing-file", PERF, &["--suggest", MISSING]),
        single("lint-unparsable", LINT, &[UNPARSABLE]),
        single("perf-unparsable", PERF, &[UNPARSABLE]),
        single("suggest-unparsable", PERF, &["--suggest", UNPARSABLE]),
        single("lint-warning-deny", LINT, &["--deny-warnings", WARNING]),
        single("perf-warning-deny", PERF, &["--deny-warnings", WARNING]),
        single(
            "suggest-builtin-deny",
            PERF,
            &["--suggest", "--all-builtin", "--deny-warnings"],
        ),
        single("lint-no-args", LINT, &[]),
        single("perf-no-args", PERF, &[]),
        single("suggest-no-args", PERF, &["--suggest"]),
        single("explain-lowercase-d001", LINT, &["--explain", "d001"]),
        single("explain-unknown", LINT, &["--explain", "Z999"]),
    ]);
    for format in ["text", "json"] {
        cases.push((
            format!("corpus-all.{format}"),
            LINT,
            vec!["--corpus", "all", "--format", format],
        ));
        cases.push((
            format!("codec-sweep.{format}"),
            SWEEP,
            vec!["--format", format],
        ));
    }
    let lint_codes = spzip_core::lint::Code::all().iter().map(|c| c.as_str());
    let sanitizer_codes = spzip_sim::sanitize::Code::all().map(|c| c.as_str());
    for code in lint_codes.chain(sanitizer_codes) {
        cases.push((format!("explain-{code}"), LINT, vec!["--explain", code]));
    }
    cases
}

#[test]
fn tool_output_matches_the_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tools");
    let bless = std::env::var_os("BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let cases = cases();
    let mut drifted = Vec::new();
    for (name, tool, args) in &cases {
        let out = Command::new(tool)
            .args(args)
            .current_dir(&root)
            .output()
            .unwrap_or_else(|e| panic!("{name}: cannot run {tool}: {e}"));
        let code = out.status.code().expect("the tool exits, not a signal");
        let actual = format!(
            "exit code: {code}\n{}",
            String::from_utf8(out.stdout).expect("stdout is UTF-8")
        );
        let path = dir.join(format!("{name}.out"));
        if bless {
            std::fs::write(&path, &actual).expect("write golden");
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: golden file missing: {e}", path.display()));
        if actual == expected {
            continue;
        }
        let mut got = actual.lines();
        let mut want = expected.lines();
        for line in 1.. {
            match (got.next(), want.next()) {
                (g, w) if g == w && g.is_some() => continue,
                (g, w) => {
                    eprintln!(
                        "{name}: first difference at line {line}\n  got:    {}\n  golden: {}",
                        g.unwrap_or("(end of output)"),
                        w.unwrap_or("(end of golden)")
                    );
                    break;
                }
            }
        }
        drifted.push(name.clone());
    }
    assert!(
        drifted.is_empty(),
        "tool output drifted from the golden in {drifted:?}; rerun with BLESS=1 if intentional"
    );

    // Every golden file belongs to a case, so a renamed case cannot leave
    // a stale file behind.
    let mut stale: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| !cases.iter().any(|(name, ..)| *f == format!("{name}.out")))
        .collect();
    stale.sort();
    assert!(stale.is_empty(), "golden files without a case: {stale:?}");
}
