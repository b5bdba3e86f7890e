//! The one flag parser every benchmark binary shares.
//!
//! Flags are all optional. A usage error — an unknown flag, a value flag
//! with a missing or unparsable value, a positional argument to a tool
//! that takes no files, or an `--only` name that matches no output —
//! exits 2 before the tool does any work ([`parse`]).
//!
//! * `--scale tiny|bench|large` — input generation scale (default bench).
//! * `--apps PR,BFS` / `--inputs arb,ukl` — restrict sweep figures.
//! * `--jobs N` — worker threads for cache misses (default: all cores).
//! * `--fresh` — ignore memoized outcomes and re-simulate everything.
//! * `--sanitize` — run every cell under the SimSanitizer (sanitized
//!   runs bypass the results cache).
//! * `--cache-dir DIR` — memoization directory (default `results/cache`).
//! * `--out-dir DIR` — where `bench_all` writes figure text (default
//!   `results`).
//! * `--only fig15ab,fig07` — restrict `bench_all` to named outputs.
//! * `--all-builtin` — `dcl-lint`/`dcl-perf`: also analyze every
//!   built-in app pipeline.
//! * `--dot` — `dcl-lint`: print each linted pipeline as Graphviz dot
//!   (builtin pipelines annotate edges with the inferred shape domain).
//! * `--corpus shape|liveness|equiv|all` — `dcl-lint`: run a seeded-bug
//!   differential gate ([`crate::corpus`]): each seed must be caught by
//!   its static pass and confirmed on the dynamic engines.
//! * `--equiv` — `dcl-lint`: certify every builtin pipeline's suggested
//!   codec plan ([`spzip_core::suggest::certify`]; a plan the translation
//!   validator refutes is reported as errors), plus every codec's
//!   kernel-vs-reference binding (cross-roundtrip bit-identity).
//! * `--explain CODE` — `dcl-lint`: print the registry entry (summary,
//!   why it matters, how to fix) for any diagnostic code
//!   (`E`/`W`/`B`/`P`/`A`/`S`/`D`/`V`).
//! * `--deny-warnings` — `dcl-lint`/`dcl-perf`: exit non-zero on
//!   warnings too.
//! * `--format text|json|sarif` — `dcl-lint`/`dcl-perf`: report format
//!   (default text; both tools share the JSON diagnostic shape, and
//!   `sarif` renders the same records as a SARIF 2.1.0 log for CI
//!   annotation; gate modes without per-diagnostic records fall back to
//!   text). `codec-bench`, `sanitize-bench` and `codec-sweep` read only
//!   `json`.
//! * `--crosscheck` — `dcl-perf`: run the model-vs-simulator traffic
//!   gate over the built-in cell matrix.
//! * `--suggest` — `dcl-perf`: run the static codec-selection pass
//!   ([`spzip_core::suggest`]) instead of the perf report; emits `A0xx`
//!   advisories plus a machine-readable rewiring plan. Advisories never
//!   affect the exit code.
//! * `--rates FILE` — `dcl-perf --suggest`/`codec-sweep`: trajectory
//!   file for the rate calibration (default `BENCH_codecs.json`; missing
//!   file falls back to the nominal table, stated in the report header).
//! * `--auto-gate` — `dcl-perf`: simulate auto-selected vs paper-default
//!   pipelines over the built-in cell matrix and fail unless auto wins
//!   or ties every cell.
//! * `--measure-ms N` — `codec-bench`/`sanitize-bench`: measurement
//!   window per cell (each tool has its own default).
//! * `--out FILE` — `codec-bench`/`sanitize-bench`: where a fresh
//!   trajectory is written (default: the tool's `BENCH_*.json`).
//! * `--check FILE` — `codec-bench`/`sanitize-bench`: gate a fresh
//!   measurement against the checked-in trajectory instead of writing.
//!
//! Positional arguments are `.dcl` files, which only `dcl-lint` and
//! `dcl-perf` take.

use crate::driver::DriverOptions;
use crate::figures::SweepOpts;
use spzip_graph::datasets::Scale;
use std::path::{Path, PathBuf};

/// Report format for the analysis tools (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable rustc-style text (the default).
    #[default]
    Text,
    /// Machine-readable JSON; `dcl-lint` and `dcl-perf` share the
    /// diagnostic element shape ([`spzip_core::lint::render_json`]).
    Json,
    /// SARIF 2.1.0 ([`sarif_report`]): the same diagnostic records as
    /// [`Json`](Self::Json), rendered as a static-analysis log CI can
    /// annotate onto PRs. Modes without per-diagnostic records (the
    /// corpus and crosscheck gates) fall back to text.
    Sarif,
}

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Input generation scale.
    pub scale: Scale,
    /// Application filter (`--apps`), by paper abbreviation.
    pub apps: Option<Vec<String>>,
    /// Input filter (`--inputs`), by dataset short name.
    pub inputs: Option<Vec<String>>,
    /// Output filter for `bench_all` (`--only`); every name matches one
    /// of the tool's outputs.
    pub only: Option<Vec<String>>,
    /// Worker threads (`--jobs`).
    pub jobs: usize,
    /// Ignore the outcome cache (`--fresh`).
    pub fresh: bool,
    /// Run cells under the SimSanitizer (`--sanitize`).
    pub sanitize: bool,
    /// Memoization directory (`--cache-dir`).
    pub cache_dir: PathBuf,
    /// `bench_all` output directory (`--out-dir`).
    pub out_dir: PathBuf,
    /// Lint every built-in app pipeline (`--all-builtin`, `dcl-lint`).
    pub all_builtin: bool,
    /// Emit Graphviz dot for linted pipelines (`--dot`, `dcl-lint`).
    pub dot: bool,
    /// Run the named seeded-bug differential gate (`--corpus`,
    /// `dcl-lint`).
    pub corpus: Option<String>,
    /// Certify builtin auto-rewirings and codec bindings with the
    /// translation validator (`--equiv`, `dcl-lint`).
    pub equiv: bool,
    /// Explain a diagnostic code (`--explain CODE`, `dcl-lint`).
    pub explain: Option<String>,
    /// Treat lint warnings as fatal (`--deny-warnings`, `dcl-lint`).
    pub deny_warnings: bool,
    /// Report format (`--format text|json|sarif`).
    pub format: OutputFormat,
    /// Run the model-vs-simulator gate (`--crosscheck`, `dcl-perf`).
    pub crosscheck: bool,
    /// Run the codec-selection pass (`--suggest`, `dcl-perf`).
    pub suggest: bool,
    /// Trajectory file calibrating `--suggest` (`--rates`, `dcl-perf`,
    /// `codec-sweep`).
    pub rates: PathBuf,
    /// Run the auto-vs-default simulation gate (`--auto-gate`,
    /// `dcl-perf`).
    pub auto_gate: bool,
    /// Measurement window per cell in milliseconds, at least 1
    /// (`--measure-ms`, `codec-bench`/`sanitize-bench`).
    pub measure_ms: Option<u64>,
    /// Where a fresh trajectory is written (`--out`,
    /// `codec-bench`/`sanitize-bench`).
    pub out: Option<PathBuf>,
    /// Checked-in trajectory to gate against (`--check`,
    /// `codec-bench`/`sanitize-bench`).
    pub check: Option<PathBuf>,
    /// Positional arguments: `.dcl` files for `dcl-lint`/`dcl-perf`.
    pub paths: Vec<PathBuf>,
}

/// Parses the process arguments. `takes_files` says whether the tool
/// accepts positional `.dcl` files (`dcl-lint` and `dcl-perf` do), and
/// `outputs` names what `--only` may select (`bench_all`'s
/// [`crate::figures::all_outputs`]; empty for the other tools). On a
/// usage error this prints `error: <argument>: <reason>` to stderr and
/// exits 2, before the tool does any work.
pub fn parse(takes_files: bool, outputs: &[&str]) -> CommonArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&args, takes_files, outputs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parses an explicit argument list.
///
/// # Errors
///
/// Returns `<argument>: <reason>` for the first usage error: an unknown
/// flag, a value flag with a missing or unparsable value, a positional
/// argument when `takes_files` is false, or an `--only` name that
/// matches none of `outputs` (the reason then lists them).
pub fn parse_from(
    args: &[String],
    takes_files: bool,
    outputs: &[&str],
) -> Result<CommonArgs, String> {
    let mut parsed = CommonArgs {
        scale: Scale::Bench,
        apps: None,
        inputs: None,
        only: None,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        fresh: false,
        sanitize: false,
        cache_dir: PathBuf::from("results/cache"),
        out_dir: PathBuf::from("results"),
        all_builtin: false,
        dot: false,
        corpus: None,
        equiv: false,
        explain: None,
        deny_warnings: false,
        format: OutputFormat::Text,
        crosscheck: false,
        suggest: false,
        rates: PathBuf::from("BENCH_codecs.json"),
        auto_gate: false,
        measure_ms: None,
        out: None,
        check: None,
        paths: Vec::new(),
    };
    let mut rest = args.iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") {
            if !takes_files {
                return Err(format!(
                    "{flag}: unexpected argument (this tool takes no files)"
                ));
            }
            parsed.paths.push(PathBuf::from(flag));
            continue;
        }
        let switch = match flag {
            "--fresh" => Some(&mut parsed.fresh),
            "--sanitize" => Some(&mut parsed.sanitize),
            "--deny-warnings" => Some(&mut parsed.deny_warnings),
            "--all-builtin" => Some(&mut parsed.all_builtin),
            "--dot" => Some(&mut parsed.dot),
            "--equiv" => Some(&mut parsed.equiv),
            "--crosscheck" => Some(&mut parsed.crosscheck),
            "--suggest" => Some(&mut parsed.suggest),
            "--auto-gate" => Some(&mut parsed.auto_gate),
            _ => None,
        };
        if let Some(on) = switch {
            *on = true;
            continue;
        }
        let mut value = || rest.next().ok_or_else(|| format!("{flag}: missing value"));
        let list = |v: &str| Some(v.split(',').map(str::to_string).collect());
        match flag {
            "--scale" => {
                parsed.scale = match value()? {
                    "tiny" => Scale::Tiny,
                    "bench" => Scale::Bench,
                    "large" => Scale::Large,
                    v => return Err(invalid(flag, v, "tiny, bench or large")),
                }
            }
            "--format" => {
                parsed.format = match value()? {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    "sarif" => OutputFormat::Sarif,
                    v => return Err(invalid(flag, v, "text, json or sarif")),
                }
            }
            "--jobs" => parsed.jobs = number::<usize>(flag, value()?)?.max(1),
            "--measure-ms" => parsed.measure_ms = Some(number::<u64>(flag, value()?)?.max(1)),
            "--apps" => parsed.apps = list(value()?),
            "--inputs" => parsed.inputs = list(value()?),
            "--only" => parsed.only = list(value()?),
            "--cache-dir" => parsed.cache_dir = value()?.into(),
            "--out-dir" => parsed.out_dir = value()?.into(),
            "--rates" => parsed.rates = value()?.into(),
            "--out" => parsed.out = Some(value()?.into()),
            "--check" => parsed.check = Some(value()?.into()),
            "--corpus" => parsed.corpus = Some(value()?.to_string()),
            "--explain" => parsed.explain = Some(value()?.to_string()),
            _ => return Err(format!("{flag}: unknown flag")),
        }
    }
    if let Some(name) = parsed
        .only
        .iter()
        .flatten()
        .find(|name| !outputs.iter().any(|o| o.eq_ignore_ascii_case(name)))
    {
        return Err(format!(
            "--only: no output named {name:?}; known outputs:\n  {}",
            outputs.join("\n  ")
        ));
    }
    Ok(parsed)
}

fn invalid(flag: &str, value: &str, expected: &str) -> String {
    format!("{flag}: invalid value {value:?} (expected {expected})")
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag}: invalid value {value:?} ({e})"))
}

impl CommonArgs {
    /// Sweep options for one output's preprocessed/randomized variant
    /// (`bench_all` renders both, per [`crate::figures::FigureOutput`]).
    pub fn sweep_with(&self, preprocess: bool) -> SweepOpts {
        SweepOpts {
            scale: self.scale,
            preprocess,
            apps: self.apps.clone(),
            inputs: self.inputs.clone(),
        }
    }

    /// The driver options these flags select.
    pub fn driver_options(&self) -> DriverOptions {
        DriverOptions {
            jobs: self.jobs,
            fresh: self.fresh,
            sanitize: self.sanitize,
            cache_dir: Some(self.cache_dir.clone()),
            quiet: false,
        }
    }
}

/// Summary counters shared by the analysis tools' batch reports
/// (`dcl-lint` and `dcl-perf` both reduce to these four numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToolCounts {
    /// Pipelines (or files) examined.
    pub checked: usize,
    /// Error-severity diagnostics plus parse failures.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Inputs the tool could not read (exit code 2, not a verdict).
    pub io_errors: usize,
}

/// The shared process exit-code ladder for the analysis tools:
/// unreadable inputs dominate (2), then failing diagnostics — errors, or
/// warnings under `--deny-warnings` — (1), then success (0).
pub fn tool_exit_code(counts: &ToolCounts, deny_warnings: bool) -> i32 {
    if counts.io_errors > 0 {
        2
    } else if counts.errors > 0 || (deny_warnings && counts.warnings > 0) {
        1
    } else {
        0
    }
}

/// Renders the shared `--format json` envelope: summary counters, then a
/// `pipelines` array whose elements are `{"name":..., <body>}` (the body
/// is tool-specific — `dcl-lint` emits a `diagnostics` array, `dcl-perf`
/// prefixes it with model summary fields), then read/parse `failures`.
pub fn json_envelope(
    counts: &ToolCounts,
    pipelines: &[(String, String)],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::json_escape;
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"checked\":{},\"errors\":{},\"warnings\":{},\"io_errors\":{},\"pipelines\":[",
        counts.checked, counts.errors, counts.warnings, counts.io_errors
    );
    for (i, (name, body)) in pipelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{{\"name\":\"{}\",{body}}}", json_escape(name));
    }
    out.push_str("],\"failures\":[");
    for (i, (name, err)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"error\":\"{}\"}}",
            json_escape(name),
            json_escape(err)
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the shared `--format sarif` log: the same per-pipeline
/// diagnostic records `dcl-lint` and `dcl-perf` emit as JSON, as a SARIF
/// 2.1.0 run CI can annotate onto PRs. Each distinct code becomes a rule
/// (id + registry summary), each diagnostic a result whose artifact URI
/// is the pipeline (or file) name and whose region is the source line
/// when one is known; unreadable inputs become `io-error` results.
/// Output is deterministic: rules sort by code, results follow
/// [`spzip_core::lint::sorted_for_render`] within each pipeline.
pub fn sarif_report(
    tool: &str,
    results: &[(String, Vec<spzip_core::lint::Diagnostic>)],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::{json_escape, sorted_for_render, Severity};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let mut rules: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for (_, diags) in results {
        for d in diags {
            rules.insert(d.code.as_str(), d.code.summary());
        }
    }
    if !failures.is_empty() {
        rules.insert("io-error", "input could not be read or parsed");
    }

    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{",
    );
    let _ = write!(out, "\"name\":\"{}\",\"rules\":[", json_escape(tool));
    for (i, (id, summary)) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":\"{id}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(summary)
        );
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    let mut push_result =
        |out: &mut String, rule: &str, level: &str, text: &str, uri: &str, line: Option<u32>| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"ruleId\":\"{rule}\",\"level\":\"{level}\",\
                 \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":\
                 {{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                json_escape(text),
                json_escape(uri),
                line.unwrap_or(1)
            );
        };
    for (name, diags) in results {
        for d in sorted_for_render(diags) {
            let level = match d.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let text = match &d.hint {
                Some(h) => format!("{} ({}) — help: {h}", d.message, d.site),
                None => format!("{} ({})", d.message, d.site),
            };
            push_result(&mut out, d.code.as_str(), level, &text, name, d.line);
        }
    }
    for (name, err) in failures {
        push_result(&mut out, "io-error", "error", err, name, None);
    }
    out.push_str("]}]}\n");
    out
}

/// Renders a trajectory gate run (`codec-bench --check`,
/// `sanitize-bench --check`) in the shared `--format json` envelope: one
/// `pipelines` entry named after the gate, carrying the per-cell
/// `summary` lines and the violated `gate_errors`; read/parse problems
/// go in the ordinary `failures` array.
pub fn trajectory_json(
    gate: &str,
    counts: &ToolCounts,
    summary: &[String],
    gate_errors: &[String],
    failures: &[(String, String)],
) -> String {
    use spzip_core::lint::json_escape;
    use std::fmt::Write as _;
    let mut body = String::from("\"summary\":[");
    for (i, s) in summary.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{}\"", json_escape(s));
    }
    body.push_str("],\"gate_errors\":[");
    for (i, s) in gate_errors.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "\"{}\"", json_escape(s));
    }
    body.push(']');
    json_envelope(counts, &[(gate.to_string(), body)], failures)
}

/// The `--check` driver `codec-bench` and `sanitize-bench` share: reads
/// the checked-in trajectory at `path` and parses it with `parse`, then
/// `gate` measures a fresh report and compares it against the checked-in
/// one, returning the per-cell summary lines or the violated gates.
/// Prints the summary as text, or with `json` the [`trajectory_json`]
/// envelope over `cells` checked cells, and returns the
/// [`tool_exit_code`] ladder: 2 when `path` cannot be read, 1 when it
/// fails schema validation or a gate fails.
pub fn trajectory_check<R>(
    tool: &str,
    path: &Path,
    json: bool,
    cells: usize,
    parse: impl FnOnce(&str) -> Result<R, String>,
    gate: impl FnOnce(&R) -> Result<Vec<String>, Vec<String>>,
) -> i32 {
    let mut counts = ToolCounts::default();
    let (summary, gate_errors, failures) = match std::fs::read_to_string(path) {
        Err(e) => {
            counts.io_errors = 1;
            (
                vec![],
                vec![],
                vec![(path.display().to_string(), format!("cannot read: {e}"))],
            )
        }
        Ok(text) => match parse(&text) {
            Err(e) => {
                counts.errors = 1;
                let failure = format!("failed schema validation: {e}");
                (vec![], vec![], vec![(path.display().to_string(), failure)])
            }
            Ok(checked_in) => {
                counts.checked = cells;
                match gate(&checked_in) {
                    Ok(summary) => (summary, vec![], vec![]),
                    Err(errors) => {
                        counts.errors = errors.len();
                        (vec![], errors, vec![])
                    }
                }
            }
        },
    };
    if json {
        print!(
            "{}",
            trajectory_json(tool, &counts, &summary, &gate_errors, &failures)
        );
    } else {
        for line in &summary {
            println!("{line}");
        }
        for e in &gate_errors {
            eprintln!("{tool}: FAIL: {e}");
        }
        for (name, e) in &failures {
            eprintln!("{tool}: {name}: {e}");
        }
        if gate_errors.is_empty() && failures.is_empty() {
            println!("{tool}: trajectory check passed");
        }
    }
    tool_exit_code(&counts, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    const OUTPUTS: [&str; 3] = ["fig07", "fig15ab", "sorted"];

    #[test]
    fn defaults() {
        let a = parse_from(&[], false, &[]).unwrap();
        assert_eq!(a.scale, Scale::Bench);
        assert!(!a.fresh);
        assert_eq!((a.measure_ms, a.out, a.check), (None, None, None));
        assert!(a.jobs >= 1);
        assert_eq!(a.cache_dir, PathBuf::from("results/cache"));
    }

    #[test]
    fn parses_every_flag() {
        let a = parse_from(
            &argv(
                "--scale tiny --apps PR,BFS --inputs arb --only fig07 --jobs 3 --fresh \
                 --sanitize --deny-warnings --cache-dir /tmp/c --out-dir /tmp/o \
                 --measure-ms 0 --out /tmp/t.json --check BENCH_codecs.json",
            ),
            false,
            &OUTPUTS,
        )
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(
            a.apps.as_deref(),
            Some(&["PR".to_string(), "BFS".to_string()][..])
        );
        assert_eq!(a.inputs.as_deref(), Some(&["arb".to_string()][..]));
        assert_eq!(a.only.as_deref(), Some(&["fig07".to_string()][..]));
        assert_eq!(a.jobs, 3);
        assert!(a.fresh);
        assert!(a.sanitize);
        assert!(a.deny_warnings);
        assert_eq!(a.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/o"));
        assert_eq!(a.measure_ms, Some(1), "a zero window clamps to 1 ms");
        assert_eq!(a.out, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(a.check, Some(PathBuf::from("BENCH_codecs.json")));
    }

    #[test]
    fn parses_format_and_crosscheck_flags() {
        let a = parse_from(&argv("--format json --crosscheck"), true, &[]).unwrap();
        assert_eq!(a.format, OutputFormat::Json);
        assert!(a.crosscheck);
        let b = parse_from(&argv("--format text"), true, &[]).unwrap();
        assert_eq!(b.format, OutputFormat::Text);
        assert!(!b.crosscheck);
        let c = parse_from(&argv("--format sarif"), true, &[]).unwrap();
        assert_eq!(c.format, OutputFormat::Sarif);
    }

    #[test]
    fn parses_equiv_flags() {
        let a = parse_from(&argv("--equiv --corpus equiv"), true, &[]).unwrap();
        assert!(a.equiv);
        assert_eq!(a.corpus.as_deref(), Some("equiv"));
        assert!(a.paths.is_empty(), "the corpus name is not a path");
        let b = parse_from(&[], false, &[]).unwrap();
        assert!(!b.equiv);
        assert_eq!(b.corpus, None);
    }

    #[test]
    fn format_and_measure_values_are_not_paths() {
        let a = parse_from(&argv("--format json pipe.dcl --measure-ms 2"), true, &[]).unwrap();
        assert_eq!(a.paths, vec![PathBuf::from("pipe.dcl")]);
        assert_eq!(a.format, OutputFormat::Json);
        assert_eq!(a.measure_ms, Some(2));
    }

    #[test]
    fn parses_suggest_flags() {
        let a = parse_from(
            &argv("--suggest --rates other/traj.json --auto-gate"),
            true,
            &[],
        )
        .unwrap();
        assert!(a.suggest);
        assert!(a.auto_gate);
        assert_eq!(a.rates, PathBuf::from("other/traj.json"));
        assert!(a.paths.is_empty(), "flag values are not paths");
        let b = parse_from(&[], false, &[]).unwrap();
        assert!(!b.suggest);
        assert!(!b.auto_gate);
        assert_eq!(b.rates, PathBuf::from("BENCH_codecs.json"));
    }

    #[test]
    fn parses_shape_flags() {
        let a = parse_from(&argv("--corpus shape"), true, &[]).unwrap();
        assert_eq!(a.corpus.as_deref(), Some("shape"));
        assert!(a.paths.is_empty(), "flag values are not paths");
    }

    #[test]
    fn parses_liveness_flags() {
        let a = parse_from(&argv("--corpus liveness --explain D001"), true, &[]).unwrap();
        assert_eq!(a.corpus.as_deref(), Some("liveness"));
        assert_eq!(a.explain.as_deref(), Some("D001"));
        assert!(a.paths.is_empty(), "the explain value is not a path");
        let b = parse_from(&[], false, &[]).unwrap();
        assert_eq!(b.explain, None);
    }

    #[test]
    fn exit_code_ladder_is_shared() {
        let clean = ToolCounts {
            checked: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&clean, false), 0);
        assert_eq!(tool_exit_code(&clean, true), 0);
        let warny = ToolCounts {
            checked: 1,
            warnings: 2,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&warny, false), 0);
        assert_eq!(tool_exit_code(&warny, true), 1, "--deny-warnings promotes");
        let bad = ToolCounts {
            checked: 1,
            errors: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&bad, false), 1);
        let unreadable = ToolCounts {
            checked: 2,
            errors: 1,
            io_errors: 1,
            ..Default::default()
        };
        assert_eq!(tool_exit_code(&unreadable, false), 2, "I/O dominates");
    }

    #[test]
    fn json_envelope_escapes_and_joins() {
        let counts = ToolCounts {
            checked: 2,
            errors: 1,
            ..Default::default()
        };
        let json = json_envelope(
            &counts,
            &[
                ("a".to_string(), "\"diagnostics\":[]".to_string()),
                ("b\"q".to_string(), "\"diagnostics\":[]".to_string()),
            ],
            &[("c".to_string(), "no such file".to_string())],
        );
        assert!(json.contains("\"checked\":2"), "{json}");
        assert!(json.contains("\"name\":\"a\",\"diagnostics\":[]"), "{json}");
        assert!(json.contains("\\\"q\""), "escapes quotes: {json}");
        assert!(
            json.contains("\"name\":\"c\",\"error\":\"no such file\""),
            "{json}"
        );
        assert!(json.ends_with("]}\n"), "{json}");
    }

    #[test]
    fn trajectory_json_carries_summary_and_gate_errors() {
        let counts = ToolCounts {
            checked: 9,
            errors: 1,
            ..Default::default()
        };
        let json = trajectory_json(
            "sanitize-bench",
            &counts,
            &["Pr/Push: ratio 8.00x".to_string()],
            &["Sp/PhiSpzip: \"bad\"".to_string()],
            &[],
        );
        assert!(json.contains("\"name\":\"sanitize-bench\""), "{json}");
        assert!(
            json.contains("\"summary\":[\"Pr/Push: ratio 8.00x\"]"),
            "{json}"
        );
        assert!(json.contains("\\\"bad\\\""), "escapes gate errors: {json}");
        assert!(json.contains("\"failures\":[]"), "{json}");
    }

    #[test]
    fn trajectory_check_follows_the_exit_ladder() {
        let pass = |_: &()| Ok(vec!["cell: ok".to_string()]);
        let missing = Path::new("/nonexistent/BENCH_missing.json");
        assert_eq!(trajectory_check("t", missing, true, 1, |_| Ok(()), pass), 2);
        let readable = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let bad_schema = |_: &str| Err::<(), _>("not a trajectory".to_string());
        assert_eq!(
            trajectory_check("t", readable, true, 1, bad_schema, pass),
            1
        );
        let regressed = |_: &()| Err(vec!["cell: regressed".to_string()]);
        assert_eq!(
            trajectory_check("t", readable, false, 1, |_| Ok(()), regressed),
            1
        );
        assert_eq!(
            trajectory_check("t", readable, false, 1, |_| Ok(()), pass),
            0
        );
    }

    #[test]
    fn rejects_usage_errors() {
        for (args, takes_files, offending) in [
            ("--frobnicate --scale large", true, "--frobnicate"),
            ("--scael tiny", false, "--scael"),
            ("--scale tny", false, "--scale"),
            ("--scale", false, "--scale"),
            ("--format xml", true, "--format"),
            ("--jobs x", false, "--jobs"),
            ("--jobs -1", false, "--jobs"),
            ("--perturb-ratio abc", true, "--perturb-ratio"),
            ("--measure-ms x", false, "--measure-ms"),
            ("--check", false, "--check"),
            ("fig07", false, "fig07"),
            ("--scale tiny fig07", false, "fig07"),
            ("--only fig07,fig99", false, "fig99"),
            ("--only nosuchname", false, "nosuchname"),
        ] {
            let err = parse_from(&argv(args), takes_files, &OUTPUTS)
                .expect_err(&format!("{args:?} must be a usage error"));
            assert!(err.contains(offending), "{args:?}: {err}");
        }
        let err = parse_from(&argv("--only fig99"), false, &OUTPUTS).unwrap_err();
        assert!(err.contains("fig15ab"), "lists the known outputs: {err}");
        assert_eq!(parse_from(&argv("--jobs 0"), false, &[]).unwrap().jobs, 1);
        let only = parse_from(&argv("--only FIG07,sorted"), false, &OUTPUTS).unwrap();
        assert_eq!(
            only.only.unwrap().len(),
            2,
            "names match case-insensitively"
        );
    }

    #[test]
    fn collects_positional_paths_without_eating_flag_values() {
        let a = parse_from(
            &argv("fig2.dcl --jobs 3 extra.dcl --dot --all-builtin"),
            true,
            &[],
        )
        .unwrap();
        assert_eq!(
            a.paths,
            vec![PathBuf::from("fig2.dcl"), PathBuf::from("extra.dcl")]
        );
        assert_eq!(a.jobs, 3);
        assert!(a.dot);
        assert!(a.all_builtin);
    }

    #[test]
    fn flag_values_are_not_paths() {
        let a = parse_from(
            &argv("--cache-dir /tmp/c --scale tiny pipeline.dcl"),
            true,
            &[],
        )
        .unwrap();
        assert_eq!(a.paths, vec![PathBuf::from("pipeline.dcl")]);
        assert_eq!(a.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(a.scale, Scale::Tiny);
    }
}
