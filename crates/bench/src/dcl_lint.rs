//! The `dcl-lint` tool: static analysis over `.dcl` text files and every
//! built-in application pipeline.
//!
//! File mode parses each path against a synthetic symbol table (symbolic
//! `base=`/`meta=` names resolve to distinct placeholder addresses, so
//! programs written against runtime-resolved symbols still lint), then runs
//! [`spzip_core::lint`] and prints the rustc-style report. `--all-builtin`
//! lints the full enumeration from
//! [`spzip_apps::pipelines::all_builtin_checked`]: every workload x scheme
//! pipeline the figures load, each paired with its declared
//! [`MemorySchema`](spzip_core::shape::MemorySchema). Builtins additionally
//! run the shape-and-bounds verifier ([`spzip_core::shape::verify`]),
//! folding its `B0xx` findings into the same report. File mode cannot
//! shape-check: a `.dcl` text linted against synthetic placeholder
//! addresses carries no memory schema to verify against. `--dot`
//! additionally prints each pipeline as Graphviz dot; for builtins the
//! edges are annotated with the inferred shape domain (region / element
//! width / codec framing).
//!
//! Every input that passes the structural lint is also run through the
//! liveness model checker ([`spzip_core::liveness::verify`]), folding its
//! `D0xx` findings — each with a rendered counterexample schedule — into
//! the report (liveness needs only the pipeline graph, no memory schema).
//!
//! `--corpus shape|liveness|equiv|all` instead runs the seeded-bug
//! differential gates in [`crate::corpus`]: each seed must be caught by
//! its static pass with the expected code AND confirmed on the dynamic
//! engines. `--equiv` certifies every builtin against its auto-codec
//! rewiring with the [`spzip_core::equiv`] translation validator and
//! cross-checks every codec's kernel-vs-reference binding.
//! `--explain CODE` prints the [`crate::explain`] registry entry for any
//! diagnostic code.
//!
//! Exit codes distinguish *what kind* of failure CI is looking at: 0 when
//! every pipeline is clean (warnings allowed unless `--deny-warnings`),
//! 1 when any diagnostic fails the run (error-severity, a parse failure,
//! or a warning under `--deny-warnings`), 2 when the tool itself could
//! not do its job (an unreadable file, nothing to lint at all, or an
//! unknown corpus name).

use crate::cli::CommonArgs;
use spzip_core::lint::{self, Severity};
use spzip_core::parser;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// Outcome of linting one batch of pipelines.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Pipelines (or files) examined.
    pub checked: usize,
    /// Error-severity diagnostics plus parse failures.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Files the tool could not read (exit code 2, not a lint verdict).
    pub io_errors: usize,
    /// Human-readable report.
    pub output: String,
    /// Per-pipeline diagnostics, kept structured for `--format json`.
    pub results: Vec<(String, Vec<lint::Diagnostic>)>,
    /// Parse/read failures with no structured diagnostic (name, error).
    pub failures: Vec<(String, String)>,
    /// Rendered liveness counterexamples, by pipeline name (at most one
    /// per pipeline: the checker reports the earliest wedge).
    pub counterexamples: Vec<(String, String)>,
}

impl LintReport {
    fn absorb(&mut self, name: &str, diags: Vec<lint::Diagnostic>) {
        self.checked += 1;
        let errors = diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count();
        self.errors += errors;
        self.warnings += diags.len() - errors;
        if diags.is_empty() {
            let _ = writeln!(self.output, "{name}: clean");
        } else {
            let _ = writeln!(self.output, "{name}:");
            self.output.push_str(&lint::render(&diags));
        }
        self.results.push((name.to_string(), diags));
    }
}

impl LintReport {
    /// The report's summary counters in the shared tool shape.
    pub fn counts(&self) -> crate::cli::ToolCounts {
        crate::cli::ToolCounts {
            checked: self.checked,
            errors: self.errors,
            warnings: self.warnings,
            io_errors: self.io_errors,
        }
    }
}

/// Renders a report as one JSON object: the shared
/// [`crate::cli::json_envelope`] summary wrapper around per-pipeline
/// diagnostic arrays (each element in the same shape as
/// [`lint::render_json`], so `dcl-lint` and `dcl-perf` emit identical
/// diagnostic records).
pub fn render_json_report(report: &LintReport) -> String {
    let pipelines: Vec<(String, String)> = report
        .results
        .iter()
        .map(|(name, diags)| {
            let mut body = format!("\"diagnostics\":{}", lint::render_json(diags).trim_end());
            if let Some((_, cx)) = report.counterexamples.iter().find(|(n, _)| n == name) {
                let _ = write!(body, ",\"counterexample\":\"{}\"", lint::json_escape(cx));
            }
            (name.clone(), body)
        })
        .collect();
    crate::cli::json_envelope(&report.counts(), &pipelines, &report.failures)
}

/// Builds a placeholder symbol table for a `.dcl` text: every symbolic
/// (non-numeric) `base=`/`meta=` value gets a distinct synthetic address,
/// so address-agnostic structural linting can proceed.
pub fn synthetic_symbols(text: &str) -> HashMap<String, u64> {
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for tok in line.split_whitespace() {
            if let Some((k, v)) = tok.split_once('=') {
                let numeric = v.starts_with("0x") || v.parse::<u64>().is_ok();
                if (k == "base" || k == "meta") && !numeric {
                    names.insert(v.to_string());
                }
            }
        }
    }
    names
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, 0x10_0000 * (i as u64 + 1)))
        .collect()
}

/// Runs the liveness model checker on `p`; returns its diagnostics plus
/// each finding's rendered counterexample schedule.
fn liveness_diags(p: &spzip_core::dcl::Pipeline) -> (Vec<lint::Diagnostic>, Vec<String>) {
    let live = spzip_core::liveness::verify(p);
    let rendered = live
        .findings
        .iter()
        .map(|f| spzip_core::liveness::render_counterexample(&f.counterexample))
        .collect();
    (live.diagnostics(), rendered)
}

/// Lints one `.dcl` program text under `name`. Parsed programs that pass
/// the structural lint are also model-checked for whole-pipeline liveness
/// (a counterexample for a program the builder would reject anyway is
/// noise, so lint errors skip it).
pub fn lint_text(name: &str, text: &str, dot: bool, report: &mut LintReport) {
    let symbols = synthetic_symbols(text);
    match parser::parse(text, &symbols) {
        Ok(p) => {
            let mut diags = lint::lint(&p);
            let mut rendered = Vec::new();
            if !lint::has_errors(&diags) {
                let (d, r) = liveness_diags(&p);
                diags.extend(d);
                rendered = r;
            }
            report.absorb(name, diags);
            for cx in rendered {
                report.output.push_str(&cx);
                report.counterexamples.push((name.to_string(), cx));
            }
            if dot {
                report.output.push_str(&parser::to_dot(&p));
            }
        }
        Err(e) => {
            report.checked += 1;
            report.errors += 1;
            let _ = writeln!(report.output, "{name}: {e}");
            report.failures.push((name.to_string(), e.to_string()));
        }
    }
}

/// Lints every built-in application pipeline (all workloads x schemes).
/// Each pipeline is also run through the shape verifier against its
/// constructor-declared schema, and its `B0xx` findings are folded into
/// the same per-pipeline diagnostic list. Each is also model-checked for
/// whole-pipeline liveness, folding `D0xx` findings (with rendered
/// counterexample schedules) the same way.
/// `--dot` output annotates edges with the inferred shape domain.
pub fn lint_builtins(dot: bool, report: &mut LintReport) {
    for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
        let mut diags = lint::lint(&p);
        let shape_report = spzip_core::shape::verify(&p, &schema);
        diags.extend(shape_report.diagnostics.iter().cloned());
        let mut rendered = Vec::new();
        if !lint::has_errors(&diags) {
            let (d, r) = liveness_diags(&p);
            diags.extend(d);
            rendered = r;
        }
        report.absorb(&name, diags);
        for cx in rendered {
            report.output.push_str(&cx);
            report.counterexamples.push((name.to_string(), cx));
        }
        if dot {
            report
                .output
                .push_str(&spzip_core::shape::annotated_dot(&p, &shape_report));
        }
    }
}

/// `--equiv` over the builtins: runs the auto-codec selection on every
/// built-in pipeline and certifies the rewiring with the
/// [`spzip_core::equiv`] translation validator — original vs rewritten,
/// each against its own schema. Planless builtins certify as identity
/// rewrites; any `V0xx` finding is folded into the report like a lint
/// error.
pub fn equiv_builtins(report: &mut LintReport) {
    let params = spzip_core::perf::PerfParams::default();
    for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
        let (auto, auto_schema, suggest) = spzip_apps::pipelines::auto_codecs(&p, &schema, &params);
        let verdict = spzip_core::equiv::validate(&spzip_core::equiv::EquivInput::with_schemas(
            &p,
            &auto,
            &schema,
            &auto_schema,
        ));
        let label = if suggest.plan.is_empty() {
            format!("{name} (auto: identity)")
        } else {
            format!("{name} (auto: {} swap(s))", suggest.plan.len())
        };
        report.absorb(&label, verdict.diagnostics());
    }
}

/// `--equiv` codec-binding arm: certifies the roundtrip premise the
/// validator's algebra rests on — for every codec, the optimized kernel
/// and the scalar reference implementation must be wire-compatible
/// inverses of each other (kernel-compressed frames decode through the
/// reference and vice versa, byte-identical values). A mismatch means
/// "compress then decompress cancels" is unsound for that codec, so it
/// is reported as a failure, not a diagnostic.
pub fn codec_bindings(report: &mut LintReport) {
    use spzip_compress::{reference::ReferenceCodec, CodecKind};
    // A stream with runs, deltas, and full-width values, so every codec's
    // encoder paths are exercised.
    let sample: Vec<u64> = (0..256u64)
        .map(|i| match i % 4 {
            0 => i / 7,
            1 => i * 3,
            2 => 0xffff_ff00 + i,
            _ => i,
        })
        .collect();
    for kind in CodecKind::all() {
        let kernel = kind.build();
        let reference = ReferenceCodec::new(kind);
        let name = format!("codec binding {kind}");
        let sample = match kind.natural_elem_bytes() {
            Some(4) => sample.iter().map(|v| v & 0xffff_ffff).collect(),
            _ => sample.clone(),
        };
        let kernel_ref: &dyn spzip_compress::Codec = &*kernel;
        let reference_ref: &dyn spzip_compress::Codec = &reference;
        let check = || -> Result<(), String> {
            for (enc, dec, dir) in [
                (kernel_ref, reference_ref, "kernel->reference"),
                (reference_ref, kernel_ref, "reference->kernel"),
            ] {
                let mut bytes = Vec::new();
                enc.compress(&sample, &mut bytes);
                let mut back = Vec::new();
                dec.decompress(&bytes, &mut back)
                    .map_err(|e| format!("{dir}: frame rejected: {e:?}"))?;
                if back != sample {
                    return Err(format!(
                        "{dir}: roundtrip diverges at element {}",
                        back.iter()
                            .zip(&sample)
                            .position(|(a, b)| a != b)
                            .unwrap_or(sample.len().min(back.len()))
                    ));
                }
            }
            Ok(())
        };
        match check() {
            Ok(()) => report.absorb(&name, vec![]),
            Err(e) => {
                report.checked += 1;
                report.errors += 1;
                let _ = writeln!(report.output, "{name}: {e}");
                report.failures.push((name, e));
            }
        }
    }
}

const USAGE: &str = "usage: dcl-lint [--all-builtin] [--corpus shape|liveness|equiv|all \
                     [--perturb-ratio X]] [--equiv] [--explain CODE] [--dot] [--deny-warnings] \
                     [--format text|json|sarif] [file.dcl ...]";

/// Runs the tool over parsed arguments; returns the process exit code
/// (0 iff no errors).
pub fn run(args: &CommonArgs) -> i32 {
    if let Some(code) = &args.explain {
        return crate::explain::run(code);
    }
    if let Some(name) = &args.corpus {
        if let Some(code) = crate::corpus::run_gate(name, args.format, args.perturb_ratio) {
            return code;
        }
        println!("{USAGE}");
        return 2;
    }
    let mut report = LintReport::default();
    if args.equiv {
        equiv_builtins(&mut report);
        codec_bindings(&mut report);
    }
    for path in &args.paths {
        match std::fs::read_to_string(path) {
            Ok(text) => lint_text(&path.display().to_string(), &text, args.dot, &mut report),
            Err(e) => {
                report.checked += 1;
                report.io_errors += 1;
                let _ = writeln!(report.output, "{}: {e}", path.display());
                report
                    .failures
                    .push((path.display().to_string(), e.to_string()));
            }
        }
    }
    if args.all_builtin {
        lint_builtins(args.dot, &mut report);
    }
    if report.checked == 0 {
        println!("{USAGE}");
        return 2;
    }
    match args.format {
        crate::cli::OutputFormat::Json => print!("{}", render_json_report(&report)),
        crate::cli::OutputFormat::Sarif => print!(
            "{}",
            crate::cli::sarif_report("dcl-lint", &report.results, &report.failures)
        ),
        crate::cli::OutputFormat::Text => {
            let _ = writeln!(
                report.output,
                "checked {} pipeline(s): {} error(s), {} warning(s){}",
                report.checked,
                report.errors,
                report.warnings,
                if report.io_errors > 0 {
                    format!(", {} unreadable", report.io_errors)
                } else {
                    String::new()
                }
            );
            print!("{}", report.output);
        }
    }
    exit_code(&report, args.deny_warnings)
}

/// The process exit code for `report`: the shared
/// [`crate::cli::tool_exit_code`] ladder (unreadable inputs dominate
/// with 2, then failing diagnostics 1, then success 0).
pub fn exit_code(report: &LintReport, deny_warnings: bool) -> i32 {
    crate::cli::tool_exit_code(&report.counts(), deny_warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_symbols_cover_symbolic_bases_only() {
        let text = "range a -> b base=offsets elem=8\nmemqueue c -> _ base=0x1000 meta=tails";
        let syms = synthetic_symbols(text);
        assert!(syms.contains_key("offsets"));
        assert!(syms.contains_key("tails"));
        assert!(!syms.contains_key("0x1000"));
        let mut addrs: Vec<u64> = syms.values().copied().collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), syms.len(), "addresses must be distinct");
    }

    #[test]
    fn clean_file_reports_no_errors() {
        let text = "
            queue input 16
            queue offs 32
            queue rows 64
            range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
            range offs -> rows base=rows idx=8 elem=8 mode=consecutive marker=0 class=adj
        ";
        let mut r = LintReport::default();
        lint_text("fig2", text, false, &mut r);
        assert_eq!((r.checked, r.errors, r.warnings), (1, 0, 0), "{}", r.output);
        assert!(r.output.contains("fig2: clean"));
    }

    #[test]
    fn undersized_queue_file_reports_error() {
        let text = "queue a 8\nqueue b 4\nrange a -> b base=0x0 elem=8";
        let mut r = LintReport::default();
        lint_text("bad", text, false, &mut r);
        assert_eq!(r.errors, 1, "{}", r.output);
        assert!(r.output.contains("E013"), "{}", r.output);
    }

    #[test]
    fn warnings_do_not_fail() {
        // A dangling queue is W001: reported, but not an error.
        let text = "
            queue a 8
            queue b 16
            queue unused 8
            range a -> b base=0x0 elem=8
        ";
        let mut r = LintReport::default();
        lint_text("warny", text, false, &mut r);
        assert_eq!(r.errors, 0, "{}", r.output);
        assert_eq!(r.warnings, 1, "{}", r.output);
        assert!(r.output.contains("warning[W001]"), "{}", r.output);
    }

    #[test]
    fn dot_output_is_appended() {
        let text = "queue a 8\nqueue b 16\nrange a -> b base=0x0 elem=8";
        let mut r = LintReport::default();
        lint_text("p", text, true, &mut r);
        assert!(r.output.contains("digraph dcl {"), "{}", r.output);
    }

    #[test]
    fn exit_codes_distinguish_io_from_diagnostics() {
        let clean = LintReport {
            checked: 1,
            ..Default::default()
        };
        assert_eq!(exit_code(&clean, false), 0);
        assert_eq!(exit_code(&clean, true), 0);
        let warny = LintReport {
            checked: 1,
            warnings: 2,
            ..Default::default()
        };
        assert_eq!(exit_code(&warny, false), 0);
        assert_eq!(exit_code(&warny, true), 1, "--deny-warnings promotes");
        let bad = LintReport {
            checked: 1,
            errors: 1,
            ..Default::default()
        };
        assert_eq!(exit_code(&bad, false), 1);
        let unreadable = LintReport {
            checked: 2,
            errors: 1,
            io_errors: 1,
            ..Default::default()
        };
        assert_eq!(exit_code(&unreadable, false), 2, "I/O dominates");
    }

    #[test]
    fn unreadable_file_is_an_io_error_not_a_diagnostic() {
        let args = crate::cli::parse_from(
            &["/nonexistent/definitely-missing.dcl".to_string()],
            true,
            &[],
        )
        .unwrap();
        let mut report = LintReport::default();
        match std::fs::read_to_string(&args.paths[0]) {
            Ok(_) => panic!("path should not exist"),
            Err(_) => report.io_errors += 1,
        }
        report.checked += 1;
        assert_eq!(exit_code(&report, false), 2);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn json_report_carries_diagnostics_and_failures() {
        let mut r = LintReport::default();
        lint_text(
            "warny",
            "queue a 8\nqueue b 16\nqueue unused 8\nrange a -> b base=0x0 elem=8",
            false,
            &mut r,
        );
        lint_text("broken", "queue a", false, &mut r);
        let json = render_json_report(&r);
        assert!(json.contains("\"checked\":2"), "{json}");
        assert!(json.contains("\"name\":\"warny\""), "{json}");
        assert!(
            json.contains("\"code\":\"W001\""),
            "shares the render_json element shape: {json}"
        );
        assert!(json.contains("\"name\":\"broken\",\"error\":"), "{json}");
    }

    #[test]
    fn all_builtins_lint_and_shape_error_free() {
        let mut r = LintReport::default();
        lint_builtins(false, &mut r);
        assert!(r.checked >= 40, "{}", r.checked);
        assert_eq!(r.errors, 0, "{}", r.output);
    }

    #[test]
    fn builtin_dot_is_annotated_with_shape_domains() {
        let mut r = LintReport::default();
        lint_builtins(true, &mut r);
        assert!(r.output.contains("digraph dcl {"), "{}", r.output);
        // Edge labels carry the inferred domain: raw widths and codec
        // framings both appear somewhere across the builtin set.
        assert!(r.output.contains("raw w"), "domain labels: {}", r.output);
        assert!(r.output.contains("frames("), "framed labels missing");
    }

    #[test]
    fn unknown_corpus_exits_2() {
        let args =
            crate::cli::parse_from(&["--corpus".to_string(), "nosuch".to_string()], true, &[])
                .unwrap();
        assert_eq!(run(&args), 2);
    }
}
