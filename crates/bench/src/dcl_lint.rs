//! The `dcl-lint` tool: static analysis over `.dcl` text files and every
//! built-in application pipeline.
//!
//! File mode parses each path against a synthetic symbol table (symbolic
//! `base=`/`meta=` names resolve to distinct placeholder addresses, so
//! programs written against runtime-resolved symbols still lint), then runs
//! [`spzip_core::lint`] and prints the rustc-style report. `--all-builtin`
//! lints the full enumeration from
//! [`spzip_apps::pipelines::all_builtin_checked`]: every builtin
//! constructor's pipeline across workload x scheme (the runtime loads all
//! but the slice compressor), each paired with its declared
//! [`MemorySchema`]. Builtins additionally run the shape-and-bounds
//! verifier ([`spzip_core::shape::verify`]), folding its `B0xx` findings
//! into the same report. File mode cannot shape-check: a `.dcl` text
//! linted against synthetic placeholder addresses carries no memory
//! schema to verify against. `--dot` additionally prints each pipeline as
//! Graphviz dot; for builtins the edges are annotated with the inferred
//! shape domain (region / element width / codec framing).
//!
//! Every input that passes the structural lint is also run through the
//! liveness model checker ([`spzip_core::liveness::verify`]), folding its
//! `D0xx` findings — each with a rendered counterexample schedule — into
//! the report (liveness needs only the pipeline graph, no memory schema).
//!
//! `--corpus shape|liveness|equiv|all` instead runs the seeded-bug
//! differential gates in [`crate::corpus`]: each seed must be caught by
//! its static pass with the expected code AND confirmed on the dynamic
//! engines. `--equiv` applies every builtin's suggested codec plan
//! through [`spzip_core::suggest::certify`], reporting a plan the
//! [`spzip_core::equiv`] translation validator refutes as errors, and
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

use crate::batch::{Batch, Entry};
use crate::cli::CommonArgs;
use spzip_core::dcl::Pipeline;
use spzip_core::lint::{self, Diagnostic};
use spzip_core::shape::{self, MemorySchema};
use spzip_core::suggest::{certify, suggest, PlanEntry, SuggestInput};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// One pipeline's lint entry: `name: clean` or the rendered diagnostics,
/// then each rendered liveness counterexample and `dot`; the JSON body
/// carries the diagnostics (each element in the shape of
/// [`lint::render_json`], so `dcl-lint` and `dcl-perf` emit identical
/// diagnostic records) and the first counterexample.
fn entry(name: &str, diagnostics: Vec<Diagnostic>, counterexamples: &[String], dot: &str) -> Entry {
    let mut text = if diagnostics.is_empty() {
        format!("{name}: clean\n")
    } else {
        format!("{name}:\n{}", lint::render(&diagnostics))
    };
    text.extend(counterexamples.iter().map(String::as_str));
    text.push_str(dot);
    let mut json = format!(
        "\"diagnostics\":{}",
        lint::render_json(&diagnostics).trim_end()
    );
    if let Some(cx) = counterexamples.first() {
        let _ = write!(json, ",\"counterexample\":\"{}\"", lint::json_escape(cx));
    }
    Entry {
        name: name.to_string(),
        diagnostics,
        text,
        json,
    }
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

/// The lint analysis of one pipeline: the structural lint, then for a
/// builtin the shape verifier against its declared schema (`B0xx`
/// findings). Pipelines with no error so far are model-checked for
/// whole-pipeline liveness, folding `D0xx` findings and their rendered
/// counterexample schedules into the entry (a counterexample for a
/// program the builder would reject anyway is noise). With `dot`, the
/// pipeline follows as Graphviz dot, whose edges carry the inferred shape
/// domain for builtins.
fn lint_pipeline(name: &str, p: &Pipeline, schema: Option<&MemorySchema>, dot: bool) -> Entry {
    let mut diags = lint::lint(p);
    let shape_report = schema.map(|s| shape::verify(p, s));
    if let Some(r) = &shape_report {
        diags.extend(r.diagnostics.iter().cloned());
    }
    let mut counterexamples = Vec::new();
    if !lint::has_errors(&diags) {
        let live = spzip_core::liveness::verify(p);
        counterexamples = live
            .findings
            .iter()
            .map(|f| spzip_core::liveness::render_counterexample(&f.counterexample))
            .collect();
        diags.extend(live.diagnostics());
    }
    let dot = match (dot, &shape_report) {
        (false, _) => String::new(),
        (true, Some(r)) => shape::annotated_dot(p, r),
        (true, None) => spzip_core::parser::to_dot(p),
    };
    entry(name, diags, &counterexamples, &dot)
}

/// `--equiv` over the builtins: certifies every builtin's suggested plan.
fn equiv_builtins(batch: &mut Batch) {
    for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
        let plan = suggest(&SuggestInput::with_schema(&p, &schema)).plan;
        batch.push(equiv_entry(&name, &p, &schema, &plan));
    }
}

/// One `--equiv` entry: applies `plan` to `p` through [`certify`]. An
/// empty plan certifies as the identity rewrite; a refuted plan's
/// diagnostics are the entry's errors.
fn equiv_entry(name: &str, p: &Pipeline, schema: &MemorySchema, plan: &[PlanEntry]) -> Entry {
    let label = if plan.is_empty() {
        format!("{name} (auto: identity)")
    } else {
        format!("{name} (auto: {} swap(s))", plan.len())
    };
    let diagnostics = certify(p, Some(schema), plan).err().unwrap_or_default();
    entry(&label, diagnostics, &[], "")
}

/// `--equiv` codec-binding arm: certifies the roundtrip premise the
/// validator's algebra rests on — for every codec, the optimized kernel
/// and the scalar reference implementation must be wire-compatible
/// inverses of each other (kernel-compressed frames decode through the
/// reference and vice versa, byte-identical values). A mismatch means
/// "compress then decompress cancels" is unsound for that codec, so it
/// is reported as a failure, not a diagnostic.
fn codec_bindings(batch: &mut Batch) {
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
            Ok(()) => batch.push(entry(&name, vec![], &[], "")),
            Err(e) => batch.fail(&name, e, false),
        }
    }
}

const USAGE: &str = "usage: dcl-lint [--all-builtin] [--corpus shape|liveness|equiv|all] \
                     [--equiv] [--explain CODE] [--dot] [--deny-warnings] \
                     [--format text|json|sarif] [file.dcl ...]";

/// Runs the tool over parsed arguments; returns the process exit code
/// (0 iff no errors).
pub fn run(args: &CommonArgs) -> i32 {
    if let Some(code) = &args.explain {
        return crate::explain::run(code);
    }
    if let Some(name) = &args.corpus {
        if let Some(code) = crate::corpus::run_gate(name, args.format) {
            return code;
        }
        println!("{USAGE}");
        return 2;
    }
    let mut batch = Batch::new("dcl-lint");
    if args.equiv {
        equiv_builtins(&mut batch);
        codec_bindings(&mut batch);
    }
    batch.inputs(args, &mut |name, p, schema| {
        lint_pipeline(name, p, schema, args.dot)
    });
    batch.finish(args, USAGE, &batch.summary())
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

    /// Lints one program text the way the tool lints a file.
    fn lint_text(name: &str, text: &str, dot: bool) -> Batch {
        let mut b = Batch::new("dcl-lint");
        b.program(name, text, &mut |n, p, s| lint_pipeline(n, p, s, dot));
        b
    }

    /// Lints the inputs `argv` names through the tool's input loop.
    fn lint_inputs(argv: &[&str]) -> Batch {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let args = crate::cli::parse_from(&argv, true, &[]).unwrap();
        let mut b = Batch::new("dcl-lint");
        b.inputs(&args, &mut |n, p, s| lint_pipeline(n, p, s, args.dot));
        b
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
        let r = lint_text("fig2", text, false);
        let c = r.counts();
        assert_eq!((c.checked, c.errors, c.warnings), (1, 0, 0), "{}", r.text());
        assert!(r.text().contains("fig2: clean"));
    }

    #[test]
    fn undersized_queue_file_reports_error() {
        let text = "queue a 8\nqueue b 4\nrange a -> b base=0x0 elem=8";
        let r = lint_text("bad", text, false);
        assert_eq!(r.counts().errors, 1, "{}", r.text());
        assert!(r.text().contains("E013"), "{}", r.text());
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
        let r = lint_text("warny", text, false);
        assert_eq!(r.counts().errors, 0, "{}", r.text());
        assert_eq!(r.counts().warnings, 1, "{}", r.text());
        assert!(r.text().contains("warning[W001]"), "{}", r.text());
    }

    #[test]
    fn dot_output_is_appended() {
        let text = "queue a 8\nqueue b 16\nrange a -> b base=0x0 elem=8";
        let r = lint_text("p", text, true);
        assert!(r.text().contains("digraph dcl {"), "{}", r.text());
    }

    #[test]
    fn unreadable_file_is_an_io_error_not_a_diagnostic() {
        let r = lint_inputs(&["/nonexistent/definitely-missing.dcl"]);
        let c = r.counts();
        assert_eq!(
            (c.checked, c.io_errors, c.errors),
            (1, 1, 0),
            "{}",
            r.text()
        );
        assert!(
            r.text()
                .starts_with("/nonexistent/definitely-missing.dcl: "),
            "{}",
            r.text()
        );
        assert_eq!(crate::cli::tool_exit_code(&c, false), 2);
    }

    #[test]
    fn json_report_carries_diagnostics_and_failures() {
        let mut r = lint_text(
            "warny",
            "queue a 8\nqueue b 16\nqueue unused 8\nrange a -> b base=0x0 elem=8",
            false,
        );
        r.program("broken", "queue a", &mut |n, p, s| {
            lint_pipeline(n, p, s, false)
        });
        let json = r.render(crate::cli::OutputFormat::Json, "");
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
        let r = lint_inputs(&["--all-builtin"]);
        assert!(r.counts().checked >= 40, "{}", r.counts().checked);
        assert_eq!(r.counts().errors, 0, "{}", r.text());
    }

    #[test]
    fn builtin_dot_is_annotated_with_shape_domains() {
        let r = lint_inputs(&["--all-builtin", "--dot"]);
        assert!(r.text().contains("digraph dcl {"), "{}", r.text());
        // Edge labels carry the inferred domain: raw widths and codec
        // framings both appear somewhere across the builtin set.
        assert!(r.text().contains("raw w"), "domain labels: {}", r.text());
        assert!(r.text().contains("frames("), "framed labels missing");
    }

    #[test]
    fn equiv_reports_a_refuted_plan_as_errors() {
        // A one-sided swap of an internal delta roundtrip cannot certify:
        // the entry carries the V002 refutation as an error instead of
        // printing the untouched pipeline as clean.
        use spzip_compress::CodecKind;
        use spzip_core::shape::{InputDomain, RegionSchema};
        let p = spzip_core::parser::parse(
            "queue a 32\nqueue b 32\nqueue c 32\n\
             compress a -> b codec=delta elem=8\n\
             decompress b -> c codec=delta elem=8",
            &HashMap::new(),
        )
        .unwrap();
        let mut schema = MemorySchema::new();
        schema.add_region(RegionSchema::raw("scratch", 0x1000, 0x1000, 8));
        schema.declare_input(
            0,
            InputDomain::Values {
                elem_bytes: 8,
                max: None,
            },
        );
        let forged = [PlanEntry {
            op: 0,
            queue: 0,
            current: CodecKind::Delta,
            suggested: CodecKind::Rle,
            sort_chunks: false,
            gain: 0.5,
        }];
        let e = equiv_entry("roundtrip", &p, &schema, &forged);
        assert!(
            e.diagnostics
                .iter()
                .any(|d| d.code == lint::Code::V002 && d.severity() == lint::Severity::Error),
            "{}",
            e.text
        );
        assert!(
            e.text.starts_with("roundtrip (auto: 1 swap(s)):\n"),
            "{}",
            e.text
        );
    }

    #[test]
    fn unknown_corpus_exits_2() {
        let args =
            crate::cli::parse_from(&["--corpus".to_string(), "nosuch".to_string()], true, &[])
                .unwrap();
        assert_eq!(run(&args), 2);
    }
}
