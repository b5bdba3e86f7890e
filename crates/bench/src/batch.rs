//! The one batch report `dcl-lint` and `dcl-perf` share.
//!
//! Every analysis mode runs through one input loop ([`Batch::inputs`]):
//! each `.dcl` file is read, parsed against
//! [`synthetic_symbols`](crate::dcl_lint::synthetic_symbols) and handed
//! to the mode's [`Analysis`], then with `--all-builtin` so is every
//! pipeline of [`spzip_apps::pipelines::all_builtin_checked`] with its
//! declared schema. Every report leaves through one output ladder
//! ([`Batch::finish`]): text ending with the mode's trailer, the shared
//! [`json_envelope`] or [`sarif_report`], then the [`tool_exit_code`].
//! A mode supplies only its analysis, which turns one pipeline into an
//! [`Entry`] (its text block, JSON body and diagnostics), its usage and
//! trailer lines, and, for `dcl-perf --suggest`, the rule that its
//! advisories are not warnings ([`Batch::advisory`]).

use crate::cli::{
    json_envelope, sarif_report, tool_exit_code, CommonArgs, OutputFormat, ToolCounts,
};
use spzip_core::dcl::Pipeline;
use spzip_core::lint::{Diagnostic, Severity};
use spzip_core::shape::MemorySchema;

/// One analyzed pipeline.
#[derive(Debug)]
pub struct Entry {
    /// Pipeline (or file) name.
    pub name: String,
    /// The findings `--format sarif` reports.
    pub diagnostics: Vec<Diagnostic>,
    /// The pipeline's block of the text report.
    pub text: String,
    /// The pipeline's `--format json` body, after its `name`.
    pub json: String,
}

/// A mode's analysis of one pipeline: its name, the program, and the
/// schema a builtin declares (`None` for a `.dcl` file).
pub type Analysis<'a> = dyn FnMut(&str, &Pipeline, Option<&MemorySchema>) -> Entry + 'a;

/// The outcome of analyzing one batch of pipelines.
#[derive(Debug)]
pub struct Batch {
    /// The tool's name in the SARIF log.
    tool: &'static str,
    /// The diagnostics are advisories (see [`Batch::advisory`]).
    advisory: bool,
    counts: ToolCounts,
    /// The text report so far, one block per input in input order.
    text: String,
    /// Per-pipeline JSON bodies.
    pipelines: Vec<(String, String)>,
    /// Per-pipeline diagnostics.
    results: Vec<(String, Vec<Diagnostic>)>,
    /// Inputs that could not be analyzed (name, error).
    failures: Vec<(String, String)>,
}

impl Batch {
    /// An empty report of `tool`.
    pub fn new(tool: &'static str) -> Self {
        Batch {
            tool,
            advisory: false,
            counts: ToolCounts::default(),
            text: String::new(),
            pipelines: Vec::new(),
            results: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// An empty report of `tool` whose diagnostics are advisories
    /// (`dcl-perf --suggest`): reported, but counted neither as errors nor
    /// as warnings, so not even `--deny-warnings` fails on them. Its text
    /// report opens with `header`.
    pub fn advisory(tool: &'static str, header: String) -> Self {
        Batch {
            advisory: true,
            text: header,
            ..Self::new(tool)
        }
    }

    /// Summary counters; read and parse failures count as checked.
    pub fn counts(&self) -> ToolCounts {
        self.counts
    }

    /// The text report so far, without the trailer.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Adds one analyzed pipeline.
    pub fn push(&mut self, entry: Entry) {
        self.counts.checked += 1;
        if !self.advisory {
            let errors = entry
                .diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .count();
            self.counts.errors += errors;
            self.counts.warnings += entry.diagnostics.len() - errors;
        }
        self.text.push_str(&entry.text);
        self.pipelines.push((entry.name.clone(), entry.json));
        self.results.push((entry.name, entry.diagnostics));
    }

    /// Adds an input that could not be analyzed: an unreadable one when
    /// `io` (exit code 2, not a verdict), otherwise a failing one (an
    /// error).
    pub fn fail(&mut self, name: &str, error: String, io: bool) {
        self.counts.checked += 1;
        if io {
            self.counts.io_errors += 1;
        } else {
            self.counts.errors += 1;
        }
        self.text.push_str(&format!("{name}: {error}\n"));
        self.failures.push((name.to_string(), error));
    }

    /// Parses one `.dcl` program text under `name` and analyzes it; a
    /// parse failure is an error.
    pub fn program(&mut self, name: &str, text: &str, analyze: &mut Analysis) {
        let symbols = crate::dcl_lint::synthetic_symbols(text);
        match spzip_core::parser::parse(text, &symbols) {
            Ok(p) => self.push(analyze(name, &p, None)),
            Err(e) => self.fail(name, e.to_string(), false),
        }
    }

    /// Analyzes every input `args` names: each file, then with
    /// `--all-builtin` every built-in pipeline (all workloads x schemes)
    /// with its declared schema.
    pub fn inputs(&mut self, args: &CommonArgs, analyze: &mut Analysis) {
        for path in &args.paths {
            let name = path.display().to_string();
            match std::fs::read_to_string(path) {
                Ok(text) => self.program(&name, &text, analyze),
                Err(e) => self.fail(&name, e.to_string(), true),
            }
        }
        if args.all_builtin {
            for (name, p, schema) in spzip_apps::pipelines::all_builtin_checked() {
                self.push(analyze(&name, &p, Some(&schema)));
            }
        }
    }

    /// The text trailer of `dcl-lint` and `dcl-perf`: `checked N
    /// pipeline(s): E error(s), W warning(s)`, then the unreadable count
    /// when there is one.
    pub fn summary(&self) -> String {
        let c = &self.counts;
        let mut line = format!(
            "checked {} pipeline(s): {} error(s), {} warning(s)",
            c.checked, c.errors, c.warnings
        );
        if c.io_errors > 0 {
            line.push_str(&format!(", {} unreadable", c.io_errors));
        }
        line
    }

    /// The report in `format`; the text report ends with `trailer`.
    pub fn render(&self, format: OutputFormat, trailer: &str) -> String {
        match format {
            OutputFormat::Text => format!("{}{trailer}\n", self.text),
            OutputFormat::Json => json_envelope(&self.counts, &self.pipelines, &self.failures),
            OutputFormat::Sarif => sarif_report(self.tool, &self.results, &self.failures),
        }
    }

    /// Prints the report in `args.format` and returns the process exit
    /// code: the [`tool_exit_code`] ladder, or 2 after printing `usage`
    /// when there was nothing to analyze.
    pub fn finish(&self, args: &CommonArgs, usage: &str, trailer: &str) -> i32 {
        if self.counts.checked == 0 {
            println!("{usage}");
            return 2;
        }
        print!("{}", self.render(args.format, trailer));
        tool_exit_code(&self.counts, args.deny_warnings)
    }
}
