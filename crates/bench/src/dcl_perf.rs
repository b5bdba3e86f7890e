//! The `dcl-perf` tool: static traffic/throughput analysis over `.dcl`
//! text files and every built-in application pipeline.
//!
//! File mode parses each path against the same synthetic symbol table as
//! `dcl-lint`, then runs [`spzip_core::perf::analyze`]: the analytical
//! footprint/critical-path model that predicts per-class bytes per
//! delivered element, the steady-state cycles-per-element, and the
//! binding resource (DRAM bandwidth, an operator's service rate, or a
//! scaled-down queue). Model findings surface as stable `P0xx`
//! diagnostics through the shared [`spzip_core::lint`] machinery, so
//! `--format json` emits the exact diagnostic records `dcl-lint` does.
//!
//! `--crosscheck` instead runs the model-vs-simulator gate in
//! [`crate::crosscheck`]: predicted per-class traffic against simulated
//! [`TrafficStats`](spzip_mem::stats::TrafficStats) over the built-in cell
//! matrix. `--auto-gate` runs that module's auto-vs-default codec
//! selection gate.
//!
//! `--suggest` runs the static codec-selection pass
//! ([`spzip_core::suggest`]) instead of the perf report: per pipeline,
//! `A0xx` advisories plus a machine-readable rewiring plan, calibrated by
//! the measured kernel rates in `BENCH_codecs.json` (`--rates` overrides
//! the path; a missing file falls back to the nominal table and says so).
//! Advisories deliberately never affect the exit code — not even under
//! `--deny-warnings` — so the counters separate them from true warnings;
//! only parse failures and unreadable inputs fail a suggest run.
//!
//! Exit codes mirror `dcl-lint`: 0 clean (warnings allowed unless
//! `--deny-warnings`), 1 when any diagnostic — or any cross-check cell —
//! fails the run, 2 when the tool could not do its job.

use crate::batch::{Batch, Entry};
use crate::cli::CommonArgs;
use spzip_compress::model::RateTable;
use spzip_core::lint::{self, Code};
use spzip_core::perf::{analyze, BindingResource, PerfInput, PerfReport};
use spzip_core::suggest::{suggest, SuggestInput, SuggestReport};
use std::path::Path;

const USAGE: &str = "usage: dcl-perf [--all-builtin] [--deny-warnings] [--format text|json|sarif] \
                     [--crosscheck | --auto-gate] \
                     [--suggest [--rates FILE]] [file.dcl ...]";

const SUGGEST_USAGE: &str = "usage: dcl-perf --suggest [--all-builtin] [--rates FILE] \
                             [--format text|json|sarif] [file.dcl ...]";

/// Renders the binding resource as a short stable token.
pub fn binding_label(b: &BindingResource) -> String {
    match b {
        BindingResource::DramBandwidth => "dram-bandwidth".to_string(),
        BindingResource::OperatorService(i) => format!("operator-service({i})"),
        BindingResource::QueueCapacity(q) => format!("queue-capacity(q{q})"),
    }
}

/// One pipeline's perf entry: the model summary line (binding resource,
/// cycles and bytes per delivered element) and any `P0xx` diagnostics.
/// The JSON body carries the model summary and, last, the `diagnostics`
/// array in the [`lint::render_json`] record shape `dcl-lint` emits.
fn perf_entry(name: &str, r: PerfReport) -> Entry {
    let elems = r.delivered_elems.max(1.0);
    let summary = format!(
        "{} bound, {:.2} cycles/elem, {:.1} B/elem",
        binding_label(&r.binding),
        r.cycles_per_unit() / elems,
        r.total_bytes() / elems
    );
    let text = if r.diagnostics.is_empty() {
        format!("{name}: clean ({summary})\n")
    } else {
        format!("{name}: {summary}\n{}", lint::render(&r.diagnostics))
    };
    let fmt_array = |a: &[f64; 6]| {
        let vals: Vec<String> = a.iter().map(|v| format!("{v:.1}")).collect();
        format!("[{}]", vals.join(","))
    };
    let json = format!(
        "\"binding\":\"{}\",\"delivered_elems\":{:.1},\
         \"cycles_per_element\":{:.4},\"service_cycles\":{:.1},\"dram_cycles\":{:.1},\
         \"read_bytes\":{},\"write_bytes\":{},\"diagnostics\":{}",
        binding_label(&r.binding),
        r.delivered_elems,
        r.cycles_per_unit() / elems,
        r.service_cycles,
        r.dram_cycles,
        fmt_array(&r.read_bytes),
        fmt_array(&r.write_bytes),
        lint::render_json(&r.diagnostics).trim_end()
    );
    Entry {
        name: name.to_string(),
        diagnostics: r.diagnostics,
        text,
        json,
    }
}

// ---------------------------------------------------------------------------
// --suggest: static codec selection
// ---------------------------------------------------------------------------

/// One pipeline's `--suggest` entry: `clean` when the plan is empty,
/// otherwise the advisories, the predicted gain and the machine-readable
/// plan. The JSON body carries the selection summary, the plan and the
/// `A0xx` diagnostics in the `dcl-lint` record shape.
fn suggest_entry(name: &str, r: SuggestReport) -> Entry {
    let text = if r.plan.is_empty() {
        format!(
            "{name}: clean ({} transform(s) already best)\n",
            r.transforms
        )
    } else {
        let gain =
            100.0 * (r.baseline_metric - r.auto_metric) / r.baseline_metric.max(f64::MIN_POSITIVE);
        format!(
            "{name}: {} advisory(ies), auto plan predicted {gain:.0}% faster\n{}  plan: {}\n",
            r.diagnostics.len(),
            lint::render(&r.diagnostics),
            r.plan_json()
        )
    };
    let json = format!(
        "\"transforms\":{},\"advisories\":{},\"baseline_metric\":{:.4},\
         \"auto_metric\":{:.4},\"plan\":{},\"diagnostics\":{}",
        r.transforms,
        r.diagnostics.len(),
        r.baseline_metric,
        r.auto_metric,
        r.plan_json(),
        lint::render_json(&r.diagnostics).trim_end()
    );
    Entry {
        name: name.to_string(),
        diagnostics: r.diagnostics,
        text,
        json,
    }
}

/// Loads the rate calibration for `--suggest`: the checked-in trajectory
/// when present (validated against the current schema), the nominal table
/// when the file is missing. Returns the table plus a human-readable
/// description of which calibration applies, or an error when the file
/// exists but cannot be trusted.
pub fn load_rates(path: &Path) -> Result<(spzip_compress::model::RateTable, String), String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let report = crate::codec_bench::BenchReport::from_json(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((
                report.rate_table(),
                format!("{} (measured kernel rates)", path.display()),
            ))
        }
        Err(_) => Ok((
            spzip_compress::model::RateTable::nominal(),
            format!("nominal ({} not found)", path.display()),
        )),
    }
}

/// The codec-selection pass over the inputs `args` names, priced with
/// `rates`: the batch, whose text report opens with the `calibration`
/// line, and its text trailer (advisories, plans and `A003`
/// suppressions). Advisories are not warnings, so only read and parse
/// failures fail the run.
fn suggest_batch(args: &CommonArgs, rates: &RateTable, calibration: &str) -> (Batch, String) {
    let mut batch = Batch::advisory("dcl-perf", format!("calibration: {calibration}\n"));
    let (mut advisories, mut plans, mut suppressed) = (0, 0, 0);
    batch.inputs(args, &mut |name, pipeline, schema| {
        let perf = PerfInput {
            rates: rates.clone(),
            ..PerfInput::new(pipeline)
        };
        let r = suggest(&SuggestInput { perf, schema });
        advisories += r.diagnostics.len();
        plans += usize::from(!r.plan.is_empty());
        suppressed += r
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::A003)
            .count();
        suggest_entry(name, r)
    });
    let trailer = format!(
        "checked {} pipeline(s): {advisories} advisory(ies), {plans} plan(s), {suppressed} suppressed",
        batch.counts().checked
    );
    (batch, trailer)
}

/// Runs the tool over parsed arguments; returns the process exit code.
pub fn run(args: &CommonArgs) -> i32 {
    if args.crosscheck {
        return crate::crosscheck::run_gate(args.format);
    }
    if args.auto_gate {
        return crate::crosscheck::run_auto_gate(args.format);
    }
    if args.suggest {
        let (rates, calibration) = match load_rates(&args.rates) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("dcl-perf: --suggest: {e}");
                return 2;
            }
        };
        let (batch, trailer) = suggest_batch(args, &rates, &calibration);
        return batch.finish(args, SUGGEST_USAGE, &trailer);
    }
    let mut batch = Batch::new("dcl-perf");
    batch.inputs(args, &mut |name, p, _| {
        perf_entry(name, analyze(&PerfInput::new(p)))
    });
    // The trailer is dcl-lint's, so batch consumers parse one format.
    batch.finish(args, USAGE, &batch.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{tool_exit_code, OutputFormat};

    const TRAVERSAL: &str = "
        queue input 16
        queue offs 32
        queue rows 64
        range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
        range offs -> rows base=rows idx=8 elem=4 mode=consecutive marker=0 class=adj
    ";

    /// Analyzes one program text the way the tool analyzes a file.
    fn perf_text(name: &str, text: &str) -> Batch {
        let mut b = Batch::new("dcl-perf");
        b.program(name, text, &mut |n, p, _| {
            perf_entry(n, analyze(&PerfInput::new(p)))
        });
        b
    }

    fn args(argv: &[&str]) -> CommonArgs {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        crate::cli::parse_from(&argv, true, &[]).unwrap()
    }

    #[test]
    fn clean_file_reports_summary() {
        let r = perf_text("fig2", TRAVERSAL);
        let c = r.counts();
        assert_eq!((c.checked, c.errors, c.warnings), (1, 0, 0), "{}", r.text());
        assert!(r.text().contains("fig2: clean"), "{}", r.text());
        assert!(r.text().contains("dram-bandwidth bound"), "{}", r.text());
    }

    #[test]
    fn parse_failure_is_an_error() {
        let r = perf_text("broken", "queue a");
        assert_eq!(
            (r.counts().checked, r.counts().errors),
            (1, 1),
            "{}",
            r.text()
        );
        assert!(
            r.text().starts_with("broken: DCL parse error"),
            "{}",
            r.text()
        );
        assert_eq!(tool_exit_code(&r.counts(), false), 1);
    }

    #[test]
    fn builtins_analyze_p_clean() {
        let mut r = Batch::new("dcl-perf");
        r.inputs(&args(&["--all-builtin"]), &mut |n, p, _| {
            perf_entry(n, analyze(&PerfInput::new(p)))
        });
        assert!(r.counts().checked >= 40, "{}", r.counts().checked);
        assert_eq!(
            (r.counts().errors, r.counts().warnings),
            (0, 0),
            "{}",
            r.text()
        );
        assert_eq!(
            tool_exit_code(&r.counts(), true),
            0,
            "clean under --deny-warnings"
        );
    }

    #[test]
    fn json_report_shares_diagnostic_shape_with_lint() {
        let r = perf_text("fig2", TRAVERSAL);
        let json = r.render(OutputFormat::Json, "");
        assert!(json.contains("\"checked\":1"), "{json}");
        assert!(json.contains("\"binding\":\"dram-bandwidth\""), "{json}");
        assert!(json.contains("\"cycles_per_element\":"), "{json}");
        assert!(json.contains("\"diagnostics\":[]"), "{json}");

        // A pipeline with a P-finding embeds the same record fields
        // dcl-lint's JSON uses (code/severity/site/line/message/hint).
        let mut warny = Batch::new("dcl-perf");
        warny.program("tiny", TRAVERSAL, &mut |n, p, _| {
            let mut input = PerfInput::new(p);
            input.default_range_elems = 1.0;
            perf_entry(n, analyze(&input))
        });
        let wjson = warny.render(OutputFormat::Json, "");
        assert!(wjson.contains("\"code\":\"P003\""), "{wjson}");
        assert!(wjson.contains("\"severity\":\"warning\""), "{wjson}");
        assert!(wjson.contains("\"hint\":"), "{wjson}");
    }

    #[test]
    fn suggest_covers_every_builtin() {
        // The acceptance surface of `dcl-perf --suggest --all-builtin`:
        // all 72 builtins run through the pass, each gets a summary line,
        // advisories are reported, and nothing counts as a failure.
        let (r, trailer) = suggest_batch(
            &args(&["--suggest", "--all-builtin"]),
            &RateTable::nominal(),
            "nominal",
        );
        assert!(r.counts().checked >= 40, "{}", r.counts().checked);
        assert!(r.text().contains("  plan: ["), "{}", r.text());
        assert!(r.text().lines().count() >= r.counts().checked);
        assert!(
            !trailer.contains(" 0 advisory(ies)"),
            "enumeration should surface advisories: {trailer}"
        );
        assert!(!trailer.contains(" 0 plan(s)"), "{trailer}");
        assert_eq!(
            tool_exit_code(&r.counts(), true),
            0,
            "advisories never fail, even under --deny-warnings"
        );
    }

    #[test]
    fn suggest_json_shares_the_envelope() {
        let (name, p, schema) = spzip_apps::pipelines::all_builtin_checked().remove(0);
        let mut r = Batch::advisory("dcl-perf", String::new());
        r.push(suggest_entry(
            &name,
            suggest(&SuggestInput::with_schema(&p, &schema)),
        ));
        let json = r.render(OutputFormat::Json, "");
        assert!(json.contains("\"checked\":1"), "{json}");
        assert!(json.contains("\"warnings\":0"), "{json}");
        assert!(json.contains("\"transforms\":"), "{json}");
        assert!(json.contains("\"plan\":["), "{json}");
        assert!(json.contains("\"diagnostics\":["), "{json}");
    }

    #[test]
    fn load_rates_calibrates_or_falls_back() {
        use spzip_compress::CodecKind;
        // Missing file: nominal, stated as such.
        let (table, desc) = load_rates(Path::new("/nonexistent/traj.json")).unwrap();
        assert!(desc.starts_with("nominal"), "{desc}");
        for kind in CodecKind::all() {
            assert_eq!(table.decode_scale(kind), 1.0);
        }
        // The checked-in trajectory: parses, yields a non-nominal table
        // (software kernels genuinely differ in rate).
        let repo_traj = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_codecs.json");
        let (table, desc) = load_rates(&repo_traj).unwrap();
        assert!(desc.contains("measured"), "{desc}");
        assert!(
            CodecKind::all()
                .into_iter()
                .any(|k| table.decode_scale(k) < 1.0),
            "calibrated table should handicap the slower codecs"
        );
        // A malformed file is an error, not a silent fallback.
        let dir = std::env::temp_dir().join("spzip_suggest_rates_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"schema\":\"other/v1\"}").unwrap();
        assert!(load_rates(&bad).is_err());
    }

    #[test]
    fn perf_trailing_summary_matches_lint_wording() {
        // dcl-perf's batch trailer uses the same "checked N pipeline(s)"
        // shape as dcl-lint, after each pipeline's block.
        let r = perf_text("fig2", TRAVERSAL);
        let text = r.render(OutputFormat::Text, &r.summary());
        assert!(
            text.ends_with("\nchecked 1 pipeline(s): 0 error(s), 0 warning(s)\n"),
            "{text}"
        );
        assert!(text.starts_with("fig2: clean"), "{text}");
    }

    #[test]
    fn binding_labels_are_stable() {
        assert_eq!(
            binding_label(&BindingResource::DramBandwidth),
            "dram-bandwidth"
        );
        assert_eq!(
            binding_label(&BindingResource::OperatorService(3)),
            "operator-service(3)"
        );
        assert_eq!(
            binding_label(&BindingResource::QueueCapacity(2)),
            "queue-capacity(q2)"
        );
    }
}
