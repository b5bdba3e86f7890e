//! `sanitize-bench`: measures the compressed-trace sanitizer (footprint,
//! chunk count, analysis wall-clock) over the builtin app x scheme cells
//! and maintains the `BENCH_sanitize.json` trajectory.
//!
//! ```text
//! sanitize-bench                             # measure, write BENCH_sanitize.json
//! sanitize-bench --out results/san.json      # measure, write elsewhere
//! sanitize-bench --measure-ms 20 --check BENCH_sanitize.json
//!                                            # CI gate: compression ratios may
//!                                            # not regress >20% below the
//!                                            # trajectory, and the largest cell
//!                                            # must keep its ≥4x residency win
//! sanitize-bench --format json --check BENCH_sanitize.json
//!                                            # same gate, shared JSON envelope
//! ```
//!
//! Exit codes follow the shared ladder: 0 pass, 1 failed gate, 2
//! unreadable input or usage error; `--format json` emits the envelope
//! `dcl-lint`/`dcl-perf`/`codec-bench` share
//! ([`spzip_bench::cli::trajectory_check`]).

use spzip_bench::cli::{self, trajectory_check, CommonArgs, OutputFormat};
use spzip_bench::sanitize_bench::{check_against, measure, SanitizeBenchReport, BUILTIN_CELLS};
use std::path::Path;

fn main() {
    std::process::exit(run(&cli::parse(false, &[])));
}

fn run(args: &CommonArgs) -> i32 {
    let measure_ms = args.measure_ms.unwrap_or(20);
    let json = args.format == OutputFormat::Json;
    if let Some(path) = &args.check {
        trajectory_check(
            "sanitize-bench",
            path,
            json,
            BUILTIN_CELLS.len(),
            SanitizeBenchReport::from_json,
            |checked_in| {
                eprintln!("sanitize-bench: measuring ({measure_ms} ms analysis window/cell)...");
                check_against(&measure(measure_ms), checked_in)
            },
        )
    } else {
        eprintln!("sanitize-bench: measuring ({measure_ms} ms analysis window/cell)...");
        let report = measure(measure_ms);
        if let Err(errors) = report.validate() {
            for e in errors {
                eprintln!("sanitize-bench: FAIL: {e}");
            }
            return 1;
        }
        let out_path = args
            .out
            .as_deref()
            .unwrap_or(Path::new("BENCH_sanitize.json"));
        if let Err(e) = std::fs::write(out_path, report.to_json()) {
            eprintln!("sanitize-bench: cannot write {}: {e}", out_path.display());
            return 2;
        }
        for cell in &report.records {
            println!(
                "{}/{}: {} events, ratio {:.2}x, residency {:.2}x, analyze {:.2} ms",
                cell.app,
                cell.scheme,
                cell.events,
                cell.ratio,
                cell.residency_ratio,
                cell.analyze_ms
            );
        }
        println!(
            "sanitize-bench: wrote {} ({} records)",
            out_path.display(),
            report.records.len()
        );
        0
    }
}
