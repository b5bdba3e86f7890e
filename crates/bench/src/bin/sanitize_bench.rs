//! `sanitize-bench`: measures the compressed-trace sanitizer (footprint,
//! memoization, analysis wall-clock) over the builtin app x scheme cells
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
//! sanitize-bench --perturb-ratio 0.4 --check BENCH_sanitize.json
//!                                            # sanity check that the gate fires
//! ```
//!
//! Requires a binary built with `--features sanitize` (exit 2 otherwise —
//! the machinery is absent, not a verdict). Exit codes follow the shared
//! ladder: 0 pass, 1 failed gate, 2 unreadable input; `--format json`
//! emits the envelope `dcl-lint`/`dcl-perf`/`codec-bench` share
//! ([`spzip_bench::cli::trajectory_check`]).

use spzip_bench::cli::trajectory_check;
use spzip_bench::sanitize_bench::{check_against, SanitizeBenchReport, BUILTIN_CELLS};

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

#[cfg(feature = "sanitize")]
fn measure(measure_ms: u64) -> SanitizeBenchReport {
    spzip_bench::sanitize_bench::measure(measure_ms)
}

#[cfg(not(feature = "sanitize"))]
fn measure(_measure_ms: u64) -> SanitizeBenchReport {
    unreachable!("callers gate on sanitize_supported()")
}

fn run(args: &[String]) -> i32 {
    let mut measure_ms = 20u64;
    let mut out_path = String::from("BENCH_sanitize.json");
    let mut check_path: Option<String> = None;
    let mut json = false;
    let mut perturb_ratio: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--measure-ms" => {
                if let Some(ms) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    measure_ms = ms.max(1);
                }
                i += 1;
            }
            "--out" => {
                if let Some(p) = args.get(i + 1) {
                    out_path = p.clone();
                }
                i += 1;
            }
            "--check" => {
                if let Some(p) = args.get(i + 1) {
                    check_path = Some(p.clone());
                }
                i += 1;
            }
            "--format" => {
                json = args.get(i + 1).map(String::as_str) == Some("json");
                i += 1;
            }
            "--perturb-ratio" => {
                perturb_ratio = args.get(i + 1).and_then(|s| s.parse::<f64>().ok());
                i += 1;
            }
            other => {
                eprintln!("sanitize-bench: ignoring unknown flag {other:?}");
            }
        }
        i += 1;
    }

    if !spzip_bench::sanitize_supported() {
        eprintln!(
            "sanitize-bench: this binary was built without the SimSanitizer; \
             rebuild with --features sanitize"
        );
        return 2;
    }

    if let Some(path) = check_path {
        trajectory_check(
            "sanitize-bench",
            &path,
            json,
            BUILTIN_CELLS.len(),
            SanitizeBenchReport::from_json,
            |checked_in| {
                eprintln!("sanitize-bench: measuring ({measure_ms} ms analysis window/cell)...");
                let mut fresh = measure(measure_ms);
                if let Some(p) = perturb_ratio {
                    // Deliberately mis-scale the fresh footprint wins so CI
                    // can prove the gate still fires on a regression.
                    eprintln!("sanitize-bench: perturbing fresh ratios by {p} (gate sanity check)");
                    for cell in &mut fresh.records {
                        cell.ratio *= p;
                        cell.residency_ratio *= p;
                    }
                }
                check_against(&fresh, checked_in)
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
        if let Err(e) = std::fs::write(&out_path, report.to_json()) {
            eprintln!("sanitize-bench: cannot write {out_path}: {e}");
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
            "sanitize-bench: wrote {out_path} ({} records)",
            report.records.len()
        );
        0
    }
}
