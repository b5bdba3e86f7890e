//! `perfbench`: host-time benchmark of the simulator.
//!
//! ```text
//! perfbench --workload push-sw [--seed N] [--seconds S] [--trace 0|1]
//!     # measure; the last stdout line is the JSON result
//! perfbench --check BENCHMARK.json --workload push-sw [--format json]
//!     # measure for BENCHMARK.json's run_seconds, then compare the
//!     # end-to-end medians against record.json's baseline within
//!     # BENCHMARK.json's bounds (exit 0 pass, 1 regression or failed
//!     # cells, 2 unreadable BENCHMARK.json)
//! perfbench --digests [--seed N]
//!     # print every cell's RunReport digest, for updating record.json
//! ```
//!
//! `--seed` defaults to the harness's `RANDOMIZE_SEED`, so default-seed
//! cells are the ones `bench_all` simulates.

use spzip_bench::cli::{tool_exit_code, trajectory_json, ToolCounts};
use spzip_graph::datasets::Scale;
use spzip_perfbench::host::digest;
use spzip_perfbench::measure::{self, run_pass, RunConfig, RunResult};
use spzip_perfbench::spec::{BenchSpec, Record};
use spzip_perfbench::workload::{self, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: Option<String>,
    json: bool,
    digests: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spzip_bench::RANDOMIZE_SEED,
        seconds: 10.0,
        trace: false,
        check: None,
        json: false,
        digests: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--digests" {
            a.digests = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.to_string()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(bad)?
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--check" => a.check = Some(value.to_string()),
            "--format" => {
                a.json = match value {
                    "json" => true,
                    "text" => false,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let record = match Record::builtin() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: record.json: {e}");
            return 2;
        }
    };
    if args.digests {
        return print_digests(args.seed);
    }
    let Some(wl) = args.workload.as_deref().and_then(workload::by_name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return 2;
    };
    let rc = RunConfig {
        workload: wl,
        seed: args.seed,
        scale: Scale::Bench,
        digests: record.digests.get(&args.seed),
    };
    if let Some(path) = &args.check {
        return check(path, &rc, &record, args.json);
    }
    eprintln!(
        "perfbench: {} seed {} ({} cells, {} s{})",
        wl.name,
        args.seed,
        wl.cells.len(),
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let result = if args.trace {
        measure::traced(&rc, args.seconds)
    } else {
        measure::untraced(&rc, args.seconds)
    };
    match result {
        Ok(r) => {
            for m in r.metrics.iter().filter(|m| m.value.is_none()) {
                eprintln!("  {} is undefined (zero denominator); printed as 0", m.name);
            }
            println!("{}", r.to_json());
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn print_digests(seed: u64) -> i32 {
    let mut lines = Vec::new();
    for wl in WORKLOADS {
        let rc = RunConfig {
            workload: wl,
            seed,
            scale: Scale::Bench,
            digests: None,
        };
        let pass = match run_pass(&rc, false) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return 1;
            }
        };
        for c in pass.cells {
            let Some(report) = c.report.filter(|_| c.failures.is_empty()) else {
                eprintln!("perfbench: {} failed: {}", c.label, c.failures.join("; "));
                return 1;
            };
            lines.push(format!("\"{}\": \"{}\"", c.label, digest(&report.to_kv())));
        }
    }
    println!("\"{seed}\": {{\n  {}\n}}", lines.join(",\n  "));
    0
}

/// `--check`: measures the workload and compares each end-to-end median
/// against the recorded baseline, allowing `BENCHMARK.json`'s bound.
fn check(path: &str, rc: &RunConfig, record: &Record, json: bool) -> i32 {
    let gate = "perfbench";
    let mut counts = ToolCounts::default();
    let emit = |counts: &ToolCounts,
                summary: &[String],
                errors: &[String],
                failures: &[(String, String)]| {
        if json {
            print!(
                "{}",
                trajectory_json(gate, counts, summary, errors, failures)
            );
            return;
        }
        for line in summary {
            println!("{line}");
        }
        for e in errors {
            eprintln!("{gate}: FAIL: {e}");
        }
        for (name, e) in failures {
            eprintln!("{gate}: {name}: {e}");
        }
        if errors.is_empty() && failures.is_empty() {
            println!("{gate}: check passed");
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            counts.io_errors = 1;
            emit(
                &counts,
                &[],
                &[],
                &[(path.to_string(), format!("cannot read: {e}"))],
            );
            return tool_exit_code(&counts, false);
        }
    };
    let spec = match BenchSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            counts.errors = 1;
            emit(
                &counts,
                &[],
                &[],
                &[(path.to_string(), format!("invalid: {e}"))],
            );
            return tool_exit_code(&counts, false);
        }
    };
    let name = rc.workload.name;
    let Some(baseline) = record.baseline.get(name) else {
        counts.errors = 1;
        let msg = format!("no baseline recorded for workload {name}");
        emit(&counts, &[], &[], &[("record.json".into(), msg)]);
        return tool_exit_code(&counts, false);
    };
    let fresh: RunResult = match measure::untraced(rc, spec.run_seconds as f64) {
        Ok(r) => r,
        Err(e) => {
            counts.io_errors = 1;
            emit(&counts, &[], &[], &[(name.to_string(), e)]);
            return tool_exit_code(&counts, false);
        }
    };
    let (summary, errors) = compare(name, &spec, baseline, &fresh);
    counts.checked = spec.end_to_end.len();
    counts.errors = errors.len();
    emit(&counts, &summary, &errors, &[]);
    tool_exit_code(&counts, false)
}

/// Compares `fresh` against `baseline` metric by metric; returns summary
/// lines and gate errors.
fn compare(
    name: &str,
    spec: &BenchSpec,
    baseline: &std::collections::BTreeMap<String, f64>,
    fresh: &RunResult,
) -> (Vec<String>, Vec<String>) {
    let mut summary = Vec::new();
    let mut errors = Vec::new();
    if fresh.failed > 0 {
        errors.push(format!(
            "{name}: {} of {} cells failed",
            fresh.failed, fresh.attempted
        ));
    }
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or(0.0);
        let (Some(base), Some(now)) = (baseline.get(&m.name), fresh.value(&m.name)) else {
            errors.push(format!(
                "{name} {}: missing baseline or fresh value",
                m.name
            ));
            continue;
        };
        let worse = if m.lower_is_better {
            (now - base) / base
        } else {
            (base - now) / base
        };
        summary.push(format!(
            "{name} {}: {now:.4} {} vs baseline {base:.4} ({:+.1}% worse, bound {:.0}%)",
            m.name,
            m.unit,
            worse * 100.0,
            bound * 100.0
        ));
        if worse > bound {
            errors.push(format!(
                "{name} {} worsened {:.1}% past its {:.0}% bound",
                m.name,
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    (summary, errors)
}
