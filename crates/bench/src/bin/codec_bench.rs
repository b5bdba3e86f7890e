//! `codec-bench`: measures codec encode/decode throughput and maintains
//! the `BENCH_codecs.json` perf trajectory.
//!
//! ```text
//! codec-bench                              # measure, write BENCH_codecs.json
//! codec-bench --out results/codecs.json    # measure, write elsewhere
//! codec-bench --measure-ms 60 --check BENCH_codecs.json
//!                                          # CI gate: short windows, compare
//!                                          # speedups against the trajectory
//! codec-bench --format json --check BENCH_codecs.json
//!                                          # same gate, shared JSON envelope
//! ```
//!
//! In `--check` mode nothing is written: the tool re-measures with the
//! given window, validates the checked-in file's schema, and fails if any
//! codec's kernel-over-reference decode speedup regressed more than 20%
//! below the trajectory, or if the trajectory itself is below a codec's
//! speedup floor (≥10× for BPC, ≥5× for delta). Exits 0 on success, 1 on
//! a failed gate, 2 on a usage error or when a file cannot be read — the
//! `dcl-lint`/`dcl-perf` ladder, and `--format json` emits the same
//! envelope those tools share ([`spzip_bench::cli::trajectory_check`]).

use spzip_bench::cli::{self, trajectory_check, CommonArgs, OutputFormat};
use spzip_bench::codec_bench::{check_against, BenchReport, REQUIRED_CODECS};
use std::path::Path;

fn main() {
    std::process::exit(run(&cli::parse(false, &[])));
}

fn run(args: &CommonArgs) -> i32 {
    let measure_ms = args.measure_ms.unwrap_or(200);
    let json = args.format == OutputFormat::Json;
    if let Some(path) = &args.check {
        trajectory_check(
            "codec-bench",
            path,
            json,
            REQUIRED_CODECS.len(),
            BenchReport::from_json,
            |checked_in| {
                eprintln!("codec-bench: measuring ({measure_ms} ms/cell)...");
                check_against(&BenchReport::measure(measure_ms), checked_in)
            },
        )
    } else {
        eprintln!("codec-bench: measuring ({measure_ms} ms/cell)...");
        let report = BenchReport::measure(measure_ms);
        if let Err(errors) = report.validate() {
            for e in errors {
                eprintln!("codec-bench: FAIL: {e}");
            }
            return 1;
        }
        let out_path = args
            .out
            .as_deref()
            .unwrap_or(Path::new("BENCH_codecs.json"));
        if let Err(e) = std::fs::write(out_path, report.to_json()) {
            eprintln!("codec-bench: cannot write {}: {e}", out_path.display());
            return 2;
        }
        for codec in REQUIRED_CODECS {
            if let Some(s) = report.decode_speedup(codec) {
                println!("{codec}: decode speedup {s:.2}x over scalar reference");
            }
        }
        println!(
            "codec-bench: wrote {} ({} records)",
            out_path.display(),
            report.records.len()
        );
        0
    }
}
