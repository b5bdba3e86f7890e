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
//! a failed gate, 2 when a file cannot be read — the `dcl-lint`/`dcl-perf`
//! ladder, and `--format json` emits the same envelope those tools share
//! ([`spzip_bench::cli::trajectory_check`]).

use spzip_bench::cli::trajectory_check;
use spzip_bench::codec_bench::{check_against, BenchReport, REQUIRED_CODECS};

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut measure_ms = 200u64;
    let mut out_path = String::from("BENCH_codecs.json");
    let mut check_path: Option<String> = None;
    let mut json = false;
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
            other => {
                eprintln!("codec-bench: ignoring unknown flag {other:?}");
            }
        }
        i += 1;
    }

    if let Some(path) = check_path {
        trajectory_check(
            "codec-bench",
            &path,
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
        if let Err(e) = std::fs::write(&out_path, report.to_json()) {
            eprintln!("codec-bench: cannot write {out_path}: {e}");
            return 2;
        }
        for codec in REQUIRED_CODECS {
            if let Some(s) = report.decode_speedup(codec) {
                println!("{codec}: decode speedup {s:.2}x over scalar reference");
            }
        }
        println!(
            "codec-bench: wrote {out_path} ({} records)",
            report.records.len()
        );
        0
    }
}
