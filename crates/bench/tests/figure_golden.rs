//! Golden figure text: every output of `figures::all_outputs()` rendered
//! at `Scale::Tiny`, exactly as `bench_all --scale tiny` writes it to
//! `<out-dir>/<name>.txt`. The renderers are deterministic and their
//! bytes do not depend on the worker count, so a change that claims to
//! produce the same figures must pass this test with the golden unedited.
//!
//! The tiny sweep simulates a few hundred cells, which is release-build
//! work; under a debug test run the module compiles but the test is
//! skipped.
//!
//! Regenerate the golden after an intentional figure change with
//! `BLESS=1 cargo test --release -p spzip-bench --test figure_golden`.

#![cfg(not(debug_assertions))]

use spzip_bench::driver::{Driver, DriverOptions};
use spzip_bench::figures::{all_outputs, SweepOpts};
use spzip_graph::datasets::Scale;
use std::path::Path;

#[test]
fn every_figure_matches_the_golden() {
    let outputs = all_outputs();
    let sweeps: Vec<SweepOpts> = outputs
        .iter()
        .map(|o| SweepOpts::new(Scale::Tiny, o.preprocess))
        .collect();
    let cells: Vec<_> = outputs
        .iter()
        .zip(&sweeps)
        .flat_map(|(o, sweep)| (o.cells)(sweep))
        .collect();
    let memo = Driver::new(DriverOptions::in_memory()).execute(&cells);

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let bless = std::env::var_os("BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut drifted = Vec::new();
    for (o, sweep) in outputs.iter().zip(&sweeps) {
        let actual = (o.render)(sweep, &memo);
        let path = dir.join(format!("{}.txt", o.name));
        if bless {
            std::fs::write(&path, &actual).expect("write golden");
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: golden file missing: {e}", path.display()));
        if actual == expected {
            continue;
        }
        let mut got = actual.lines();
        let mut want = expected.lines();
        for line in 1.. {
            match (got.next(), want.next()) {
                (g, w) if g == w && g.is_some() => continue,
                (g, w) => {
                    eprintln!(
                        "{}: first difference at line {line}\n  got:    {}\n  golden: {}",
                        o.name,
                        g.unwrap_or("(end of output)"),
                        w.unwrap_or("(end of golden)")
                    );
                    break;
                }
            }
        }
        drifted.push(o.name);
    }
    assert!(
        drifted.is_empty(),
        "figure text drifted from the golden in {drifted:?}; rerun with BLESS=1 if intentional"
    );
}
