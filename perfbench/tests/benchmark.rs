//! Tests of the benchmark's own code: guarded ratios, digests, the
//! readers of `BENCHMARK.json` and `record.json`, failure accounting, and
//! a tiny-scale smoke run of every workload, untraced and traced.

use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_graph::datasets::Scale;
use spzip_graph::reorder::Preprocessing;
use spzip_perfbench::cell::run_cell;
use spzip_perfbench::host::{digest, ratio};
use spzip_perfbench::json::Json;
use spzip_perfbench::measure::{self, layer_metrics, Pass, RunConfig};
use spzip_perfbench::probe::ProbeTotals;
use spzip_perfbench::spec::{BenchSpec, Record};
use spzip_perfbench::workload::{Inputs, WORKLOADS};
use std::sync::Arc;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const RECORD_JSON: &str = include_str!("../record.json");

/// The seed `record.json` holds digests for besides the default one.
const HELD_OUT_SEED: u64 = 7;

fn spec() -> BenchSpec {
    BenchSpec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn tiny(workload: usize) -> RunConfig<'static> {
    RunConfig {
        workload: WORKLOADS[workload],
        seed: spzip_bench::RANDOMIZE_SEED,
        scale: Scale::Tiny,
        digests: None,
    }
}

fn tiny_spec() -> RunSpec {
    RunSpec::new(
        AppName::Dc,
        "arb",
        Scheme::Push.config(),
        Preprocessing::None,
        Scale::Tiny,
    )
}

fn tiny_input() -> Arc<spzip_graph::Csr> {
    let cells = [spzip_perfbench::workload::Cell {
        app: AppName::Dc,
        input: "arb",
        prep: Preprocessing::None,
        scheme: Scheme::Push,
    }];
    Inputs::build(&cells, Scale::Tiny, 1).get(&cells[0]).clone()
}

#[test]
fn zero_denominators_give_an_undefined_ratio() {
    assert_eq!(ratio(1.0, 0.0), None);
    assert_eq!(ratio(0.0, 0.0), None);
    assert_eq!(ratio(f64::NAN, 1.0), None);
    assert_eq!(ratio(3.0, 2.0), Some(1.5));

    // A pass with no cells and probes that saw no work: every ratio is
    // undefined, nothing panics, and the printed result is valid JSON.
    let empty = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        gen_s: 0.0,
        reorder_s: 0.0,
        cells: Vec::new(),
    };
    let metrics = layer_metrics(&empty, 0.0, &ProbeTotals::default());
    for name in [
        "apps.simulate_ns_per_event",
        "apps.simulate_us_per_kcycle",
        "sim.core_stall_share",
        "core.engine_ns_per_cycle",
        "core.engine_ns_per_firing",
        "core.func_ns_per_firing",
        "mem.llc_miss_ratio",
        "mem.access_ns",
        "trace.overhead",
    ] {
        let m = metrics.iter().find(|m| m.name == name).expect(name);
        assert_eq!(m.value, None, "{name}");
    }
    let result = measure::RunResult {
        attempted: 1,
        failed: 0,
        metrics,
    };
    let json = Json::parse(&result.to_json()).expect("result is JSON");
    let v = json.get("metrics").and_then(|m| m.get("mem.access_ns"));
    assert_eq!(
        v.and_then(|v| v.get("value")).and_then(Json::as_f64),
        Some(0.0)
    );
}

#[test]
fn digests_are_stable() {
    // FNV-1a 64 reference values.
    assert_eq!(digest(""), "cbf29ce484222325");
    assert_eq!(digest("a"), "af63dc4c8601ec8c");
    let g = tiny_input();
    let a = run_cell("a".into(), &tiny_spec(), &g, false, None);
    let b = run_cell("b".into(), &tiny_spec(), &g, false, None);
    let (ra, rb) = (a.report.unwrap().to_kv(), b.report.unwrap().to_kv());
    assert_eq!(digest(&ra), digest(&rb));
    let back = spzip_sim::RunReport::from_kv(&ra).unwrap();
    assert_eq!(
        digest(&back.to_kv()),
        digest(&ra),
        "kv round trip keeps the digest"
    );
}

#[test]
fn failures_are_counted_not_propagated() {
    let g = tiny_input();
    let ok = run_cell("ok".into(), &tiny_spec(), &g, false, None);
    assert!(!ok.failed(), "{:?}", ok.failures);

    let wrong = run_cell(
        "d".into(),
        &tiny_spec(),
        &g,
        false,
        Some("0000000000000000"),
    );
    assert!(wrong.failures.iter().any(|f| f.contains("digest")));

    let mut too_many_cores = tiny_spec();
    too_many_cores.machine.config.mem.cores = 64;
    let panicked = run_cell("p".into(), &too_many_cores, &g, true, None);
    assert!(
        panicked.failures[0].starts_with("panicked"),
        "{:?}",
        panicked.failures
    );
    assert!(panicked.report.is_none());

    let mut wedge = tiny_spec();
    wedge.machine.config.deadlock_cycles = 0;
    let wedged = run_cell("w".into(), &wedge, &g, false, None);
    assert!(
        wedged.failures.iter().any(|f| f.starts_with("wedged")),
        "{:?}",
        wedged.failures
    );
}

#[test]
fn benchmark_json_matches_the_workloads() {
    let s = spec();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(s.workloads, names);
    let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    let largest = s
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

#[test]
fn truncated_or_malformed_benchmark_json_is_rejected() {
    for end in (0..BENCHMARK_JSON.trim_end().len()).filter(|&i| BENCHMARK_JSON.is_char_boundary(i))
    {
        assert!(
            BenchSpec::parse(&BENCHMARK_JSON[..end]).is_err(),
            "prefix of {end} bytes accepted"
        );
    }
    // Single-byte corruptions may or may not stay valid JSON; none may
    // panic.
    let bytes = BENCHMARK_JSON.as_bytes();
    for i in (0..bytes.len()).step_by(3) {
        for b in [b'}', b'"', b'#', b'9'] {
            let mut c = bytes.to_vec();
            c[i] = b;
            if let Ok(text) = std::str::from_utf8(&c) {
                let _ = BenchSpec::parse(text);
            }
        }
    }
    for (from, to) in [
        ("\"bound\": 0.2}", "\"bound\": 0.3}"),
        ("\"better\": \"lower\"", "\"better\": \"sideways\""),
        ("\"run_seconds\"", "\"run_secs\""),
        ("\"name\": \"cpu_s\"", "\"name\": \"wall_s\""),
        ("\"unit\": \"s\"", "\"unit\": 5"),
    ] {
        assert!(BENCHMARK_JSON.contains(from), "{from}");
        let bad = BENCHMARK_JSON.replacen(from, to, 1);
        assert!(BenchSpec::parse(&bad).is_err(), "{to} accepted");
    }
    let huge = format!("{}{}", BENCHMARK_JSON, " ".repeat(64 * 1024));
    assert!(BenchSpec::parse(&huge).is_err(), "oversized file accepted");
}

#[test]
fn record_covers_every_cell_and_metric() {
    let record = Record::parse(RECORD_JSON).expect("record.json parses");
    assert_eq!(Record::builtin(), Ok(record.clone()));
    for seed in [spzip_bench::RANDOMIZE_SEED, HELD_OUT_SEED] {
        for w in WORKLOADS {
            for c in w.cells {
                assert!(
                    record.digest(seed, &c.label()).is_some(),
                    "no digest for {} at seed {seed}",
                    c.label()
                );
            }
        }
    }
    for w in spec().workloads {
        let base = record.baseline.get(&w).expect("baseline per workload");
        for m in spec().end_to_end {
            assert!(base.contains_key(&m.name), "{w}: no baseline {}", m.name);
        }
    }
    // Each layer metric names the end-to-end metric it should move.
    let root = Json::parse(RECORD_JSON).unwrap();
    for m in spec().per_layer {
        let moves = root.get("moves").and_then(|v| v.get(&m.name));
        assert!(
            moves.and_then(Json::as_str).is_some(),
            "no moves entry for {}",
            m.name
        );
    }
    for end in (0..RECORD_JSON.trim_end().len()).step_by(5) {
        assert!(Record::parse(&RECORD_JSON[..end]).is_err(), "prefix {end}");
    }
    assert!(Record::parse(r#"{"digests":{"x":{}},"baseline":{}}"#).is_err());
    assert!(Record::parse(r#"{"digests":{"1":{"c":"zz"}},"baseline":{}}"#).is_err());
    assert!(Record::parse(r#"{"digests":{},"baseline":{"w":{"wall_s":-1}}}"#).is_err());
}

#[test]
fn default_seed_inputs_match_the_harness() {
    for w in WORKLOADS {
        let inputs = Inputs::build(w.cells, Scale::Tiny, spzip_bench::RANDOMIZE_SEED);
        for c in w.cells {
            let harness = spzip_bench::driver::build_input(c.input, c.prep, Scale::Tiny);
            assert_eq!(**inputs.get(c), harness, "{}", c.label());
        }
    }
}

#[test]
fn every_workload_passes_a_tiny_smoke_run() {
    let s = spec();
    let e2e: Vec<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let layers: Vec<&str> = s.per_layer.iter().map(|m| m.name.as_str()).collect();
    for i in 0..WORKLOADS.len() {
        let rc = tiny(i);
        let cells = rc.workload.cells.len();

        let u = measure::untraced(&rc, 1e-3).expect("untraced run");
        assert_eq!((u.attempted, u.failed), (cells, 0), "{}", rc.workload.name);
        let names: Vec<&str> = u.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, e2e);
        assert!(u.metrics.iter().all(|m| m.value.is_some()));
        assert!(u.value("wall_s").unwrap() > 0.0);

        // The traced passes reproduce the untraced outcomes byte for byte
        // (a mismatch would count as a failed cell).
        let t = measure::traced(&rc, 1e-3).expect("traced run");
        assert_eq!(
            (t.attempted, t.failed),
            (2 * cells, 0),
            "{}",
            rc.workload.name
        );
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, layers);
        let spzip = rc.workload.name != "push-sw";
        assert_eq!(t.value("core.func.firings").unwrap() > 0.0, spzip);
        assert!(t.value("mem.access_ns").is_some());
    }
}
