//! Runs: repeated passes over a workload's cells, and the end-to-end and
//! per-layer metrics derived from them.

use crate::cell::{run_cell, CellResult};
use crate::host::{cpu_seconds, median, ratio};
use crate::probe::{probe_cell, ProbeTotals};
use crate::workload::{Inputs, Workload};
use spzip_apps::MachineSpec;
use spzip_graph::datasets::Scale;
use std::collections::BTreeMap;
use std::time::Instant;

/// One pass: set up the inputs, then run every cell once, in order.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the whole pass, set-up included.
    pub wall_s: f64,
    /// CPU seconds (user + system) of the whole pass.
    pub cpu_s: f64,
    /// Set-up seconds in input generation.
    pub gen_s: f64,
    /// Set-up seconds in id randomization and reordering.
    pub reorder_s: f64,
    /// Per-cell results, in cell order.
    pub cells: Vec<CellResult>,
}

impl Pass {
    /// Set-up seconds.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.reorder_s
    }

    /// Simulated retired events across the pass's cells.
    pub fn retired_events(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.report.as_ref())
            .map(|r| r.retired_events)
            .sum()
    }
}

/// What one run measures on.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig<'a> {
    /// The workload.
    pub workload: Workload,
    /// Seed passed to `reorder::randomize`.
    pub seed: u64,
    /// Input scale (`Bench` for measurements, `Tiny` for smoke tests).
    pub scale: Scale,
    /// Recorded `label -> digest` for this seed and scale, if any.
    pub digests: Option<&'a BTreeMap<String, String>>,
}

/// Runs one pass.
pub fn run_pass(rc: &RunConfig, traced: bool) -> Result<Pass, String> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let inputs = Inputs::build(rc.workload.cells, rc.scale, rc.seed);
    let cells = rc
        .workload
        .cells
        .iter()
        .map(|cell| {
            let label = cell.label();
            let expected = rc.digests.and_then(|d| d.get(&label)).map(String::as_str);
            run_cell(
                label,
                &cell.spec(rc.scale),
                inputs.get(cell),
                traced,
                expected,
            )
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        cpu_s: cpu_seconds()? - cpu0,
        gen_s: inputs.gen_s,
        reorder_s: inputs.reorder_s,
        cells,
    })
}

/// Calls `round` until another round as long as the last would end after
/// `seconds` (at least once). `round` returns its own duration.
fn repeat(seconds: f64, mut round: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let last = round()?;
        if start.elapsed().as_secs_f64() + last > seconds {
            return Ok(());
        }
    }
}

fn log_pass(p: &Pass, traced: bool) {
    eprintln!(
        "  {} pass: wall {:.3} s, cpu {:.2} s, setup {:.3} s",
        if traced { "traced" } else { "untraced" },
        p.wall_s,
        p.cpu_s,
        p.setup_s()
    );
    for c in p.cells.iter().filter(|c| c.failed()) {
        eprintln!("  FAILED {}: {}", c.label, c.failures.join("; "));
    }
}

/// One reported metric; `value` is `None` where a ratio is undefined.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, or `None` when undefined (zero denominator).
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The result of a run, as printed on the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cells run, over every pass.
    pub attempted: usize,
    /// Cells that failed, over every pass.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    fn new(passes: &[&Pass], metrics: Vec<Metric>) -> RunResult {
        let cells = || passes.iter().flat_map(|p| p.cells.iter());
        RunResult {
            attempted: cells().count(),
            failed: cells().filter(|c| c.failed()).count(),
            metrics,
        }
    }

    /// The value of metric `name`, if reported and defined.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name)?.value
    }

    /// The one-line JSON result. Undefined values print as 0, the value
    /// the zero-work numerator they come from has.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    m.value.unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Option<f64> {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The untraced run: passes for `seconds`, end-to-end metrics as medians
/// over passes. `peak_rss_mb` is read after the first pass: later passes
/// only add allocator fragmentation, which grows with the pass count.
pub fn untraced(rc: &RunConfig, seconds: f64) -> Result<RunResult, String> {
    let mut passes = Vec::new();
    let mut peak_rss_mb = None;
    repeat(seconds, || {
        let p = run_pass(rc, false)?;
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(crate::host::peak_rss_mb()?);
        }
        log_pass(&p, false);
        let last = p.wall_s;
        passes.push(p);
        Ok(last)
    })?;
    let metrics = vec![
        metric("wall_s", "s", median_of(&passes, |p| p.wall_s)),
        metric("setup_s", "s", median_of(&passes, Pass::setup_s)),
        metric("cpu_s", "s", median_of(&passes, |p| p.cpu_s)),
        metric(
            "sim_events_per_s",
            "1/s",
            median(
                &passes
                    .iter()
                    .filter_map(|p| ratio(p.retired_events() as f64, p.wall_s))
                    .collect::<Vec<_>>(),
            ),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    Ok(RunResult::new(&passes.iter().collect::<Vec<_>>(), metrics))
}

/// The traced run: untraced and traced passes alternate for `seconds`,
/// then the probes run. A traced cell whose `RunOutcome::to_kv` differs
/// from its untraced twin's fails. `trace.overhead` is a traced pass's
/// CPU time over the untraced passes' median.
pub fn traced(rc: &RunConfig, seconds: f64) -> Result<RunResult, String> {
    let mut untraced = Vec::new();
    let mut passes = Vec::new();
    repeat(seconds, || {
        let u = run_pass(rc, false)?;
        log_pass(&u, false);
        let mut t = run_pass(rc, true)?;
        for (tc, uc) in t.cells.iter_mut().zip(&u.cells) {
            if tc.outcome_kv != uc.outcome_kv {
                tc.failures
                    .push("traced outcome differs from the untraced run".into());
            }
        }
        log_pass(&t, true);
        let last = u.wall_s + t.wall_s;
        untraced.push(u);
        passes.push(t);
        Ok(last)
    })?;
    let untraced_cpu_s = median_of(&untraced, |p| p.cpu_s).unwrap_or(0.0);
    let inputs = Inputs::build(rc.workload.cells, rc.scale, rc.seed);
    let mut probes = ProbeTotals::default();
    for cell in rc.workload.cells {
        let p = probe_cell(&cell.spec(rc.scale), inputs.get(cell))
            .map_err(|e| format!("{}: probe: {e}", cell.label()))?;
        probes.add(&p);
    }
    let per_pass: Vec<Vec<Metric>> = passes
        .iter()
        .map(|p| layer_metrics(p, untraced_cpu_s, &probes))
        .collect();
    let metrics = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().filter_map(|ms| ms[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect();
    let all: Vec<&Pass> = untraced.iter().chain(&passes).collect();
    Ok(RunResult::new(&all, metrics))
}

/// Per-layer metrics of one traced pass, summed over its cells.
pub fn layer_metrics(p: &Pass, untraced_cpu_s: f64, probes: &ProbeTotals) -> Vec<Metric> {
    let cores = MachineSpec::paper_scaled().config.mem.cores as f64;
    let sum = |f: &dyn Fn(&CellResult) -> f64| p.cells.iter().map(f).sum::<f64>();
    let rep = |f: fn(&spzip_sim::RunReport) -> u64| {
        p.cells
            .iter()
            .filter_map(|c| c.report.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let simulate_s = sum(&|c| c.stages.simulate_s);
    let cycles = rep(|r| r.cycles);
    let events = rep(|r| r.retired_events);
    let llc_accesses = rep(|r| r.llc.hits + r.llc.misses);
    let pr = probes;
    vec![
        metric("graph.gen_s", "s", Some(p.gen_s)),
        metric("graph.reorder_s", "s", Some(p.reorder_s)),
        metric("apps.layout_s", "s", Some(sum(&|c| c.stages.layout_s))),
        metric("apps.simulate_s", "s", Some(simulate_s)),
        metric(
            "apps.simulate_ns_per_event",
            "ns",
            ratio(simulate_s * 1e9, events),
        ),
        metric(
            "apps.simulate_us_per_kcycle",
            "us",
            ratio(simulate_s * 1e6, cycles / 1e3),
        ),
        metric("apps.validate_s", "s", Some(sum(&|c| c.stages.validate_s))),
        metric("sim.cycles", "count", Some(cycles)),
        metric("sim.retired_events", "count", Some(events)),
        metric(
            "sim.core_stall_share",
            "ratio",
            ratio(rep(|r| r.core_stall_cycles), cycles * cores),
        ),
        metric(
            "core.engine.fetcher_fired",
            "count",
            Some(rep(|r| r.fetcher_fired)),
        ),
        metric(
            "core.engine.compressor_fired",
            "count",
            Some(rep(|r| r.compressor_fired)),
        ),
        metric(
            "core.engine.probe_cycles",
            "count",
            Some(pr.engine_cycles as f64),
        ),
        metric(
            "core.engine_ns_per_cycle",
            "ns",
            ratio(pr.engine_s * 1e9, pr.engine_cycles as f64),
        ),
        metric(
            "core.engine_ns_per_firing",
            "ns",
            ratio(pr.engine_s * 1e9, pr.func_firings as f64),
        ),
        metric("core.func_s", "s", Some(pr.func_s)),
        metric("core.func.firings", "count", Some(pr.func_firings as f64)),
        metric(
            "core.func_ns_per_firing",
            "ns",
            ratio(pr.func_s * 1e9, pr.func_firings as f64),
        ),
        metric("mem.llc_accesses", "count", Some(llc_accesses)),
        metric(
            "mem.llc_miss_ratio",
            "ratio",
            ratio(rep(|r| r.llc.misses), llc_accesses),
        ),
        metric(
            "mem.dram_bytes",
            "B",
            Some(rep(|r| r.traffic.total_bytes())),
        ),
        metric("mem.probe_accesses", "count", Some(pr.mem_accesses as f64)),
        metric(
            "mem.access_ns",
            "ns",
            ratio(pr.mem_s * 1e9, pr.mem_accesses as f64),
        ),
        metric("trace.overhead", "ratio", ratio(p.cpu_s, untraced_cpu_s)),
    ]
}
