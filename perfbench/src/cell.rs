//! Running one cell, untraced through its public entry point
//! (`RunSpec::run`) or traced stage by stage, with failure accounting.

use spzip_apps::alg::results_match;
use spzip_apps::layout::Workload;
use spzip_apps::run::reference_run;
use spzip_apps::runtime;
use spzip_apps::scheme::{SchemeConfig, Strategy};
use spzip_apps::{RunOutcome, RunSpec};
use spzip_graph::Csr;
use spzip_sim::{Machine, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Host seconds a traced cell spent in each stage of `run_app_full`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stages {
    /// `Workload::build` of the simulated workload.
    pub layout_s: f64,
    /// `runtime::run_algorithm` plus `Machine::finish`.
    pub simulate_s: f64,
    /// The reference workload's build, `reference_run` and
    /// `results_match`.
    pub validate_s: f64,
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// The simulated report, unless the cell panicked.
    pub report: Option<RunReport>,
    /// `RunOutcome::to_kv` of the outcome, unless the cell panicked.
    pub outcome_kv: Option<String>,
    /// Why the cell counts as failed; empty when it passed.
    pub failures: Vec<String>,
    /// Stage times (traced runs only; zero otherwise).
    pub stages: Stages,
}

impl CellResult {
    /// Whether the cell counts toward `failed`.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Runs `spec` on `g`, traced or not, and classifies the outcome: a
/// panic, a wedged machine, a failed validation, or — when `expected` is
/// given — a `RunReport::to_kv` digest other than the recorded one each
/// make the cell fail.
pub fn run_cell(
    label: String,
    spec: &RunSpec,
    g: &Arc<Csr>,
    traced: bool,
    expected: Option<&str>,
) -> CellResult {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            run_stages(spec, g)
        } else {
            (spec.run(g), Stages::default())
        }
    }));
    let (out, stages) = match ran {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            return CellResult {
                label,
                report: None,
                outcome_kv: None,
                failures: vec![format!("panicked: {msg}")],
                stages: Stages::default(),
            };
        }
    };
    let mut failures = Vec::new();
    if let Some(d) = &out.deadlock {
        failures.push(format!("wedged at cycle {}", d.at_cycle));
    }
    if !out.validated {
        failures.push("failed validation against the reference run".into());
    }
    if let Some(want) = expected {
        let got = crate::host::digest(&out.report.to_kv());
        if got != want {
            failures.push(format!("report digest {got} differs from recorded {want}"));
        }
    }
    CellResult {
        label,
        outcome_kv: Some(out.to_kv(&spec.fingerprint())),
        report: Some(out.report),
        failures,
        stages,
    }
}

/// `run_app_full` called stage by stage, timing each stage from outside.
/// Produces the same `RunOutcome` as `RunSpec::run`.
///
/// # Panics
///
/// Panics on a compressed-memory-hierarchy cell, whose extra profiling
/// run this benchmark does not trace (no workload uses one).
fn run_stages(spec: &RunSpec, g: &Arc<Csr>) -> (RunOutcome, Stages) {
    assert!(
        !spec.machine.cmh,
        "traced runs do not cover the CMH baseline"
    );
    let mcfg = spec.machine.config;
    let cfg = &spec.scheme;
    let mut stages = Stages::default();
    let mut machine = Machine::new(mcfg);
    if let Some(bytes) = spec.machine.fetcher_scratchpad {
        machine.set_fetcher_scratchpad(bytes);
    }
    let mut alg = spec.app.build();
    let all_active = alg.all_active();

    let t = Instant::now();
    let mut w = Workload::build(
        g.clone(),
        cfg,
        mcfg.mem.cores,
        mcfg.mem.llc.size_bytes,
        all_active,
    );
    stages.layout_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let stats = runtime::run_algorithm(&mut machine, &mut w, alg.as_mut(), cfg);
    stages.simulate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let result = alg.result(&w);
    let mut ref_alg = spec.app.build();
    let mut ref_w = Workload::build(
        g.clone(),
        &SchemeConfig::software(Strategy::Push),
        mcfg.mem.cores,
        mcfg.mem.llc.size_bytes,
        all_active,
    );
    let reference = reference_run(ref_alg.as_mut(), &mut ref_w);
    let validated = results_match(alg.as_ref(), &result, &reference);
    stages.validate_s = t.elapsed().as_secs_f64();

    let adjacency_ratio = w.cadj.as_ref().map(|c| c.ratio);
    let deadlock = machine.take_deadlock();
    let t = Instant::now();
    let report = machine.finish();
    stages.simulate_s += t.elapsed().as_secs_f64();
    (
        RunOutcome {
            report,
            stats,
            validated,
            adjacency_ratio,
            deadlock,
        },
        stages,
    )
}
