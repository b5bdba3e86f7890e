//! Model-vs-simulator cross-check gate (`dcl-perf --crosscheck`).
//!
//! The static performance model ([`spzip_apps::perf`]) predicts absolute
//! per-class DRAM traffic for an app × scheme cell. This module holds the
//! model to account: it simulates a fixed matrix of built-in cells and
//! compares the predictions against the machine's measured
//! [`TrafficStats`](spzip_mem::stats::TrafficStats), class by class, against
//! documented relative-error tolerances (see EXPERIMENTS.md).
//!
//! The matrix is {PR, DC, SP} × {Push, Push+SpZip, UB+SpZip, PHI+SpZip}:
//! twelve cells spanning software streaming, compressed-adjacency
//! fetching, and compressed update binning, on two graph shapes (a
//! power-law community graph and a 27-point stencil matrix). A cell
//! *fails* when any checked class misses its tolerance. The release test
//! `tests/crosscheck_gate.rs` proves both gates non-vacuous: re-evaluated
//! under a deliberately mis-modeled codec ratio
//! ([`ModelScale::codec_ratio_scale`]), the same measurements must fail.
//!
//! Simulation is the expensive half, so measurements are taken once and
//! re-used across evaluations: [`evaluate`] and [`auto_cells`] read the
//! same [`measure_matrix`], at any model scale.

use crate::cli::OutputFormat;
use spzip_apps::perf::{predict_cell, supports, ModelScale};
use spzip_apps::run::{run_app, AppName};
use spzip_apps::Scheme;
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_graph::Csr;
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_mem::DataClass;
use spzip_sim::MachineConfig;
use std::fmt::Write as _;
use std::sync::Arc;

/// The apps of the gate matrix: the all-active workloads the static
/// model supports (frontier-driven apps are excluded by
/// [`supports`]).
pub const MATRIX_APPS: [AppName; 3] = [AppName::Pr, AppName::Dc, AppName::Sp];

/// The schemes of the gate matrix: software streaming plus every SpZip
/// engine configuration with a distinct traffic shape.
pub const MATRIX_SCHEMES: [Scheme; 4] = [
    Scheme::Push,
    Scheme::PushSpzip,
    Scheme::UbSpzip,
    Scheme::PhiSpzip,
];

/// The gate machine: the scaled Table II configuration shrunk to 4 cores
/// and a 32 KiB LLC, so cache capacity genuinely pressures the vertex
/// data (the tolerances are calibrated at this size).
pub fn gate_machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

/// The gate inputs: a 4096-vertex power-law community graph for the
/// vertex apps and a 16x16x16 27-point stencil matrix for SpMV.
pub fn gate_graphs() -> (Arc<Csr>, Arc<Csr>) {
    (
        Arc::new(community(&CommunityParams::web_crawl(4096, 8), 17)),
        Arc::new(grid3d(16, 1, 3)),
    )
}

/// Simulator-measured per-class traffic for one cell.
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// `"{app} x {scheme}"`.
    pub name: String,
    /// The application.
    pub app: AppName,
    /// The scheme.
    pub scheme: Scheme,
    /// Read bytes by [`DataClass::index`].
    pub read: [u64; 6],
    /// Write bytes by [`DataClass::index`].
    pub write: [u64; 6],
}

/// One evaluated check: a (cell, class, direction) the model stands
/// behind, with the prediction and the simulator's measurement.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The cell's `"{app} x {scheme}"` name.
    pub cell: String,
    /// Traffic class under check.
    pub class: DataClass,
    /// `true` compares write bytes, `false` read bytes.
    pub write: bool,
    /// Model-predicted bytes.
    pub predicted: f64,
    /// Simulator-measured bytes.
    pub measured: f64,
    /// Maximum tolerated relative error.
    pub tolerance: f64,
}

impl CheckOutcome {
    /// Signed relative error of the prediction.
    pub fn rel_error(&self) -> f64 {
        (self.predicted - self.measured) / self.measured.max(1.0)
    }

    /// Whether the prediction lands within tolerance.
    pub fn passes(&self) -> bool {
        self.rel_error().abs() <= self.tolerance
    }
}

/// All evaluated checks of one gate run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Cells evaluated.
    pub cells: usize,
    /// Every (cell, class, direction) check.
    pub outcomes: Vec<CheckOutcome>,
}

impl GateReport {
    /// Number of failing checks.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passes()).count()
    }

    /// Renders the gate table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>5} {:>12} {:>12} {:>8} {:>6}",
            "cell", "class", "dir", "predicted", "measured", "error", "tol"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>5} {:>12.0} {:>12.0} {:>+7.1}% {:>5.0}%{}",
                o.cell,
                format!("{:?}", o.class),
                if o.write { "write" } else { "read" },
                o.predicted,
                o.measured,
                100.0 * o.rel_error(),
                100.0 * o.tolerance,
                if o.passes() { "" } else { "  FAIL" }
            );
        }
        let _ = writeln!(
            out,
            "cross-check: {} cell(s), {} check(s), {} failure(s)",
            self.cells,
            self.outcomes.len(),
            self.failures()
        );
        out
    }

    /// Renders the gate as JSON (stable keys, append-only).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"cells\":{},\"checks\":{},\"failures\":{},\"outcomes\":[",
            self.cells,
            self.outcomes.len(),
            self.failures()
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"cell\":\"{}\",\"class\":\"{:?}\",\"direction\":\"{}\",\
                 \"predicted\":{:.1},\"measured\":{:.1},\"rel_error\":{:.4},\
                 \"tolerance\":{:.2},\"pass\":{}}}",
                spzip_core::lint::json_escape(&o.cell),
                o.class,
                if o.write { "write" } else { "read" },
                o.predicted,
                o.measured,
                o.rel_error(),
                o.tolerance,
                o.passes()
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The graph each app runs on: the stencil matrix for SpMV, the
/// community graph otherwise.
fn input_for<'a>(app: AppName, g: &'a Arc<Csr>, m: &'a Arc<Csr>) -> &'a Arc<Csr> {
    if app.is_matrix() {
        m
    } else {
        g
    }
}

/// Simulates the full matrix once, recording per-class traffic.
pub fn measure_matrix(g: &Arc<Csr>, m: &Arc<Csr>) -> Vec<MeasuredCell> {
    let mut cells = Vec::new();
    for app in MATRIX_APPS {
        debug_assert!(supports(app));
        let input = input_for(app, g, m);
        for scheme in MATRIX_SCHEMES {
            let cfg = scheme.config();
            let out = run_app(app, input, &cfg, gate_machine());
            let mut read = [0u64; 6];
            let mut write = [0u64; 6];
            for c in DataClass::all() {
                read[c.index()] = out.report.traffic.read_bytes(c);
                write[c.index()] = out.report.traffic.write_bytes(c);
            }
            cells.push(MeasuredCell {
                name: format!("{app} x {scheme}"),
                app,
                scheme,
                read,
                write,
            });
        }
    }
    cells
}

/// Evaluates the model at `scale` against previously measured cells.
pub fn evaluate(
    measured: &[MeasuredCell],
    g: &Arc<Csr>,
    m: &Arc<Csr>,
    scale: ModelScale,
) -> GateReport {
    let machine = gate_machine();
    let mut report = GateReport {
        cells: measured.len(),
        ..Default::default()
    };
    for cell in measured {
        let input = input_for(cell.app, g, m);
        let pred = predict_cell(
            cell.app,
            input,
            &cell.scheme.config(),
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            scale,
        );
        for c in pred.checks {
            let measured_bytes = if c.write {
                cell.write[c.class.index()]
            } else {
                cell.read[c.class.index()]
            } as f64;
            report.outcomes.push(CheckOutcome {
                cell: cell.name.clone(),
                class: c.class,
                write: c.write,
                predicted: c.predicted,
                measured: measured_bytes,
                tolerance: c.tolerance,
            });
        }
    }
    report
}

/// Runs the full gate: simulate the matrix, evaluate the honest model,
/// print the table, and return the process exit code (0 iff every check
/// passes).
pub fn run_gate(format: OutputFormat) -> i32 {
    let (g, m) = gate_graphs();
    let measured = measure_matrix(&g, &m);
    let report = evaluate(&measured, &g, &m, ModelScale::default());
    match format {
        OutputFormat::Json => print!("{}", report.render_json()),
        // Gate cells carry no per-diagnostic records; SARIF falls back to text.
        OutputFormat::Text | OutputFormat::Sarif => print!("{}", report.render()),
    }
    if report.failures() > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Auto-vs-default codec selection gate (`dcl-perf --auto-gate`)
// ---------------------------------------------------------------------------

/// Predicted-improvement margin the static selection must clear before
/// deviating from the paper-default codecs: re-encoding a structure is
/// not free, and near-ties inside the model's error band would make the
/// choice noise-driven.
pub const AUTO_MARGIN: f64 = 0.10;

/// Simulated-traffic tolerance of the auto-vs-default gate: auto may
/// trail the default by at most this fraction per cell (covers directory
/// and cache noise the traffic model does not predict).
pub const AUTO_TOLERANCE: f64 = 0.02;

/// The codec configurations the static selection may choose from for one
/// scheme, paper default first. Only knobs the traffic model is genuinely
/// sensitive to are enumerated: the adjacency codec (including "no
/// adjacency compression") and, for update-binning schemes, the update
/// codec. Vertex codecs stay at the paper default — their traffic is
/// LLC-residency-driven and the model does not stand behind it.
pub fn candidate_configs(scheme: Scheme) -> Vec<(String, spzip_apps::SchemeConfig)> {
    use spzip_compress::model::codec_trajectory_name;
    use spzip_compress::CodecKind;
    let default = scheme.config();
    let mut out = vec![("default".to_string(), default)];
    if !default.spzip {
        return out;
    }
    if default.compress_adjacency {
        for kind in CodecKind::all() {
            if kind != default.adjacency_codec {
                let mut c = default;
                c.adjacency_codec = kind;
                out.push((format!("adj={}", codec_trajectory_name(kind, false)), c));
            }
        }
        let mut c = default;
        c.compress_adjacency = false;
        out.push(("adj=raw".to_string(), c));
    }
    if default.compress_updates && default.strategy == spzip_apps::scheme::Strategy::Ub {
        for kind in CodecKind::all() {
            if kind != default.update_codec {
                let mut c = default;
                c.update_codec = kind;
                out.push((format!("upd={}", codec_trajectory_name(kind, false)), c));
            }
        }
    }
    out
}

/// Total predicted traffic of a cell, the selection metric.
fn predicted_total(pred: &spzip_apps::perf::CellPrediction) -> f64 {
    pred.read.iter().sum::<f64>() + pred.write.iter().sum::<f64>()
}

/// Statically selects the codec configuration for one cell: the
/// candidate with the least predicted total traffic, if it beats the
/// paper default by more than [`AUTO_MARGIN`]; the default otherwise.
/// Deterministic: candidates are priced in [`candidate_configs`] order
/// with strict improvement required to displace an earlier winner.
pub fn auto_config(
    app: AppName,
    input: &Arc<Csr>,
    scheme: Scheme,
    cores: usize,
    llc_bytes: u64,
    scale: ModelScale,
) -> (String, spzip_apps::SchemeConfig) {
    let candidates = candidate_configs(scheme);
    let price = |cfg: &spzip_apps::SchemeConfig| {
        predicted_total(&predict_cell(app, input, cfg, cores, llc_bytes, scale))
    };
    let baseline = price(&candidates[0].1);
    let mut best: Option<(usize, f64)> = None;
    for (i, (_, cfg)) in candidates.iter().enumerate().skip(1) {
        let t = price(cfg);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((i, t));
        }
    }
    match best {
        Some((i, t)) if t < baseline * (1.0 - AUTO_MARGIN) => candidates[i].clone(),
        _ => candidates[0].clone(),
    }
}

/// One auto-vs-default comparison: the statically chosen configuration
/// and both simulated traffic totals.
#[derive(Debug, Clone)]
pub struct AutoCell {
    /// `"{app} x {scheme}"`.
    pub name: String,
    /// The selection's choice (`"default"` or the deviating knob).
    pub choice: String,
    /// Simulated total DRAM bytes under the paper-default codecs.
    pub default_total: u64,
    /// Simulated total DRAM bytes under the auto-selected codecs.
    pub auto_total: u64,
}

impl AutoCell {
    /// Signed relative traffic change of auto vs default (negative is an
    /// improvement).
    pub fn regression(&self) -> f64 {
        (self.auto_total as f64 - self.default_total as f64) / (self.default_total as f64).max(1.0)
    }

    /// Whether auto wins or ties within [`AUTO_TOLERANCE`].
    pub fn passes(&self) -> bool {
        self.regression() <= AUTO_TOLERANCE
    }
}

/// Renders the auto-gate table.
pub fn render_auto(cells: &[AutoCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>8}",
        "cell", "choice", "default B", "auto B", "delta"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<16} {:<14} {:>14} {:>14} {:>+7.1}%{}",
            c.name,
            c.choice,
            c.default_total,
            c.auto_total,
            100.0 * c.regression(),
            if c.passes() { "" } else { "  FAIL" }
        );
    }
    let failures = cells.iter().filter(|c| !c.passes()).count();
    let _ = writeln!(
        out,
        "auto-gate: {} cell(s), {} failure(s)",
        cells.len(),
        failures
    );
    out
}

/// Renders the auto gate as JSON (stable keys, append-only).
pub fn render_auto_json(cells: &[AutoCell]) -> String {
    let failures = cells.iter().filter(|c| !c.passes()).count();
    let mut out = format!(
        "{{\"cells\":{},\"failures\":{},\"outcomes\":[",
        cells.len(),
        failures
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"cell\":\"{}\",\"choice\":\"{}\",\"default_bytes\":{},\
             \"auto_bytes\":{},\"regression\":{:.4},\"pass\":{}}}",
            spzip_core::lint::json_escape(&c.name),
            spzip_core::lint::json_escape(&c.choice),
            c.default_total,
            c.auto_total,
            c.regression(),
            c.passes()
        );
    }
    out.push_str("]}\n");
    out
}

/// Statically selects codecs for every measured cell at `scale` and
/// compares the simulated traffic of the choice with the cell's measured
/// paper-default traffic. Only a choice that deviates from the default
/// is simulated. A selection picking worse codecs shows up as a
/// measured regression — which is what makes the model load-bearing.
pub fn auto_cells(
    measured: &[MeasuredCell],
    g: &Arc<Csr>,
    m: &Arc<Csr>,
    scale: ModelScale,
) -> Vec<AutoCell> {
    let machine = gate_machine();
    measured
        .iter()
        .map(|cell| {
            let input = input_for(cell.app, g, m);
            let (choice, auto_cfg) = auto_config(
                cell.app,
                input,
                cell.scheme,
                machine.mem.cores,
                machine.mem.llc.size_bytes,
                scale,
            );
            let default_total = cell.read.iter().chain(&cell.write).sum();
            let auto_total = if auto_cfg == cell.scheme.config() {
                default_total
            } else {
                run_app(cell.app, input, &auto_cfg, gate_machine())
                    .report
                    .traffic
                    .total_bytes()
            };
            AutoCell {
                name: cell.name.clone(),
                choice,
                default_total,
                auto_total,
            }
        })
        .collect()
}

/// Runs the auto-vs-default gate: simulate the matrix, select codecs
/// with the honest model, and fail unless auto wins or ties every cell
/// within [`AUTO_TOLERANCE`].
pub fn run_auto_gate(format: OutputFormat) -> i32 {
    let (g, m) = gate_graphs();
    let measured = measure_matrix(&g, &m);
    let cells = auto_cells(&measured, &g, &m, ModelScale::default());
    match format {
        OutputFormat::Json => print!("{}", render_auto_json(&cells)),
        // Gate cells carry no per-diagnostic records; SARIF falls back to text.
        OutputFormat::Text | OutputFormat::Sarif => print!("{}", render_auto(&cells)),
    }
    if cells.iter().all(AutoCell::passes) {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_at_least_twelve_cells() {
        assert!(MATRIX_APPS.len() * MATRIX_SCHEMES.len() >= 12);
        for app in MATRIX_APPS {
            assert!(supports(app), "{app} must be statically predictable");
        }
    }

    #[test]
    fn check_outcome_pass_logic() {
        let mut o = CheckOutcome {
            cell: "PR x Push".into(),
            class: DataClass::AdjacencyMatrix,
            write: false,
            predicted: 110.0,
            measured: 100.0,
            tolerance: 0.15,
        };
        assert!(o.passes(), "{:+.3}", o.rel_error());
        o.predicted = 130.0;
        assert!(!o.passes());
        o.predicted = 70.0;
        assert!(!o.passes(), "undershoot fails too");
    }

    #[test]
    fn report_counts_failures_and_renders_them() {
        let report = GateReport {
            cells: 1,
            outcomes: vec![
                CheckOutcome {
                    cell: "PR x Push".into(),
                    class: DataClass::AdjacencyMatrix,
                    write: false,
                    predicted: 100.0,
                    measured: 100.0,
                    tolerance: 0.10,
                },
                CheckOutcome {
                    cell: "PR x Push".into(),
                    class: DataClass::SourceVertex,
                    write: true,
                    predicted: 200.0,
                    measured: 100.0,
                    tolerance: 0.10,
                },
            ],
        };
        assert_eq!(report.failures(), 1);
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("1 failure(s)"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"failures\":1"), "{json}");
        assert!(json.contains("\"pass\":false"), "{json}");
    }

    #[test]
    fn candidates_lead_with_the_default() {
        for scheme in MATRIX_SCHEMES {
            let c = candidate_configs(scheme);
            assert_eq!(c[0].0, "default");
            assert_eq!(c[0].1, scheme.config());
        }
        // Software schemes have no codec knobs to turn.
        assert_eq!(candidate_configs(Scheme::Push).len(), 1);
        // Compressed-adjacency schemes enumerate the other four codecs
        // plus the uncompressed fallback.
        let push = candidate_configs(Scheme::PushSpzip);
        assert_eq!(push.len(), 6, "{push:?}");
        assert!(push.iter().any(|(n, _)| n == "adj=raw"));
        assert!(push
            .iter()
            .any(|(n, c)| n == "adj=identity" && c.compress_adjacency));
        // UB adds update-codec candidates on top.
        let ub = candidate_configs(Scheme::UbSpzip);
        assert_eq!(ub.len(), 10, "{ub:?}");
        assert!(ub.iter().any(|(n, _)| n == "upd=delta"));
        // PHI bins are cache-coalesced, not modeled: no update knobs.
        assert_eq!(candidate_configs(Scheme::PhiSpzip).len(), 6);
    }

    #[test]
    fn auto_cell_pass_logic() {
        let mut c = AutoCell {
            name: "PR x T".into(),
            choice: "default".into(),
            default_total: 1000,
            auto_total: 1000,
        };
        assert!(c.passes(), "ties pass");
        c.auto_total = 900;
        assert!(c.passes(), "wins pass");
        c.auto_total = 1015;
        assert!(c.passes(), "within the 2% tolerance");
        c.auto_total = 1100;
        assert!(!c.passes(), "a 10% regression fails");
        let text = render_auto(&[c.clone()]);
        assert!(text.contains("FAIL"), "{text}");
        let json = render_auto_json(&[c]);
        assert!(json.contains("\"pass\":false"), "{json}");
        assert!(json.contains("\"failures\":1"), "{json}");
    }

    #[test]
    fn honest_selection_keeps_or_beats_the_default_prediction() {
        // Pure prediction, one cell: whatever auto_config picks must
        // price at or below the default under the same honest scale.
        let (g, _) = gate_graphs();
        let machine = gate_machine();
        let (choice, cfg) = auto_config(
            AppName::Pr,
            &g,
            Scheme::PushSpzip,
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale::default(),
        );
        let auto_t = predicted_total(&predict_cell(
            AppName::Pr,
            &g,
            &cfg,
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale::default(),
        ));
        let default_t = predicted_total(&predict_cell(
            AppName::Pr,
            &g,
            &Scheme::PushSpzip.config(),
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale::default(),
        ));
        assert!(auto_t <= default_t, "{choice}: {auto_t} vs {default_t}");
    }

    #[test]
    fn large_perturbation_flips_the_selection() {
        // A 8x codec mis-calibration makes compression look net-negative,
        // so the selection abandons the compressed default — the
        // non-vacuity mechanism of the auto gate.
        let (g, _) = gate_graphs();
        let machine = gate_machine();
        let (choice, cfg) = auto_config(
            AppName::Pr,
            &g,
            Scheme::PushSpzip,
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale {
                codec_ratio_scale: 8.0,
            },
        );
        assert_ne!(choice, "default");
        assert!(!cfg.compress_adjacency, "{choice}");
    }

    #[test]
    fn perturbed_scale_moves_compressed_predictions() {
        // Pure prediction (no simulation): scaling the codec ratio must
        // move the compressed-adjacency prediction proportionally, which
        // is what makes the perturbation gate non-vacuous.
        let (g, _) = gate_graphs();
        let machine = gate_machine();
        let honest = predict_cell(
            AppName::Pr,
            &g,
            &Scheme::PushSpzip.config(),
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale::default(),
        );
        let perturbed = predict_cell(
            AppName::Pr,
            &g,
            &Scheme::PushSpzip.config(),
            machine.mem.cores,
            machine.mem.llc.size_bytes,
            ModelScale {
                codec_ratio_scale: 1.5,
            },
        );
        let adj = DataClass::AdjacencyMatrix.index();
        assert!(
            perturbed.read[adj] > 1.3 * honest.read[adj],
            "perturbed {} vs honest {}",
            perturbed.read[adj],
            honest.read[adj]
        );
    }
}
