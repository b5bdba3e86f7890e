//! The model-vs-simulator gates, end to end: simulate the full 12-cell
//! matrix once per test, then hold the static traffic model to its
//! documented tolerances and the auto-selection to the paper-default
//! traffic — and prove each gate non-vacuous by showing a deliberately
//! mis-modeled codec ratio is caught on the same measurements.
//!
//! Simulating twelve 4096-vertex cells is release-build work; under a
//! debug test run the module compiles but the tests are skipped.

#![cfg(not(debug_assertions))]

use spzip_apps::perf::ModelScale;
use spzip_bench::crosscheck::{
    auto_cells, evaluate, gate_graphs, measure_matrix, render_auto, AutoCell,
};

#[test]
fn gate_passes_honest_model_and_catches_perturbed_codec() {
    let (g, m) = gate_graphs();
    let measured = measure_matrix(&g, &m);
    assert!(measured.len() >= 12, "matrix must cover >= 12 cells");

    // Honest model: every checked class within tolerance, every cell
    // contributing at least one check.
    let honest = evaluate(&measured, &g, &m, ModelScale::default());
    assert_eq!(honest.cells, measured.len());
    assert!(
        honest.outcomes.len() >= measured.len(),
        "every cell must contribute at least one check ({} checks)",
        honest.outcomes.len()
    );
    assert_eq!(honest.failures(), 0, "\n{}", honest.render());

    // Mis-modeled codec: scaling every codec-derived prediction by 1.5x
    // must blow the compressed-adjacency tolerance in the SpZip cells.
    // Same measurements — only the model changed.
    let perturbed = evaluate(
        &measured,
        &g,
        &m,
        ModelScale {
            codec_ratio_scale: 1.5,
        },
    );
    assert!(
        perturbed.failures() >= 3,
        "a 50% codec-ratio error must be caught:\n{}",
        perturbed.render()
    );
}

#[test]
fn auto_selection_survives_simulation_and_miscalibration_does_not() {
    // The `--auto-gate` matrix both ways: honest calibration's choices
    // simulate no worse than the paper default in every cell, and an 8x
    // codec-ratio mis-calibration, which prices compression as a loss and
    // flips compressed-adjacency cells to raw adjacency, is contradicted
    // by the same simulator.
    let (g, m) = gate_graphs();
    let measured = measure_matrix(&g, &m);
    let failures = |cells: &[AutoCell]| cells.iter().filter(|c| !c.passes()).count();

    let honest = auto_cells(&measured, &g, &m, ModelScale::default());
    assert_eq!(honest.len(), measured.len());
    assert_eq!(failures(&honest), 0, "\n{}", render_auto(&honest));

    let perturbed = auto_cells(
        &measured,
        &g,
        &m,
        ModelScale {
            codec_ratio_scale: 8.0,
        },
    );
    assert!(
        failures(&perturbed) >= 3,
        "an 8x codec-ratio mis-calibration must be caught:\n{}",
        render_auto(&perturbed)
    );
}
