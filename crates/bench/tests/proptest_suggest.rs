//! Property-based tests for the codec suggestion pass: advisories must be
//! a pure function of the pipeline's dataflow, not of run order or queue
//! sizing.
//!
//! Two properties over the builtin pipeline corpus:
//!
//! 1. **Determinism** — `suggest` on the same pipeline twice (and on a
//!    deep clone) renders byte-identical diagnostics and plans. The pass
//!    feeds `--suggest` output into CI logs and JSON envelopes; any
//!    run-to-run jitter would make the suggest gate flaky by
//!    construction.
//!
//! 2. **Capacity invariance** — scaling every queue's capacity by a
//!    factor ≥ 1 leaves the plan and advisories unchanged. The selection
//!    metric is steady-state cycles per delivered element, which prices
//!    dataflow, not buffering; if resizing scratchpad queues moved the
//!    recommendation, the advisory would be an artifact of the default
//!    capacities rather than a property of the codec choice.

use proptest::prelude::*;
use spzip_apps::pipelines::all_builtin_checked;
use spzip_compress::model::{CodecRates, RateTable};
use spzip_compress::CodecKind;
use spzip_core::suggest::{suggest, SuggestInput, SuggestReport};

/// Renders everything `--suggest` surfaces from a report, for
/// byte-identity comparison.
fn rendered(report: &SuggestReport) -> String {
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    format!(
        "transforms={} baseline={:.6} auto={:.6} plan={} diags={}",
        report.transforms,
        report.baseline_metric,
        report.auto_metric,
        report.plan_json(),
        diags.join(" | ")
    )
}

/// A mildly perturbed but deterministic rate table, so the properties
/// also cover calibrations where the winner differs from nominal.
fn arb_rates() -> impl Strategy<Value = RateTable> {
    (1u64..=16, 1u64..=16).prop_map(|(delta_x, bpc_x)| {
        let mut rates = RateTable::nominal();
        rates.set(
            CodecKind::Delta,
            CodecRates {
                decode_gbps: delta_x as f64,
                encode_gbps: delta_x as f64,
            },
        );
        rates.set(
            CodecKind::Bpc32,
            CodecRates {
                decode_gbps: bpc_x as f64,
                encode_gbps: bpc_x as f64,
            },
        );
        rates
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn suggest_is_deterministic(
        idx in 0usize..72,
        rates in arb_rates(),
    ) {
        let builtins = all_builtin_checked();
        let (name, pipeline, schema) = &builtins[idx % builtins.len()];

        let mut input = SuggestInput::with_schema(pipeline, schema);
        input.perf.rates = rates.clone();
        let first = rendered(&suggest(&input));
        let second = rendered(&suggest(&input));
        prop_assert_eq!(&first, &second, "rerun differs for {}", name);

        // A structurally equal clone must get the same advice: nothing
        // in the pass may key off allocation identity or iteration order
        // of a particular Pipeline instance.
        let cloned = pipeline.clone();
        let mut clone_input = SuggestInput::with_schema(&cloned, schema);
        clone_input.perf.rates = rates;
        let third = rendered(&suggest(&clone_input));
        prop_assert_eq!(&first, &third, "clone differs for {}", name);
    }

    #[test]
    fn suggest_is_capacity_invariant(
        idx in 0usize..72,
        factor_tenths in 10u32..60,
        rates in arb_rates(),
    ) {
        let factor = f64::from(factor_tenths) / 10.0;
        let builtins = all_builtin_checked();
        let (name, pipeline, schema) = &builtins[idx % builtins.len()];

        let scaled = pipeline
            .scale_queues(factor)
            .expect("upscaling queues keeps builtins valid");

        let mut base_input = SuggestInput::with_schema(pipeline, schema);
        base_input.perf.rates = rates.clone();
        let base = suggest(&base_input);

        let mut scaled_input = SuggestInput::with_schema(&scaled, schema);
        scaled_input.perf.rates = rates;
        let after = suggest(&scaled_input);

        prop_assert_eq!(
            base.plan_json(),
            after.plan_json(),
            "plan moved under x{} queues for {}",
            factor,
            name
        );
        let base_diags: Vec<String> =
            base.diagnostics.iter().map(|d| d.to_string()).collect();
        let after_diags: Vec<String> =
            after.diagnostics.iter().map(|d| d.to_string()).collect();
        prop_assert_eq!(
            base_diags,
            after_diags,
            "advisories moved under x{} queues for {}",
            factor,
            name
        );
    }
}
