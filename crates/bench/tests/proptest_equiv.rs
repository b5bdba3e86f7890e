//! Property-based tests for the translation validator: certification
//! must be a pure, deterministic function of the two pipelines.
//!
//! Two properties over the builtin pipeline corpus (that every builtin's
//! suggested plan certifies is an exhaustive unit test,
//! `pipelines::tests::every_auto_builtin_certifies_against_its_original`):
//!
//! 1. **Determinism** — validating the same pair twice (and a deep
//!    clone) renders byte-identical diagnostics: nothing in the pass may
//!    key off allocation identity or iteration order.
//!
//! 2. **Capacity invariance** — `scale_queues` by any factor ≥ 1 is an
//!    identity rewrite, and scaling *both* sides of a certified pair
//!    must not change the verdict: queue capacities are invisible to the
//!    symbolic dataflow summaries.

use proptest::prelude::*;
use spzip_apps::pipelines::all_builtin_checked;
use spzip_core::equiv::{self, EquivInput, EquivReport};
use spzip_core::suggest::{certify, suggest, SuggestInput};

/// Renders everything a verdict surfaces, for byte-identity comparison.
fn rendered(report: &EquivReport) -> String {
    let diags: Vec<String> = report.diagnostics().iter().map(|d| d.to_string()).collect();
    format!(
        "sinks={} clean={} diags={}",
        report.sinks_checked,
        report.is_clean(),
        diags.join(" | ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn validator_is_deterministic(idx in 0usize..72) {
        let builtins = all_builtin_checked();
        let (name, pipeline, schema) = &builtins[idx % builtins.len()];

        let input = EquivInput::with_schemas(pipeline, pipeline, schema, schema);
        let first = rendered(&equiv::validate(&input));
        let second = rendered(&equiv::validate(&input));
        prop_assert_eq!(&first, &second, "rerun differs for {}", name);

        // A structurally equal clone must get the same verdict.
        let cloned = pipeline.clone();
        let clone_input = EquivInput::with_schemas(&cloned, &cloned, schema, schema);
        let third = rendered(&equiv::validate(&clone_input));
        prop_assert_eq!(&first, &third, "clone differs for {}", name);
    }

    #[test]
    fn verdict_is_capacity_invariant(
        idx in 0usize..72,
        factor_tenths in 10u32..60,
    ) {
        let factor = f64::from(factor_tenths) / 10.0;
        let builtins = all_builtin_checked();
        let (name, pipeline, schema) = &builtins[idx % builtins.len()];

        // scale_queues is an identity rewrite...
        let scaled = pipeline
            .scale_queues(factor)
            .expect("upscaling queues keeps builtins valid");
        let identity = equiv::validate(&EquivInput::with_schemas(
            pipeline,
            &scaled,
            schema,
            schema,
        ));
        prop_assert!(
            identity.is_clean(),
            "x{} queues broke {}: {:?}",
            factor,
            name,
            identity
                .diagnostics()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );

        // ...and scaling both sides of a certified pair keeps the verdict.
        let plan = suggest(&SuggestInput::with_schema(pipeline, schema)).plan;
        let (auto, auto_schema) =
            certify(pipeline, Some(schema), &plan).expect("builtin plans certify");
        let auto_schema = auto_schema.expect("a schema in yields a schema out");
        let auto_scaled = auto
            .scale_queues(factor)
            .expect("upscaling a certified rewrite stays valid");
        let base = rendered(&equiv::validate(&EquivInput::with_schemas(
            pipeline,
            &auto,
            schema,
            &auto_schema,
        )));
        let after = rendered(&equiv::validate(&EquivInput::with_schemas(
            &scaled,
            &auto_scaled,
            schema,
            &auto_schema,
        )));
        prop_assert_eq!(base, after, "verdict moved under x{} queues for {}", factor, name);
    }
}
