//! Property-based tests for the translation validator: certification
//! must be a pure, deterministic function of the two pipelines, and the
//! rewrites the toolchain itself produces must always certify.
//!
//! Three properties over the builtin pipeline corpus:
//!
//! 1. **Auto-rewires certify** — `auto_codecs` on any builtin yields a
//!    pipeline/schema pair the validator proves equivalent to the
//!    original. The apps layer already refuses to apply an uncertified
//!    plan; this pins the stronger claim that the plans it *does* apply
//!    re-certify from the outside.
//!
//! 2. **Determinism** — validating the same pair twice (and a deep
//!    clone) renders byte-identical diagnostics: nothing in the pass may
//!    key off allocation identity or iteration order.
//!
//! 3. **Capacity invariance** — `scale_queues` by any factor ≥ 1 is an
//!    identity rewrite, and scaling *both* sides of a certified pair
//!    must not change the verdict: queue capacities are invisible to the
//!    symbolic dataflow summaries.

use proptest::prelude::*;
use spzip_apps::pipelines::{all_builtin_checked, auto_codecs};
use spzip_compress::model::RateTable;
use spzip_core::equiv::{self, EquivInput, EquivReport};

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
    fn auto_rewires_certify(idx in 0usize..72) {
        let builtins = all_builtin_checked();
        let (name, pipeline, schema) = &builtins[idx % builtins.len()];

        let (auto, auto_schema, _) =
            auto_codecs(pipeline, schema, &RateTable::nominal());
        let report = equiv::validate(&EquivInput::with_schemas(
            pipeline,
            &auto,
            schema,
            &auto_schema,
        ));
        prop_assert!(
            report.is_clean(),
            "auto rewrite of {} fails certification: {:?}",
            name,
            report
                .diagnostics()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );
        prop_assert!(report.sinks_checked > 0, "{} has observable sinks", name);
    }

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
        let (auto, auto_schema, _) =
            auto_codecs(pipeline, schema, &RateTable::nominal());
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
