//! Property-based sanitizer test: for random scheme x graph app x random
//! graph x core-count layouts, every run validates against the reference
//! and replays with zero sanitizer violations.

use proptest::prelude::*;
use spzip_apps::run::run_app_sanitized;
use spzip_apps::{AppName, Scheme};
use spzip_graph::gen::{community, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::MachineConfig;
use std::sync::Arc;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    let schemes = Scheme::all();
    (0..schemes.len()).prop_map(move |i| schemes[i])
}

fn arb_app() -> impl Strategy<Value = AppName> {
    // Graph-input apps only; the matrix app needs a different generator
    // and adds nothing to trace-shape coverage.
    let apps: Vec<AppName> = AppName::all()
        .into_iter()
        .filter(|a| !a.is_matrix())
        .collect();
    (0..apps.len()).prop_map(move |i| apps[i])
}

proptest! {
    // Each case is a full sanitized simulation; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_layouts_validate_and_are_sanitizer_clean(
        scheme in arb_scheme(),
        app in arb_app(),
        (n_log2, edge_factor, seed) in (7u32..9, 4usize..8, 0u64..1000),
        cores in 1usize..5,
    ) {
        let g = Arc::new(community(
            &CommunityParams::web_crawl(1 << n_log2, edge_factor),
            seed,
        ));
        let mut cfg = MachineConfig::paper_scaled();
        cfg.mem.cores = cores;
        cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
        let (out, san) = run_app_sanitized(app, &g, &scheme.config(), cfg, None, false);
        prop_assert!(
            out.validated,
            "{} under {:?} (cores={}) diverged from reference", app, scheme, cores
        );
        prop_assert!(
            san.clean(),
            "{} under {:?} (cores={}):\n{}", app, scheme, cores, san.render()
        );
    }
}
