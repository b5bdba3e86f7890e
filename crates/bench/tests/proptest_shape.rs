//! Property-based differential test for the shape verifier: for random
//! workload layouts and scheme configurations, a shape-clean verdict on
//! the builtin pipeline constructors implies the value-level sanitizer
//! sees zero bounds/framing (S-code) violations on the same workload.
//!
//! This is the static half of the seeded-bug gate turned into a property:
//! `shape_corpus` shows miswired pipelines are rejected on both sides;
//! here, honestly-wired pipelines must be *accepted* on both sides — the
//! verifier may not drift strict (rejecting layouts the machine runs
//! correctly) and the declared schemas may not drift loose (passing
//! layouts whose compressed regions fail codec conservation).

use proptest::prelude::*;
use spzip_apps::layout::Workload;
use spzip_apps::pipelines::{self, TraversalOpts};
use spzip_apps::{sanitize, Scheme, SchemeConfig};
use spzip_core::shape;
use spzip_graph::gen::{community, CommunityParams};
use std::sync::Arc;

/// The engine-using schemes (software-only schemes build no pipelines,
/// so there is nothing to shape-check).
fn engine_schemes() -> Vec<Scheme> {
    Scheme::all()
        .into_iter()
        .filter(|s| s.config().uses_engines())
        .collect()
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    let schemes = engine_schemes();
    (0..schemes.len()).prop_map(move |i| schemes[i])
}

/// Builds the workload at a vertex-slice sync point: freshly compressed
/// `cdst`/`csrc` chunks, so the conservation contract holds.
fn synced_workload(
    scheme: Scheme,
    n_log2: u32,
    edge_factor: usize,
    seed: u64,
    cores: usize,
    llc_bytes: u64,
    all_active: bool,
) -> (Workload, SchemeConfig) {
    let cfg = scheme.config();
    let g = Arc::new(community(
        &CommunityParams::web_crawl(1 << n_log2, edge_factor),
        seed,
    ));
    let mut w = Workload::build(g, &cfg, cores, llc_bytes, all_active);
    let codec = cfg.vertex_codec;
    for i in 0..w.cdst.as_ref().map_or(0, |c| c.lens.len()) {
        w.recompress_dst_chunk(codec, i);
    }
    for i in 0..w.csrc.as_ref().map_or(0, |c| c.lens.len()) {
        w.recompress_src_chunk(codec, i);
    }
    (w, cfg)
}

/// Every builtin constructor applicable to `w` under `cfg`, with its
/// declared schema.
fn constructed(
    w: &Workload,
    cfg: &SchemeConfig,
    all_active: bool,
    prefetch_dst: bool,
    read_source: bool,
) -> Vec<(String, spzip_core::dcl::Pipeline, shape::MemorySchema)> {
    let mut out = Vec::new();
    let t = pipelines::traversal(
        w,
        cfg,
        TraversalOpts {
            all_active,
            prefetch_dst,
            frontier_compressed: !all_active && cfg.compress_vertex,
            read_source,
        },
    );
    out.push(("traversal".to_string(), t.pipeline, t.schema));
    if w.bins.is_some() {
        let bc = pipelines::binning_compressor(w, cfg, 0);
        out.push(("binning_compressor".to_string(), bc.pipeline, bc.schema));
        let af = pipelines::accum_fetcher(w, cfg);
        out.push(("accum_fetcher".to_string(), af.pipeline, af.schema));
    }
    if cfg.compress_vertex {
        if let Some(cdst) = &w.cdst {
            let sc = pipelines::slice_compressor(
                w,
                w.dst_addr,
                cdst.base,
                cfg.vertex_codec,
                spzip_mem::DataClass::DestinationVertex,
            );
            out.push(("slice_compressor".to_string(), sc.pipeline, sc.schema));
        }
        let vc = pipelines::value_compressor(
            w,
            w.cfrontier_addr,
            cfg.vertex_codec,
            cfg.sort_chunks,
            spzip_mem::DataClass::Frontier,
        );
        out.push(("value_compressor".to_string(), vc.pipeline, vc.schema));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shape-clean implies sanitizer-clean: when every constructor's
    /// pipeline verifies B-clean against its declared schema, the
    /// value-level sanitizer reports zero conservation violations over
    /// the same layout.
    #[test]
    fn shape_clean_implies_sanitizer_clean(
        scheme in arb_scheme(),
        (n_log2, edge_factor, seed) in (8u32..11, 4usize..9, 0u64..1000),
        (cores, llc_shift) in (1usize..5, 14u64..16),
        (all_active, prefetch_dst, read_source) in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (w, cfg) = synced_workload(
            scheme, n_log2, edge_factor, seed, cores, 1 << llc_shift, all_active,
        );
        // Static side: every builtin constructor is shape-clean.
        for (name, p, schema) in constructed(&w, &cfg, all_active, prefetch_dst, read_source) {
            let report = shape::verify(&p, &schema);
            prop_assert!(
                report.is_clean(),
                "{name} not B-clean under {scheme:?} (aa={all_active}): {:?}",
                report.diagnostics
            );
        }
        // Dynamic side: the sanitizer's bounds/framing contract agrees.
        let violations = sanitize::check_workload_conservation(&w, &cfg);
        prop_assert!(
            violations.is_empty(),
            "sanitizer disagrees with shape-clean verdict under {scheme:?}: {}",
            spzip_sim::sanitize::render(&violations)
        );
    }

    /// The verifier itself is deterministic over random layouts: the same
    /// pipeline and schema produce the same diagnostics and the same
    /// inferred queue domains every time.
    #[test]
    fn shape_verify_is_deterministic(
        scheme in arb_scheme(),
        seed in 0u64..1000,
        all_active in any::<bool>(),
    ) {
        let (w, cfg) = synced_workload(scheme, 8, 6, seed, 2, 1 << 14, all_active);
        for (name, p, schema) in constructed(&w, &cfg, all_active, false, true) {
            let first = shape::verify(&p, &schema);
            let second = shape::verify(&p, &schema);
            prop_assert_eq!(
                &first.diagnostics, &second.diagnostics,
                "diagnostics differ for {}", &name
            );
            let labels = |r: &shape::ShapeReport| -> Vec<String> {
                (0..p.queues().len())
                    .map(|q| r.domain_label(q as spzip_core::QueueId))
                    .collect()
            };
            prop_assert_eq!(labels(&first), labels(&second), "domains differ for {}", &name);
        }
    }
}
