//! Cross-crate integration: applications keep producing reference results
//! under every preprocessing, and compressed traversal moves fewer
//! adjacency bytes. Every application under every scheme, with and without
//! DFS preprocessing, is simulated and checked against its reference in
//! `run_digests.rs`.

use spzip_apps::{run_app, AppName, Scheme};
use spzip_graph::gen::{community, CommunityParams};
use spzip_graph::reorder::Preprocessing;
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::MachineConfig;

fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

#[test]
fn validation_survives_preprocessing() {
    let g = community(&CommunityParams::web_crawl(512, 6), 29);
    for prep in Preprocessing::all() {
        let pg = std::sync::Arc::new(prep.apply(&g, 7));
        for scheme in [Scheme::Push, Scheme::PhiSpzip] {
            let out = run_app(AppName::Bfs, &pg, &scheme.config(), tiny_machine());
            assert!(out.validated, "BFS/{scheme} with {prep}");
        }
    }
}

#[test]
fn spzip_traversal_reduces_adjacency_traffic_when_compressible() {
    use spzip_mem::DataClass;
    // A clustered graph whose natural order compresses well: Push+SpZip
    // must move fewer adjacency bytes than Push.
    let g = std::sync::Arc::new(community(&CommunityParams::web_crawl(2048, 12), 31));
    let base = run_app(AppName::Pr, &g, &Scheme::Push.config(), tiny_machine());
    let spz = run_app(AppName::Pr, &g, &Scheme::PushSpzip.config(), tiny_machine());
    let base_adj = base.report.traffic.class_bytes(DataClass::AdjacencyMatrix);
    let spz_adj = spz.report.traffic.class_bytes(DataClass::AdjacencyMatrix);
    assert!(
        spz_adj < base_adj,
        "compressed adjacency should reduce traffic: {spz_adj} vs {base_adj}"
    );
    assert!(spz.adjacency_ratio.unwrap() > 1.0);
}
