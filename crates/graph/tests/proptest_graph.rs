//! Property-based tests on the graph substrate's invariants.

use proptest::prelude::*;
use spzip_compress::delta::DeltaCodec;
use spzip_graph::compressed::{CompressedCsr, RowGrouping};
use spzip_graph::reorder::{self, Preprocessing};
use spzip_graph::{Csr, VertexId};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2usize..64,
        proptest::collection::vec((0u32..64, 0u32..64), 0..256),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(VertexId, VertexId)> = edges
                .into_iter()
                .map(|(s, d)| (s % n as u32, d % n as u32))
                .collect();
            Csr::from_edges(n, &edges)
        })
}

proptest! {
    #[test]
    fn csr_offsets_are_monotone_and_cover_edges(g in arb_graph()) {
        prop_assert!(g.offsets().windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*g.offsets().last().unwrap() as usize, g.num_edges());
        // Rows partition the neighbor array.
        let mut total = 0;
        for v in 0..g.num_vertices() as VertexId {
            total += g.out_degree(v);
        }
        prop_assert_eq!(total, g.num_edges());
    }

    #[test]
    fn csr_has_no_self_loops_or_duplicates(g in arb_graph()) {
        for v in 0..g.num_vertices() as VertexId {
            let row = g.neighbors(v);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            prop_assert!(!row.contains(&v), "no self loops");
        }
    }

    #[test]
    fn transpose_is_involutive(g in arb_graph()) {
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn transpose_preserves_edge_count(g in arb_graph()) {
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn every_preprocessing_is_an_isomorphism(g in arb_graph(), seed in 0u64..100) {
        for p in Preprocessing::all() {
            let r = p.apply(&g, seed);
            prop_assert_eq!(r.num_vertices(), g.num_vertices());
            prop_assert_eq!(r.num_edges(), g.num_edges(), "{}", p);
            let mut da: Vec<usize> =
                (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v)).collect();
            let mut db: Vec<usize> =
                (0..r.num_vertices() as VertexId).map(|v| r.out_degree(v)).collect();
            da.sort_unstable();
            db.sort_unstable();
            prop_assert_eq!(da, db, "{}", p);
        }
    }

    #[test]
    fn randomize_roundtrips_through_inverse(g in arb_graph(), seed in 0u64..100) {
        // Applying a permutation then its inverse restores the graph.
        let n = g.num_vertices();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut inv = vec![0 as VertexId; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        let there = reorder::apply_permutation(&g, &perm);
        let back = reorder::apply_permutation(&there, &inv);
        prop_assert_eq!(back, g);
    }

    #[test]
    fn compressed_csr_roundtrips_under_any_grouping(
        g in arb_graph(),
        group in 1u32..40,
    ) {
        let codec = DeltaCodec::new();
        let cg = CompressedCsr::build(&g, &codec, RowGrouping::Chunked(group));
        for v in 0..g.num_vertices() as VertexId {
            prop_assert_eq!(cg.decompress_row(&codec, v).unwrap(), g.neighbors(v));
        }
    }
}
