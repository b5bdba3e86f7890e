//! Property-based tests on the graph substrate's invariants, and
//! differential tests of the linear-time CSR construction against the
//! sort-based construction it replaced.

use proptest::prelude::*;
use spzip_graph::gen::GuideTable;
use spzip_graph::reorder::{self, Preprocessing};
use spzip_graph::{Csr, VertexId};

/// The sort-based construction: one global sort of `(src, dst, value)`
/// triples, and relabeling through an edge list. Its sort is stable, so of
/// several entries with the same coordinates the first in input order
/// survives, the order `Csr::from_entries` documents.
mod reference {
    use spzip_graph::{Csr, VertexId};

    fn build(n: usize, mut entries: Vec<(VertexId, VertexId, f64)>, keep_values: bool) -> Csr {
        for &(s, d, _) in &entries {
            assert!((s as usize) < n && (d as usize) < n, "out of range");
        }
        entries.retain(|&(s, d, _)| s != d);
        entries.sort_by_key(|&(s, d, _)| (s, d));
        entries.dedup_by_key(|&mut (s, d, _)| (s, d));
        let mut offsets = vec![0u64; n + 1];
        for &(s, _, _) in &entries {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = entries.iter().map(|&(_, d, _)| d).collect();
        let values = keep_values.then(|| entries.iter().map(|&(_, _, v)| v).collect());
        Csr::from_parts(n, offsets, neighbors, values)
    }

    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Csr {
        build(n, edges.iter().map(|&(s, d)| (s, d, 0.0)).collect(), false)
    }

    pub fn from_entries(n: usize, entries: &[(VertexId, VertexId, f64)]) -> Csr {
        build(n, entries.to_vec(), true)
    }

    pub fn transpose(g: &Csr) -> Csr {
        let entries = g.iter_edges().map(|(s, d, v)| (d, s, v)).collect();
        build(g.num_vertices(), entries, g.values_flat().is_some())
    }

    pub fn apply_permutation(g: &Csr, perm: &[VertexId]) -> Csr {
        let entries = g
            .iter_edges()
            .map(|(s, d, v)| (perm[s as usize], perm[d as usize], v))
            .collect();
        build(g.num_vertices(), entries, g.values_flat().is_some())
    }
}

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

/// A vertex count and entries over it with repeated coordinates,
/// self-loops and empty rows; values are small integers so repeats of a
/// coordinate usually carry different values.
fn arb_entries() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId, f64)>)> {
    (
        1usize..48,
        proptest::collection::vec((any::<u32>(), any::<u32>(), -50i32..50), 0..400),
    )
        .prop_map(|(n, raw)| {
            let entries = raw
                .into_iter()
                .map(|(s, d, v)| (s % n as u32, d % n as u32, v as f64))
                .collect();
            (n, entries)
        })
}

/// A graph, or a matrix with values, from [`arb_entries`], and a random
/// permutation of its vertices (the order of random sort keys).
fn arb_relabeling() -> impl Strategy<Value = (Csr, Vec<VertexId>)> {
    (
        arb_entries(),
        any::<bool>(),
        proptest::collection::vec(any::<u64>(), 48),
    )
        .prop_map(|((n, entries), with_values, keys)| {
            let g = if with_values {
                Csr::from_entries(n, &entries)
            } else {
                let edges: Vec<_> = entries.iter().map(|&(s, d, _)| (s, d)).collect();
                Csr::from_edges(n, &edges)
            };
            let mut order: Vec<VertexId> = (0..n as VertexId).collect();
            order.sort_by_key(|&v| keys[v as usize]);
            let mut perm = vec![0; n];
            for (new, &old) in order.iter().enumerate() {
                perm[old as usize] = new as VertexId;
            }
            (g, perm)
        })
}

proptest! {
    #[test]
    fn from_edges_matches_the_sort_based_build((n, entries) in arb_entries()) {
        let edges: Vec<_> = entries.iter().map(|&(s, d, _)| (s, d)).collect();
        prop_assert_eq!(Csr::from_edges(n, &edges), reference::from_edges(n, &edges));
    }

    #[test]
    fn from_entries_matches_the_sort_based_build((n, entries) in arb_entries()) {
        prop_assert_eq!(Csr::from_entries(n, &entries), reference::from_entries(n, &entries));
    }

    #[test]
    fn transpose_matches_the_sort_based_build((g, _) in arb_relabeling()) {
        prop_assert_eq!(g.transpose(), reference::transpose(&g));
    }

    #[test]
    fn apply_permutation_matches_edge_list_relabeling((g, perm) in arb_relabeling()) {
        prop_assert_eq!(
            reorder::apply_permutation(&g, &perm),
            reference::apply_permutation(&g, &perm)
        );
    }

    #[test]
    fn guide_table_matches_partition_point(
        weights in proptest::collection::vec(1u64..1 << 40, 1..200),
        small in proptest::collection::vec(0u64..4, 1..200),
        draws in proptest::collection::vec(any::<u64>(), 64),
    ) {
        for weights in [weights, small] {
            let mut prefix = vec![0u64];
            for w in weights {
                prefix.push(prefix.last().unwrap() + w);
            }
            let t = GuideTable::new(&prefix);
            let total = t.total();
            if total == 0 {
                continue;
            }
            // Every weight's first draw, the draw before it, and random
            // draws; `small` also has zero weights.
            let bounds = prefix.iter().flat_map(|&p| [p, p.saturating_sub(1)]);
            let random = draws.iter().map(|&d| d % total);
            for w in bounds.chain(random).filter(|&w| w < total) {
                prop_assert_eq!(t.find(w), prefix.partition_point(|&p| p <= w) - 1, "draw {}", w);
            }
        }
    }

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
}
