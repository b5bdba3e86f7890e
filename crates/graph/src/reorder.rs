//! Graph preprocessing (vertex reordering) techniques.
//!
//! Preprocessing reorders vertex ids in the adjacency matrix to improve
//! locality (paper Sec. II-D) and, under compression, *value locality*:
//! topological orders place highly connected vertices nearby, so neighbor
//! sets hold similar ids and compress well (Fig. 18).
//!
//! * [`randomize`] — random relabeling; the paper uses this to produce the
//!   *non*-preprocessed variants, since several published inputs ship
//!   already ordered.
//! * [`degree_sort`] — lightweight degree sorting (descending).
//! * [`bfs_order`] — BFS/Cuthill–McKee-style topological order.
//! * [`dfs_order`] — DFS topological order, the paper's default
//!   preprocessing.
//! * [`gorder_lite`] — a windowed greedy neighbour-affinity order standing
//!   in for the heavyweight GOrder algorithm.

use crate::{Csr, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// The preprocessing techniques compared in Fig. 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preprocessing {
    /// Random relabeling (the non-preprocessed baseline).
    None,
    /// Degree sorting (descending).
    DegreeSort,
    /// BFS topological order.
    Bfs,
    /// DFS topological order (the paper's default).
    Dfs,
    /// Greedy neighbour-affinity order (GOrder stand-in).
    GOrder,
}

impl Preprocessing {
    /// All techniques, in the order Fig. 18 presents them.
    pub fn all() -> [Preprocessing; 5] {
        [
            Preprocessing::None,
            Preprocessing::DegreeSort,
            Preprocessing::Bfs,
            Preprocessing::Dfs,
            Preprocessing::GOrder,
        ]
    }

    /// Applies this technique to `g` (with `seed` for [`Preprocessing::None`]).
    pub fn apply(self, g: &Csr, seed: u64) -> Csr {
        match self {
            Preprocessing::None => randomize(g, seed),
            Preprocessing::DegreeSort => degree_sort(g),
            Preprocessing::Bfs => bfs_order(g),
            Preprocessing::Dfs => dfs_order(g),
            Preprocessing::GOrder => gorder_lite(g, 8),
        }
    }
}

impl std::fmt::Display for Preprocessing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Preprocessing::None => "None",
            Preprocessing::DegreeSort => "DegreeSort",
            Preprocessing::Bfs => "BFS",
            Preprocessing::Dfs => "DFS",
            Preprocessing::GOrder => "GOrder",
        };
        f.write_str(s)
    }
}

/// Relabels `g` so that old vertex `v` becomes `perm[v]`.
///
/// Each new row's offset follows from the permuted degrees, so every old
/// row's relabeled neighbours (and values) are written straight into their
/// new row, and only that row is sorted. `g`'s rows hold no self-loops or
/// repeated neighbours (every constructor but [`Csr::from_parts`] ensures
/// this), so neither do the relabeled rows.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..num_vertices`.
pub fn apply_permutation(g: &Csr, perm: &[VertexId]) -> Csr {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(!seen[p as usize], "duplicate target id {p}");
        seen[p as usize] = true;
    }
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[perm[v] as usize + 1] = g.out_degree(v as VertexId) as u64;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut neighbors = vec![0 as VertexId; g.num_edges()];
    let mut values = g.values_flat().map(|_| vec![0.0; g.num_edges()]);
    // Sort keys of a row with values: new id above, old position below.
    let mut keys: Vec<u64> = Vec::new();
    for v in 0..n {
        let new_row = perm[v] as usize;
        let (lo, hi) = (offsets[new_row] as usize, offsets[new_row + 1] as usize);
        let old = g.neighbors(v as VertexId);
        match (&mut values, g.row_values(v as VertexId)) {
            (Some(values), Some(old_values)) => {
                keys.clear();
                keys.extend(
                    old.iter()
                        .enumerate()
                        .map(|(j, &d)| (perm[d as usize] as u64) << 32 | j as u64),
                );
                keys.sort_unstable();
                for (i, &k) in (lo..hi).zip(&keys) {
                    neighbors[i] = (k >> 32) as VertexId;
                    values[i] = old_values[k as u32 as usize];
                }
            }
            _ => {
                let row = &mut neighbors[lo..hi];
                for (slot, &d) in row.iter_mut().zip(old) {
                    *slot = perm[d as usize];
                }
                row.sort_unstable();
            }
        }
    }
    Csr::from_parts(n, offsets, neighbors, values)
}

/// Inverts an order (`order[i]` = the old id placed at position `i`) into a
/// relabeling permutation (`perm[old]` = new id).
fn order_to_perm(order: &[VertexId]) -> Vec<VertexId> {
    let mut perm = vec![0 as VertexId; order.len()];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as VertexId;
    }
    perm
}

/// Randomly relabels all vertices (Fisher–Yates, seeded).
pub fn randomize(g: &Csr, seed: u64) -> Csr {
    let n = g.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    apply_permutation(g, &perm)
}

/// Sorts vertices by descending out-degree (stable, so ties keep their
/// relative order).
pub fn degree_sort(g: &Csr) -> Csr {
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    apply_permutation(g, &order_to_perm(&order))
}

/// Orders vertices by BFS discovery from the highest-degree vertex,
/// restarting on the highest-degree unvisited vertex for each component.
pub fn bfs_order(g: &Csr) -> Csr {
    let order = traversal_order(g, false);
    apply_permutation(g, &order_to_perm(&order))
}

/// Orders vertices by DFS discovery (the paper's default preprocessing).
pub fn dfs_order(g: &Csr) -> Csr {
    let order = traversal_order(g, true);
    apply_permutation(g, &order_to_perm(&order))
}

fn traversal_order(g: &Csr, depth_first: bool) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut roots: Vec<VertexId> = (0..n as VertexId).collect();
    roots.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    let mut queue: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();
    for root in roots {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = if depth_first {
            queue.pop_back()
        } else {
            queue.pop_front()
        } {
            order.push(v);
            for &nbr in g.neighbors(v) {
                if !visited[nbr as usize] {
                    visited[nbr as usize] = true;
                    queue.push_back(nbr);
                }
            }
        }
    }
    order
}

/// Greedy windowed neighbour-affinity ordering (GOrder stand-in).
///
/// Repeatedly appends the unplaced vertex with the most connections to the
/// last `window` placed vertices, using a lazily-updated max-heap. The real
/// GOrder maximizes the same windowed affinity score; this greedy variant
/// keeps its qualitative behaviour (clustering tightly connected vertices)
/// at tractable cost.
pub fn gorder_lite(g: &Csr, window: usize) -> Csr {
    let n = g.num_vertices();
    let incoming = g.transpose();
    let mut score = vec![0u32; n];
    let mut placed = vec![false; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    // Max-heap of (score, degree, vertex) with lazy invalidation.
    let mut heap: BinaryHeap<(u32, u32, VertexId)> = (0..n as VertexId)
        .map(|v| (0u32, g.out_degree(v) as u32, v))
        .collect();

    let bump = |v: VertexId,
                delta: i32,
                score: &mut Vec<u32>,
                heap: &mut BinaryHeap<(u32, u32, VertexId)>,
                g: &Csr,
                incoming: &Csr,
                placed: &[bool]| {
        // Affinity counts shared edges in either direction.
        for &nbr in g.neighbors(v).iter().chain(incoming.neighbors(v)) {
            if placed[nbr as usize] {
                continue;
            }
            let s = &mut score[nbr as usize];
            *s = (*s as i32 + delta).max(0) as u32;
            if delta > 0 {
                heap.push((*s, g.out_degree(nbr) as u32, nbr));
            }
        }
    };

    while order.len() < n {
        // Pop until a live entry appears.
        let v = loop {
            match heap.pop() {
                Some((s, _, v)) if !placed[v as usize] && s == score[v as usize] => break v,
                Some(_) => continue,
                None => {
                    // Heap exhausted by staleness; refill with remaining.
                    for v in 0..n as VertexId {
                        if !placed[v as usize] {
                            heap.push((score[v as usize], g.out_degree(v) as u32, v));
                        }
                    }
                    continue;
                }
            }
        };
        placed[v as usize] = true;
        order.push(v);
        bump(v, 1, &mut score, &mut heap, g, &incoming, &placed);
        if order.len() > window {
            let leaving = order[order.len() - window - 1];
            bump(leaving, -1, &mut score, &mut heap, g, &incoming, &placed);
        }
    }
    apply_permutation(g, &order_to_perm(&order))
}

/// Mean delta-code bytes per neighbor across all neighbor sets — the
/// adjacency-compressibility metric the preprocessing study reports.
pub fn adjacency_delta_bytes_per_edge(g: &Csr) -> f64 {
    use spzip_compress::{delta::DeltaCodec, Codec};
    let codec = DeltaCodec::new();
    let mut total = 0usize;
    for v in 0..g.num_vertices() as VertexId {
        let row: Vec<u64> = g.neighbors(v).iter().map(|&d| d as u64).collect();
        if !row.is_empty() {
            total += codec.compressed_len(&row);
        }
    }
    total as f64 / g.num_edges().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatParams};

    fn sample() -> Csr {
        rmat(&RmatParams::web(9, 8), 11)
    }

    /// Edge multiset is invariant under relabeling.
    fn assert_isomorphic(a: &Csr, b: &Csr) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        let mut da: Vec<usize> = (0..a.num_vertices() as VertexId)
            .map(|v| a.out_degree(v))
            .collect();
        let mut db: Vec<usize> = (0..b.num_vertices() as VertexId)
            .map(|v| b.out_degree(v))
            .collect();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
    }

    #[test]
    fn all_techniques_preserve_structure() {
        let g = sample();
        for p in Preprocessing::all() {
            let r = p.apply(&g, 5);
            assert_isomorphic(&g, &r);
        }
    }

    #[test]
    fn randomize_is_seeded() {
        let g = sample();
        assert_eq!(randomize(&g, 1), randomize(&g, 1));
        assert_ne!(randomize(&g, 1), randomize(&g, 2));
    }

    #[test]
    fn degree_sort_is_descending() {
        let g = degree_sort(&sample());
        let degs: Vec<usize> = (0..g.num_vertices() as VertexId)
            .map(|v| g.out_degree(v))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn topological_orders_improve_compressibility() {
        // The core claim behind Fig. 18: randomized ids compress poorly;
        // DFS/BFS/GOrder recover value locality. Needs community structure
        // and an id space large enough that locality changes delta widths.
        use crate::gen::{community, CommunityParams};
        let g = randomize(&community(&CommunityParams::web_crawl(1 << 14, 12), 11), 3);
        let random_cost = adjacency_delta_bytes_per_edge(&g);
        let mut topo_costs = Vec::new();
        for p in [
            Preprocessing::Bfs,
            Preprocessing::Dfs,
            Preprocessing::GOrder,
        ] {
            let cost = adjacency_delta_bytes_per_edge(&p.apply(&g, 0));
            assert!(
                cost < random_cost * 0.92,
                "{p}: {cost:.2} vs random {random_cost:.2}"
            );
            topo_costs.push(cost);
        }
        // And they beat degree sorting (the Fig. 18 ordering).
        let ds = adjacency_delta_bytes_per_edge(&Preprocessing::DegreeSort.apply(&g, 0));
        for cost in topo_costs {
            assert!(cost < ds, "{cost:.2} vs degree-sort {ds:.2}");
        }
    }

    #[test]
    fn permutation_validation_rejects_duplicates() {
        let g = Csr::from_edges(3, &[(0, 1)]);
        let result = std::panic::catch_unwind(|| apply_permutation(&g, &[0, 0, 1]));
        assert!(result.is_err());
    }

    #[test]
    fn order_to_perm_inverts() {
        let order = vec![2, 0, 1];
        assert_eq!(order_to_perm(&order), vec![1, 2, 0]);
    }

    #[test]
    fn display_names_match_fig18() {
        let names: Vec<String> = Preprocessing::all().iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["None", "DegreeSort", "BFS", "DFS", "GOrder"]);
    }

    #[test]
    fn values_survive_reordering() {
        let m = Csr::from_entries(3, &[(0, 1, 5.0), (1, 2, 6.0)]);
        let r = apply_permutation(&m, &[2, 1, 0]);
        assert_eq!(r.row_values(2), Some(&[5.0][..]));
        assert_eq!(r.row_values(1), Some(&[6.0][..]));
    }
}
