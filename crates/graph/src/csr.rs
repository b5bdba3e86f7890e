//! Compressed Sparse Row (CSR) matrices and adjacency matrices.
//!
//! CSR stores, for each row `i`, the starting location of its elements via
//! `offsets[i]`, and the column coordinates (and optional values) of its
//! nonzeros contiguously in `neighbors` (and `values`) — the layout of
//! Fig. 1 and Fig. 4 in the paper.

use crate::VertexId;
use std::fmt;

/// A sparse matrix / graph adjacency matrix in CSR format.
///
/// For graphs, rows are source vertices and `neighbors` holds destination
/// ids (outgoing edges); for matrices, `values` carries the nonzero values.
///
/// # Examples
///
/// ```
/// use spzip_graph::Csr;
///
/// // The 4x4 example matrix of the paper's Fig. 4.
/// let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 3), (3, 1), (3, 2)]);
/// assert_eq!(g.offsets(), &[0, 2, 4, 5, 7]);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.out_degree(2), 1);
/// ```
#[derive(Clone, PartialEq)]
pub struct Csr {
    num_vertices: usize,
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    values: Option<Vec<f64>>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge list, deduplicating parallel edges
    /// and dropping self-loops. Neighbor sets come out sorted, as is
    /// conventional for CSR (and assumed by delta compression).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::build(
            num_vertices,
            || edges.iter().map(|&(s, d)| (s, d, 0.0)),
            false,
        )
    }

    /// Builds a CSR matrix with per-nonzero values, dropping diagonal
    /// entries like [`Csr::from_edges`] drops self-loops. Of several entries
    /// with the same coordinates, the first in input order is kept.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is `>= num_vertices`.
    pub fn from_entries(num_vertices: usize, entries: &[(VertexId, VertexId, f64)]) -> Self {
        Self::build(num_vertices, || entries.iter().copied(), true)
    }

    /// Counting sort by source: counts each row, scatters every entry to
    /// the next free slot of its row in input order, then sorts and
    /// deduplicates each row in place while compacting the rows leftwards.
    /// `entries` is called twice, once per pass; self-loops are skipped in
    /// both.
    fn build<I>(num_vertices: usize, entries: impl Fn() -> I, keep_values: bool) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId, f64)>,
    {
        let mut offsets = vec![0u64; num_vertices + 1];
        for (s, d, _) in entries() {
            assert!(
                (s as usize) < num_vertices && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of range for {num_vertices} vertices"
            );
            if s != d {
                offsets[s as usize + 1] += 1;
            }
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let len = offsets[num_vertices] as usize;

        // After the scatter, `next[r]` is row r's end.
        let mut next = offsets[..num_vertices].to_vec();
        let mut neighbors = vec![0 as VertexId; len];
        let mut values = keep_values.then(|| vec![0.0; len]);
        for (s, d, v) in entries() {
            if s != d {
                let slot = &mut next[s as usize];
                let i = *slot as usize;
                *slot += 1;
                neighbors[i] = d;
                if let Some(values) = &mut values {
                    values[i] = v;
                }
            }
        }

        // Sort keys of a row with values (column above, position in input
        // order below) and a copy of the row's values, which compaction
        // may overwrite before they are read.
        let mut keys: Vec<u64> = Vec::new();
        let mut row_values: Vec<f64> = Vec::new();
        let mut w = 0;
        for r in 0..num_vertices {
            let (lo, hi) = (offsets[r] as usize, next[r] as usize);
            offsets[r] = w as u64;
            match &mut values {
                None => {
                    neighbors[lo..hi].sort_unstable();
                    for i in lo..hi {
                        if w == offsets[r] as usize || neighbors[w - 1] != neighbors[i] {
                            neighbors[w] = neighbors[i];
                            w += 1;
                        }
                    }
                }
                Some(values) => {
                    assert!(hi - lo <= u32::MAX as usize, "row {r} too long");
                    keys.clear();
                    keys.extend((lo..hi).map(|i| (neighbors[i] as u64) << 32 | (i - lo) as u64));
                    keys.sort_unstable();
                    row_values.clear();
                    row_values.extend_from_slice(&values[lo..hi]);
                    // The first key of each run of equal columns is the
                    // entry that came first in input order.
                    for (j, &k) in keys.iter().enumerate() {
                        if j == 0 || keys[j - 1] >> 32 != k >> 32 {
                            neighbors[w] = (k >> 32) as VertexId;
                            values[w] = row_values[k as u32 as usize];
                            w += 1;
                        }
                    }
                }
            }
        }
        offsets[num_vertices] = w as u64;
        neighbors.truncate(w);
        neighbors.shrink_to_fit();
        if let Some(values) = &mut values {
            values.truncate(w);
            values.shrink_to_fit();
        }
        Csr {
            num_vertices,
            offsets,
            neighbors,
            values,
        }
    }

    /// Builds a CSR directly from prevalidated arrays (used by reorderers).
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent.
    pub fn from_parts(
        num_vertices: usize,
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        values: Option<Vec<f64>>,
    ) -> Self {
        assert_eq!(offsets.len(), num_vertices + 1, "offsets length");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            neighbors.len(),
            "last offset"
        );
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets monotone");
        if let Some(v) = &values {
            assert_eq!(v.len(), neighbors.len(), "values length");
        }
        Csr {
            num_vertices,
            offsets,
            neighbors,
            values,
        }
    }

    /// Number of rows / vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of stored nonzeros / directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The row-offsets array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated neighbor array.
    pub fn neighbors_flat(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Per-nonzero values, if this CSR carries them.
    pub fn values_flat(&self) -> Option<&[f64]> {
        self.values.as_deref()
    }

    /// The neighbor set of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.row_range(v);
        &self.neighbors[s..e]
    }

    /// The values of row `v`, if present.
    pub fn row_values(&self, v: VertexId) -> Option<&[f64]> {
        let (s, e) = self.row_range(v);
        self.values.as_ref().map(|vals| &vals[s..e])
    }

    /// `(start, end)` positions of row `v` within the flat arrays.
    pub fn row_range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        assert!(v < self.num_vertices, "vertex {v} out of range");
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let (s, e) = self.row_range(v);
        e - s
    }

    /// The transpose (reversed edges); values follow their nonzeros.
    pub fn transpose(&self) -> Csr {
        Self::build(
            self.num_vertices,
            || self.iter_edges().map(|(s, d, v)| (d, s, v)),
            self.values.is_some(),
        )
    }

    /// Iterates `(src, dst, value)` over all stored edges (value 0.0 when
    /// the CSR has no values).
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices as VertexId).flat_map(move |s| {
            let (lo, hi) = self.row_range(s);
            (lo..hi).map(move |i| {
                let v = self.values.as_ref().map_or(0.0, |vals| vals[i]);
                (s, self.neighbors[i], v)
            })
        })
    }

    /// In-memory footprint of the structure in bytes (offsets + neighbors +
    /// values), used for cache-scaling decisions.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.neighbors.len() * 4
            + self.values.as_ref().map_or(0, |v| v.len() * 8)
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges())
            .field("has_values", &self.values.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_graph() -> Csr {
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 3), (3, 1), (3, 2)])
    }

    #[test]
    fn fig4_layout() {
        let g = paper_graph();
        assert_eq!(g.offsets(), &[0, 2, 4, 5, 7]);
        assert_eq!(g.neighbors_flat(), &[1, 2, 0, 2, 3, 1, 2]);
        assert_eq!(g.num_edges(), 7);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Csr::from_edges(3, &[(0, 1), (0, 1), (1, 1), (2, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.out_degree(1), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Csr::from_edges(5, &[(0, 4), (0, 1), (0, 3), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn transpose_roundtrip() {
        let g = paper_graph();
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0, 3]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn values_follow_transpose() {
        let m = Csr::from_entries(3, &[(0, 1, 2.5), (1, 2, -1.0), (2, 0, 4.0)]);
        let t = m.transpose();
        assert_eq!(t.row_values(1), Some(&[2.5][..]));
        assert_eq!(t.row_values(0), Some(&[4.0][..]));
    }

    #[test]
    fn from_entries_keeps_the_first_duplicate() {
        // Long enough that an unstable sort would reorder equal columns.
        let entries: Vec<(VertexId, VertexId, f64)> =
            (0..300).map(|i| (0, 1 + (i * 7) % 13, i as f64)).collect();
        let m = Csr::from_entries(14, &entries);
        assert_eq!(m.neighbors(0), (1..14).collect::<Vec<_>>());
        for (&col, &value) in m.neighbors(0).iter().zip(m.row_values(0).unwrap()) {
            let first = entries.iter().find(|e| e.1 == col).unwrap().2;
            assert_eq!(value, first, "column {col}");
        }
    }

    #[test]
    fn iter_edges_covers_all() {
        let g = paper_graph();
        let edges: Vec<(VertexId, VertexId)> = g.iter_edges().map(|(s, d, _)| (s, d)).collect();
        assert_eq!(edges.len(), 7);
        assert!(edges.contains(&(3, 2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn from_parts_validates() {
        let g = paper_graph();
        let rebuilt = Csr::from_parts(4, g.offsets().to_vec(), g.neighbors_flat().to_vec(), None);
        assert_eq!(rebuilt, g);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn from_parts_rejects_bad_offsets() {
        Csr::from_parts(2, vec![0, 1, 5], vec![1], None);
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let g = paper_graph();
        assert_eq!(g.footprint_bytes(), 5 * 8 + 7 * 4);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.offsets(), &[0, 0, 0, 0]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", paper_graph()).contains("num_edges"));
    }
}
