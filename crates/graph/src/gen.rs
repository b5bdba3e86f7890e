//! Deterministic graph and matrix generators.
//!
//! The paper evaluates on large web/social graphs and a structured
//! optimization matrix (Table III). Those inputs are multi-gigabyte
//! downloads, so this reproduction generates synthetic analogs with the
//! properties the paper's conclusions depend on: power-law degree
//! distributions (RMAT), controllable community structure (RMAT skew plus a
//! locality knob), and regular grid structure (the `nlpkkt240` analog).
//! Every generator is seeded and deterministic.

use crate::{Csr, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of an RMAT (recursive-matrix / Kronecker) graph generator.
///
/// Quadrant probabilities `(a, b, c, d)` must sum to ~1. Larger `a`
/// concentrates edges recursively (hub vertices and community structure,
/// like web graphs); `a` near `0.25` degenerates to a uniform random graph
/// (like the paper's Twitter input, which has "little community structure").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Log2 of the number of vertices.
    pub scale: u32,
    /// Average directed edges per vertex requested from the generator
    /// (deduplication makes the realized degree slightly lower).
    pub edge_factor: usize,
}

impl RmatParams {
    /// Classic Graph500-style skew, a good web-graph analog.
    pub fn web(scale: u32, edge_factor: usize) -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            scale,
            edge_factor,
        }
    }

    /// Low-skew, low-community-structure analog of a social graph.
    pub fn social(scale: u32, edge_factor: usize) -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            scale,
            edge_factor,
        }
    }

    /// Probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates an RMAT graph.
///
/// Vertex ids are *not* shuffled: RMAT's recursive construction leaves
/// natural community structure in the id space, standing in for the
/// "already preprocessed" ordering of the paper's published inputs. Use
/// [`crate::reorder::randomize`] for the non-preprocessed variants.
///
/// # Examples
///
/// ```
/// use spzip_graph::gen::{rmat, RmatParams};
///
/// let g = rmat(&RmatParams::web(8, 4), 42);
/// assert_eq!(g.num_vertices(), 256);
/// assert!(g.num_edges() > 500);
/// ```
pub fn rmat(params: &RmatParams, seed: u64) -> Csr {
    let n = 1usize << params.scale;
    let num_edges = n * params.edge_factor;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let (mut lo_s, mut lo_d) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            let r: f64 = rng.gen();
            // Add per-level noise so the quadrant probabilities vary
            // slightly, avoiding pathological self-similarity.
            let noise: f64 = rng.gen_range(-0.05..0.05);
            let a = (params.a + noise).clamp(0.05, 0.9);
            let b = params.b;
            let c = params.c;
            if r < a {
                // top-left: neither bit set
            } else if r < a + b {
                lo_d += half;
            } else if r < a + b + c {
                lo_s += half;
            } else {
                lo_s += half;
                lo_d += half;
            }
            half >>= 1;
        }
        edges.push((lo_s as VertexId, lo_d as VertexId));
    }
    Csr::from_edges(n, &edges)
}

/// Parameters of the planted-community generator.
///
/// Web crawls owe their preprocessing-friendliness to strong community
/// structure: most links stay within a site/community, so topological
/// reorderings cluster neighbor ids. RMAT lacks true communities, so the
/// web-graph analogs use this generator instead. `intra_prob` controls how
/// much structure exists for preprocessing to recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityParams {
    /// Number of vertices.
    pub n: usize,
    /// Average directed out-degree requested.
    pub edge_factor: usize,
    /// Probability an edge stays within its source's community.
    pub intra_prob: f64,
    /// Smallest community size; sizes follow a Pareto tail above this.
    pub min_community: usize,
    /// Largest community size.
    pub max_community: usize,
    /// Degree-skew exponent (larger = heavier hub tail), in `(0, 1)`.
    pub degree_skew: f64,
}

impl CommunityParams {
    /// A web-crawl-like default for `n` vertices.
    pub fn web_crawl(n: usize, edge_factor: usize) -> Self {
        CommunityParams {
            n,
            edge_factor,
            intra_prob: 0.85,
            min_community: 32,
            max_community: (n / 16).max(64),
            degree_skew: 0.6,
        }
    }
}

/// Generates a directed graph with planted power-law communities and
/// power-law out-degrees.
///
/// Vertex ids are contiguous within communities, so the *natural* order is
/// clustered (standing in for the already-preprocessed ordering of published
/// web crawls); [`crate::reorder::randomize`] destroys that locality and
/// topological reorderings recover it.
pub fn community(params: &CommunityParams, seed: u64) -> Csr {
    let n = params.n;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Partition 0..n into contiguous communities with a Pareto size tail.
    let mut bounds = vec![0usize];
    while *bounds.last().unwrap() < n {
        let u: f64 = rng.gen_range(1e-3..1.0f64);
        let size = ((params.min_community as f64) / u.powf(0.7)) as usize;
        let size = size.clamp(params.min_community, params.max_community);
        bounds.push((bounds.last().unwrap() + size).min(n));
    }
    // community_of[v] = index into bounds of v's community start.
    let mut community_of = vec![0usize; n];
    for c in 0..bounds.len() - 1 {
        community_of[bounds[c]..bounds[c + 1]].fill(c);
    }
    // Power-law out-degrees with the requested mean, assigned first so that
    // global edges can be hub-biased (preferential attachment): vertices
    // with many outgoing links also attract incoming links, which is what
    // makes degree sorting a useful (if weaker) preprocessing.
    let mean_scale = params.edge_factor as f64 * (1.0 - params.degree_skew);
    let degs: Vec<usize> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-4..1.0f64);
            ((mean_scale / u.powf(params.degree_skew)) as usize).clamp(1, (n / 8).max(1))
        })
        .collect();
    let mut deg_prefix = Vec::with_capacity(n + 1);
    deg_prefix.push(0u64);
    for &d in &degs {
        deg_prefix.push(deg_prefix.last().unwrap() + d as u64);
    }
    let total_weight = *deg_prefix.last().unwrap();
    let targets = GuideTable::new(&deg_prefix);

    // Rows are drawn in source order, so each is sorted, deduplicated
    // and closed as soon as its targets are drawn.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut neighbors: Vec<VertexId> = Vec::with_capacity(total_weight as usize);
    for v in 0..n {
        let c = community_of[v];
        let (lo, hi) = (bounds[c], bounds[c + 1]);
        let start = neighbors.len();
        for _ in 0..degs[v] {
            let dst = if rng.gen_bool(params.intra_prob) && hi - lo > 1 {
                rng.gen_range(lo..hi)
            } else {
                // Degree-weighted global target.
                targets.find(rng.gen_range(0..total_weight))
            };
            if dst != v {
                neighbors.push(dst as VertexId);
            }
        }
        neighbors[start..].sort_unstable();
        let mut end = start;
        for i in start..neighbors.len() {
            if end == start || neighbors[end - 1] != neighbors[i] {
                neighbors[end] = neighbors[i];
                end += 1;
            }
        }
        neighbors.truncate(end);
        offsets.push(end as u64);
    }
    neighbors.shrink_to_fit();
    Csr::from_parts(n, offsets, neighbors, None)
}

/// Finds which weight a draw falls in, given the weights' running sums.
///
/// For a prefix `0 = p[0] <= p[1] <= ... <= p[n]`, [`GuideTable::find`]`(w)`
/// is the largest `i` with `p[i] <= w`, exactly
/// `p.partition_point(|&x| x <= w) - 1`. A guide table indexed by the
/// draw's high bits stores, for each bucket start, the index that start
/// falls in, so a lookup only searches between two adjacent guide entries
/// (about one weight for most draws) instead of the whole prefix.
///
/// # Examples
///
/// ```
/// use spzip_graph::gen::GuideTable;
///
/// let prefix = [0, 3, 4, 10];
/// let t = GuideTable::new(&prefix);
/// let found: Vec<usize> = (0..10).map(|w| t.find(w)).collect();
/// assert_eq!(found, [0, 0, 0, 1, 2, 2, 2, 2, 2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GuideTable<'a> {
    prefix: &'a [u64],
    /// `guide[k]` is the index that draw `k << shift` falls in, capped at
    /// the last weight.
    guide: Vec<u32>,
    shift: u32,
}

impl<'a> GuideTable<'a> {
    /// Builds the table over `prefix`: at most `2n + 2` guide entries for
    /// `n` weights.
    ///
    /// # Panics
    ///
    /// Panics unless `prefix` starts at 0, never decreases, and holds at
    /// most `u32::MAX` weights.
    pub fn new(prefix: &'a [u64]) -> Self {
        assert_eq!(prefix.first(), Some(&0), "prefix must start at 0");
        assert!(
            prefix.windows(2).all(|p| p[0] <= p[1]),
            "prefix must not decrease"
        );
        let n = prefix.len() - 1;
        let last = u32::try_from(n.saturating_sub(1)).expect("at most u32::MAX weights");
        let width = |x: u64| u64::BITS - x.leading_zeros();
        let max_draw = prefix[n].saturating_sub(1);
        let shift = width(max_draw).saturating_sub(width(n as u64));
        let mut guide = Vec::with_capacity((max_draw >> shift) as usize + 2);
        let mut i = 0;
        for k in 0..=(max_draw >> shift) + 1 {
            let start = k.saturating_mul(1 << shift);
            while i < last && prefix[i as usize + 1] <= start {
                i += 1;
            }
            guide.push(i);
        }
        GuideTable {
            prefix,
            guide,
            shift,
        }
    }

    /// The sum of all weights: draws range over `0..total()`.
    pub fn total(&self) -> u64 {
        *self.prefix.last().expect("prefix is non-empty")
    }

    /// The index `i` with `prefix[i] <= w < prefix[i + 1]`, taking the
    /// largest such `i` when weights are zero.
    ///
    /// # Panics
    ///
    /// Panics if `w >= total()`.
    pub fn find(&self, w: u64) -> usize {
        assert!(w < self.total(), "draw {w} out of range");
        let k = (w >> self.shift) as usize;
        let (lo, hi) = (self.guide[k] as usize, self.guide[k + 1] as usize);
        lo + self.prefix[lo + 1..=hi].partition_point(|&p| p <= w)
    }
}

/// Generates a uniform (Erdős–Rényi style) directed graph with `n` vertices
/// and approximately `n * edge_factor` edges.
pub fn uniform(n: usize, edge_factor: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(VertexId, VertexId)> = (0..n * edge_factor)
        .map(|_| {
            (
                rng.gen_range(0..n) as VertexId,
                rng.gen_range(0..n) as VertexId,
            )
        })
        .collect();
    Csr::from_edges(n, &edges)
}

/// Generates a symmetric 3-D grid stencil matrix: each cell connects to its
/// neighbours within a cube of side `2 * radius + 1`, the analog of the
/// paper's structured `nlpkkt240` optimization matrix.
///
/// Values are a diagonal-dominant stencil so SpMV results are well-behaved.
pub fn grid3d(side: usize, radius: usize, seed: u64) -> Csr {
    let n = side * side * side;
    let mut rng = SmallRng::seed_from_u64(seed);
    let idx = |x: usize, y: usize, z: usize| (x * side + y) * side + z;
    let mut entries = Vec::new();
    let r = radius as isize;
    for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                let row = idx(x, y, z) as VertexId;
                for dx in -r..=r {
                    for dy in -r..=r {
                        for dz in -r..=r {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (nx, ny, nz) = (x as isize + dx, y as isize + dy, z as isize + dz);
                            if nx < 0
                                || ny < 0
                                || nz < 0
                                || nx >= side as isize
                                || ny >= side as isize
                                || nz >= side as isize
                            {
                                continue;
                            }
                            let col = idx(nx as usize, ny as usize, nz as usize) as VertexId;
                            let v: f64 = rng.gen_range(-1.0..1.0);
                            entries.push((row, col, v));
                        }
                    }
                }
            }
        }
    }
    Csr::from_entries(n, &entries)
}

/// Degree-distribution summary used by tests and the dataset table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Maximum out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Fraction of edges owned by the top 1% highest-degree vertices.
    pub top1pct_edge_share: f64,
}

/// Computes [`DegreeStats`] for a graph.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let mut degs: Vec<usize> = (0..g.num_vertices() as VertexId)
        .map(|v| g.out_degree(v))
        .collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = degs.iter().sum();
    let top = (degs.len() / 100).max(1);
    let top_sum: usize = degs[..top].iter().sum();
    DegreeStats {
        max: degs.first().copied().unwrap_or(0),
        mean: total as f64 / degs.len().max(1) as f64,
        top1pct_edge_share: if total == 0 {
            0.0
        } else {
            top_sum as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let p = RmatParams::web(8, 8);
        let g1 = rmat(&p, 7);
        let g2 = rmat(&p, 7);
        assert_eq!(g1, g2);
        let g3 = rmat(&p, 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_is_skewed_uniform_is_not() {
        let skewed = rmat(&RmatParams::web(10, 8), 1);
        let flat = uniform(1024, 8, 1);
        let s = degree_stats(&skewed);
        let f = degree_stats(&flat);
        assert!(
            s.top1pct_edge_share > 2.0 * f.top1pct_edge_share,
            "skewed {s:?} vs flat {f:?}"
        );
        assert!(s.max > 4 * f.max, "skewed {s:?} vs flat {f:?}");
    }

    #[test]
    fn social_params_less_skewed_than_web() {
        let web = degree_stats(&rmat(&RmatParams::web(10, 8), 3));
        let soc = degree_stats(&rmat(&RmatParams::social(10, 8), 3));
        assert!(web.top1pct_edge_share > soc.top1pct_edge_share);
    }

    #[test]
    fn grid3d_shape() {
        let m = grid3d(5, 1, 0);
        assert_eq!(m.num_vertices(), 125);
        // Interior cells have 26 neighbours.
        let interior = (5 + 1) * 5 + 1;
        assert_eq!(m.out_degree(interior as VertexId), 26);
        // Corner cells have 7.
        assert_eq!(m.out_degree(0), 7);
        assert!(m.values_flat().is_some());
    }

    #[test]
    fn grid3d_is_symmetric_pattern() {
        let m = grid3d(4, 1, 0);
        let t = m.transpose();
        assert_eq!(m.offsets(), t.offsets());
        assert_eq!(m.neighbors_flat(), t.neighbors_flat());
    }

    #[test]
    fn community_handles_fewer_than_eight_vertices() {
        // The degree cap `n / 8` is 0 below eight vertices; it must still
        // admit degree 1 there instead of panicking.
        for n in 0..=8 {
            let g = community(&CommunityParams::web_crawl(n, 4), 1);
            assert_eq!(g.num_vertices(), n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn guide_table_rejects_draws_past_the_total() {
        GuideTable::new(&[0, 2, 3]).find(3);
    }

    #[test]
    fn rmat_d_complements() {
        let p = RmatParams::web(4, 2);
        assert!((p.a + p.b + p.c + p.d() - 1.0).abs() < 1e-12);
    }
}
