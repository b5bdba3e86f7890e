#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Sparse data structures for irregular applications.
//!
//! This crate provides the substrate data structures that the SpZip paper's
//! workloads operate on:
//!
//! * [`csr`] — the Compressed Sparse Row format (Fig. 1 / Fig. 4 of the
//!   paper): `offsets` and `neighbors` arrays encoding a sparse matrix or a
//!   graph adjacency matrix row by row, with optional per-edge values for
//!   linear algebra kernels.
//! * [`gen`] — deterministic, seeded generators standing in for the paper's
//!   web/social graphs and the `nlpkkt240` matrix: RMAT/Kronecker graphs with
//!   configurable skew (community structure), uniform graphs, and 3-D grid
//!   stencil matrices.
//! * [`reorder`] — the preprocessing techniques of Sec. II-D / Fig. 18:
//!   random relabeling (the paper's *non*-preprocessed variant), degree
//!   sorting, BFS and DFS topological orders, and a GOrder-like greedy
//!   neighbour-affinity order.
//! * [`datasets`] — the named synthetic analogs of Table III.
//!
//! The term *compressed* in "Compressed Sparse Row" only means zeros are not
//! stored; following the paper, *compression* in this codebase always refers
//! to entropy compression of the stored data.

pub mod csr;
pub mod datasets;
pub mod gen;
pub mod reorder;

/// Vertex (and column) identifier. 32 bits suffice for the scaled inputs and
/// match the paper's 4-byte neighbor ids.
pub type VertexId = u32;

pub use csr::Csr;
