#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Memory-hierarchy timing model: the simulation substrate.
//!
//! The paper evaluates SpZip with execution-driven microarchitectural
//! simulation (zsim) of a 16-core Haswell-like system (Table II). This crate
//! is the reproduction's stand-in: a cycle-level model of the cache
//! hierarchy, coherence, NoC, and DRAM that the simulation engine
//! (`spzip-sim`) drives with memory accesses.
//!
//! * [`cache`] — set-associative write-back caches with LRU and DRRIP
//!   replacement.
//! * [`hierarchy`] — the full system: per-core private L1/L2, a shared
//!   inclusive LLC with a sharer directory (MESI-style invalidations, no
//!   silent drops), a 4×4 mesh NoC latency model, and DRAM channels.
//! * [`dram`] — FR-FCFS-approximating bandwidth queues per memory
//!   controller; bandwidth saturation (the paper's central regime) is
//!   emergent from the queues.
//! * [`phi`] — the PHI baseline's LLC-level update-coalescing unit.
//! * [`cmh`] — the compressed-memory-hierarchy baseline of Fig. 22 (VSC
//!   LLC with BDI + LCP main memory).
//! * [`stats`] — DRAM-boundary traffic accounting by data type, matching
//!   the paper's traffic breakdowns.
//!
//! Addresses are synthetic (allocated by the application layer); the model
//! tracks tags and metadata only, never data bytes. Where a model needs
//! data contents (CMH's BDI sizes), it queries a caller-provided oracle.

pub mod cache;
pub mod cmh;
pub mod dram;
pub mod hierarchy;
pub mod noc;
pub mod phi;
pub mod sanitize;
pub mod stats;

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache-line size in bytes, fixed at 64 throughout (Table II).
pub const LINE_BYTES: u64 = 64;

/// A map keyed by line address, hashed with one folded multiply instead
/// of SipHash. Its iteration order is arbitrary, so it suits maps that
/// only do point lookups, or whose iteration is sorted before it reaches
/// an output.
pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// The [`LineMap`] hasher: the 128-bit product of the key and an odd
/// 64-bit constant, folded to 64 bits, so that every key bit moves both
/// the low and the high bits of the hash (a table uses both).
#[derive(Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let p = (self.0 ^ key) as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// Application-level classification of memory traffic, matching the
/// paper's traffic breakdown categories (Figs. 7, 15b, 15d, 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataClass {
    /// Graph adjacency matrix (offsets + neighbors) or sparse matrix.
    AdjacencyMatrix,
    /// Per-source-vertex data (contribs, labels, ...).
    SourceVertex,
    /// Per-destination-vertex data (scores, distances, ...).
    DestinationVertex,
    /// Binned updates (Update Batching / PHI).
    Updates,
    /// Frontier structures of non-all-active algorithms.
    Frontier,
    /// Everything else.
    #[default]
    Other,
}

impl DataClass {
    /// All classes, in the paper's legend order.
    pub fn all() -> [DataClass; 6] {
        [
            DataClass::AdjacencyMatrix,
            DataClass::SourceVertex,
            DataClass::DestinationVertex,
            DataClass::Updates,
            DataClass::Frontier,
            DataClass::Other,
        ]
    }

    /// Dense index for stats arrays.
    pub fn index(self) -> usize {
        match self {
            DataClass::AdjacencyMatrix => 0,
            DataClass::SourceVertex => 1,
            DataClass::DestinationVertex => 2,
            DataClass::Updates => 3,
            DataClass::Frontier => 4,
            DataClass::Other => 5,
        }
    }
}

impl fmt::Display for DataClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataClass::AdjacencyMatrix => "AdjacencyMatrix",
            DataClass::SourceVertex => "SourceVertex",
            DataClass::DestinationVertex => "DestinationVertex",
            DataClass::Updates => "Updates",
            DataClass::Frontier => "Frontier",
            DataClass::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Read.
    Load,
    /// Write-allocate store (read-for-ownership on miss).
    Store,
    /// Full-line streaming store: allocates dirty without fetching, the
    /// behaviour of UB's sequential bin writes ("streaming writes that use
    /// full cache lines").
    StreamStore,
    /// Atomic read-modify-write (scatter updates to shared vertex data).
    Atomic,
}

impl MemOp {
    /// Whether the operation writes.
    pub fn is_write(self) -> bool {
        !matches!(self, MemOp::Load)
    }
}

/// One memory access as issued by a core or engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Size in bytes (may span lines; the hierarchy splits it).
    pub bytes: u32,
    /// Operation kind.
    pub op: MemOp,
    /// Traffic classification.
    pub class: DataClass,
}

impl Access {
    /// Convenience constructor.
    pub fn new(addr: u64, bytes: u32, op: MemOp, class: DataClass) -> Self {
        Access {
            addr,
            bytes,
            op,
            class,
        }
    }

    /// Line addresses this access touches.
    pub fn lines(&self) -> impl Iterator<Item = u64> {
        let first = self.addr / LINE_BYTES;
        let last = (self.addr + self.bytes.max(1) as u64 - 1) / LINE_BYTES;
        first..=last
    }
}

/// Which port an access enters the hierarchy through.
///
/// The SpZip fetcher issues accesses to its core's L2 ("this keeps data in
/// compressed form in the L2 and LLC"); the compressor issues to the LLC
/// ("this avoids polluting private caches").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Core pipeline: L1 → L2 → LLC → DRAM.
    Core,
    /// SpZip fetcher: L2 → LLC → DRAM.
    FetcherL2,
    /// SpZip compressor (and PHI spills): LLC → DRAM.
    EngineLlc,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_lines_split() {
        let a = Access::new(60, 8, MemOp::Load, DataClass::Other);
        let lines: Vec<u64> = a.lines().collect();
        assert_eq!(lines, vec![0, 1]);
        let b = Access::new(64, 64, MemOp::Load, DataClass::Other);
        assert_eq!(b.lines().collect::<Vec<_>>(), vec![1]);
        let c = Access::new(0, 1, MemOp::Load, DataClass::Other);
        assert_eq!(c.lines().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for c in DataClass::all() {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn memop_is_write() {
        assert!(!MemOp::Load.is_write());
        assert!(MemOp::Store.is_write());
        assert!(MemOp::StreamStore.is_write());
        assert!(MemOp::Atomic.is_write());
    }

    #[test]
    fn class_display_matches_paper_legend() {
        assert_eq!(DataClass::AdjacencyMatrix.to_string(), "AdjacencyMatrix");
        assert_eq!(DataClass::Updates.to_string(), "Updates");
    }
}
