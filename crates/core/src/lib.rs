#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! SpZip: programmable traversal, decompression, and compression engines.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`dcl`] — the **Dataflow Configuration Language**: an acyclic graph of
//!   memory-access operators (range fetch, indirection) and
//!   (de)compression operators connected by queues with chunk markers
//!   (Sec. II). The DCL is SpZip's hardware-software interface.
//! * [`parser`] — a textual form of the DCL, so pipelines can be written,
//!   printed, and round-tripped as programs.
//! * [`lint`] — the static analyzer: typed diagnostics (`E0xx`/`W0xx`)
//!   covering deadlock freedom, chunk-marker discipline, width agreement,
//!   dead operators, and scratchpad budgets, with a rustc-style renderer.
//! * [`perf`] — the static *performance* analyzer: analytical per-class
//!   traffic footprints, a bottleneck pass predicting the binding resource
//!   (DRAM bandwidth, engine service rate, or a starved queue), and `P0xx`
//!   diagnostics sharing the lint renderers.
//! * [`shape`] — the shape-and-bounds verifier: abstract interpretation of
//!   a pipeline against a declared memory layout, proving index streams
//!   in-bounds and codec framing/widths consistent end-to-end, with `B0xx`
//!   diagnostics sharing the lint renderers.
//! * [`liveness`] — the whole-pipeline liveness model checker: a bounded
//!   abstract simulation of queues, operator firings, and the core's
//!   in-order drive protocol that finds the cross-queue deadlocks and
//!   marker starvations the per-queue lints provably miss, emitting
//!   `D0xx` diagnostics with replayable counterexample schedules.
//! * [`suggest`] — static codec auto-selection: prices every candidate
//!   codec per compressed queue with the [`perf`] model (calibrated by
//!   measured kernel rates), validates winning rewirings through [`lint`]
//!   and [`shape`], and emits `A0xx` advisories plus a machine-readable
//!   rewiring plan.
//! * [`equiv`] — the translation validator: compares an original pipeline
//!   against a rewritten one by symbolic per-sink dataflow summaries
//!   (compress/decompress as formal codec inverses, fetches as
//!   uninterpreted functions over the [`shape`] region/width domain) and
//!   certifies every observable sink unchanged, emitting `V0xx` errors
//!   with two-sided chain witnesses otherwise. Every applied rewrite —
//!   [`suggest`] plans, queue rescaling, codec swaps — is certified
//!   through this pass at construction.
//! * [`memory`] — a synthetic address space holding the application's real
//!   data, which the functional engine reads and writes.
//! * [`func`] — the functional engine: executes a DCL pipeline against a
//!   [`memory::MemoryImage`], producing output streams *and a firing trace*
//!   (one entry per operator activation with its queue I/O and memory
//!   access).
//! * [`engine`] — the time-multiplexed hardware model (Sec. III): a
//!   scratchpad of circular-buffer queues, operator contexts, an access
//!   unit with bounded outstanding misses, and a round-robin scheduler
//!   firing one ready operator per cycle. The same model implements both
//!   the fetcher (L2 port) and the compressor (LLC port).
//! * [`area`] — the Table I area model.
//!
//! Decoupling is emergent: the engine runs its firing trace ahead of the
//! core, stalling only on queue backpressure, memory latency, or the
//! access unit's outstanding-request limit.

pub mod area;
pub mod dcl;
pub mod engine;
pub mod equiv;
pub mod func;
pub mod lint;
pub mod liveness;
pub mod memory;
pub mod parser;
pub mod perf;
pub mod shape;
pub mod suggest;

use std::fmt;

/// Identifies a queue within one DCL program (the paper's implementation
/// supports 16 queues per engine).
pub type QueueId = u8;

/// One element of a queue stream.
///
/// Queues carry 32-bit words, each tagged with a marker bit (Sec. III-B
/// "Queues and markers"): markers delimit variable-length chunks and carry
/// a 32-bit value (e.g. a row-end tag or a bin id). Multi-word values
/// occupy consecutive words in the physical queue; this logical view keeps
/// them whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueItem {
    /// A data element of up to 8 bytes (its width is the producing
    /// operator's element size).
    Value(u64),
    /// A chunk delimiter carrying an operator-configured value.
    Marker(u32),
}

impl QueueItem {
    /// Whether this item is a marker.
    pub fn is_marker(&self) -> bool {
        matches!(self, QueueItem::Marker(_))
    }

    /// The value carried (data value or marker payload widened).
    pub fn value(&self) -> u64 {
        match *self {
            QueueItem::Value(v) => v,
            QueueItem::Marker(m) => m as u64,
        }
    }
}

impl fmt::Display for QueueItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueItem::Value(v) => write!(f, "{v}"),
            QueueItem::Marker(m) => write!(f, "M({m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_item_accessors() {
        assert!(!QueueItem::Value(3).is_marker());
        assert!(QueueItem::Marker(1).is_marker());
        assert_eq!(QueueItem::Value(7).value(), 7);
        assert_eq!(QueueItem::Marker(9).value(), 9);
        assert_eq!(QueueItem::Marker(9).to_string(), "M(9)");
    }
}
