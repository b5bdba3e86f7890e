//! Memory-side SimSanitizer probe: actor identities, watched-access
//! records, and DRAM line counters.
//!
//! The probe sits at the [`crate::hierarchy::MemorySystem`] boundary — the
//! one place every timed access flows through — and collects the raw
//! material the sanitizer layer in `spzip-sim` analyzes after the run:
//!
//! * every access to a *watched* data class ([`Probe::watched`]), tagged
//!   with the issuing [`Actor`] and cycle, for happens-before race
//!   detection on frontier words and compressed-buffer regions;
//! * counts of DRAM line movements (fetches, eviction writebacks, and
//!   end-of-run flushes), checked against the per-class byte totals in
//!   [`crate::stats::TrafficStats`] so that every line the DRAM model
//!   moved is attributed to exactly one traffic class.
//!
//! The probe is off until [`crate::hierarchy::MemorySystem::enable_probe`];
//! until then each hook in the hierarchy is one `None` check.

use crate::{Access, DataClass, MemOp, Port};
use std::fmt;

/// An epoch-carrying actor of the simulated machine: a core pipeline or
/// one of its decoupled SpZip engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Actor {
    /// Core `i`'s pipeline.
    Core(usize),
    /// Core `i`'s SpZip fetcher.
    Fetcher(usize),
    /// Core `i`'s SpZip compressor.
    Compressor(usize),
}

impl Actor {
    /// The actor an access entering the hierarchy through `port` on
    /// behalf of core `core` belongs to (ports are per-engine-kind; see
    /// [`Port`]).
    pub fn from_port(port: Port, core: usize) -> Actor {
        match port {
            Port::Core => Actor::Core(core),
            Port::FetcherL2 => Actor::Fetcher(core),
            Port::EngineLlc => Actor::Compressor(core),
        }
    }

    /// Dense index for vector-clock components: `3i`, `3i+1`, `3i+2`.
    pub fn index(self) -> usize {
        match self {
            Actor::Core(i) => 3 * i,
            Actor::Fetcher(i) => 3 * i + 1,
            Actor::Compressor(i) => 3 * i + 2,
        }
    }

    /// Number of actors in a `cores`-core machine.
    pub fn count(cores: usize) -> usize {
        3 * cores
    }

    /// Inverse of [`Actor::index`]: the actor whose dense index is `idx`.
    /// Total for every `usize` (the compressed-trace decoder maps any
    /// well-formed column value back to an actor; out-of-range cores are
    /// caught by the trace-level event-count checks, not here).
    pub fn from_index(idx: usize) -> Actor {
        let core = idx / 3;
        match idx % 3 {
            0 => Actor::Core(core),
            1 => Actor::Fetcher(core),
            _ => Actor::Compressor(core),
        }
    }

    /// The core this actor belongs to.
    pub fn core(self) -> usize {
        match self {
            Actor::Core(i) | Actor::Fetcher(i) | Actor::Compressor(i) => i,
        }
    }
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Actor::Core(i) => write!(f, "core {i}"),
            Actor::Fetcher(i) => write!(f, "fetcher {i}"),
            Actor::Compressor(i) => write!(f, "compressor {i}"),
        }
    }
}

/// One watched memory access, observed as it entered the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRecord {
    /// Who issued it.
    pub actor: Actor,
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Operation kind.
    pub op: MemOp,
    /// Traffic class (always a watched class).
    pub class: DataClass,
    /// Issue cycle.
    pub cycle: u64,
}

/// Collects watched accesses and DRAM line counts during a run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Watched accesses in issue order.
    pub records: Vec<MemRecord>,
    /// Lines fetched from DRAM (one per miss-path `request_line`).
    pub dram_fetch_lines: u64,
    /// Lines written back to DRAM on LLC eviction.
    pub dram_writeback_lines: u64,
    /// Dirty lines accounted by the end-of-run flush (no DRAM request).
    pub flushed_lines: u64,
}

impl Probe {
    /// Whether `class` is race-watched.
    ///
    /// Frontier words and binned-update regions (which hold the compressed
    /// buffers of UB/PHI) are the shared structures whose cross-actor
    /// ordering rests entirely on queue edges and phase barriers — exactly
    /// where a lost synchronization edge hides. Destination-vertex data is
    /// deliberately *not* watched: concurrent commutative updates to it
    /// are the algorithm's contract (atomics under Push, bin-serialized
    /// accumulation under UB/PHI), not a race.
    pub fn watched(class: DataClass) -> bool {
        matches!(class, DataClass::Frontier | DataClass::Updates)
    }

    /// Records `access` if its class is watched. Cold: the hierarchy calls
    /// it only while a probe is active.
    #[cold]
    pub fn record_access(&mut self, port: Port, core: usize, access: &Access, cycle: u64) {
        if Self::watched(access.class) {
            self.records.push(MemRecord {
                actor: Actor::from_port(port, core),
                addr: access.addr,
                bytes: access.bytes,
                op: access.op,
                class: access.class,
                cycle,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_indices_are_dense_and_unique() {
        let cores = 4;
        let mut seen = vec![false; Actor::count(cores)];
        for i in 0..cores {
            for a in [Actor::Core(i), Actor::Fetcher(i), Actor::Compressor(i)] {
                assert!(!seen[a.index()], "{a} collides");
                seen[a.index()] = true;
                assert_eq!(a.core(), i);
                assert_eq!(Actor::from_index(a.index()), a);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn actor_from_port_matches_port_semantics() {
        assert_eq!(Actor::from_port(Port::Core, 2), Actor::Core(2));
        assert_eq!(Actor::from_port(Port::FetcherL2, 2), Actor::Fetcher(2));
        assert_eq!(Actor::from_port(Port::EngineLlc, 2), Actor::Compressor(2));
    }

    #[test]
    fn probe_records_watched_classes_only() {
        let mut p = Probe::default();
        let w = Access::new(0x100, 4, MemOp::Store, DataClass::Frontier);
        let u = Access::new(0x200, 8, MemOp::Load, DataClass::Updates);
        let d = Access::new(0x300, 4, MemOp::Atomic, DataClass::DestinationVertex);
        p.record_access(Port::Core, 0, &w, 10);
        p.record_access(Port::FetcherL2, 1, &u, 20);
        p.record_access(Port::Core, 0, &d, 30);
        assert_eq!(p.records.len(), 2);
        assert_eq!(p.records[0].actor, Actor::Core(0));
        assert_eq!(p.records[1].actor, Actor::Fetcher(1));
        assert_eq!(p.records[1].cycle, 20);
    }

    #[test]
    fn actor_display_names() {
        assert_eq!(Actor::Core(3).to_string(), "core 3");
        assert_eq!(Actor::Compressor(0).to_string(), "compressor 0");
    }
}
