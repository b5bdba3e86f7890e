//! PHI: LLC-level coalescing of commutative scatter updates.
//!
//! PHI (Mukkara et al., MICRO 2019) is the paper's strongest hardware
//! baseline. It "opportunistically coalesces updates to the same destination
//! vertex in the cache hierarchy before binning and spilling them off-chip":
//! cores push updates to caches, which buffer and coalesce them; when a line
//! with updates is evicted from the LLC, its updates are written into bins.
//!
//! The model keeps a set-associative buffer of update lines keyed by the
//! destination line (the LLC lines that would hold the updates). Pushing an
//! update to a buffered destination line coalesces; a miss allocates,
//! possibly evicting a victim line whose distinct updates spill to bins.

use crate::cache::{Cache, CacheConfig, Replacement};
use crate::{LineMap, LINE_BYTES};

/// Outcome of pushing one update into the PHI unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhiPush {
    /// The update merged into a buffered line (no traffic now).
    Coalesced,
    /// The update allocated a new buffered line, possibly spilling a
    /// victim line whose distinct updates must be written to bins.
    Allocated {
        /// The spilled victim: `(line address, distinct update count)`,
        /// or `None` when the allocation used a free slot.
        evicted: Option<(u64, u32)>,
    },
}

/// The PHI update-coalescing unit.
///
/// # Examples
///
/// ```
/// use spzip_mem::phi::{PhiUnit, PhiPush};
///
/// let mut phi = PhiUnit::new(64 * 1024, 16, 8);
/// assert!(matches!(phi.push(100), PhiPush::Allocated { .. }));
/// assert_eq!(phi.push(100), PhiPush::Coalesced);
/// assert_eq!(phi.push(101), PhiPush::Coalesced); // same line, 8 B slots
/// ```
pub struct PhiUnit {
    tags: Cache,
    /// Distinct-slot bitmaps per buffered line (slot = update within line).
    /// Point lookups only; `drain` sorts what it iterates.
    slots: LineMap<u64>,
    update_bytes: u32,
    coalesced: u64,
    spilled: u64,
}

impl PhiUnit {
    /// Creates a PHI unit buffering up to `capacity_bytes` of update lines
    /// with `ways` associativity; each update occupies `update_bytes` in
    /// its destination line (8 for `{dst, contrib}` per the paper).
    pub fn new(capacity_bytes: u64, ways: u32, update_bytes: u32) -> Self {
        assert!(update_bytes > 0 && LINE_BYTES.is_multiple_of(update_bytes as u64));
        PhiUnit {
            tags: Cache::new(CacheConfig::new(capacity_bytes, ways, Replacement::Lru)),
            slots: LineMap::default(),
            update_bytes,
            coalesced: 0,
            spilled: 0,
        }
    }

    /// Pushes an update destined for byte address `dst_addr`.
    pub fn push(&mut self, dst_addr: u64) -> PhiPush {
        let line = dst_addr / LINE_BYTES;
        let slot = (dst_addr % LINE_BYTES) / self.update_bytes as u64;
        if self.tags.access(line, true) {
            let bits = self.slots.entry(line).or_insert(0);
            // Only a push that merges into an *occupied* slot coalesces;
            // a new slot in a buffered line is a distinct update that will
            // spill later (so coalesced + spilled == pushes exactly).
            if *bits >> slot & 1 == 1 {
                self.coalesced += 1;
            }
            bits.set_bit(slot);
            return PhiPush::Coalesced;
        }
        let victim = self.tags.fill(line, true, crate::DataClass::Updates);
        self.slots.entry(line).or_insert(0).set_bit(slot);
        let evicted = victim.and_then(|ev| {
            self.slots
                .remove(&ev.line_addr)
                .map(|bits| (ev.line_addr, bits.count_ones()))
        });
        if let Some((_, count)) = evicted {
            self.spilled += count as u64;
        }
        PhiPush::Allocated { evicted }
    }

    /// Drains every buffered line, returning the distinct update count per
    /// line (end of the binning phase: residual updates also spill).
    pub fn drain(&mut self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self
            .slots
            .drain()
            .map(|(line, bits)| (line, bits.count_ones()))
            .collect();
        out.sort_unstable();
        for (line, count) in &out {
            self.tags.invalidate(*line);
            self.spilled += *count as u64;
        }
        out
    }

    /// Updates coalesced so far (absorbed without spilling).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Distinct updates spilled to bins so far (including drains).
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Bytes one spilled update occupies in a bin (`{dst, payload}` tuple).
    pub fn update_bytes(&self) -> u32 {
        self.update_bytes
    }
}

impl std::fmt::Debug for PhiUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhiUnit")
            .field("coalesced", &self.coalesced)
            .field("spilled", &self.spilled)
            .finish()
    }
}

trait BitSet {
    fn set_bit(&mut self, bit: u64);
}

impl BitSet for u64 {
    fn set_bit(&mut self, bit: u64) {
        *self |= 1 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_updates_coalesce() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        phi.push(0);
        for _ in 0..100 {
            assert_eq!(phi.push(0), PhiPush::Coalesced);
        }
        assert_eq!(phi.coalesced(), 100);
        assert_eq!(phi.spilled(), 0);
    }

    #[test]
    fn distinct_slots_within_a_line_coalesce_but_count_separately() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        for slot in 0..8 {
            phi.push(slot * 8);
        }
        let drained = phi.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1, 8, "8 distinct updates in the line");
    }

    #[test]
    fn capacity_overflow_spills() {
        // 4 lines of capacity, direct-ish mapping.
        let mut phi = PhiUnit::new(4 * 64, 4, 8);
        let mut spills = 0;
        for i in 0..100u64 {
            if let PhiPush::Allocated {
                evicted: Some((_, count)),
            } = phi.push(i * 64 * 7)
            {
                spills += count;
            }
        }
        assert!(spills > 0);
        assert_eq!(phi.spilled(), spills as u64);
    }

    #[test]
    fn drain_empties_unit() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        phi.push(0);
        phi.push(64);
        let d = phi.drain();
        assert_eq!(d.len(), 2);
        assert!(phi.drain().is_empty());
        // After drain, pushing the same address allocates again.
        assert!(matches!(phi.push(0), PhiPush::Allocated { .. }));
    }

    #[test]
    fn skewed_destinations_coalesce_well() {
        // Power-law destinations: the hot few coalesce almost always, the
        // regime that makes PHI effective on graphs.
        let mut phi = PhiUnit::new(64 * 64, 16, 8);
        let mut coalesced_hot = 0;
        for i in 0..10_000u64 {
            let dst = if i % 4 != 0 {
                (i % 16) * 8
            } else {
                (i * 1009) % (1 << 20)
            };
            match phi.push(dst) {
                PhiPush::Coalesced if i % 4 != 0 => coalesced_hot += 1,
                _ => {}
            }
        }
        assert!(
            coalesced_hot > 6000,
            "hot updates should coalesce: {coalesced_hot}"
        );
    }
}
