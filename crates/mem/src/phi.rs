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
//! update to a buffered destination line coalesces its value into the
//! line, as PHI combines update values in the cache; a miss allocates,
//! possibly evicting a victim line whose distinct updates spill to bins.

use crate::cache::{Cache, CacheConfig, Replacement};
use crate::{LineMap, LINE_BYTES};

/// Most updates one buffered line holds: 16 four-byte values fill a line.
const MAX_SLOTS: usize = 16;

/// Outcome of pushing one update into the PHI unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhiPush {
    /// The update merged into a buffered line (no traffic now).
    Coalesced,
    /// The update allocated a new buffered line, possibly spilling a
    /// victim line whose distinct updates must be written to bins.
    Allocated {
        /// The spilled victim, or `None` when the allocation used a free
        /// slot.
        evicted: Option<PhiLine>,
    },
}

/// One buffered line's coalesced updates: which update slots of the line
/// are occupied, and each one's combined payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhiLine {
    /// Line address (byte address / [`LINE_BYTES`]).
    pub line: u64,
    /// One bit per occupied slot.
    slots: u16,
    payloads: [u32; MAX_SLOTS],
}

impl PhiLine {
    fn new(line: u64) -> Self {
        PhiLine {
            line,
            slots: 0,
            payloads: [0; MAX_SLOTS],
        }
    }

    /// Merges `payload` into `slot`, combining it with the slot's value
    /// when the slot is occupied; returns whether it was.
    fn merge(&mut self, slot: usize, payload: u32, combine: impl FnOnce(u32, u32) -> u32) -> bool {
        let occupied = self.slots >> slot & 1 == 1;
        self.payloads[slot] = if occupied {
            combine(self.payloads[slot], payload)
        } else {
            payload
        };
        self.slots |= 1 << slot;
        occupied
    }

    /// Distinct updates the line holds.
    pub fn count(&self) -> u32 {
        self.slots.count_ones()
    }

    /// Each update as `(slot, payload)`, in slot order; slot `s` is the
    /// update at byte `s * update_bytes` of the line.
    pub fn updates(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..MAX_SLOTS as u32)
            .filter(|&s| self.slots >> s & 1 == 1)
            .map(|s| (s, self.payloads[s as usize]))
    }
}

/// The PHI update-coalescing unit.
///
/// # Examples
///
/// ```
/// use spzip_mem::phi::{PhiUnit, PhiPush};
///
/// let add = |a: u32, b: u32| a + b;
/// let mut phi = PhiUnit::new(64 * 1024, 16, 8);
/// assert!(matches!(phi.push(100, 1, add), PhiPush::Allocated { .. }));
/// assert_eq!(phi.push(100, 2, add), PhiPush::Coalesced);
/// assert_eq!(phi.push(101, 4, add), PhiPush::Coalesced); // same line, 8 B slots
/// let line = phi.drain()[0];
/// assert_eq!(line.updates().collect::<Vec<_>>(), vec![(4, 7)]);
/// ```
pub struct PhiUnit {
    tags: Cache,
    /// The buffered lines' updates. Point lookups only; `drain` sorts
    /// what it iterates.
    lines: LineMap<PhiLine>,
    update_bytes: u32,
    coalesced: u64,
    spilled: u64,
}

impl PhiUnit {
    /// Creates a PHI unit buffering up to `capacity_bytes` of update lines
    /// with `ways` associativity; each update occupies `update_bytes` in
    /// its destination line (8 for `{dst, contrib}` per the paper; at
    /// least 4, since a line holds at most 16 update values).
    pub fn new(capacity_bytes: u64, ways: u32, update_bytes: u32) -> Self {
        assert!(
            update_bytes >= (LINE_BYTES / MAX_SLOTS as u64) as u32
                && LINE_BYTES.is_multiple_of(update_bytes as u64)
        );
        PhiUnit {
            tags: Cache::new(CacheConfig::new(capacity_bytes, ways, Replacement::Lru)),
            lines: LineMap::default(),
            update_bytes,
            coalesced: 0,
            spilled: 0,
        }
    }

    /// Pushes an update of `payload` destined for byte address
    /// `dst_addr`; an update already buffered for the same destination
    /// becomes `combine(buffered, payload)`.
    pub fn push(
        &mut self,
        dst_addr: u64,
        payload: u32,
        combine: impl FnOnce(u32, u32) -> u32,
    ) -> PhiPush {
        let line = dst_addr / LINE_BYTES;
        let slot = ((dst_addr % LINE_BYTES) / self.update_bytes as u64) as usize;
        if self.tags.access(line, true) {
            let buffered = self.lines.entry(line).or_insert_with(|| PhiLine::new(line));
            // Only a push that merges into an *occupied* slot coalesces;
            // a new slot in a buffered line is a distinct update that will
            // spill later (so coalesced + spilled == pushes exactly).
            if buffered.merge(slot, payload, combine) {
                self.coalesced += 1;
            }
            return PhiPush::Coalesced;
        }
        let victim = self.tags.fill(line, true, crate::DataClass::Updates);
        self.lines
            .entry(line)
            .or_insert_with(|| PhiLine::new(line))
            .merge(slot, payload, combine);
        let evicted = victim.and_then(|ev| self.lines.remove(&ev.line_addr));
        if let Some(victim) = &evicted {
            self.spilled += victim.count() as u64;
        }
        PhiPush::Allocated { evicted }
    }

    /// Drains every buffered line in line-address order (end of the
    /// binning phase: residual updates also spill). The line map's memory
    /// is released until the next phase buffers again.
    pub fn drain(&mut self) -> Vec<PhiLine> {
        let mut out: Vec<PhiLine> = std::mem::take(&mut self.lines).into_values().collect();
        out.sort_unstable_by_key(|l| l.line);
        for l in &out {
            self.tags.invalidate(l.line);
            self.spilled += l.count() as u64;
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
}

impl std::fmt::Debug for PhiUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhiUnit")
            .field("coalesced", &self.coalesced)
            .field("spilled", &self.spilled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(a: u32, b: u32) -> u32 {
        a + b
    }

    #[test]
    fn repeated_updates_coalesce() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        phi.push(0, 1, add);
        for _ in 0..100 {
            assert_eq!(phi.push(0, 1, add), PhiPush::Coalesced);
        }
        assert_eq!(phi.coalesced(), 100);
        assert_eq!(phi.spilled(), 0);
        let drained = phi.drain();
        assert_eq!(
            drained[0].updates().collect::<Vec<_>>(),
            vec![(0, 101)],
            "the payloads combine in the buffered line"
        );
    }

    #[test]
    fn distinct_slots_within_a_line_coalesce_but_count_separately() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        for slot in 0..8 {
            phi.push(slot * 8, slot as u32 * 10, add);
        }
        let drained = phi.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].count(), 8, "8 distinct updates in the line");
        let updates: Vec<(u32, u32)> = drained[0].updates().collect();
        assert_eq!(updates, (0..8).map(|s| (s, s * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_overflow_spills() {
        // 4 lines of capacity, direct-ish mapping.
        let mut phi = PhiUnit::new(4 * 64, 4, 8);
        let mut spills = 0;
        for i in 0..100u64 {
            if let PhiPush::Allocated {
                evicted: Some(victim),
            } = phi.push(i * 64 * 7, i as u32, add)
            {
                assert_eq!(victim.updates().count() as u32, victim.count());
                spills += victim.count();
            }
        }
        assert!(spills > 0);
        assert_eq!(phi.spilled(), spills as u64);
    }

    #[test]
    fn drain_empties_unit() {
        let mut phi = PhiUnit::new(1024, 4, 8);
        phi.push(64, 2, add);
        phi.push(0, 1, add);
        let d = phi.drain();
        assert_eq!(d.len(), 2);
        assert!(d[0].line < d[1].line, "drained in line order");
        assert!(phi.drain().is_empty());
        // After drain, pushing the same address allocates again.
        assert!(matches!(phi.push(0, 1, add), PhiPush::Allocated { .. }));
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
            match phi.push(dst, 1, add) {
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
