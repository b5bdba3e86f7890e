//! Set-associative write-back caches with LRU and DRRIP replacement.
//!
//! Table II: L1/L2 use 8-way set-associativity; the LLC is 16-way with
//! DRRIP replacement. The model is tag-only (no data bytes): each line
//! tracks validity, dirtiness, its traffic class (so writebacks can be
//! attributed), and replacement metadata.
//!
//! Storage is flat and split: one set-major array of tags, in which an
//! invalid way holds a sentinel no line address can take, and a parallel
//! array of per-way metadata. A lookup compares one set's tags and
//! touches metadata only on a hit. An invalid way's replacement value
//! ranks it ahead of every valid way, so choosing a victim is one pass
//! over the set's metadata.

use crate::{DataClass, LINE_BYTES};
use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least-recently-used.
    #[default]
    Lru,
    /// Dynamic re-reference interval prediction (set-dueling SRRIP/BRRIP),
    /// the paper's LLC policy.
    Drrip,
}

/// Static cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a config; capacity must be a positive multiple of
    /// `ways * 64`, with at least one way.
    pub fn new(size_bytes: u64, ways: u32, replacement: Replacement) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(size_bytes > 0, "cache capacity must be non-zero");
        assert!(
            size_bytes.is_multiple_of(ways as u64 * LINE_BYTES),
            "capacity not a whole number of sets"
        );
        CacheConfig {
            size_bytes,
            ways,
            replacement,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * LINE_BYTES)
    }
}

/// The hashed set index of a line, shared by [`Cache`] and the compressed
/// LLC. A power-of-two set count (every shipped configuration) masks
/// instead of dividing; any other count takes the remainder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetIndex {
    sets: u64,
    mask: Option<u64>,
}

impl SetIndex {
    pub(crate) fn new(sets: u64) -> Self {
        assert!(sets > 0, "cache has no sets");
        SetIndex {
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
        }
    }

    #[inline]
    pub(crate) fn of(self, line_addr: u64) -> usize {
        // Hash the set index so strided/power-of-two layouts spread evenly
        // (Table II: the LLC is "hashed set-associative").
        let h = line_addr ^ (line_addr >> 13) ^ (line_addr >> 27);
        match self.mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.sets) as usize,
        }
    }
}

/// Tag of an invalid way. Line addresses are byte addresses / 64, so no
/// line has this one.
const INVALID: u64 = u64::MAX;

/// Per-way metadata, parallel to the tags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineMeta {
    dirty: bool,
    class: DataClass,
    /// LRU timestamp or RRIP re-reference prediction value; for an invalid
    /// way, [`invalid_repl`].
    repl: u64,
}

/// The replacement value of an invalid way: below every LRU timestamp
/// (ticks start at 1) and above every RRPV, so each policy's victim rule
/// picks the first invalid way before any valid one.
fn invalid_repl(replacement: Replacement) -> u64 {
    match replacement {
        Replacement::Lru => 0,
        Replacement::Drrip => RRPV_MAX + 1,
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address (byte address / 64) of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs writeback).
    pub dirty: bool,
    /// The victim's traffic class.
    pub class: DataClass,
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Valid lines evicted by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A tag-only set-associative cache.
///
/// # Examples
///
/// ```
/// use spzip_mem::cache::{Cache, CacheConfig, Replacement};
/// use spzip_mem::DataClass;
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, Replacement::Lru));
/// assert!(!c.access(0, false));          // cold miss
/// c.fill(0, false, DataClass::Other);
/// assert!(c.access(0, true));            // now a hit
/// ```
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    index: SetIndex,
    ways: usize,
    /// Set-major tags, `ways` per set; an invalid way holds [`INVALID`].
    tags: Vec<u64>,
    /// Metadata of the way with the same index in `tags`.
    meta: Vec<LineMeta>,
    stats: CacheStats,
    tick: u64,
    /// DRRIP set-dueling policy selector (saturating).
    psel: i32,
}

/// RRIP distant value for a 2-bit counter.
const RRPV_MAX: u64 = 3;
/// DRRIP leader-set stride: sets where `set % 64 == 0` lead SRRIP and
/// `set % 64 == 1` lead BRRIP.
const DUEL_STRIDE: u64 = 64;

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let lines = (cfg.sets() * cfg.ways as u64) as usize;
        Cache {
            cfg,
            index: SetIndex::new(cfg.sets()),
            ways: cfg.ways as usize,
            tags: vec![INVALID; lines],
            meta: vec![
                LineMeta {
                    repl: invalid_repl(cfg.replacement),
                    ..LineMeta::default()
                };
                lines
            ],
            stats: CacheStats::default(),
            tick: 0,
            psel: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Index of the first way of `line_addr`'s set.
    #[inline]
    fn set_base(&self, line_addr: u64) -> usize {
        self.index.of(line_addr) * self.ways
    }

    /// The way holding `line_addr` in the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, line_addr: u64) -> Option<usize> {
        // A tag occurs at most once per set, so the last match is the only
        // one, and the scan needs no early exit.
        let mut hit = usize::MAX;
        for (way, &tag) in self.tags[base..base + self.ways].iter().enumerate() {
            if tag == line_addr {
                hit = way;
            }
        }
        (hit != usize::MAX).then(|| base + hit)
    }

    /// Looks a line up; on hit, updates replacement state and dirtiness.
    /// Counts toward hit/miss statistics.
    pub fn access(&mut self, line_addr: u64, write: bool) -> bool {
        self.access_way(line_addr, write).is_some()
    }

    /// [`Cache::access`], returning the way that hit.
    #[inline]
    pub(crate) fn access_way(&mut self, line_addr: u64, write: bool) -> Option<usize> {
        debug_assert_ne!(line_addr, INVALID, "line address is the invalid tag");
        let hit = self.find(self.set_base(line_addr), line_addr);
        match hit {
            Some(way) => self.touch_way(way, write),
            None => {
                self.tick += 1;
                self.stats.misses += 1;
            }
        }
        hit
    }

    /// Exactly what an [`Cache::access`] hit on `way` does, without the
    /// set scan: the caller knows `way` still holds the line it looked up
    /// or filled.
    #[inline]
    pub(crate) fn touch_way(&mut self, way: usize, write: bool) {
        debug_assert_ne!(self.tags[way], INVALID, "touch of an invalid way");
        self.tick += 1;
        let line = &mut self.meta[way];
        line.dirty |= write;
        line.repl = match self.cfg.replacement {
            Replacement::Lru => self.tick,
            Replacement::Drrip => 0, // promote to near-immediate
        };
        self.stats.hits += 1;
    }

    /// Checks presence without touching statistics or replacement state.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.find(self.set_base(line_addr), line_addr).is_some()
    }

    /// Inserts a line (which must not be present), evicting a victim if the
    /// set is full. Returns the victim if one was valid.
    pub fn fill(&mut self, line_addr: u64, dirty: bool, class: DataClass) -> Option<Evicted> {
        self.fill_way(line_addr, dirty, class).1
    }

    /// [`Cache::fill`], also returning the way the line now occupies.
    pub(crate) fn fill_way(
        &mut self,
        line_addr: u64,
        dirty: bool,
        class: DataClass,
    ) -> (usize, Option<Evicted>) {
        debug_assert_ne!(line_addr, INVALID, "line address is the invalid tag");
        self.tick += 1;
        let tick = self.tick;
        let set = self.index.of(line_addr);
        let base = set * self.ways;
        debug_assert!(
            self.find(base, line_addr).is_none(),
            "fill of already-present line {line_addr:#x}"
        );
        let insert_repl = match self.cfg.replacement {
            Replacement::Lru => tick,
            Replacement::Drrip => {
                // Set dueling: leader sets pin their policy and train PSEL;
                // follower sets use the winning policy.
                let srrip = if (set as u64).is_multiple_of(DUEL_STRIDE) {
                    true
                } else if set as u64 % DUEL_STRIDE == 1 {
                    false
                } else {
                    self.psel <= 0
                };
                if srrip {
                    RRPV_MAX - 1
                } else {
                    // BRRIP: distant most of the time.
                    if tick.is_multiple_of(32) {
                        RRPV_MAX - 1
                    } else {
                        RRPV_MAX
                    }
                }
            }
        };
        let way = self.pick_victim(base);
        let victim = self.meta[way];
        let evicted = (self.tags[way] != INVALID).then_some(Evicted {
            line_addr: self.tags[way],
            dirty: victim.dirty,
            class: victim.class,
        });
        if evicted.is_some() {
            self.stats.evictions += 1;
            // Train the dueling selector: a miss-driven eviction in a leader
            // set is a (coarse) vote against its policy.
            if (set as u64).is_multiple_of(DUEL_STRIDE) {
                self.psel = (self.psel + 1).min(1023);
            } else if set as u64 % DUEL_STRIDE == 1 {
                self.psel = (self.psel - 1).max(-1023);
            }
        }
        self.tags[way] = line_addr;
        self.meta[way] = LineMeta {
            dirty,
            class,
            repl: insert_repl,
        };
        (way, evicted)
    }

    /// The way a fill into the set starting at `base` replaces: the first
    /// invalid way, else the policy's victim. One pass over the set's
    /// metadata, since [`invalid_repl`] ranks invalid ways first.
    fn pick_victim(&mut self, base: usize) -> usize {
        let lines = &mut self.meta[base..base + self.ways];
        let mut best = 0;
        let mut best_repl = lines[0].repl;
        match self.cfg.replacement {
            Replacement::Lru => {
                // The first least-recent way.
                for (way, l) in lines.iter().enumerate().skip(1) {
                    if l.repl < best_repl {
                        (best, best_repl) = (way, l.repl);
                    }
                }
            }
            Replacement::Drrip => {
                // RRIP ages every way by one until some way reaches
                // RRPV_MAX, then evicts the first such way. That takes
                // `RRPV_MAX - max` rounds and ends at the first way holding
                // the set's largest RRPV, so age once by the whole amount.
                for (way, l) in lines.iter().enumerate().skip(1) {
                    if l.repl > best_repl {
                        (best, best_repl) = (way, l.repl);
                    }
                }
                let age = RRPV_MAX.saturating_sub(best_repl);
                if age > 0 {
                    for l in lines.iter_mut() {
                        l.repl += age;
                    }
                }
            }
        }
        base + best
    }

    /// Removes a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let way = self.find(self.set_base(line_addr), line_addr)?;
        self.tags[way] = INVALID;
        self.meta[way].repl = invalid_repl(self.cfg.replacement);
        Some(self.meta[way].dirty)
    }

    /// Marks a present line clean (after its writeback), returning whether
    /// it was present.
    pub fn clean(&mut self, line_addr: u64) -> bool {
        match self.find(self.set_base(line_addr), line_addr) {
            Some(way) => {
                self.meta[way].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// All dirty resident lines with their classes (end-of-run accounting).
    pub fn dirty_lines(&self) -> Vec<(u64, DataClass)> {
        self.tags
            .iter()
            .zip(&self.meta)
            .filter(|(&t, l)| t != INVALID && l.dirty)
            .map(|(&t, l)| (t, l.class))
            .collect()
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lru_cache(lines: u32, ways: u32) -> Cache {
        Cache::new(CacheConfig::new(
            lines as u64 * LINE_BYTES,
            ways,
            Replacement::Lru,
        ))
    }

    #[test]
    fn config_sets() {
        let cfg = CacheConfig::new(8192, 8, Replacement::Lru);
        assert_eq!(cfg.sets(), 16);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_capacity_panics() {
        CacheConfig::new(1000, 8, Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "cache capacity must be non-zero")]
    fn zero_capacity_panics() {
        CacheConfig::new(0, 8, Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "cache needs at least one way")]
    fn zero_ways_panics() {
        CacheConfig::new(0, 0, Replacement::Lru);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = lru_cache(16, 4);
        assert!(!c.access(42, false));
        c.fill(42, false, DataClass::Other);
        assert!(c.access(42, true));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single-set cache: 4 ways.
        let mut c = lru_cache(4, 4);
        // Find 5 lines in the same set (hashed index).
        let mut same_set = Vec::new();
        let set0 = 0;
        let mut addr = 0u64;
        while same_set.len() < 5 {
            if c.index.of(addr) == set0 {
                same_set.push(addr);
            }
            addr += 1;
        }
        for &a in &same_set[..4] {
            c.fill(a, false, DataClass::Other);
        }
        // Touch lines 1..4 so line 0 is LRU.
        for &a in &same_set[1..4] {
            assert!(c.access(a, false));
        }
        let ev = c.fill(same_set[4], false, DataClass::Other).unwrap();
        assert_eq!(ev.line_addr, same_set[0]);
    }

    #[test]
    fn eviction_reports_dirty_and_class() {
        let mut c = lru_cache(1, 1);
        c.fill(7, true, DataClass::Updates);
        let ev = c.fill(993, false, DataClass::Other);
        // Same single set, so the dirty line must be the victim.
        let ev = ev.unwrap();
        assert_eq!(ev.line_addr, 7);
        assert!(ev.dirty);
        assert_eq!(ev.class, DataClass::Updates);
    }

    #[test]
    fn invalidate_and_clean() {
        let mut c = lru_cache(16, 4);
        c.fill(1, true, DataClass::Other);
        assert!(c.clean(1));
        assert_eq!(c.invalidate(1), Some(false));
        assert_eq!(c.invalidate(1), None);
        assert!(!c.clean(1));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = lru_cache(16, 4);
        // Consecutive line addresses spread across sets.
        for a in 0..5 {
            c.fill(a, false, DataClass::Other);
        }
        assert_eq!(c.occupancy(), 5);
    }

    #[test]
    fn drrip_basic_operation() {
        let mut c = Cache::new(CacheConfig::new(
            64 * LINE_BYTES * 64,
            16,
            Replacement::Drrip,
        ));
        // Fill far beyond capacity; must not loop forever and must keep
        // reasonable occupancy.
        for a in 0..100_000u64 {
            if !c.access(a % 4096, a % 3 == 0) {
                c.fill(a % 4096, false, DataClass::Other);
            }
        }
        let capacity_lines = (c.config().size_bytes / LINE_BYTES) as usize;
        assert!(c.occupancy() <= capacity_lines);
        assert!(c.stats().hits > 0);
    }

    #[test]
    fn drrip_keeps_hot_lines_under_scan() {
        // A small hot set reused constantly plus a big scanning stream:
        // RRIP should retain most hot lines.
        let mut c = Cache::new(CacheConfig::new(
            64 * LINE_BYTES * 16,
            16,
            Replacement::Drrip,
        ));
        let hot: Vec<u64> = (0..256).collect();
        let mut hot_misses = 0;
        let mut scan_addr = 1_000_000u64;
        for round in 0..200 {
            for &h in &hot {
                if !c.access(h, false) {
                    if round > 10 {
                        hot_misses += 1;
                    }
                    c.fill(h, false, DataClass::Other);
                }
            }
            for _ in 0..512 {
                scan_addr += 1;
                if !c.access(scan_addr, false) {
                    c.fill(scan_addr, false, DataClass::Other);
                }
            }
        }
        // Hot lines mostly survive the scan.
        assert!(hot_misses < 200 * 256 / 4, "hot misses {hot_misses}");
    }

    #[test]
    fn stats_miss_ratio() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    /// The per-set cache this module's flat one replaced, kept as the
    /// differential oracle: one heap `Vec` per set, `%` set indexing, and
    /// DRRIP victim selection that ages the whole set one step per round.
    mod reference {
        use super::super::{Evicted, Replacement, DUEL_STRIDE, RRPV_MAX};
        use crate::cache::{CacheConfig, CacheStats};
        use crate::DataClass;

        #[derive(Debug, Clone, Copy, Default)]
        struct LineMeta {
            tag: u64,
            valid: bool,
            dirty: bool,
            class: DataClass,
            repl: u64,
        }

        pub(super) struct RefCache {
            cfg: CacheConfig,
            sets: Vec<Vec<LineMeta>>,
            pub(super) stats: CacheStats,
            pub(super) tick: u64,
            pub(super) psel: i32,
        }

        impl RefCache {
            pub(super) fn new(cfg: CacheConfig) -> Self {
                let sets = (0..cfg.sets())
                    .map(|_| vec![LineMeta::default(); cfg.ways as usize])
                    .collect();
                RefCache {
                    cfg,
                    sets,
                    stats: CacheStats::default(),
                    tick: 0,
                    psel: 0,
                }
            }

            fn set_of(&self, line_addr: u64) -> usize {
                let sets = self.cfg.sets();
                let h = line_addr ^ (line_addr >> 13) ^ (line_addr >> 27);
                (h % sets) as usize
            }

            pub(super) fn access(&mut self, line_addr: u64, write: bool) -> bool {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(line_addr);
                let lines = &mut self.sets[set];
                for line in lines.iter_mut() {
                    if line.valid && line.tag == line_addr {
                        line.dirty |= write;
                        line.repl = match self.cfg.replacement {
                            Replacement::Lru => tick,
                            Replacement::Drrip => 0,
                        };
                        self.stats.hits += 1;
                        return true;
                    }
                }
                self.stats.misses += 1;
                false
            }

            pub(super) fn contains(&self, line_addr: u64) -> bool {
                let set = self.set_of(line_addr);
                self.sets[set].iter().any(|l| l.valid && l.tag == line_addr)
            }

            pub(super) fn fill(
                &mut self,
                line_addr: u64,
                dirty: bool,
                class: DataClass,
            ) -> Option<Evicted> {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(line_addr);
                let insert_repl = match self.cfg.replacement {
                    Replacement::Lru => tick,
                    Replacement::Drrip => {
                        let srrip = if (set as u64).is_multiple_of(DUEL_STRIDE) {
                            true
                        } else if set as u64 % DUEL_STRIDE == 1 {
                            false
                        } else {
                            self.psel <= 0
                        };
                        if srrip {
                            RRPV_MAX - 1
                        } else {
                            // BRRIP: distant most of the time.
                            if tick.is_multiple_of(32) {
                                RRPV_MAX - 1
                            } else {
                                RRPV_MAX
                            }
                        }
                    }
                };
                let victim_idx = self.pick_victim(set);
                let victim = &mut self.sets[set][victim_idx];
                let evicted = victim.valid.then_some(Evicted {
                    line_addr: victim.tag,
                    dirty: victim.dirty,
                    class: victim.class,
                });
                if evicted.is_some() {
                    self.stats.evictions += 1;
                    if (set as u64).is_multiple_of(DUEL_STRIDE) {
                        self.psel = (self.psel + 1).min(1023);
                    } else if set as u64 % DUEL_STRIDE == 1 {
                        self.psel = (self.psel - 1).max(-1023);
                    }
                }
                *victim = LineMeta {
                    tag: line_addr,
                    valid: true,
                    dirty,
                    class,
                    repl: insert_repl,
                };
                evicted
            }

            fn pick_victim(&mut self, set: usize) -> usize {
                match self.cfg.replacement {
                    Replacement::Lru => {
                        let lines = &self.sets[set];
                        let mut best = 0;
                        for (i, l) in lines.iter().enumerate() {
                            if !l.valid {
                                return i;
                            }
                            if l.repl < lines[best].repl {
                                best = i;
                            }
                        }
                        best
                    }
                    Replacement::Drrip => loop {
                        let lines = &mut self.sets[set];
                        if let Some(i) = lines.iter().position(|l| !l.valid) {
                            return i;
                        }
                        if let Some(i) = lines.iter().position(|l| l.repl >= RRPV_MAX) {
                            return i;
                        }
                        for l in lines.iter_mut() {
                            l.repl += 1;
                        }
                    },
                }
            }

            pub(super) fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
                let set = self.set_of(line_addr);
                for line in &mut self.sets[set] {
                    if line.valid && line.tag == line_addr {
                        line.valid = false;
                        return Some(line.dirty);
                    }
                }
                None
            }

            pub(super) fn clean(&mut self, line_addr: u64) -> bool {
                let set = self.set_of(line_addr);
                for line in &mut self.sets[set] {
                    if line.valid && line.tag == line_addr {
                        line.dirty = false;
                        return true;
                    }
                }
                false
            }

            pub(super) fn occupancy(&self) -> usize {
                self.sets.iter().flatten().filter(|l| l.valid).count()
            }

            pub(super) fn dirty_lines(&self) -> Vec<(u64, DataClass)> {
                self.sets
                    .iter()
                    .flatten()
                    .filter(|l| l.valid && l.dirty)
                    .map(|l| (l.tag, l.class))
                    .collect()
            }
        }
    }

    use reference::RefCache;

    /// One differential step: an access (read or write), a fill of a line
    /// the caches do not hold, an invalidation or a clean.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64, bool),
        FillIfAbsent(u64, bool, DataClass),
        Invalidate(u64),
        Clean(u64),
    }

    /// Drives the flat cache and the reference through `ops`, asserting
    /// equal results after every step and equal state at the end.
    fn differential(cfg: CacheConfig, ops: &[Op]) {
        let mut new = Cache::new(cfg);
        let mut old = RefCache::new(cfg);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Access(a, write) => {
                    assert_eq!(new.access(a, write), old.access(a, write), "{step}: {op:?}");
                }
                Op::FillIfAbsent(a, dirty, class) => {
                    let absent = !old.contains(a);
                    assert_eq!(!new.contains(a), absent, "{step}: {op:?}");
                    if absent {
                        assert_eq!(
                            new.fill(a, dirty, class),
                            old.fill(a, dirty, class),
                            "{step}: {op:?}"
                        );
                    }
                }
                Op::Invalidate(a) => {
                    assert_eq!(new.invalidate(a), old.invalidate(a), "{step}: {op:?}");
                }
                Op::Clean(a) => assert_eq!(new.clean(a), old.clean(a), "{step}: {op:?}"),
            }
        }
        assert_eq!(*new.stats(), old.stats);
        assert_eq!((new.tick, new.psel), (old.tick, old.psel));
        assert_eq!(new.occupancy(), old.occupancy());
        let (mut a, mut b) = (new.dirty_lines(), old.dirty_lines());
        a.sort_unstable_by_key(|&(line, class)| (line, class.index()));
        b.sort_unstable_by_key(|&(line, class)| (line, class.index()));
        assert_eq!(a, b);
    }

    /// Maps raw draws onto an op over `span` line addresses: accesses and
    /// fills three times as often as invalidations and cleans.
    fn op_of(kind: u8, raw: u64, flag: bool, span: u64) -> Op {
        let a = raw % span;
        match kind {
            0..=2 => Op::Access(a, flag),
            3..=5 => Op::FillIfAbsent(a, flag, DataClass::all()[(raw >> 40) as usize % 6]),
            6 => Op::Invalidate(a),
            _ => Op::Clean(a),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn flat_cache_matches_the_per_set_reference(
            sets_idx in 0usize..6,
            ways in 1u32..=16,
            drrip in any::<bool>(),
            raw in proptest::collection::vec((0u8..8, any::<u64>(), any::<bool>()), 1..6000),
        ) {
            // 3 and 6 sets take the `%` path; 128 DRRIP sets train PSEL
            // through leader sets 0 and 1.
            let sets = [1u64, 2, 3, 6, 8, 128][sets_idx];
            let replacement = if drrip { Replacement::Drrip } else { Replacement::Lru };
            let cfg = CacheConfig::new(sets * ways as u64 * LINE_BYTES, ways, replacement);
            // Addresses span about 4x the capacity.
            let span = 4 * sets * ways as u64;
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(kind, raw, flag)| op_of(kind, raw, flag, span))
                .collect();
            differential(cfg, &ops);
        }
    }

    #[test]
    fn way_touch_equals_access_hit() {
        for replacement in [Replacement::Lru, Replacement::Drrip] {
            // One 4-way set: every line contends for the same ways.
            let mut a = Cache::new(CacheConfig::new(4 * LINE_BYTES, 4, replacement));
            for line in 0..4 {
                a.fill(line, false, DataClass::Other);
            }
            a.access(2, false);
            let mut b = a.clone();
            let way = b.find(b.set_base(1), 1).expect("line 1 is resident");
            assert!(a.access(1, true));
            b.touch_way(way, true);
            assert_eq!(a.tags, b.tags);
            assert_eq!(a.meta, b.meta);
            assert_eq!((a.stats, a.tick, a.psel), (b.stats, b.tick, b.psel));
            for line in 10..20 {
                assert_eq!(
                    a.fill(line, false, DataClass::Other),
                    b.fill(line, false, DataClass::Other),
                    "{replacement:?}: victim for line {line}"
                );
            }
        }
    }
}
