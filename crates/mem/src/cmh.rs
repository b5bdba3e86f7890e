//! Compressed memory hierarchy (CMH): the Fig. 22 baseline.
//!
//! The paper compares against a system with a VSC-style compressed LLC
//! (2x the tags, BDI line compression) and LCP-style compressed main
//! memory. CMH's defining limitations — which the figure demonstrates —
//! are that it compresses fixed-size lines without application semantics
//! (deltas straddle neighbor-set boundaries) and that LCP forces every
//! line in a page to the same compressed size, so one incompressible line
//! spoils the page.
//!
//! The model is data-aware through a [`CompressibilityOracle`] supplied by
//! the application layer, which reports the BDI-compressed size of any
//! line from the real array contents.

use crate::cache::{CacheConfig, SetIndex};
use crate::{DataClass, LINE_BYTES};
use std::collections::HashMap;

/// Reports the BDI-compressed size in bytes of the 64-byte line at a given
/// line address, from actual application data.
pub trait CompressibilityOracle {
    /// Compressed size in bytes (1..=65) of line `line_addr`.
    fn bdi_bytes(&self, line_addr: u64) -> u32;
}

/// A fixed-ratio oracle, useful in tests.
#[derive(Debug, Clone, Copy)]
pub struct FixedOracle(
    /// Compressed bytes reported for every line.
    pub u32,
);

impl CompressibilityOracle for FixedOracle {
    fn bdi_bytes(&self, _line_addr: u64) -> u32 {
        self.0
    }
}

/// Segment size used by the VSC compressed LLC (8 B sub-blocks).
pub const SEGMENT_BYTES: u32 = 8;

/// A VSC-style compressed cache: double tags per set, a shared per-set
/// segment budget, and BDI-compressed lines.
///
/// # Examples
///
/// ```
/// use spzip_mem::cmh::{CompressedLlc, FixedOracle};
/// use spzip_mem::cache::{CacheConfig, Replacement};
/// use spzip_mem::DataClass;
///
/// let cfg = CacheConfig::new(8192, 8, Replacement::Lru);
/// let mut llc = CompressedLlc::new(cfg);
/// // 2:1-compressible lines let ~2x the lines fit.
/// let oracle = FixedOracle(32);
/// let mut evictions = 0;
/// for a in 0..256u64 {
///     if !llc.access(a, false) {
///         evictions += llc.fill(a, false, DataClass::Other, &oracle).len();
///     }
/// }
/// assert!(llc.occupancy() > 128);
/// ```
pub struct CompressedLlc {
    /// Logical (uncompressed-equivalent) geometry.
    base: CacheConfig,
    index: SetIndex,
    sets: Vec<CSet>,
    hits: u64,
    misses: u64,
    tick: u64,
}

struct CSet {
    lines: Vec<CLine>,
    segments_used: u32,
    segment_budget: u32,
}

#[derive(Clone, Copy)]
struct CLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    class: DataClass,
    segments: u32,
    lru: u64,
}

/// A line evicted from the compressed LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CEvicted {
    /// Victim line address.
    pub line_addr: u64,
    /// Whether it needs a writeback.
    pub dirty: bool,
    /// Its traffic class.
    pub class: DataClass,
}

impl CompressedLlc {
    /// Creates a compressed LLC with the same data capacity as `base` but
    /// 2x the tags per set (the VSC configuration of Fig. 22).
    pub fn new(base: CacheConfig) -> Self {
        let sets = (0..base.sets())
            .map(|_| CSet {
                lines: vec![
                    CLine {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        class: DataClass::Other,
                        segments: 0,
                        lru: 0,
                    };
                    (base.ways * 2) as usize
                ],
                segments_used: 0,
                segment_budget: base.ways * (LINE_BYTES as u32 / SEGMENT_BYTES),
            })
            .collect();
        CompressedLlc {
            base,
            index: SetIndex::new(base.sets()),
            sets,
            hits: 0,
            misses: 0,
            tick: 0,
        }
    }

    fn segments_for(bytes: u32) -> u32 {
        bytes
            .div_ceil(SEGMENT_BYTES)
            .clamp(1, LINE_BYTES as u32 / SEGMENT_BYTES)
    }

    /// Looks up a line; hits update LRU and dirtiness.
    pub fn access(&mut self, line_addr: u64, write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.index.of(line_addr);
        for line in &mut self.sets[set].lines {
            if line.valid && line.tag == line_addr {
                line.dirty |= write;
                line.lru = tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Inserts a line whose compressed size comes from `oracle`, evicting
    /// as many victims as needed to free tags and segments.
    pub fn fill(
        &mut self,
        line_addr: u64,
        dirty: bool,
        class: DataClass,
        oracle: &dyn CompressibilityOracle,
    ) -> Vec<CEvicted> {
        self.tick += 1;
        let tick = self.tick;
        let needed = Self::segments_for(oracle.bdi_bytes(line_addr));
        let set_idx = self.index.of(line_addr);
        let set = &mut self.sets[set_idx];
        let mut evicted = Vec::new();
        loop {
            let free_tag = set.lines.iter().position(|l| !l.valid);
            let fits = set.segments_used + needed <= set.segment_budget;
            match (free_tag, fits) {
                (Some(idx), true) => {
                    set.lines[idx] = CLine {
                        tag: line_addr,
                        valid: true,
                        dirty,
                        class,
                        segments: needed,
                        lru: tick,
                    };
                    set.segments_used += needed;
                    return evicted;
                }
                _ => {
                    // Evict the LRU valid line.
                    let victim = set
                        .lines
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.valid)
                        .min_by_key(|(_, l)| l.lru)
                        .map(|(i, _)| i)
                        .expect("set cannot be simultaneously full and empty");
                    let v = set.lines[victim];
                    set.lines[victim].valid = false;
                    set.segments_used -= v.segments;
                    evicted.push(CEvicted {
                        line_addr: v.tag,
                        dirty: v.dirty,
                        class: v.class,
                    });
                }
            }
        }
    }

    /// Marks a resident line clean (after its writeback) without touching
    /// statistics or LRU state; returns whether it was resident.
    pub(crate) fn clean(&mut self, line_addr: u64) -> bool {
        let set = self.index.of(line_addr);
        match self.sets[set]
            .lines
            .iter_mut()
            .find(|l| l.valid && l.tag == line_addr)
        {
            Some(line) => {
                line.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.lines.iter().filter(|l| l.valid).count())
            .sum()
    }

    /// Hit and miss counts.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// All dirty resident lines (end-of-run accounting).
    pub fn dirty_lines(&self) -> Vec<(u64, DataClass)> {
        self.sets
            .iter()
            .flat_map(|s| s.lines.iter())
            .filter(|l| l.valid && l.dirty)
            .map(|l| (l.tag, l.class))
            .collect()
    }
}

impl std::fmt::Debug for CompressedLlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedLlc")
            .field("base", &self.base)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// LCP-style compressed main memory.
///
/// LCP compresses all lines of a page to one uniform size so addressing
/// stays simple; a page with any incompressible line stays uncompressed.
/// The bandwidth benefit modeled here is the paper's: a DRAM access
/// transfers `uniform_line_bytes` instead of 64 B (LCP can fetch multiple
/// compressed lines per DRAM access).
pub struct LcpMemory {
    page_bytes: u64,
    /// Cached per-page uniform compressed line size.
    page_line_bytes: HashMap<u64, u32>,
}

impl LcpMemory {
    /// Creates an LCP model with 4 KB pages.
    pub fn new() -> Self {
        LcpMemory {
            page_bytes: 4096,
            page_line_bytes: HashMap::new(),
        }
    }

    /// Bytes a DRAM transfer of `line_addr` costs, per the page's uniform
    /// compressed size. The page profile is computed on first touch by
    /// scanning the page's lines through `oracle` (max line size governs,
    /// rounded up to the LCP size classes of 16/32/64 B).
    pub fn transfer_bytes(&mut self, line_addr: u64, oracle: &dyn CompressibilityOracle) -> u32 {
        let lines_per_page = self.page_bytes / LINE_BYTES;
        let page = line_addr / lines_per_page;
        if let Some(&b) = self.page_line_bytes.get(&page) {
            return b;
        }
        let mut max = 0u32;
        for l in 0..lines_per_page {
            max = max.max(oracle.bdi_bytes(page * lines_per_page + l));
        }
        let class = if max <= 16 {
            16
        } else if max <= 32 {
            32
        } else {
            64
        };
        self.page_line_bytes.insert(page, class);
        class
    }

    /// Forgets cached page profiles (e.g., after a phase rewrites data).
    pub fn invalidate_profiles(&mut self) {
        self.page_line_bytes.clear();
    }
}

impl Default for LcpMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LcpMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LcpMemory")
            .field("pages_profiled", &self.page_line_bytes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Replacement;

    fn cfg() -> CacheConfig {
        CacheConfig::new(64 * LINE_BYTES, 8, Replacement::Lru)
    }

    #[test]
    fn incompressible_lines_behave_like_normal_cache() {
        let mut llc = CompressedLlc::new(cfg());
        let oracle = FixedOracle(64);
        for a in 0..64u64 {
            llc.fill(a, false, DataClass::Other, &oracle);
        }
        assert_eq!(llc.occupancy(), 64);
        // One more line must evict.
        let ev = llc.fill(1000, false, DataClass::Other, &oracle);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn compressible_lines_double_capacity() {
        let mut llc = CompressedLlc::new(cfg());
        let oracle = FixedOracle(32);
        let mut evictions = 0;
        for a in 0..128u64 {
            evictions += llc.fill(a, false, DataClass::Other, &oracle).len();
        }
        assert_eq!(evictions, 0, "2x tags + 2:1 data should hold 128 lines");
        assert_eq!(llc.occupancy(), 128);
    }

    #[test]
    fn tags_bound_capacity_even_when_tiny() {
        let mut llc = CompressedLlc::new(cfg());
        let oracle = FixedOracle(1);
        let mut evictions = 0;
        for a in 0..256u64 {
            evictions += llc.fill(a, false, DataClass::Other, &oracle).len();
        }
        // 2x tags cap the benefit at 128 lines.
        assert!(evictions >= 128, "evictions {evictions}");
    }

    #[test]
    fn big_fill_can_evict_multiple_victims() {
        let mut llc = CompressedLlc::new(CacheConfig::new(8 * LINE_BYTES, 8, Replacement::Lru));
        // Single-set cache: fill the whole segment budget (16 tags x 4
        // segments = 64 segments), then insert a full 8-segment line, which
        // must evict two 4-segment victims.
        let half = FixedOracle(32);
        for a in 0..16u64 {
            assert!(llc.fill(a, false, DataClass::Other, &half).is_empty());
        }
        let big = FixedOracle(64);
        let ev = llc.fill(999, true, DataClass::Other, &big);
        assert_eq!(ev.len(), 2, "evicted {}", ev.len());
    }

    #[test]
    fn access_hits_after_fill() {
        let mut llc = CompressedLlc::new(cfg());
        llc.fill(5, false, DataClass::Other, &FixedOracle(16));
        assert!(llc.access(5, true));
        assert_eq!(llc.dirty_lines(), vec![(5, DataClass::Other)]);
        let (h, m) = llc.hit_miss();
        assert_eq!((h, m), (1, 0));
    }

    #[test]
    fn clean_keeps_the_line_and_its_stats() {
        let mut llc = CompressedLlc::new(cfg());
        llc.fill(5, true, DataClass::Updates, &FixedOracle(16));
        assert!(llc.clean(5));
        assert!(llc.dirty_lines().is_empty());
        assert_eq!(llc.occupancy(), 1);
        assert_eq!(llc.hit_miss(), (0, 0));
        assert!(!llc.clean(6));
    }

    #[test]
    fn lcp_page_is_spoiled_by_one_incompressible_line() {
        struct MixedOracle;
        impl CompressibilityOracle for MixedOracle {
            fn bdi_bytes(&self, line_addr: u64) -> u32 {
                if line_addr == 3 {
                    64
                } else {
                    9
                }
            }
        }
        let mut lcp = LcpMemory::new();
        // Page 0 contains line 3 → whole page incompressible.
        assert_eq!(lcp.transfer_bytes(0, &MixedOracle), 64);
        // Page 1 (lines 64..128) compresses to the 16 B class.
        assert_eq!(lcp.transfer_bytes(64, &MixedOracle), 16);
    }

    #[test]
    fn lcp_profiles_are_cached_and_invalidatable() {
        let mut lcp = LcpMemory::new();
        assert_eq!(lcp.transfer_bytes(0, &FixedOracle(30)), 32);
        // Oracle changes (data rewritten); cached until invalidated.
        assert_eq!(lcp.transfer_bytes(1, &FixedOracle(64)), 32);
        lcp.invalidate_profiles();
        assert_eq!(lcp.transfer_bytes(1, &FixedOracle(64)), 64);
    }
}
