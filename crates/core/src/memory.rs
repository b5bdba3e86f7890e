//! Synthetic address space holding the application's real data.
//!
//! The timing models in `spzip-mem` are tag-only; the functional engine and
//! the applications need actual bytes to traverse, compress, and verify.
//! [`MemoryImage`] provides both: named, class-tagged regions at 4 KB-aligned
//! synthetic addresses, with typed read/write accessors. It also implements
//! the compressed-memory-hierarchy baseline's [`CompressibilityOracle`] by
//! running BDI over the real line contents.

use spzip_mem::cmh::CompressibilityOracle;
use spzip_mem::DataClass;
use std::fmt;

/// Region alignment (fresh regions start on a 4 KB page).
const REGION_ALIGN: u64 = 4096;

#[derive(Debug)]
struct Region {
    base: u64,
    data: Vec<u8>,
    class: DataClass,
    name: String,
}

/// A synthetic, sparse address space of named regions.
///
/// # Examples
///
/// ```
/// use spzip_core::memory::MemoryImage;
/// use spzip_mem::DataClass;
///
/// let mut img = MemoryImage::new();
/// let base = img.alloc("offsets", 64, DataClass::AdjacencyMatrix);
/// img.write_u64(base, 42);
/// assert_eq!(img.read_u64(base), 42);
/// assert_eq!(img.class_of(base), DataClass::AdjacencyMatrix);
/// ```
#[derive(Debug)]
pub struct MemoryImage {
    regions: Vec<Region>,
    /// Index into `regions` of the region covering each 4 KB page, or
    /// [`NO_REGION`] for guard pages and pages below the first region.
    pages: Vec<u32>,
    next_base: u64,
}

/// A page no region covers.
const NO_REGION: u32 = u32::MAX;

impl Default for MemoryImage {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryImage {
    /// Creates an empty image. Address 0 is left unmapped to catch stray
    /// null-ish accesses.
    pub fn new() -> Self {
        MemoryImage {
            regions: Vec::new(),
            pages: Vec::new(),
            next_base: REGION_ALIGN,
        }
    }

    /// Allocates a zeroed region of `bytes`, returning its base address.
    pub fn alloc(&mut self, name: &str, bytes: u64, class: DataClass) -> u64 {
        let base = self.next_base;
        let end_page = (base + bytes).div_ceil(REGION_ALIGN);
        self.next_base = end_page * REGION_ALIGN + REGION_ALIGN; // one guard page between regions
        assert!(
            self.regions.len() < NO_REGION as usize,
            "fewer than u32::MAX regions"
        );
        self.pages.resize((base / REGION_ALIGN) as usize, NO_REGION);
        self.pages
            .resize(end_page as usize, self.regions.len() as u32);
        self.regions.push(Region {
            base,
            data: vec![0u8; bytes as usize],
            class,
            name: name.to_string(),
        });
        base
    }

    /// Allocates a region initialized from `data`.
    pub fn alloc_from(&mut self, name: &str, data: &[u8], class: DataClass) -> u64 {
        let base = self.alloc(name, data.len() as u64, class);
        self.write_bytes(base, data);
        base
    }

    /// Allocates a region holding `values` as little-endian u64s.
    pub fn alloc_u64s(&mut self, name: &str, values: &[u64], class: DataClass) -> u64 {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.alloc_from(name, &bytes, class)
    }

    /// Allocates a region holding `values` as little-endian u32s.
    pub fn alloc_u32s(&mut self, name: &str, values: &[u32], class: DataClass) -> u64 {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.alloc_from(name, &bytes, class)
    }

    /// Index of the region holding byte `addr`: one page-table lookup,
    /// then the bounds check for a region that ends inside its last page.
    #[inline]
    fn region_index(&self, addr: u64) -> Option<usize> {
        let page = usize::try_from(addr / REGION_ALIGN).ok()?;
        let &i = self.pages.get(page)?;
        // `NO_REGION` indexes past every region.
        let r = self.regions.get(i as usize)?;
        (addr < r.base + r.data.len() as u64).then_some(i as usize)
    }

    fn region_of(&self, addr: u64) -> Option<&Region> {
        self.region_index(addr).map(|i| &self.regions[i])
    }

    /// The `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped or out-of-bounds read.
    #[inline]
    fn bytes(&self, addr: u64, len: usize) -> &[u8] {
        let r = self
            .region_of(addr)
            .unwrap_or_else(|| panic!("read of unmapped address {addr:#x}"));
        let off = (addr - r.base) as usize;
        r.data.get(off..off + len).unwrap_or_else(|| {
            panic!(
                "read of {len} bytes at {addr:#x} overruns region '{}'",
                r.name
            )
        })
    }

    /// The `len` bytes at `addr`, writable.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped or out-of-bounds write.
    #[inline]
    fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let i = self
            .region_index(addr)
            .unwrap_or_else(|| panic!("write to unmapped address {addr:#x}"));
        let r = &mut self.regions[i];
        let off = (addr - r.base) as usize;
        match r.data.get_mut(off..off + len) {
            Some(bytes) => bytes,
            None => panic!(
                "write of {len} bytes at {addr:#x} overruns region '{}'",
                r.name
            ),
        }
    }

    /// The traffic class of the region containing `addr`
    /// ([`DataClass::Other`] if unmapped).
    pub fn class_of(&self, addr: u64) -> DataClass {
        self.region_of(addr).map_or(DataClass::Other, |r| r.class)
    }

    /// The name of the region containing `addr`, if mapped.
    pub fn region_name(&self, addr: u64) -> Option<&str> {
        self.region_of(addr).map(|r| r.name.as_str())
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped or out-of-bounds access (a bug in a DCL
    /// program or application).
    pub fn read_bytes_into(&self, addr: u64, out: &mut [u8]) {
        out.copy_from_slice(self.bytes(addr, out.len()));
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_bytes_into(addr, &mut out);
        out
    }

    /// Writes `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped or out-of-bounds access.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.bytes_mut(addr, data.len()).copy_from_slice(data);
    }

    /// Reads a little-endian unsigned value of `bytes` (1..=8) at `addr`.
    /// The 4- and 8-byte widths load as one fixed-width value.
    pub fn read_uint(&self, addr: u64, bytes: u8) -> u64 {
        match bytes {
            8 => u64::from_le_bytes(self.bytes(addr, 8).try_into().unwrap()),
            4 => u32::from_le_bytes(self.bytes(addr, 4).try_into().unwrap()) as u64,
            _ => {
                let mut buf = [0u8; 8];
                self.read_bytes_into(addr, &mut buf[..bytes as usize]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Writes a little-endian unsigned value of `bytes` (1..=8) at `addr`.
    /// The 4- and 8-byte widths store as one fixed-width value.
    pub fn write_uint(&mut self, addr: u64, bytes: u8, value: u64) {
        match bytes {
            8 => *<&mut [u8; 8]>::try_from(self.bytes_mut(addr, 8)).unwrap() = value.to_le_bytes(),
            4 => {
                *<&mut [u8; 4]>::try_from(self.bytes_mut(addr, 4)).unwrap() =
                    (value as u32).to_le_bytes()
            }
            _ => self.write_bytes(addr, &value.to_le_bytes()[..bytes as usize]),
        }
    }

    /// Reads a u64 at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a u64 at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_uint(addr, 8, value)
    }

    /// Reads a u32 at `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Writes a u32 at `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_uint(addr, 4, value as u64)
    }

    /// Total mapped bytes across regions.
    pub fn footprint_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.data.len() as u64).sum()
    }

    /// Snapshots the BDI-compressed size of every mapped line — the static
    /// compressibility profile the compressed-memory-hierarchy baseline
    /// (Fig. 22) uses as its oracle.
    pub fn bdi_profile(&self) -> std::collections::HashMap<u64, u32> {
        use spzip_mem::cmh::CompressibilityOracle;
        let mut out = std::collections::HashMap::new();
        for r in &self.regions {
            let first = r.base / spzip_mem::LINE_BYTES;
            let last = (r.base + r.data.len() as u64).div_ceil(spzip_mem::LINE_BYTES);
            for line in first..last {
                out.insert(line, self.bdi_bytes(line));
            }
        }
        out
    }
}

impl fmt::Display for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MemoryImage ({} regions, {} bytes):",
            self.regions.len(),
            self.footprint_bytes()
        )?;
        for r in &self.regions {
            writeln!(
                f,
                "  {:#012x} {:>10} B {:<18} {}",
                r.base,
                r.data.len(),
                r.class.to_string(),
                r.name
            )?;
        }
        Ok(())
    }
}

impl CompressibilityOracle for MemoryImage {
    fn bdi_bytes(&self, line_addr: u64) -> u32 {
        let addr = line_addr * spzip_mem::LINE_BYTES;
        let Some(r) = self.region_of(addr) else {
            return 64; // unmapped: treat as incompressible
        };
        let off = (addr - r.base) as usize;
        let mut line = [0u8; 64];
        let avail = (r.data.len() - off).min(64);
        line[..avail].copy_from_slice(&r.data[off..off + avail]);
        spzip_compress::bdi::compressed_line_bytes(&line) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut img = MemoryImage::new();
        let a = img.alloc("a", 128, DataClass::SourceVertex);
        img.write_u32(a + 4, 0xDEAD);
        assert_eq!(img.read_u32(a + 4), 0xDEAD);
        assert_eq!(img.read_u32(a), 0, "zero-initialized");
    }

    #[test]
    fn regions_are_aligned_and_separated() {
        let mut img = MemoryImage::new();
        let a = img.alloc("a", 100, DataClass::Other);
        let b = img.alloc("b", 100, DataClass::Updates);
        assert_eq!(a % REGION_ALIGN, 0);
        assert_eq!(b % REGION_ALIGN, 0);
        assert!(b >= a + 100 + REGION_ALIGN, "guard page between regions");
        assert_eq!(img.class_of(a), DataClass::Other);
        assert_eq!(img.class_of(b), DataClass::Updates);
        assert_eq!(img.region_name(b), Some("b"));
    }

    #[test]
    fn default_leaves_address_zero_unmapped_like_new() {
        let (mut d, mut n) = (MemoryImage::default(), MemoryImage::new());
        let base = d.alloc("a", 64, DataClass::Other);
        assert_eq!(base, n.alloc("a", 64, DataClass::Other));
        assert_eq!(d.region_name(0), None);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_read_panics() {
        let img = MemoryImage::new();
        img.read_u32(12);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_write_panics() {
        let mut img = MemoryImage::new();
        let a = img.alloc("a", 8, DataClass::Other);
        img.write_bytes(a + 4, &[0u8; 8]);
    }

    #[test]
    fn typed_array_allocs() {
        let mut img = MemoryImage::new();
        let a = img.alloc_u64s("u64s", &[1, 2, 3], DataClass::Other);
        assert_eq!(img.read_u64(a + 16), 3);
        let b = img.alloc_u32s("u32s", &[7, 8], DataClass::Other);
        assert_eq!(img.read_u32(b + 4), 8);
    }

    #[test]
    fn bdi_oracle_reads_real_contents() {
        let mut img = MemoryImage::new();
        let zeros = img.alloc("zeros", 64, DataClass::Other);
        assert_eq!(img.bdi_bytes(zeros / 64), 1);
        let scattered = img.alloc_u64s(
            "ptrs",
            &[
                0x123456789A,
                0x3333AAAA5555,
                0x77,
                0x9999999999,
                0xABCDEF0123,
                0x1111111111,
                0xFEDCBA9876,
                0x1356246802,
            ],
            DataClass::Other,
        );
        assert!(img.bdi_bytes(scattered / 64) > 32);
        // Unmapped lines are incompressible.
        assert_eq!(img.bdi_bytes(1), 64);
    }

    #[test]
    fn display_lists_regions() {
        let mut img = MemoryImage::new();
        img.alloc("neighbors", 64, DataClass::AdjacencyMatrix);
        let s = img.to_string();
        assert!(s.contains("neighbors"));
        assert!(s.contains("AdjacencyMatrix"));
    }

    #[test]
    #[should_panic(expected = "read of 8 bytes at 0x1004 overruns region 'a'")]
    fn overrun_fixed_width_read_panics() {
        let mut img = MemoryImage::new();
        let a = img.alloc("a", 8, DataClass::Other);
        img.read_u64(a + 4);
    }

    #[test]
    #[should_panic(expected = "write to unmapped address 0x2000")]
    fn guard_page_fixed_width_write_panics() {
        let mut img = MemoryImage::new();
        img.alloc("a", 8, DataClass::Other);
        img.write_u32(0x2000, 1);
    }

    #[test]
    #[should_panic(expected = "write of 4 bytes at 0x1006 overruns region 'a'")]
    fn overrun_fixed_width_write_panics() {
        let mut img = MemoryImage::new();
        img.alloc("a", 8, DataClass::Other);
        img.write_u32(0x1006, 1);
    }

    #[test]
    #[should_panic(expected = "read of unmapped address 0x1008")]
    fn read_past_a_region_ending_mid_page_panics() {
        let mut img = MemoryImage::new();
        img.alloc("a", 8, DataClass::Other);
        img.read_uint(0x1008, 1);
    }

    /// Region sizes around the page boundary, and a large one.
    fn arb_size() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(4095),
            Just(4096),
            Just(4097),
            1u64..3 * REGION_ALIGN,
            Just(1 << 20),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn page_table_lookup_matches_a_search_over_regions(
            sizes in collection::vec(arb_size(), 0..8),
        ) {
            let mut img = MemoryImage::new();
            let classes = [DataClass::Other, DataClass::Updates, DataClass::Frontier];
            let regions: Vec<(u64, u64)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| (img.alloc(&format!("r{i}"), len, classes[i % 3]), len))
                .collect();
            // The lookup this replaces: the last region based at or below
            // `addr`, if `addr` falls before its end.
            let reference = |addr: u64| -> Option<usize> {
                let i = regions.partition_point(|&(base, _)| base <= addr).checked_sub(1)?;
                (addr < regions[i].0 + regions[i].1).then_some(i)
            };
            let mut probes = vec![0, 1, REGION_ALIGN - 1, img.next_base, img.next_base + 12345, u64::MAX];
            for &(base, len) in &regions {
                let guard = (base + len).div_ceil(REGION_ALIGN) * REGION_ALIGN;
                probes.extend([base, base + len.max(1) - 1, base + len, guard, guard + REGION_ALIGN - 1]);
                probes.extend(base.checked_sub(1));
            }
            for addr in probes {
                let expected = reference(addr);
                prop_assert_eq!(img.region_index(addr), expected, "addr {:#x}", addr);
                let name = expected.map(|i| format!("r{i}"));
                prop_assert_eq!(img.region_name(addr), name.as_deref());
                prop_assert_eq!(img.class_of(addr), expected.map_or(DataClass::Other, |i| classes[i % 3]));
            }
        }

        #[test]
        fn fixed_width_accessors_match_byte_copies(
            len in 8u64..64,
            off in 0u64..56,
            bytes in prop_oneof![Just(4u8), Just(8u8), 1u8..=8],
            value in any::<u64>(),
            fill in collection::vec(any::<u8>(), 64usize),
        ) {
            let off = off.min(len - bytes as u64);
            let mut img = MemoryImage::new();
            let a = img.alloc_from("a", &fill[..len as usize], DataClass::Other);
            let mut expected = [0u8; 8];
            img.read_bytes_into(a + off, &mut expected[..bytes as usize]);
            prop_assert_eq!(img.read_uint(a + off, bytes), u64::from_le_bytes(expected));
            img.write_uint(a + off, bytes, value);
            let mut by_bytes = MemoryImage::new();
            by_bytes.alloc_from("a", &fill[..len as usize], DataClass::Other);
            by_bytes.write_bytes(a + off, &value.to_le_bytes()[..bytes as usize]);
            prop_assert_eq!(img.read_bytes(a, len as usize), by_bytes.read_bytes(a, len as usize));
        }
    }

    #[test]
    fn footprint_counts() {
        let mut img = MemoryImage::new();
        img.alloc("a", 100, DataClass::Other);
        img.alloc("b", 28, DataClass::Other);
        assert_eq!(img.footprint_bytes(), 128);
    }
}
