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
    next_base: u64,
}

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
            next_base: REGION_ALIGN,
        }
    }

    /// Allocates a zeroed region of `bytes`, returning its base address.
    pub fn alloc(&mut self, name: &str, bytes: u64, class: DataClass) -> u64 {
        let base = self.next_base;
        self.next_base = (base + bytes).div_ceil(REGION_ALIGN) * REGION_ALIGN + REGION_ALIGN; // one guard page between regions
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

    fn region_of(&self, addr: u64) -> Option<&Region> {
        // Regions are allocated in ascending base order.
        let idx = self.regions.partition_point(|r| r.base <= addr);
        if idx == 0 {
            return None;
        }
        let r = &self.regions[idx - 1];
        (addr < r.base + r.data.len() as u64).then_some(r)
    }

    fn region_of_mut(&mut self, addr: u64) -> Option<&mut Region> {
        let idx = self.regions.partition_point(|r| r.base <= addr);
        if idx == 0 {
            return None;
        }
        let r = &mut self.regions[idx - 1];
        (addr < r.base + r.data.len() as u64).then_some(r)
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
        let r = self
            .region_of(addr)
            .unwrap_or_else(|| panic!("read of unmapped address {addr:#x}"));
        let off = (addr - r.base) as usize;
        assert!(
            off + out.len() <= r.data.len(),
            "read of {} bytes at {addr:#x} overruns region '{}'",
            out.len(),
            r.name
        );
        out.copy_from_slice(&r.data[off..off + out.len()]);
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
        let r = self
            .region_of_mut(addr)
            .unwrap_or_else(|| panic!("write to unmapped address {addr:#x}"));
        let off = (addr - r.base) as usize;
        assert!(
            off + data.len() <= r.data.len(),
            "write of {} bytes at {addr:#x} overruns region '{}'",
            data.len(),
            r.name
        );
        r.data[off..off + data.len()].copy_from_slice(data);
    }

    /// Reads a little-endian unsigned value of `bytes` (1..=8) at `addr`.
    pub fn read_uint(&self, addr: u64, bytes: u8) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes_into(addr, &mut buf[..bytes as usize]);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian unsigned value of `bytes` (1..=8) at `addr`.
    pub fn write_uint(&mut self, addr: u64, bytes: u8, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes()[..bytes as usize]);
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
    fn footprint_counts() {
        let mut img = MemoryImage::new();
        img.alloc("a", 100, DataClass::Other);
        img.alloc("b", 28, DataClass::Other);
        assert_eq!(img.footprint_bytes(), 128);
    }
}
