//! Workload memory layout: the data structures a run operates on.
//!
//! Builds the [`MemoryImage`] holding everything the engines and cores
//! touch: the adjacency matrix (raw, and entropy-compressed in the Fig. 3
//! layout when the scheme compresses it), per-vertex data, frontier
//! buffers, per-(core, bin) update storage for UB/PHI, and the compressed
//! vertex-slice regions used when vertex data is compressed.

use crate::scheme::SchemeConfig;
use spzip_compress::{CodecCtx, CodecKind};
use spzip_core::memory::MemoryImage;
use spzip_core::shape::{MemorySchema, RegionSchema};
use spzip_graph::{Csr, VertexId};
use spzip_mem::DataClass;
use std::sync::Arc;

/// Rows per compressed-adjacency group for all-active traversals
/// ("for programs that access long chunks, we could compress several rows
/// at once").
pub const ADJ_GROUP_ROWS: u32 = 32;

/// Vertices per traversal chunk handed to one core at a time. Compressed
/// source-data chunks hold as many elements, so the fetcher streams one
/// compressed frame per traversal chunk.
pub const CHUNK_VERTICES: u32 = 256;

/// Elements per compressed destination-slice sub-chunk; a bin's slice
/// spans several sub-chunks so fetch and writeback parallelize across
/// cores.
pub const DST_SUBCHUNK: u32 = 1024;

/// Compressed adjacency matrix (the Fig. 3 layout).
#[derive(Debug)]
pub struct CompressedAdj {
    /// Rows per compressed group (1 for random-access traversals).
    pub group_rows: u32,
    /// Address of the byte-offset array (u64 per group, +1 sentinel).
    pub offsets_addr: u64,
    /// Address of the concatenated compressed streams.
    pub bytes_addr: u64,
    /// Host-side copy of the group byte offsets.
    pub offsets: Vec<u64>,
    /// Total compressed bytes.
    pub total_bytes: u64,
    /// Compression ratio achieved.
    pub ratio: f64,
}

/// Per-(core, bin) update storage for UB/PHI.
#[derive(Debug)]
pub struct BinLayout {
    /// Number of destination bins.
    pub num_bins: u32,
    /// Destination vertices per bin (the cache-fitting slice).
    pub slice_vertices: u32,
    /// MQU1 staging chunks: base of core 0 bin 0; laid out
    /// `[core][bin]` with strides below.
    pub mqu1_base: u64,
    /// Byte stride between bins within a core's MQU1 region.
    pub mqu1_stride: u64,
    /// Bins (compressed or raw updates): base of core 0 bin 0.
    pub bins_base: u64,
    /// Byte stride between bins within a core's region.
    pub bin_stride: u64,
    /// Byte stride between cores' bin regions.
    pub core_stride: u64,
    /// MQU tail-pointer metadata base (8 B per (core, bin)).
    pub meta_base: u64,
}

impl BinLayout {
    /// Base address of `(core, bin)`'s bin storage.
    pub fn bin_addr(&self, core: usize, bin: u32) -> u64 {
        self.bins_base + core as u64 * self.core_stride + bin as u64 * self.bin_stride
    }

    /// Base address of `(core, bin)`'s MQU1 staging chunk.
    pub fn mqu1_addr(&self, core: usize, bin: u32) -> u64 {
        self.mqu1_base + (core as u64 * self.num_bins as u64 + bin as u64) * self.mqu1_stride
    }

    /// Address of `(core, bin)`'s tail pointer.
    pub fn meta_addr(&self, core: usize, bin: u32) -> u64 {
        self.meta_base + (core as u64 * self.num_bins as u64 + bin as u64) * 8
    }

    /// The bin that destination vertex `dst` maps to.
    pub fn bin_of(&self, dst: VertexId) -> u32 {
        dst / self.slice_vertices
    }
}

/// Compressed vertex-data slices (one compressed stream per chunk of the
/// underlying array), used when a scheme compresses vertex data.
#[derive(Debug)]
pub struct CompressedSlices {
    /// Elements per chunk.
    pub chunk_elems: u32,
    /// Base of chunk 0's compressed region.
    pub base: u64,
    /// Byte stride between chunk regions.
    pub stride: u64,
    /// Host-side compressed length of each chunk.
    pub lens: Vec<u32>,
}

impl CompressedSlices {
    /// Address of chunk `i`'s compressed stream.
    pub fn chunk_addr(&self, i: usize) -> u64 {
        self.base + i as u64 * self.stride
    }

    /// Total compressed bytes across chunks.
    pub fn total_bytes(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }
}

/// The full workload image.
pub struct Workload {
    /// The synthetic address space with real contents.
    pub img: MemoryImage,
    /// The graph / matrix (shared: one generated input feeds many
    /// concurrent runs without per-run deep clones).
    pub g: Arc<Csr>,
    /// Raw offsets array (u64 per vertex + 1).
    pub offsets_addr: u64,
    /// Raw neighbors array (u32 per edge).
    pub neighbors_addr: u64,
    /// Raw per-edge values (f32 per edge), for SpMV.
    pub values_addr: Option<u64>,
    /// Source vertex data (4 B per vertex).
    pub src_addr: u64,
    /// Destination vertex data (4 B per vertex).
    pub dst_addr: u64,
    /// Auxiliary per-vertex array (4 B; e.g. BFS parents, PR scores).
    pub aux_addr: u64,
    /// Frontier buffer A (u32 per vertex capacity).
    pub frontier_addr: u64,
    /// Frontier buffer B.
    pub next_frontier_addr: u64,
    /// Compressed frontier stream region (+ lengths host-side).
    pub cfrontier_addr: u64,
    /// Compressed adjacency, if the scheme compresses it.
    pub cadj: Option<CompressedAdj>,
    /// Update bins, if the strategy bins updates.
    pub bins: Option<BinLayout>,
    /// Compressed destination-slice regions (vertex compression).
    pub cdst: Option<CompressedSlices>,
    /// Compressed source-chunk regions (vertex compression, all-active).
    pub csrc: Option<CompressedSlices>,
    /// Staging buffer of one slice (decompressed working copy).
    pub staging_addr: u64,
    /// Number of cores (bin regions are per core).
    pub cores: usize,
    /// The shape of every mapped region, recorded as `build` mapped it.
    schema: MemorySchema,
    /// Cached codec context for host-side vertex recompression, rebuilt
    /// only when the requested codec kind changes.
    codec_ctx: Option<CodecCtx>,
    /// Staging for recompression input values, reused across chunks.
    recompress_values: Vec<u64>,
    /// Staging for recompressed bytes, reused across chunks.
    recompress_bytes: Vec<u8>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("vertices", &self.g.num_vertices())
            .field("edges", &self.g.num_edges())
            .field("compressed_adj", &self.cadj.is_some())
            .field("bins", &self.bins.is_some())
            .finish()
    }
}

impl Workload {
    /// Builds the image for `g` under `scheme` on a `cores`-core machine
    /// with `llc_bytes` of shared cache (bin slices are sized against it).
    pub fn build(
        g: Arc<Csr>,
        scheme: &SchemeConfig,
        cores: usize,
        llc_bytes: u64,
        all_active: bool,
    ) -> Workload {
        let n = g.num_vertices() as u64;
        let e = g.num_edges() as u64;
        // Largest vertex id any frontier/neighbor stream can carry.
        let vmax = n.saturating_sub(1);
        let mut m = Mapper::default();

        // Offsets hold element offsets into the neighbor array; the
        // sentinel bounds them by the edge count.
        let offsets_addr = m.map(
            RegionSchema::raw_bounded("offsets", 0, (n + 1) * 8, 8, e),
            DataClass::AdjacencyMatrix,
            &g.offsets()
                .iter()
                .flat_map(|o| o.to_le_bytes())
                .collect::<Vec<_>>(),
        );
        let neighbors_addr = m.map(
            RegionSchema::raw_bounded("neighbors", 0, e * 4, 4, vmax),
            DataClass::AdjacencyMatrix,
            &g.neighbors_flat()
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<_>>(),
        );
        let values_addr = g.values_flat().map(|vals| {
            m.map(
                RegionSchema::raw("values", 0, e * 4, 4),
                DataClass::AdjacencyMatrix,
                &vals
                    .iter()
                    .flat_map(|&v| (v as f32).to_le_bytes())
                    .collect::<Vec<_>>(),
            )
        });

        let vertex_array = |name| RegionSchema::raw(name, 0, n * 4, 4);
        let src_addr = m.map(vertex_array("src_data"), DataClass::SourceVertex, &[]);
        let dst_addr = m.map(vertex_array("dst_data"), DataClass::DestinationVertex, &[]);
        let aux_addr = m.map(vertex_array("aux_data"), DataClass::DestinationVertex, &[]);
        let frontier = |name| RegionSchema::raw_bounded(name, 0, n * 4 + 64, 4, vmax);
        let frontier_addr = m.map(frontier("frontier"), DataClass::Frontier, &[]);
        let next_frontier_addr = m.map(frontier("next_frontier"), DataClass::Frontier, &[]);
        let cfrontier_addr = m.map(
            RegionSchema::framed(
                "cfrontier",
                0,
                cfrontier_bytes(n as usize),
                scheme.vertex_codec,
                4,
                Some(vmax),
            ),
            DataClass::Frontier,
            &[],
        );

        // Compressed adjacency (Fig. 3 layout): per-row for random access,
        // multi-row groups for sequential all-active traversals.
        let cadj = scheme.compress_adjacency.then(|| {
            let group_rows = if all_active { ADJ_GROUP_ROWS } else { 1 };
            build_compressed_adj(&mut m, &g, scheme.adjacency_codec, group_rows)
        });

        // Update bins: slices sized so one slice of destination data fits
        // comfortably in the LLC (the paper's "cache-fitting range").
        let bins = scheme.bins_updates().then(|| {
            let slice_bytes = (llc_bytes / 4).max(4096);
            let slice_vertices =
                ((slice_bytes / 4).min(n).max(1) as u32).next_multiple_of(DST_SUBCHUNK);
            let num_bins = (n as u32).div_ceil(slice_vertices).max(1);
            let queues = num_bins as u64 * cores as u64;
            // Worst-case updates per (core, bin): assume 4x the mean for
            // skew, plus headroom for compression framing.
            let mean = (e * 8).div_ceil(queues);
            let bin_stride = (mean * 6 + 4096).next_multiple_of(64);
            let mqu1_stride = 512u64; // 32 x 8 B chunk + slack
            let core_stride = bin_stride * num_bins as u64;
            let bins_base = m.map(
                RegionSchema::framed(
                    "bins",
                    0,
                    core_stride * cores as u64,
                    scheme.bin_codec(),
                    8,
                    None,
                ),
                DataClass::Updates,
                &[],
            );
            let mqu1_base = m.map(
                RegionSchema::raw("mqu1_chunks", 0, mqu1_stride * queues, 8),
                DataClass::Updates,
                &[],
            );
            let meta_base = m.map(
                RegionSchema::raw("bin_meta", 0, queues * 8, 8),
                DataClass::Updates,
                &[],
            );
            BinLayout {
                num_bins,
                slice_vertices,
                mqu1_base,
                mqu1_stride,
                bins_base,
                bin_stride,
                core_stride,
                meta_base,
            }
        });

        // Compressed vertex slices: one vertex-codec stream per chunk.
        let mut slices = |name, chunk_elems: u32, class| {
            let chunks = n.div_ceil(chunk_elems as u64);
            // Worst case ~9 bytes/element for delta, plus framing.
            let stride = (chunk_elems as u64 * 10 + 64).next_multiple_of(64);
            let region =
                RegionSchema::framed(name, 0, stride * chunks, scheme.vertex_codec, 4, None);
            CompressedSlices {
                chunk_elems,
                base: m.map(region, class, &[]),
                stride,
                lens: vec![0; chunks as usize],
            }
        };
        let vertex_slices = scheme.compress_vertex && scheme.bins_updates();
        let cdst =
            vertex_slices.then(|| slices("cdst", DST_SUBCHUNK, DataClass::DestinationVertex));
        let csrc = (vertex_slices && all_active)
            .then(|| slices("csrc", CHUNK_VERTICES, DataClass::SourceVertex));

        // Staging holds the decompressed destination slice (and at least
        // one traversal chunk): its cache behaviour (and any writebacks)
        // are destination-vertex traffic.
        let staging = bins.as_ref().map_or(CHUNK_VERTICES, |b| b.slice_vertices);
        let staging_addr = m.map(
            RegionSchema::raw("staging", 0, staging.max(CHUNK_VERTICES) as u64 * 4, 4),
            DataClass::DestinationVertex,
            &[],
        );

        Workload {
            img: m.img,
            schema: m.schema,
            g,
            offsets_addr,
            neighbors_addr,
            values_addr,
            src_addr,
            dst_addr,
            aux_addr,
            frontier_addr,
            next_frontier_addr,
            cfrontier_addr,
            cadj,
            bins,
            cdst,
            csrc,
            staging_addr,
            cores,
            codec_ctx: None,
            recompress_values: Vec::new(),
            recompress_bytes: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.g.num_vertices()
    }

    /// The declared [`MemorySchema`] of this workload: one entry per
    /// mapped region with its extent, element width, value bound, and
    /// codec framing, recorded by [`Workload::build`] as it mapped the
    /// image. This is the layout-side half of the shape verifier's
    /// contract — every builtin pipeline constructor pairs its program
    /// with this schema so [`spzip_core::shape::verify`] can prove its
    /// indirections in-bounds and its codec framing consistent.
    pub fn schema(&self) -> MemorySchema {
        self.schema.clone()
    }

    /// Recompresses destination-data chunk `i` (after an accumulation bin
    /// applies), updating the stored compressed bytes and length. Returns
    /// the new compressed length.
    pub fn recompress_dst_chunk(&mut self, codec: CodecKind, i: usize) -> u32 {
        self.recompress_chunk(
            codec,
            i,
            |w| &mut w.cdst,
            self.dst_addr,
            "compressed vertex chunk overflows its region",
        )
    }

    /// Recompresses source-data chunk `i` (end-of-iteration vertex phase).
    pub fn recompress_src_chunk(&mut self, codec: CodecKind, i: usize) -> u32 {
        self.recompress_chunk(
            codec,
            i,
            |w| &mut w.csrc,
            self.src_addr,
            "compressed source chunk overflow",
        )
    }

    /// Recompresses chunk `i` of the slice set `slices` picks from the raw
    /// 4-byte array at `raw`, and returns the new compressed length (0 if
    /// the workload has no such slices).
    fn recompress_chunk(
        &mut self,
        codec: CodecKind,
        i: usize,
        slices: fn(&mut Workload) -> &mut Option<CompressedSlices>,
        raw: u64,
        overflow: &str,
    ) -> u32 {
        let Some(set) = slices(self) else { return 0 };
        let chunk = set.chunk_elems as usize;
        let (addr, stride) = (set.chunk_addr(i), set.stride);
        let lo = i * chunk;
        let hi = ((i + 1) * chunk).min(self.n());
        // Reuse the workload's codec context and staging buffers: this
        // runs once per touched chunk per iteration.
        let mut values = std::mem::take(&mut self.recompress_values);
        values.clear();
        values.extend((lo..hi).map(|v| self.img.read_u32(raw + v as u64 * 4) as u64));
        let mut bytes = std::mem::take(&mut self.recompress_bytes);
        bytes.clear();
        CodecCtx::ensure(&mut self.codec_ctx, codec).compress(&values, &mut bytes);
        self.recompress_values = values;
        assert!((bytes.len() as u64) < stride, "{overflow}");
        self.img.write_bytes(addr, &bytes);
        let len = bytes.len() as u32;
        self.recompress_bytes = bytes;
        slices(self).as_mut().expect("checked above").lens[i] = len;
        len
    }
}

/// Bytes of the compressed-frontier region for `n` vertices (5 B per id
/// plus 4 KiB); the runtime splits it evenly across cores.
pub(crate) fn cfrontier_bytes(n: usize) -> u64 {
    n as u64 * 5 + 4096
}

/// The image under construction and the schema of every region mapped
/// into it so far.
#[derive(Default)]
struct Mapper {
    img: MemoryImage,
    schema: MemorySchema,
}

impl Mapper {
    /// Maps `r`: allocates `r.bytes` of `class` memory named `r.name`,
    /// writes `init` at its start (the rest is zero), records `r` at the
    /// base the image gave it (the base `r` carries is ignored) and returns
    /// that base. Every region goes through here, so the schema declares
    /// exactly the image.
    fn map(&mut self, mut r: RegionSchema, class: DataClass, init: &[u8]) -> u64 {
        r.base = self.img.alloc(&r.name, r.bytes, class);
        self.img.write_bytes(r.base, init);
        let base = r.base;
        self.schema.add_region(r);
        base
    }
}

fn build_compressed_adj(
    m: &mut Mapper,
    g: &Csr,
    codec: CodecKind,
    group_rows: u32,
) -> CompressedAdj {
    let mut ctx = CodecCtx::new(codec);
    let n = g.num_vertices();
    let mut bytes = Vec::new();
    let mut offsets = vec![0u64];
    let mut stream: Vec<u64> = Vec::new();
    let mut row = 0usize;
    while row < n {
        let hi = (row + group_rows as usize).min(n);
        stream.clear();
        stream.extend((row..hi).flat_map(|v| g.neighbors(v as VertexId).iter().map(|&d| d as u64)));
        ctx.compress(&stream, &mut bytes);
        offsets.push(bytes.len() as u64);
        row = hi;
    }
    let total_bytes = bytes.len() as u64;
    let vmax = (n as u64).saturating_sub(1);
    let bytes_addr = m.map(
        RegionSchema::framed("cadj_bytes", 0, total_bytes, codec, 4, Some(vmax)),
        DataClass::AdjacencyMatrix,
        &bytes,
    );
    // Group offsets are byte offsets into the compressed streams.
    let offsets_addr = m.map(
        RegionSchema::raw_bounded("cadj_offsets", 0, offsets.len() as u64 * 8, 8, total_bytes),
        DataClass::AdjacencyMatrix,
        &offsets
            .iter()
            .flat_map(|o| o.to_le_bytes())
            .collect::<Vec<_>>(),
    );
    let raw = g.num_edges() as f64 * 4.0;
    CompressedAdj {
        group_rows,
        offsets_addr,
        bytes_addr,
        total_bytes,
        ratio: raw / bytes.len().max(1) as f64,
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Scheme, SchemeConfig, Strategy};
    use spzip_graph::gen::{community, CommunityParams};

    fn graph() -> Csr {
        community(&CommunityParams::web_crawl(1 << 10, 8), 5)
    }

    #[test]
    fn push_layout_has_no_bins_or_cadj() {
        let w = Workload::build(
            Arc::new(graph()),
            &Scheme::Push.config(),
            4,
            64 * 1024,
            true,
        );
        assert!(w.cadj.is_none());
        assert!(w.bins.is_none());
        assert!(w.cdst.is_none());
    }

    #[test]
    fn push_spzip_compresses_adjacency_only() {
        let w = Workload::build(
            Arc::new(graph()),
            &Scheme::PushSpzip.config(),
            4,
            64 * 1024,
            true,
        );
        let cadj = w.cadj.as_ref().unwrap();
        assert!(cadj.ratio > 1.0, "ratio {}", cadj.ratio);
        assert_eq!(cadj.group_rows, ADJ_GROUP_ROWS);
        assert!(w.bins.is_none());
    }

    #[test]
    fn non_all_active_uses_per_row_groups() {
        let w = Workload::build(
            Arc::new(graph()),
            &Scheme::PushSpzip.config(),
            4,
            64 * 1024,
            false,
        );
        assert_eq!(w.cadj.as_ref().unwrap().group_rows, 1);
    }

    #[test]
    fn ub_spzip_has_everything() {
        let w = Workload::build(
            Arc::new(graph()),
            &Scheme::UbSpzip.config(),
            4,
            64 * 1024,
            true,
        );
        assert!(w.cadj.is_some());
        let bins = w.bins.as_ref().unwrap();
        assert!(bins.num_bins >= 1);
        assert_eq!(bins.bin_of(0), 0);
        assert_eq!(bins.bin_of(bins.slice_vertices - 1), 0);
        if bins.num_bins > 1 {
            assert_eq!(bins.bin_of(bins.slice_vertices), 1);
        }
        assert!(w.cdst.is_some());
        assert!(w.csrc.is_some());
    }

    #[test]
    fn bin_addresses_do_not_alias() {
        let w = Workload::build(
            Arc::new(graph()),
            &Scheme::UbSpzip.config(),
            4,
            16 * 1024,
            true,
        );
        let b = w.bins.as_ref().unwrap();
        let mut addrs: Vec<u64> = Vec::new();
        for core in 0..4 {
            for bin in 0..b.num_bins {
                addrs.push(b.bin_addr(core, bin));
                addrs.push(b.mqu1_addr(core, bin));
                addrs.push(b.meta_addr(core, bin));
            }
        }
        let len = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), len, "aliased bin addresses");
    }

    #[test]
    fn compressed_adjacency_roundtrips() {
        let g = graph();
        let w = Workload::build(
            Arc::new(g.clone()),
            &Scheme::PushSpzip.config(),
            4,
            64 * 1024,
            true,
        );
        let cadj = w.cadj.as_ref().unwrap();
        let codec = Scheme::PushSpzip.config().adjacency_codec.build();
        // Decode group 0 and compare with the raw rows.
        let lo = cadj.offsets[0] as usize;
        let hi = cadj.offsets[1] as usize;
        let blob = w.img.read_bytes(cadj.bytes_addr + lo as u64, hi - lo);
        let mut vals = Vec::new();
        codec.decompress_frames(&blob, &mut vals).unwrap();
        let expect: Vec<u64> = (0..ADJ_GROUP_ROWS as usize)
            .flat_map(|v| g.neighbors(v as VertexId).iter().map(|&d| d as u64))
            .collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn recompress_dst_chunk_tracks_lengths() {
        let mut w = Workload::build(
            Arc::new(graph()),
            &Scheme::UbSpzip.config(),
            4,
            16 * 1024,
            true,
        );
        let codec = SchemeConfig::with_spzip(Strategy::Ub).vertex_codec;
        for v in 0..64 {
            w.img.write_u32(w.dst_addr + v * 4, (v % 7) as u32);
        }
        let len = w.recompress_dst_chunk(codec, 0);
        assert!(len > 0);
        assert_eq!(w.cdst.as_ref().unwrap().lens[0], len);
    }

    #[test]
    fn schema_covers_the_image_exactly() {
        // Each schema region lies inside the image region of its name, from
        // its first byte to its last and not past it; names are unique, and
        // the extents sum to the footprint, so no image byte is undeclared.
        let stencil = Arc::new(spzip_graph::gen::grid3d(6, 1, 3));
        let mut configs: Vec<SchemeConfig> = Scheme::all().iter().map(|s| s.config()).collect();
        configs.extend(Strategy::all().map(SchemeConfig::decoupled_only));
        for g in [Arc::new(graph()), stencil] {
            for cfg in &configs {
                for all_active in [true, false] {
                    let w = Workload::build(g.clone(), cfg, 4, 64 * 1024, all_active);
                    let schema = w.schema();
                    let at = format!("{} n={} aa={all_active}", cfg.label(), w.n());
                    let mut names: Vec<&str> = schema.regions.iter().map(|r| &*r.name).collect();
                    names.sort_unstable();
                    names.dedup();
                    assert_eq!(names.len(), schema.regions.len(), "{at}: duplicate names");
                    assert_eq!(
                        schema.region_named("values").is_some(),
                        g.values_flat().is_some(),
                        "{at}"
                    );
                    for r in &schema.regions {
                        let name = Some(&*r.name);
                        let last = r.base + r.bytes - 1;
                        assert_eq!(w.img.region_name(r.base), name, "{at}: first byte");
                        assert_eq!(w.img.region_name(last), name, "{at}: last byte");
                        assert_ne!(w.img.region_name(last + 1), name, "{at}: short extent");
                    }
                    let declared: u64 = schema.regions.iter().map(|r| r.bytes).sum();
                    assert_eq!(declared, w.img.footprint_bytes(), "{at}");
                }
            }
        }
    }
}
