//! DCL programs the runtime loads into the engines — the concrete
//! realizations of the paper's Figs. 2, 3, 5, 6, 11, 13 and 14.
//!
//! Queue capacities are declared as relative weights; the engine scales
//! them to fill its scratchpad (Sec. V-C: "queues use the whole scratchpad
//! in all cases").

use crate::layout::Workload;
use crate::scheme::SchemeConfig;
use spzip_compress::CodecKind;
use spzip_core::dcl::{MemQueueMode, OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::shape::{InputDomain, MemorySchema};
use spzip_core::QueueId;
use spzip_mem::DataClass;

/// Declares queue `q` as carrying range endpoints into the region of
/// `schema` that contains `base` — the address the consuming fetch
/// actually targets, so the declaration survives layout-level address
/// swaps (e.g. frontier double-buffering).
fn declare_ranges_into(schema: &mut MemorySchema, q: QueueId, base: u64) {
    if let Some(r) = schema.region_containing(base) {
        let region = r.name.clone();
        schema.declare_input(q, InputDomain::Ranges { region });
    }
}

/// The fetcher program for traversal phases (Push traversal, UB/PHI
/// binning): frontier → offsets → neighbors (→ optional destination
/// prefetch), plus a parallel source-data subgraph.
#[derive(Debug, Clone)]
pub struct TraversalPipe {
    /// The program.
    pub pipeline: Pipeline,
    /// Core input: vertex ranges (all-active), frontier index ranges, or
    /// compressed-frontier byte ranges.
    pub in_q: QueueId,
    /// Core input for the source-data subgraph (all-active only).
    pub src_in_q: Option<QueueId>,
    /// Core output: neighbor ids (+ markers).
    pub neigh_q: QueueId,
    /// Core output: per-source payload data.
    pub contrib_q: Option<QueueId>,
    /// The declared layout + input shapes this program runs against.
    pub schema: MemorySchema,
}

/// Options for [`traversal`].
#[derive(Debug, Clone, Copy)]
pub struct TraversalOpts {
    /// All-active (vertex ranges) vs frontier-driven.
    pub all_active: bool,
    /// Prefetch destination vertex data (Push only).
    pub prefetch_dst: bool,
    /// The frontier itself is stored compressed.
    pub frontier_compressed: bool,
    /// Fetch per-source data (false for DC/BFS whose payload needs no
    /// array read).
    pub read_source: bool,
}

/// Builds the traversal program for `w` under `cfg`.
pub fn traversal(w: &Workload, cfg: &SchemeConfig, opts: TraversalOpts) -> TraversalPipe {
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);

    // --- frontier / vertex-range stage -> per-source ids or ranges ------
    // `ranges_q` carries whatever the adjacency stage consumes.
    let (ids_q, needs_offset_indirect) = if opts.all_active {
        // The input ranges feed the offsets range-fetch directly.
        (in_q, false)
    } else if opts.frontier_compressed {
        let cf_bytes_q = b.queue(24);
        let ids_q = b.queue(24);
        b.operator(
            OperatorKind::RangeFetch {
                base: w.cfrontier_addr,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::Frontier,
            },
            in_q,
            vec![cf_bytes_q],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: cfg.vertex_codec,
                elem_bytes: 4,
            },
            cf_bytes_q,
            vec![ids_q],
        );
        (ids_q, true)
    } else {
        let ids_q = b.queue(24);
        b.operator(
            OperatorKind::RangeFetch {
                base: w.frontier_addr,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::Frontier,
            },
            in_q,
            vec![ids_q],
        );
        (ids_q, true)
    };

    // --- source-data subgraph -------------------------------------------
    let (src_in_q, contrib_q, ids_fanout) = if !opts.read_source {
        (None, None, None)
    } else if opts.all_active {
        let src_in = b.queue(8);
        if let (true, Some(csrc)) = (cfg.compress_vertex, w.csrc.as_ref()) {
            let cb_q = b.queue(24);
            let contrib = b.queue(32);
            b.operator(
                OperatorKind::RangeFetch {
                    base: csrc.base,
                    idx_bytes: 8,
                    elem_bytes: 1,
                    input: RangeInput::Pairs,
                    marker: Some(2),
                    class: DataClass::SourceVertex,
                },
                src_in,
                vec![cb_q],
            );
            b.operator(
                OperatorKind::Decompress {
                    codec: cfg.vertex_codec,
                    elem_bytes: 4,
                },
                cb_q,
                vec![contrib],
            );
            (Some(src_in), Some(contrib), None)
        } else {
            let contrib = b.queue(32);
            b.operator(
                OperatorKind::RangeFetch {
                    base: w.src_addr,
                    idx_bytes: 8,
                    elem_bytes: 4,
                    input: RangeInput::Pairs,
                    marker: None,
                    class: DataClass::SourceVertex,
                },
                src_in,
                vec![contrib],
            );
            (Some(src_in), Some(contrib), None)
        }
    } else {
        // Frontier-driven: per-source indirection on the raw array (random
        // single-element accesses do not compress — Sec. II-C).
        let src_ids = b.queue(24);
        let contrib = b.queue(32);
        b.operator(
            OperatorKind::Indirect {
                base: w.src_addr,
                elem_bytes: 4,
                pair: false,
                class: DataClass::SourceVertex,
            },
            src_ids,
            vec![contrib],
        );
        (None, Some(contrib), Some(src_ids))
    };

    // --- adjacency stage --------------------------------------------------
    let neigh_q = b.queue(48);
    let pref_q = opts.prefetch_dst.then(|| b.queue(32));
    let mut neigh_outs = vec![neigh_q];
    if let Some(p) = pref_q {
        neigh_outs.push(p);
    }

    if let Some(cadj) = &w.cadj {
        // Compressed adjacency (Fig. 3): offsets point at compressed
        // streams; a byte range-fetch feeds the decompressor.
        let bytes_q = b.queue(32);
        if needs_offset_indirect {
            // Frontier-driven: indirect pair-fetch of compressed offsets.
            // The frontier stream fans out to the offsets indirection and
            // (when present) the source-data indirection.
            let offs_q = b.queue(24);
            let mut frontier_outs = vec![ids_q];
            if let Some(sq) = ids_fanout {
                frontier_outs.push(sq);
            }
            b.retarget_producer_of(ids_q, frontier_outs);
            b.operator(
                OperatorKind::Indirect {
                    base: cadj.offsets_addr,
                    elem_bytes: 8,
                    pair: true,
                    class: DataClass::AdjacencyMatrix,
                },
                ids_q,
                vec![offs_q],
            );
            b.operator(
                OperatorKind::RangeFetch {
                    base: cadj.bytes_addr,
                    idx_bytes: 8,
                    elem_bytes: 1,
                    input: RangeInput::Pairs,
                    marker: Some(0),
                    class: DataClass::AdjacencyMatrix,
                },
                offs_q,
                vec![bytes_q],
            );
        } else {
            // All-active: group ranges -> compressed offsets -> byte ranges.
            let offs_q = b.queue(24);
            b.operator(
                OperatorKind::RangeFetch {
                    base: cadj.offsets_addr,
                    idx_bytes: 8,
                    elem_bytes: 8,
                    input: RangeInput::Pairs,
                    marker: None,
                    class: DataClass::AdjacencyMatrix,
                },
                ids_q,
                vec![offs_q],
            );
            b.operator(
                OperatorKind::RangeFetch {
                    base: cadj.bytes_addr,
                    idx_bytes: 8,
                    elem_bytes: 1,
                    input: RangeInput::Consecutive,
                    marker: Some(0),
                    class: DataClass::AdjacencyMatrix,
                },
                offs_q,
                vec![bytes_q],
            );
        }
        b.operator(
            OperatorKind::Decompress {
                codec: cfg.adjacency_codec,
                elem_bytes: 4,
            },
            bytes_q,
            neigh_outs,
        );
    } else if needs_offset_indirect {
        // Raw adjacency, frontier-driven (Fig. 6).
        let offs_q = b.queue(24);
        let mut frontier_outs = vec![ids_q];
        if let Some(sq) = ids_fanout {
            frontier_outs.push(sq);
        }
        b.retarget_producer_of(ids_q, frontier_outs);
        b.operator(
            OperatorKind::Indirect {
                base: w.offsets_addr,
                elem_bytes: 8,
                pair: true,
                class: DataClass::AdjacencyMatrix,
            },
            ids_q,
            vec![offs_q],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: w.neighbors_addr,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            offs_q,
            neigh_outs,
        );
    } else {
        // Raw adjacency, all-active (Fig. 5).
        let offs_q = b.queue(24);
        b.operator(
            OperatorKind::RangeFetch {
                base: w.offsets_addr,
                idx_bytes: 8,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            ids_q,
            vec![offs_q],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: w.neighbors_addr,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Consecutive,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            offs_q,
            neigh_outs,
        );
    }

    // --- destination prefetch (Fig. 5's orange region) -------------------
    if let Some(p) = pref_q {
        b.operator(
            OperatorKind::Indirect {
                base: w.dst_addr,
                elem_bytes: 4,
                pair: false,
                class: DataClass::DestinationVertex,
            },
            p,
            vec![],
        );
    }

    let pipeline = b.build().expect("traversal pipeline must validate");

    let mut schema = w.schema();
    let in_base = if opts.all_active {
        w.cadj.as_ref().map_or(w.offsets_addr, |c| c.offsets_addr)
    } else if opts.frontier_compressed {
        w.cfrontier_addr
    } else {
        w.frontier_addr
    };
    declare_ranges_into(&mut schema, in_q, in_base);
    if let Some(sq) = src_in_q {
        let src_base = match (cfg.compress_vertex, w.csrc.as_ref()) {
            (true, Some(csrc)) => csrc.base,
            _ => w.src_addr,
        };
        declare_ranges_into(&mut schema, sq, src_base);
    }

    TraversalPipe {
        pipeline,
        in_q,
        src_in_q,
        neigh_q,
        contrib_q,
        schema,
    }
}

/// The compressor program for UB/PHI binning (Fig. 14): MQU buffering →
/// compression → MQU appending to compressed bins.
#[derive(Debug, Clone)]
pub struct BinningCompPipe {
    /// The program.
    pub pipeline: Pipeline,
    /// Core input: alternating (bin id, update) values; `Marker(bin)`
    /// closes a bin.
    pub bin_q: QueueId,
    /// The declared layout + input shapes this program runs against.
    pub schema: MemorySchema,
}

/// Builds `core`'s binning compressor program.
pub fn binning_compressor(w: &Workload, cfg: &SchemeConfig, core: usize) -> BinningCompPipe {
    let bins = w.bins.as_ref().expect("binning needs a bin layout");
    let mut b = PipelineBuilder::new();
    let bin_q = b.queue(64);
    let chunk_q = b.queue(48);
    let cbytes_q = b.queue(48);
    b.operator(
        OperatorKind::MemQueue {
            num_queues: bins.num_bins,
            data_base: bins.mqu1_addr(core, 0),
            stride: bins.mqu1_stride,
            meta_addr: bins.meta_addr(core, 0),
            chunk_elems: 32,
            elem_bytes: 8,
            mode: MemQueueMode::Buffer,
            class: DataClass::Updates,
        },
        bin_q,
        vec![chunk_q],
    );
    b.operator(
        OperatorKind::Compress {
            codec: cfg.bin_codec(),
            elem_bytes: 8,
            sort_chunks: cfg.sort_chunks,
        },
        chunk_q,
        vec![cbytes_q],
    );
    b.operator(
        OperatorKind::MemQueue {
            num_queues: bins.num_bins,
            data_base: bins.bin_addr(core, 0),
            stride: bins.bin_stride,
            meta_addr: bins.meta_addr(core, 0),
            chunk_elems: 32,
            elem_bytes: 8,
            mode: MemQueueMode::Append,
            class: DataClass::Updates,
        },
        cbytes_q,
        vec![],
    );
    let mut schema = w.schema();
    schema.declare_input(
        bin_q,
        InputDomain::BinPairs {
            max_bin: bins.num_bins - 1,
            elem_bytes: 8,
        },
    );
    BinningCompPipe {
        pipeline: b.build().expect("binning pipeline must validate"),
        bin_q,
        schema,
    }
}

/// The fetcher program for UB/PHI accumulation: compressed-bin byte ranges
/// → decompress → update stream, plus a compressed-vertex-slice subgraph.
#[derive(Debug, Clone)]
pub struct AccumFetchPipe {
    /// The program.
    pub pipeline: Pipeline,
    /// Core input: byte ranges into the bins region.
    pub bin_in_q: QueueId,
    /// Core output: decompressed updates (u64 tuples).
    pub upd_q: QueueId,
    /// Core input: byte ranges into the compressed-vertex stream.
    pub slice_in_q: Option<QueueId>,
    /// Core output: decompressed vertex values.
    pub slice_val_q: Option<QueueId>,
    /// The declared layout + input shapes this program runs against.
    pub schema: MemorySchema,
}

/// Builds the accumulation fetcher program.
pub fn accum_fetcher(w: &Workload, cfg: &SchemeConfig) -> AccumFetchPipe {
    let bins = w.bins.as_ref().expect("accumulation needs bins");
    let mut b = PipelineBuilder::new();
    let bin_in_q = b.queue(8);
    let bytes_q = b.queue(48);
    let upd_q = b.queue(64);
    b.operator(
        OperatorKind::RangeFetch {
            base: bins.bins_base,
            idx_bytes: 8,
            elem_bytes: 1,
            input: RangeInput::Pairs,
            marker: Some(3),
            class: DataClass::Updates,
        },
        bin_in_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::Decompress {
            codec: cfg.bin_codec(),
            elem_bytes: 8,
        },
        bytes_q,
        vec![upd_q],
    );
    let (slice_in_q, slice_val_q) = if cfg.compress_vertex {
        let s_in = b.queue(8);
        let s_bytes = b.queue(32);
        let s_val = b.queue(48);
        b.operator(
            OperatorKind::RangeFetch {
                base: w.cdst.as_ref().map(|c| c.base).unwrap_or(w.dst_addr),
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(4),
                class: DataClass::DestinationVertex,
            },
            s_in,
            vec![s_bytes],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: cfg.vertex_codec,
                elem_bytes: 4,
            },
            s_bytes,
            vec![s_val],
        );
        (Some(s_in), Some(s_val))
    } else {
        (None, None)
    };
    let mut schema = w.schema();
    declare_ranges_into(&mut schema, bin_in_q, bins.bins_base);
    if let Some(sq) = slice_in_q {
        let base = w.cdst.as_ref().map(|c| c.base).unwrap_or(w.dst_addr);
        declare_ranges_into(&mut schema, sq, base);
    }
    AccumFetchPipe {
        pipeline: b.build().expect("accumulation pipeline must validate"),
        bin_in_q,
        upd_q,
        slice_in_q,
        slice_val_q,
        schema,
    }
}

/// A compressor program that reads a raw array range, compresses it, and
/// stream-writes the result (Fig. 13 plus a range reader): the engine-side
/// writeback of a compressed vertex slice. The static passes check it;
/// the runtime recompresses slices on the host instead.
#[derive(Debug, Clone)]
pub struct SliceCompPipe {
    /// The program.
    pub pipeline: Pipeline,
    /// Core input: element ranges into the source array.
    pub in_q: QueueId,
    /// The declared layout + input shapes this program runs against.
    pub schema: MemorySchema,
}

/// Builds a slice compressor reading 4-byte elements at `src_base` and
/// writing the compressed stream at `out_base`; both addresses must lie
/// in regions of `w`'s layout.
pub fn slice_compressor(
    w: &Workload,
    src_base: u64,
    out_base: u64,
    codec: CodecKind,
    class: DataClass,
) -> SliceCompPipe {
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let vals_q = b.queue(48);
    let bytes_q = b.queue(48);
    b.operator(
        OperatorKind::RangeFetch {
            base: src_base,
            idx_bytes: 8,
            elem_bytes: 4,
            input: RangeInput::Pairs,
            marker: Some(5),
            class: DataClass::Other,
        },
        in_q,
        vec![vals_q],
    );
    b.operator(
        OperatorKind::Compress {
            codec,
            elem_bytes: 4,
            sort_chunks: false,
        },
        vals_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::StreamWrite {
            base: out_base,
            class,
        },
        bytes_q,
        vec![],
    );
    let mut schema = w.schema();
    declare_ranges_into(&mut schema, in_q, src_base);
    SliceCompPipe {
        pipeline: b.build().expect("slice compressor must validate"),
        in_q,
        schema,
    }
}

/// A compressor program for values the core enqueues directly (Fig. 13):
/// compress a single stream and write it out — used for the frontier.
#[derive(Debug, Clone)]
pub struct ValueCompPipe {
    /// The program.
    pub pipeline: Pipeline,
    /// Core input: values; a marker closes each compressed chunk.
    pub val_q: QueueId,
    /// The declared layout + input shapes this program runs against.
    pub schema: MemorySchema,
}

/// Builds a single-stream value compressor writing at `out_base`, which
/// must lie in a region of `w`'s layout.
pub fn value_compressor(
    w: &Workload,
    out_base: u64,
    codec: CodecKind,
    sort_chunks: bool,
    class: DataClass,
) -> ValueCompPipe {
    let mut b = PipelineBuilder::new();
    let val_q = b.queue(64);
    let bytes_q = b.queue(48);
    b.operator(
        OperatorKind::Compress {
            codec,
            elem_bytes: 4,
            sort_chunks,
        },
        val_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::StreamWrite {
            base: out_base,
            class,
        },
        bytes_q,
        vec![],
    );
    let mut schema = w.schema();
    schema.declare_input(
        val_q,
        InputDomain::Values {
            elem_bytes: 4,
            max: None,
        },
    );
    ValueCompPipe {
        pipeline: b.build().expect("value compressor must validate"),
        val_q,
        schema,
    }
}

/// [`all_builtin_checked`] without the schemas, for callers that only
/// need the programs.
pub fn all_builtin() -> Vec<(String, Pipeline)> {
    all_builtin_checked()
        .into_iter()
        .map(|(name, p, _)| (name, p))
        .collect()
}

/// Every builtin DCL constructor's program, across all engine-using
/// schemes (including decoupled-only variants), frontier modes, and
/// per-pipeline options — paired with a descriptive name and the
/// [`MemorySchema`] its constructor declared. The runtime loads all of
/// them but [`slice_compressor`]: accumulation recompresses vertex slices
/// on the host and models their stores.
///
/// This is the enumeration `dcl-lint --all-builtin` checks: each pipeline
/// must lint clean *and* verify B-clean against its schema. A small
/// synthetic graph stands in for the real inputs; pipeline *structure*
/// only depends on the scheme configuration and workload layout, not on
/// graph scale.
pub fn all_builtin_checked() -> Vec<(String, Pipeline, MemorySchema)> {
    use crate::scheme::{Scheme, Strategy};
    use spzip_graph::gen::{community, CommunityParams};
    use std::sync::Arc;

    let g = Arc::new(community(&CommunityParams::web_crawl(1 << 9, 6), 3));
    let mut configs: Vec<(String, SchemeConfig)> = Scheme::all()
        .iter()
        .filter(|s| s.config().uses_engines())
        .map(|s| (s.to_string(), s.config()))
        .collect();
    for strat in Strategy::all() {
        configs.push((
            format!("{strat:?}+DecoupledOnly"),
            SchemeConfig::decoupled_only(strat),
        ));
    }

    let mut out = Vec::new();
    for (name, cfg) in &configs {
        for all_active in [true, false] {
            let w = Workload::build(g.clone(), cfg, 4, 32 * 1024, all_active);
            for prefetch_dst in [true, false] {
                for read_source in [true, false] {
                    let t = traversal(
                        &w,
                        cfg,
                        TraversalOpts {
                            all_active,
                            prefetch_dst,
                            frontier_compressed: !all_active && cfg.compress_vertex,
                            read_source,
                        },
                    );
                    out.push((
                        format!(
                            "{name}/traversal aa={all_active} pf={prefetch_dst} rs={read_source}"
                        ),
                        t.pipeline,
                        t.schema,
                    ));
                }
            }
            if w.bins.is_some() {
                let bc = binning_compressor(&w, cfg, 0);
                out.push((
                    format!("{name}/binning_compressor aa={all_active}"),
                    bc.pipeline,
                    bc.schema,
                ));
                let af = accum_fetcher(&w, cfg);
                out.push((
                    format!("{name}/accum_fetcher aa={all_active}"),
                    af.pipeline,
                    af.schema,
                ));
            }
            if cfg.compress_vertex {
                // The slice compressor's real job is writing back a
                // destination slice as vertex-codec frames; compressing
                // into `cdst` (not the raw staging buffer) is the wiring
                // the shape verifier can prove framing-consistent.
                if let Some(cdst) = &w.cdst {
                    let sc = slice_compressor(
                        &w,
                        w.dst_addr,
                        cdst.base,
                        cfg.vertex_codec,
                        DataClass::DestinationVertex,
                    );
                    out.push((
                        format!("{name}/slice_compressor aa={all_active}"),
                        sc.pipeline,
                        sc.schema,
                    ));
                }
                let vc = value_compressor(
                    &w,
                    w.cfrontier_addr,
                    cfg.vertex_codec,
                    cfg.sort_chunks,
                    DataClass::Frontier,
                );
                out.push((
                    format!("{name}/value_compressor aa={all_active}"),
                    vc.pipeline,
                    vc.schema,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use spzip_graph::gen::{community, CommunityParams};

    fn workload(scheme: Scheme, all_active: bool) -> Workload {
        let g = community(&CommunityParams::web_crawl(1 << 9, 6), 3);
        Workload::build(
            std::sync::Arc::new(g),
            &scheme.config(),
            4,
            32 * 1024,
            all_active,
        )
    }

    #[test]
    fn traversal_variants_validate() {
        for scheme in [Scheme::PushSpzip, Scheme::UbSpzip] {
            for all_active in [true, false] {
                let w = workload(scheme, all_active);
                for prefetch in [true, false] {
                    for read_source in [true, false] {
                        let t = traversal(
                            &w,
                            &scheme.config(),
                            TraversalOpts {
                                all_active,
                                prefetch_dst: prefetch,
                                frontier_compressed: !all_active && scheme.config().compress_vertex,
                                read_source,
                            },
                        );
                        assert!(t.pipeline.operators().len() >= 2);
                        assert!(t.pipeline.core_input_queues().contains(&t.in_q));
                        assert!(t.pipeline.core_output_queues().contains(&t.neigh_q));
                    }
                }
            }
        }
    }

    #[test]
    fn binning_and_accumulation_validate() {
        let w = workload(Scheme::UbSpzip, true);
        let cfg = Scheme::UbSpzip.config();
        let bc = binning_compressor(&w, &cfg, 0);
        assert_eq!(bc.pipeline.operators().len(), 3);
        let af = accum_fetcher(&w, &cfg);
        assert!(af.slice_in_q.is_some());
        assert!(af.pipeline.core_output_queues().contains(&af.upd_q));
    }

    #[test]
    fn accum_without_vertex_compression_has_no_slice_subgraph() {
        let w = workload(Scheme::Ub, true);
        let mut cfg = Scheme::UbSpzip.config();
        cfg.compress_vertex = false;
        let af = accum_fetcher(&w, &cfg);
        assert!(af.slice_in_q.is_none());
    }

    #[test]
    fn every_builtin_pipeline_lints_clean_of_errors() {
        let all = all_builtin();
        assert!(
            all.len() >= 40,
            "expected a broad enumeration, got {}",
            all.len()
        );
        for (name, p) in &all {
            let diags = spzip_core::lint::lint(p);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity() == spzip_core::lint::Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{name} has lint errors:\n{}",
                spzip_core::lint::render(&diags)
            );
        }
    }

    #[test]
    fn stream_compressors_validate() {
        let w = workload(Scheme::UbSpzip, true);
        let cfg = Scheme::UbSpzip.config();
        let cdst_base = w.cdst.as_ref().unwrap().base;
        let sc = slice_compressor(
            &w,
            w.dst_addr,
            cdst_base,
            cfg.vertex_codec,
            DataClass::DestinationVertex,
        );
        assert_eq!(sc.pipeline.operators().len(), 3);
        assert!(spzip_core::shape::verify(&sc.pipeline, &sc.schema).is_clean());
        let vc = value_compressor(
            &w,
            w.cfrontier_addr,
            cfg.vertex_codec,
            cfg.sort_chunks,
            DataClass::Frontier,
        );
        assert_eq!(vc.pipeline.operators().len(), 2);
        assert!(spzip_core::shape::verify(&vc.pipeline, &vc.schema).is_clean());
    }

    #[test]
    fn every_builtin_pipeline_verifies_shape_clean() {
        let all = all_builtin_checked();
        assert!(all.len() >= 40, "got {}", all.len());
        for (name, p, schema) in &all {
            assert!(
                !schema.regions.is_empty() && !schema.inputs.is_empty(),
                "{name} declares an empty schema"
            );
            let report = spzip_core::shape::verify(p, schema);
            assert!(
                report.is_clean(),
                "{name} has shape errors:\n{}",
                spzip_core::lint::render(&report.diagnostics)
            );
            // Every queue an operator consumes got a domain: the schema is
            // complete, not just silent.
            for op in p.operators() {
                assert!(
                    report.queue_domains[op.input as usize].is_some(),
                    "{name}: q{} has no inferred domain",
                    op.input
                );
            }
        }
    }

    #[test]
    fn every_auto_builtin_certifies_against_its_original() {
        // Every builtin's suggested plan certifies; the rewired pipeline
        // is E/B-clean, differs from the original exactly when the plan is
        // non-empty, and was certified over real observable sinks.
        use spzip_core::{equiv, lint, shape, suggest};
        let all = all_builtin_checked();
        assert!(all.len() >= 40, "got {}", all.len());
        let mut planned = 0usize;
        for (name, p, schema) in &all {
            let plan = suggest::suggest(&suggest::SuggestInput::with_schema(p, schema)).plan;
            let (auto, auto_schema) =
                suggest::certify(p, Some(schema), &plan).unwrap_or_else(|d| {
                    panic!("{name} (auto) fails to certify:\n{}", lint::render(&d))
                });
            let auto_schema = auto_schema.expect("a schema in yields a schema out");
            let diags = lint::lint(&auto);
            assert!(
                !lint::has_errors(&diags),
                "{name} (auto) has lint errors:\n{}",
                lint::render(&diags)
            );
            assert!(
                shape::verify(&auto, &auto_schema).is_clean(),
                "{name} (auto) has shape errors"
            );
            assert_eq!(auto != *p, !plan.is_empty(), "{name}");
            planned += usize::from(!plan.is_empty());
            let verdict = equiv::validate(&equiv::EquivInput::with_schemas(
                p,
                &auto,
                schema,
                &auto_schema,
            ));
            assert!(verdict.sinks_checked > 0, "{name} has observable sinks");
        }
        // The enumeration spans enough codec/stream mismatches that at
        // least one builtin gets a rewiring plan — certification is not
        // vacuously identity.
        assert!(planned > 0, "no builtin ever received a plan");
    }
}
