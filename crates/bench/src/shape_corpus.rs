//! The seeded-miswiring corpus: the shape verifier's differential gate.
//!
//! Each corpus entry deliberately miswires a small pipeline against a real
//! [`Workload`] layout — wrong element width, wrong codec, off-by-one
//! extent, unmapped base, bin-id overflow, wrong decoded width, MemQueue
//! footprint overflow, raw bytes into a framed region — and the gate
//! asserts the bug is caught **twice**:
//!
//! 1. *Statically*: [`spzip_core::shape::verify`] against the workload's
//!    declared [`MemorySchema`] must
//!    reject the pipeline with the expected `B0xx` code.
//! 2. *Dynamically*: the same pipeline run under the functional engine
//!    ([`spzip_core::func::FuncEngine`]) must observably misbehave — an
//!    unmapped/overrun memory panic, a corrupt-stream decode, a wrong
//!    fetched value, or a mismatched per-item queue width.
//!
//! Control entries (the honest wirings of the same shapes) must be clean
//! on both sides. The weakened checker keeps only `B001`, modeling a
//! verifier that checks bases are mapped but not extents, widths or
//! framing. `dcl-lint --corpus shape` runs the gate through the shared
//! [`crate::corpus`] harness.

use crate::corpus::{keep_only, panics, pattern, values_of, workload, GateRow};
use spzip_apps::layout::Workload;
use spzip_apps::pipelines;
use spzip_apps::SchemeConfig;
use spzip_compress::CodecKind;
use spzip_core::dcl::{MemQueueMode, OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::func::FuncEngine;
use spzip_core::lint::Code;
use spzip_core::shape::{self, InputDomain, MemorySchema};
use spzip_mem::DataClass;

fn verify_codes(p: &Pipeline, schema: &MemorySchema) -> Vec<Code> {
    shape::verify(p, schema)
        .diagnostics
        .iter()
        .map(|d| d.code)
        .collect()
}

// ---- seeded entries ----------------------------------------------------

/// B003: an indirection declared 8-byte over a 4-byte vertex array. The
/// engine fetches the bytes of two neighboring elements instead of one.
fn wrong_width_indirect() -> GateRow {
    let (mut w, cfg) = workload();
    let n = w.n() as u64;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let out_q = b.queue(48);
    b.operator(
        OperatorKind::Indirect {
            base: w.src_addr,
            elem_bytes: 8, // seeded: src_data is 4-byte
            pair: false,
            class: DataClass::SourceVertex,
        },
        in_q,
        vec![out_q],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Values {
            elem_bytes: 4,
            max: Some(n - 1),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    for i in 0..16u64 {
        w.img.write_u32(w.src_addr + i * 4, pattern(i));
    }
    let mut eng = FuncEngine::new(p);
    eng.enqueue_value(in_q, 3, 4);
    eng.run(&mut w.img);
    let got = values_of(&eng.drain_output(out_q));
    let confirmed = got != vec![pattern(3) as u64];
    GateRow {
        name: "wrong-width-indirect".into(),
        expected: Some(Code::B003),
        static_codes,
        dynamic_confirmed: confirmed,
        queue_lint_clean: None,
        detail: format!("fetched {got:?}, honest read is [{}]", pattern(3)),
    }
}

/// B004 (`codec` = RLE): decompressing the Delta-framed adjacency stream
/// with the wrong codec. The engine either rejects the stream as corrupt
/// or decodes values that differ from the real neighbor lists. The control
/// (`codec` = `None`, the real codec) decodes group 0 to its raw rows.
fn decompress_adjacency(name: &str, codec: Option<CodecKind>) -> GateRow {
    let (mut w, cfg) = workload();
    let cadj = w.cadj.as_ref().expect("UbSpzip compresses adjacency");
    let (bytes_addr, group_len) = (cadj.bytes_addr, cadj.offsets[1]);
    let group_rows = cadj.group_rows as usize;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let bytes_q = b.queue(48);
    let out_q = b.queue(64);
    b.operator(
        OperatorKind::RangeFetch {
            base: bytes_addr,
            idx_bytes: 8,
            elem_bytes: 1,
            input: RangeInput::Pairs,
            marker: Some(0),
            class: DataClass::AdjacencyMatrix,
        },
        in_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::Decompress {
            codec: codec.unwrap_or(cfg.adjacency_codec),
            elem_bytes: 4,
        },
        bytes_q,
        vec![out_q],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Ranges {
            region: "cadj_bytes".into(),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    let expect: Vec<u64> = (0..group_rows)
        .flat_map(|v| w.g.neighbors(v as u32).to_vec())
        .map(|d| d as u64)
        .collect();
    let mut got = Vec::new();
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 0, 8);
        eng.enqueue_value(in_q, group_len, 8);
        eng.run(&mut w.img);
        got = values_of(&eng.drain_output(out_q));
    });
    let (expected, dynamic_confirmed, detail) = match codec {
        Some(_) => (
            Some(Code::B004),
            panicked || got != expect,
            if panicked {
                "corrupt-stream panic".into()
            } else {
                format!(
                    "decoded {} values, honest stream has {}",
                    got.len(),
                    expect.len()
                )
            },
        ),
        None => (
            None,
            !panicked && got == expect,
            "group 0 decodes to its raw neighbor rows".into(),
        ),
    };
    GateRow {
        name: name.into(),
        expected,
        static_codes,
        dynamic_confirmed,
        queue_lint_clean: None,
        detail,
    }
}

/// B002: a pair-indirection whose base is shifted one element into the
/// offsets array, so the last vertex id reads past the sentinel into the
/// guard page.
fn off_by_one_extent() -> GateRow {
    let (mut w, cfg) = workload();
    let n = w.n() as u64;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let out_q = b.queue(48);
    b.operator(
        OperatorKind::Indirect {
            base: w.offsets_addr + 8, // seeded: off by one element
            elem_bytes: 8,
            pair: true,
            class: DataClass::AdjacencyMatrix,
        },
        in_q,
        vec![out_q],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Values {
            elem_bytes: 8,
            max: Some(n - 1),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, n - 1, 8);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "off-by-one-extent".into(),
        expected: Some(Code::B002),
        static_codes,
        dynamic_confirmed: panicked,
        queue_lint_clean: None,
        detail: if panicked {
            "last id read past the sentinel into the guard page".into()
        } else {
            "read unexpectedly stayed in bounds".into()
        },
    }
}

/// B001: a range fetch whose base lies in no declared region at all.
fn unmapped_base() -> GateRow {
    let (mut w, cfg) = workload();
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let out_q = b.queue(48);
    b.operator(
        OperatorKind::RangeFetch {
            base: 0x10, // seeded: below the first mapped region
            idx_bytes: 8,
            elem_bytes: 8,
            input: RangeInput::Pairs,
            marker: None,
            class: DataClass::Other,
        },
        in_q,
        vec![out_q],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Values {
            elem_bytes: 8,
            max: Some(4),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 0, 8);
        eng.enqueue_value(in_q, 4, 8);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "unmapped-base".into(),
        expected: Some(Code::B001),
        static_codes,
        dynamic_confirmed: panicked,
        queue_lint_clean: None,
        detail: if panicked {
            "fetch hit an unmapped address".into()
        } else {
            "fetch unexpectedly succeeded".into()
        },
    }
}

/// Builds the binning-compressor shape with an adjustable buffer-MQU bin
/// count and append-MQU data base (the two seeded knobs below).
fn binning_like(
    w: &Workload,
    cfg: &SchemeConfig,
    buffer_queues: u32,
    append_base: u64,
) -> (Pipeline, spzip_core::QueueId) {
    let bins = w.bins.as_ref().expect("UbSpzip bins updates");
    let mut b = PipelineBuilder::new();
    let bin_q = b.queue(64);
    let chunk_q = b.queue(48);
    let cbytes_q = b.queue(48);
    b.operator(
        OperatorKind::MemQueue {
            num_queues: buffer_queues,
            data_base: bins.mqu1_addr(0, 0),
            stride: bins.mqu1_stride,
            meta_addr: bins.meta_addr(0, 0),
            chunk_elems: 32,
            elem_bytes: 8,
            mode: MemQueueMode::Buffer,
            class: DataClass::Updates,
        },
        bin_q,
        vec![chunk_q],
    );
    let codec = if cfg.compress_updates {
        cfg.update_codec
    } else {
        CodecKind::None
    };
    b.operator(
        OperatorKind::Compress {
            codec,
            elem_bytes: 8,
            sort_chunks: false,
        },
        chunk_q,
        vec![cbytes_q],
    );
    b.operator(
        OperatorKind::MemQueue {
            num_queues: bins.num_bins,
            data_base: append_base,
            stride: bins.bin_stride,
            meta_addr: bins.meta_addr(0, 0),
            chunk_elems: 32,
            elem_bytes: 8,
            mode: MemQueueMode::Append,
            class: DataClass::Updates,
        },
        cbytes_q,
        vec![],
    );
    (b.build().expect("structurally valid"), bin_q)
}

/// B002: a buffer MemQueue sized one bin short of the declared bin-id
/// range. Binning an update for the last bin trips the engine's id
/// assert.
fn bin_id_overflow() -> GateRow {
    let (mut w, cfg) = workload();
    let bins = w.bins.as_ref().expect("bins");
    let (num_bins, bin_addr) = (bins.num_bins, bins.bin_addr(0, 0));
    assert!(num_bins >= 2, "corpus workload must have several bins");
    // Seeded: one queue too few for ids up to num_bins - 1.
    let (p, bin_q) = binning_like(&w, &cfg, num_bins - 1, bin_addr);
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        bin_q,
        InputDomain::BinPairs {
            max_bin: num_bins - 1,
            elem_bytes: 8,
        },
    );
    let static_codes = verify_codes(&p, &schema);
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(bin_q, (num_bins - 1) as u64, 8);
        eng.enqueue_value(bin_q, 42, 8);
        eng.enqueue_marker(bin_q, num_bins - 1);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "bin-id-overflow".into(),
        expected: Some(Code::B002),
        static_codes,
        dynamic_confirmed: panicked,
        queue_lint_clean: None,
        detail: if panicked {
            "MemQueue bin-id assert tripped".into()
        } else {
            "update landed in a queue that should not exist".into()
        },
    }
}

/// B008: an append MemQueue whose data base is shifted one bin into the
/// last core's region, so the final bin's storage lies past the region
/// end.
fn mqu_footprint_overflow() -> GateRow {
    let (mut w, cfg) = workload();
    let bins = w.bins.as_ref().expect("bins");
    let num_bins = bins.num_bins;
    // Seeded: the append target starts one bin-stride into the last
    // core's region, pushing bin (num_bins - 1) past the region end.
    let shifted = bins.bin_addr(w.cores - 1, 1);
    let (p, bin_q) = binning_like(&w, &cfg, num_bins, shifted);
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        bin_q,
        InputDomain::BinPairs {
            max_bin: num_bins - 1,
            elem_bytes: 8,
        },
    );
    let static_codes = verify_codes(&p, &schema);
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(bin_q, (num_bins - 1) as u64, 8);
        eng.enqueue_value(bin_q, 42, 8);
        eng.enqueue_marker(bin_q, num_bins - 1);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "mqu-footprint-overflow".into(),
        expected: Some(Code::B008),
        static_codes,
        dynamic_confirmed: panicked,
        queue_lint_clean: None,
        detail: if panicked {
            "last bin's append crossed the region end".into()
        } else {
            "append unexpectedly stayed in bounds".into()
        },
    }
}

/// B006: decompressing the 8-byte-framed update bins at a declared width
/// of 4. The codec matches, so values decode fine — but every queue item
/// is half the width the schema promises, which the costed drain shows.
fn wrong_decoded_width() -> GateRow {
    let (mut w, cfg) = workload();
    let bins = w.bins.as_ref().expect("bins");
    let bins_base = bins.bins_base;
    let codec = if cfg.compress_updates {
        cfg.update_codec
    } else {
        CodecKind::None
    };
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let bytes_q = b.queue(48);
    let out_q = b.queue(64);
    b.operator(
        OperatorKind::RangeFetch {
            base: bins_base,
            idx_bytes: 8,
            elem_bytes: 1,
            input: RangeInput::Pairs,
            marker: Some(3),
            class: DataClass::Updates,
        },
        in_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::Decompress {
            codec,
            elem_bytes: 4, // seeded: bins decode to 8-byte update tuples
        },
        bytes_q,
        vec![out_q],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Ranges {
            region: "bins".into(),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    // Prefill (core 0, bin 0) with a compressed chunk of update tuples.
    let updates: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
    let mut blob = Vec::new();
    codec.build().compress(&updates, &mut blob);
    w.img.write_bytes(bins.bin_addr(0, 0), &blob);
    let mut eng = FuncEngine::new(p);
    eng.enqueue_value(in_q, 0, 8);
    eng.enqueue_value(in_q, blob.len() as u64, 8);
    eng.run(&mut w.img);
    let costs: Vec<u8> = eng
        .drain_output_costed(out_q)
        .iter()
        .filter(|(i, _)| !i.is_marker())
        .map(|&(_, c)| c)
        .collect();
    let confirmed = !costs.is_empty() && costs.iter().all(|&c| c == 4);
    GateRow {
        name: "wrong-decoded-width".into(),
        expected: Some(Code::B006),
        static_codes,
        dynamic_confirmed: confirmed,
        queue_lint_clean: None,
        detail: format!(
            "decoded items carry {:?}-byte widths, schema promises 8",
            costs.first().copied().unwrap_or(0)
        ),
    }
}

/// B005: stream-writing raw destination elements into the framed `cdst`
/// region without compressing them first. The written bytes are not a
/// valid frame stream.
fn raw_into_framed_write() -> GateRow {
    let (mut w, cfg) = workload();
    let cdst_base = w.cdst.as_ref().expect("UbSpzip compresses vertex").base;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let vals_q = b.queue(48);
    b.operator(
        OperatorKind::RangeFetch {
            base: w.dst_addr,
            idx_bytes: 8,
            elem_bytes: 4,
            input: RangeInput::Pairs,
            marker: Some(5),
            class: DataClass::DestinationVertex,
        },
        in_q,
        vec![vals_q],
    );
    // Seeded: no Compress stage between the raw fetch and the framed
    // region.
    b.operator(
        OperatorKind::StreamWrite {
            base: cdst_base,
            class: DataClass::DestinationVertex,
        },
        vals_q,
        vec![],
    );
    let p = b.build().expect("structurally valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Ranges {
            region: "dst_data".into(),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    for i in 0..64u64 {
        w.img.write_u32(w.dst_addr + i * 4, pattern(i));
    }
    let mut eng = FuncEngine::new(p);
    eng.enqueue_value(in_q, 0, 8);
    eng.enqueue_value(in_q, 64, 8);
    eng.run(&mut w.img);
    let written = eng.stream_cursor(1);
    let blob = w.img.read_bytes(cdst_base, written as usize);
    let mut decoded = Vec::new();
    let decode = cfg
        .vertex_codec
        .build()
        .decompress_frames(&blob, &mut decoded);
    let expect: Vec<u64> = (0..64).map(|i| pattern(i) as u64).collect();
    let confirmed = decode.is_err() || decoded != expect;
    GateRow {
        name: "raw-into-framed-write".into(),
        expected: Some(Code::B005),
        static_codes,
        dynamic_confirmed: confirmed,
        queue_lint_clean: None,
        detail: match decode {
            Err(e) => format!("frame decode failed: {e:?}"),
            Ok(()) => "frame decode produced the wrong values".into(),
        },
    }
}

// ---- control entries ---------------------------------------------------

/// Control: the honest 4-byte indirection over `src_data`.
fn control_indirect() -> GateRow {
    let (mut w, cfg) = workload();
    let n = w.n() as u64;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let out_q = b.queue(48);
    b.operator(
        OperatorKind::Indirect {
            base: w.src_addr,
            elem_bytes: 4,
            pair: false,
            class: DataClass::SourceVertex,
        },
        in_q,
        vec![out_q],
    );
    let p = b.build().expect("valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Values {
            elem_bytes: 4,
            max: Some(n - 1),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    for &i in &[0u64, 7, n - 1] {
        w.img.write_u32(w.src_addr + i * 4, pattern(i));
    }
    let mut got = Vec::new();
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(p.clone());
        for &i in &[0u64, 7, n - 1] {
            eng.enqueue_value(in_q, i, 4);
        }
        eng.run(&mut w.img);
        got = values_of(&eng.drain_output(out_q));
    });
    let expect: Vec<u64> = [0u64, 7, n - 1]
        .iter()
        .map(|&i| pattern(i) as u64)
        .collect();
    GateRow {
        name: "control-indirect".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: !panicked && got == expect,
        queue_lint_clean: None,
        detail: "honest 4-byte fetches round-trip".into(),
    }
}

/// Control: compress-then-write into `cdst` — the honest version of the
/// raw-into-framed miswiring — decodes back to the original elements.
fn control_roundtrip_write() -> GateRow {
    let (mut w, cfg) = workload();
    let cdst_base = w.cdst.as_ref().expect("cdst").base;
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let vals_q = b.queue(48);
    let bytes_q = b.queue(48);
    b.operator(
        OperatorKind::RangeFetch {
            base: w.dst_addr,
            idx_bytes: 8,
            elem_bytes: 4,
            input: RangeInput::Pairs,
            marker: Some(5),
            class: DataClass::DestinationVertex,
        },
        in_q,
        vec![vals_q],
    );
    b.operator(
        OperatorKind::Compress {
            codec: cfg.vertex_codec,
            elem_bytes: 4,
            sort_chunks: false,
        },
        vals_q,
        vec![bytes_q],
    );
    b.operator(
        OperatorKind::StreamWrite {
            base: cdst_base,
            class: DataClass::DestinationVertex,
        },
        bytes_q,
        vec![],
    );
    let p = b.build().expect("valid");
    let mut schema = w.schema(&cfg);
    schema.declare_input(
        in_q,
        InputDomain::Ranges {
            region: "dst_data".into(),
        },
    );
    let static_codes = verify_codes(&p, &schema);
    for i in 0..64u64 {
        w.img.write_u32(w.dst_addr + i * 4, pattern(i));
    }
    let mut eng = FuncEngine::new(p);
    eng.enqueue_value(in_q, 0, 8);
    eng.enqueue_value(in_q, 64, 8);
    eng.run(&mut w.img);
    let written = eng.stream_lengths(2).first().copied().unwrap_or(0);
    let blob = w.img.read_bytes(cdst_base, written as usize);
    let mut decoded = Vec::new();
    let ok = cfg
        .vertex_codec
        .build()
        .decompress_frames(&blob, &mut decoded)
        .is_ok();
    let expect: Vec<u64> = (0..64).map(|i| pattern(i) as u64).collect();
    GateRow {
        name: "control-roundtrip-write".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: ok && decoded == expect,
        queue_lint_clean: None,
        detail: "compressed write decodes back to its source".into(),
    }
}

/// Control: the real binning-compressor builtin, driven one update.
fn control_binning() -> GateRow {
    let (mut w, cfg) = workload();
    let pipe = pipelines::binning_compressor(&w, &cfg, 0);
    let static_codes = verify_codes(&pipe.pipeline, &pipe.schema);
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(pipe.pipeline.clone());
        eng.enqueue_value(pipe.bin_q, 0, 8);
        eng.enqueue_value(pipe.bin_q, 42, 8);
        eng.enqueue_marker(pipe.bin_q, 0);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "control-binning".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: !panicked,
        queue_lint_clean: None,
        detail: "builtin binning compressor bins one update cleanly".into(),
    }
}

/// The shape corpus: every seeded miswiring, then every control.
/// `Some(_)` weakens the verifier to one that checks only that each base
/// is mapped (`B001`), not extents, widths or framing.
pub fn rows(weakened: Option<f64>) -> Vec<GateRow> {
    let rows = vec![
        wrong_width_indirect(),
        decompress_adjacency("wrong-codec-decompress", Some(CodecKind::Rle)),
        off_by_one_extent(),
        unmapped_base(),
        bin_id_overflow(),
        mqu_footprint_overflow(),
        wrong_decoded_width(),
        raw_into_framed_write(),
        control_indirect(),
        decompress_adjacency("control-decompress", None),
        control_roundtrip_write(),
        control_binning(),
    ];
    match weakened {
        Some(_) => keep_only(rows, Code::B001),
        None => rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_catches_every_seeded_bug_and_clears_every_control() {
        crate::corpus::assert_gate_passes("shape");
    }

    #[test]
    fn reports_render_both_formats() {
        crate::corpus::assert_reports_render("shape", "wrong-codec-decompress", "B004");
    }

    #[test]
    fn corpus_covers_at_least_six_distinct_miswirings() {
        let rows = crate::corpus::run(rows, None);
        let seeded: Vec<&GateRow> = rows.iter().filter(|r| r.expected.is_some()).collect();
        assert!(seeded.len() >= 6, "{} seeded entries", seeded.len());
        let mut codes: Vec<Code> = seeded.iter().filter_map(|r| r.expected).collect();
        codes.sort_by_key(|c| c.to_string());
        codes.dedup();
        assert!(codes.len() >= 5, "distinct codes: {codes:?}");
        assert!(rows.iter().any(|r| r.expected.is_none()), "has controls");
    }
}
