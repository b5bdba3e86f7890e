//! The seeded-rewrite corpus: the translation validator's differential
//! gate.
//!
//! Each corpus entry pairs an original pipeline with a deliberately
//! semantics-breaking rewrite — a one-sided codec swap, a width change,
//! a dropped compress stage, crossed source queues, a dropped sink
//! branch, a flipped sort flag, a reordered indirection chain, a
//! duplicated stream — and the gate asserts the divergence is caught
//! **twice**:
//!
//! 1. *Statically*: [`spzip_core::equiv::validate`] must refute the
//!    rewrite with the expected `V0xx` code.
//! 2. *Dynamically*: driving both pipelines under the functional engine
//!    ([`spzip_core::func::FuncEngine`]) with the same inputs must
//!    observably diverge — different sink values, different written
//!    bytes, a corrupt-stream panic, or a vanished output stream.
//!
//! Control entries — an honest codec swap with a re-framed schema and
//! re-encoded storage, a `scale_queues` identity, a real builtin checked
//! against itself — must be clean on both sides, so the gate fails if the
//! validator ever becomes either too lax (a seeded rewrite certifies) or
//! too strict (an honest rewrite is rejected). `dcl-lint --corpus equiv`
//! runs the gate through the shared [`crate::corpus`] harness.
//!
//! The weakened checker is a *shallow comparator* that only checks the
//! sink set — every static code except `V006` is discarded, modeling a
//! validator without symbolic chains. The deep seeds (`V001`–`V005`)
//! then escape statically and the gate must exit non-zero.

use crate::corpus::{keep_only, panics, pattern, values_of, workload, GateRow};
use spzip_apps::pipelines;
use spzip_compress::CodecKind;
use spzip_core::dcl::{OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::equiv::{self, EquivInput};
use spzip_core::func::FuncEngine;
use spzip_core::lint::Code;
use spzip_core::memory::MemoryImage;
use spzip_core::shape::{InputDomain, MemorySchema, RegionSchema};
use spzip_core::QueueId;
use spzip_mem::DataClass;

/// Schema-free validator verdict for one original/rewritten pair.
fn validate_codes(original: &Pipeline, rewritten: &Pipeline) -> Vec<Code> {
    equiv::validate(&EquivInput::new(original, rewritten))
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect()
}

fn indirect(base: u64) -> OperatorKind {
    OperatorKind::Indirect {
        base,
        elem_bytes: 4,
        pair: false,
        class: DataClass::SourceVertex,
    }
}

// ---- seeded entries ----------------------------------------------------

/// V002: the rewrite swaps only the decompressor of an adjacent
/// compress/decompress pair, leaving Delta frames decoded as RLE.
fn mismatched_codec_pair() -> GateRow {
    fn build(dec: CodecKind) -> (Pipeline, QueueId, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(16);
        let bytes_q = b.queue(64);
        let out_q = b.queue(16);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 8,
                sort_chunks: false,
            },
            in_q,
            vec![bytes_q],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: dec,
                elem_bytes: 8,
            },
            bytes_q,
            vec![out_q],
        );
        (b.build().expect("structurally valid"), in_q, out_q)
    }
    let (orig, in_q, out_q) = build(CodecKind::Delta);
    let (rew, _, _) = build(CodecKind::Rle);
    let static_codes = validate_codes(&orig, &rew);
    let vals: Vec<u64> = (0..12).map(|i| 3 + i * i).collect();
    let drive = |p: &Pipeline| {
        let mut img = MemoryImage::new();
        let mut eng = FuncEngine::new(p.clone());
        for &v in &vals {
            eng.enqueue_value(in_q, v, 8);
        }
        eng.enqueue_marker(in_q, 0);
        eng.run(&mut img);
        values_of(&eng.drain_output(out_q))
    };
    let got_orig = drive(&orig);
    let mut got_rew = Vec::new();
    let rew_panicked = panics(|| got_rew = drive(&rew));
    GateRow {
        name: "mismatched-codec-pair".into(),
        expected: Some(Code::V002),
        static_codes,
        dynamic_confirmed: got_orig == vals && (rew_panicked || got_rew != vals),
        queue_lint_clean: None,
        detail: if rew_panicked {
            "RLE decode of Delta frames rejects the stream as corrupt".into()
        } else {
            format!("roundtrip decoded {got_rew:?}, honest stream is {vals:?}")
        },
    }
}

/// V004: the rewrite widens an indirection from 4-byte to 8-byte
/// elements over the same table.
fn width_changing_indirect() -> GateRow {
    fn build(base: u64, elem_bytes: u8) -> (Pipeline, QueueId, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::Indirect {
                base,
                elem_bytes,
                pair: false,
                class: DataClass::SourceVertex,
            },
            in_q,
            vec![out_q],
        );
        (b.build().expect("valid"), in_q, out_q)
    }
    let mut img = MemoryImage::new();
    let table: Vec<u32> = (0..16).map(pattern).collect();
    let base = img.alloc_u32s("table", &table, DataClass::SourceVertex);
    let (orig, in_q, out_q) = build(base, 4);
    let (rew, _, _) = build(base, 8);
    let static_codes = validate_codes(&orig, &rew);
    let mut drive = |p: &Pipeline| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 1, 4);
        eng.run(&mut img);
        eng.drain_output_costed(out_q)
            .iter()
            .map(|(i, w)| (i.value(), *w))
            .collect::<Vec<_>>()
    };
    let got_orig = drive(&orig);
    let got_rew = drive(&rew);
    GateRow {
        name: "width-changing-indirect".into(),
        expected: Some(Code::V004),
        static_codes,
        dynamic_confirmed: got_orig != got_rew,
        queue_lint_clean: None,
        detail: format!("(value,width) fetched {got_orig:?} vs {got_rew:?}"),
    }
}

/// V001: the rewrite drops the compress stage in front of a stream
/// writer, storing raw little-endian values where frames belong.
fn dropped_compress_stage() -> GateRow {
    fn build(base: u64, compress: bool) -> (Pipeline, QueueId, usize) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(16);
        if compress {
            let bytes_q = b.queue(64);
            b.operator(
                OperatorKind::Compress {
                    codec: CodecKind::Delta,
                    elem_bytes: 4,
                    sort_chunks: false,
                },
                in_q,
                vec![bytes_q],
            );
            b.operator(
                OperatorKind::StreamWrite {
                    base,
                    class: DataClass::DestinationVertex,
                },
                bytes_q,
                vec![],
            );
            (b.build().expect("valid"), in_q, 1)
        } else {
            b.operator(
                OperatorKind::StreamWrite {
                    base,
                    class: DataClass::DestinationVertex,
                },
                in_q,
                vec![],
            );
            (b.build().expect("valid"), in_q, 0)
        }
    }
    let mut img_orig = MemoryImage::new();
    let mut img_rew = MemoryImage::new();
    let base = img_orig.alloc("sink", 4096, DataClass::DestinationVertex);
    let base_rew = img_rew.alloc("sink", 4096, DataClass::DestinationVertex);
    assert_eq!(base, base_rew, "identical allocation order");
    let (orig, in_q, write_orig) = build(base, true);
    let (rew, _, write_rew) = build(base, false);
    let static_codes = validate_codes(&orig, &rew);
    let vals: Vec<u64> = (0..32).map(|i| 10 + i * 3).collect();
    let drive = |p: &Pipeline, img: &mut MemoryImage, write_op: usize| {
        let mut eng = FuncEngine::new(p.clone());
        for &v in &vals {
            eng.enqueue_value(in_q, v, 4);
        }
        eng.enqueue_marker(in_q, 0);
        eng.run(img);
        let written = eng.stream_cursor(write_op) as usize;
        img.read_bytes(base, written)
    };
    let blob_orig = drive(&orig, &mut img_orig, write_orig);
    let blob_rew = drive(&rew, &mut img_rew, write_rew);
    GateRow {
        name: "dropped-compress-stage".into(),
        expected: Some(Code::V001),
        static_codes,
        dynamic_confirmed: blob_orig != blob_rew,
        queue_lint_clean: None,
        detail: format!(
            "wrote {} frame byte(s) vs {} raw byte(s)",
            blob_orig.len(),
            blob_rew.len()
        ),
    }
}

/// V003: the rewrite crosses the two input queues feeding a pair of
/// indirections, so each sink consumes the other stream.
fn swapped_source_queue() -> GateRow {
    fn build(base: u64, crossed: bool) -> (Pipeline, [QueueId; 4]) {
        let mut b = PipelineBuilder::new();
        let in_a = b.queue(8);
        let in_b = b.queue(8);
        let out_a = b.queue(48);
        let out_b = b.queue(48);
        let (first, second) = if crossed { (in_b, in_a) } else { (in_a, in_b) };
        b.operator(indirect(base), first, vec![out_a]);
        b.operator(indirect(base), second, vec![out_b]);
        (b.build().expect("valid"), [in_a, in_b, out_a, out_b])
    }
    let mut img = MemoryImage::new();
    let table: Vec<u32> = (0..16).map(pattern).collect();
    let base = img.alloc_u32s("table", &table, DataClass::SourceVertex);
    let (orig, qs) = build(base, false);
    let (rew, _) = build(base, true);
    let static_codes = validate_codes(&orig, &rew);
    let mut drive = |p: &Pipeline| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(qs[0], 2, 4);
        eng.enqueue_value(qs[1], 7, 4);
        eng.run(&mut img);
        (
            values_of(&eng.drain_output(qs[2])),
            values_of(&eng.drain_output(qs[3])),
        )
    };
    let (a_orig, b_orig) = drive(&orig);
    let (a_rew, b_rew) = drive(&rew);
    GateRow {
        name: "swapped-source-queue".into(),
        expected: Some(Code::V003),
        static_codes,
        dynamic_confirmed: a_orig != a_rew && b_orig != b_rew,
        queue_lint_clean: None,
        detail: format!("sink A fetched {a_orig:?} vs {a_rew:?}"),
    }
}

/// V006: the rewrite drops one branch of a fan-out, losing an
/// observable output stream entirely.
fn dropped_sink_branch() -> GateRow {
    fn build(base: u64, both: bool) -> (Pipeline, QueueId, QueueId, Option<QueueId>) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let out_a = b.queue(48);
        if both {
            let out_b = b.queue(48);
            b.operator(indirect(base), in_q, vec![out_a, out_b]);
            (b.build().expect("valid"), in_q, out_a, Some(out_b))
        } else {
            b.operator(indirect(base), in_q, vec![out_a]);
            (b.build().expect("valid"), in_q, out_a, None)
        }
    }
    let mut img = MemoryImage::new();
    let table: Vec<u32> = (0..16).map(pattern).collect();
    let base = img.alloc_u32s("table", &table, DataClass::SourceVertex);
    let (orig, in_q, out_a, out_b) = build(base, true);
    let (rew, _, _, _) = build(base, false);
    let static_codes = validate_codes(&orig, &rew);
    let mut drive = |p: &Pipeline, second: Option<QueueId>| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 3, 4);
        eng.run(&mut img);
        (
            values_of(&eng.drain_output(out_a)),
            second.map(|q| values_of(&eng.drain_output(q))),
        )
    };
    let (a_orig, b_orig) = drive(&orig, out_b);
    let (a_rew, _) = drive(&rew, None);
    let expect = vec![pattern(3) as u64];
    GateRow {
        name: "dropped-sink-branch".into(),
        expected: Some(Code::V006),
        static_codes,
        dynamic_confirmed: a_orig == expect && a_rew == expect && b_orig == Some(expect),
        queue_lint_clean: None,
        detail: "the second output stream vanishes from the rewrite".into(),
    }
}

/// V001: the rewrite flips the compressor's sort-chunks flag, silently
/// reordering every stored chunk.
fn sort_flag_flip() -> GateRow {
    fn build(base: u64, sort_chunks: bool) -> (Pipeline, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(16);
        let bytes_q = b.queue(64);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
                sort_chunks,
            },
            in_q,
            vec![bytes_q],
        );
        b.operator(
            OperatorKind::StreamWrite {
                base,
                class: DataClass::DestinationVertex,
            },
            bytes_q,
            vec![],
        );
        (b.build().expect("valid"), in_q)
    }
    let mut img_orig = MemoryImage::new();
    let mut img_rew = MemoryImage::new();
    let base = img_orig.alloc("sink", 4096, DataClass::DestinationVertex);
    let base_rew = img_rew.alloc("sink", 4096, DataClass::DestinationVertex);
    assert_eq!(base, base_rew, "identical allocation order");
    let (orig, in_q) = build(base, false);
    let (rew, _) = build(base, true);
    let static_codes = validate_codes(&orig, &rew);
    // Unsorted input: sorting the chunk observably changes the frames.
    let vals: Vec<u64> = (0..32).map(|i| (pattern(i) % 1000) as u64).collect();
    let drive = |p: &Pipeline, img: &mut MemoryImage| {
        let mut eng = FuncEngine::new(p.clone());
        for &v in &vals {
            eng.enqueue_value(in_q, v, 4);
        }
        eng.enqueue_marker(in_q, 0);
        eng.run(img);
        let written = eng.stream_cursor(1) as usize;
        img.read_bytes(base, written)
    };
    let blob_orig = drive(&orig, &mut img_orig);
    let blob_rew = drive(&rew, &mut img_rew);
    GateRow {
        name: "sort-flag-flip".into(),
        expected: Some(Code::V001),
        static_codes,
        dynamic_confirmed: blob_orig != blob_rew,
        queue_lint_clean: None,
        detail: "sorted chunks encode to different frames".into(),
    }
}

/// V005: the rewrite commutes two indirections through distinct tables;
/// `A[B[i]]` is not `B[A[i]]`.
fn reordered_indirection_chain() -> GateRow {
    fn build(first: u64, second: u64) -> (Pipeline, QueueId, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let mid_q = b.queue(48);
        let out_q = b.queue(48);
        b.operator(indirect(first), in_q, vec![mid_q]);
        b.operator(indirect(second), mid_q, vec![out_q]);
        (b.build().expect("valid"), in_q, out_q)
    }
    let mut img = MemoryImage::new();
    // Both tables map indices back into 0..16, so either order stays in
    // bounds — only the composed values differ.
    let a: Vec<u32> = (0..16).map(|i| (i * 3 + 5) % 16).collect();
    let bt: Vec<u32> = (0..16).map(|i| (i * 7 + 2) % 16).collect();
    let base_a = img.alloc_u32s("a", &a, DataClass::SourceVertex);
    let base_b = img.alloc_u32s("b", &bt, DataClass::SourceVertex);
    let (orig, in_q, out_q) = build(base_a, base_b);
    let (rew, _, _) = build(base_b, base_a);
    let static_codes = validate_codes(&orig, &rew);
    let mut drive = |p: &Pipeline| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 4, 4);
        eng.run(&mut img);
        values_of(&eng.drain_output(out_q))
    };
    let got_orig = drive(&orig);
    let got_rew = drive(&rew);
    GateRow {
        name: "reordered-indirection-chain".into(),
        expected: Some(Code::V005),
        static_codes,
        dynamic_confirmed: got_orig.len() == 1 && got_orig != got_rew,
        queue_lint_clean: None,
        detail: format!("B[A[4]] = {got_orig:?}, A[B[4]] = {got_rew:?}"),
    }
}

/// V003: the rewrite replaces the second fetch with a fan-out of the
/// first, duplicating one stream and dropping the other.
fn duplicated_stream() -> GateRow {
    let mut img = MemoryImage::new();
    let table: Vec<u32> = (0..16).map(pattern).collect();
    let base = img.alloc_u32s("table", &table, DataClass::SourceVertex);
    // Queue ids must line up across the two builds, so the dropped input
    // queue is allocated last.
    let (orig, in_a, in_b, out_b) = {
        let mut b = PipelineBuilder::new();
        let in_a = b.queue(8);
        let out_a = b.queue(48);
        let out_b = b.queue(48);
        let in_b = b.queue(8);
        b.operator(indirect(base), in_a, vec![out_a]);
        b.operator(indirect(base), in_b, vec![out_b]);
        (b.build().expect("valid"), in_a, in_b, out_b)
    };
    let rew = {
        let mut b = PipelineBuilder::new();
        let in_a = b.queue(8);
        let out_a = b.queue(48);
        let out_b = b.queue(48);
        b.operator(indirect(base), in_a, vec![out_a, out_b]);
        b.build().expect("valid")
    };
    let static_codes = validate_codes(&orig, &rew);
    let got_orig = {
        let mut eng = FuncEngine::new(orig.clone());
        eng.enqueue_value(in_a, 2, 4);
        eng.enqueue_value(in_b, 7, 4);
        eng.run(&mut img);
        values_of(&eng.drain_output(out_b))
    };
    let mut eng = FuncEngine::new(rew.clone());
    eng.enqueue_value(in_a, 2, 4);
    eng.run(&mut img);
    let got_rew = values_of(&eng.drain_output(out_b));
    GateRow {
        name: "duplicated-stream".into(),
        expected: Some(Code::V003),
        static_codes,
        dynamic_confirmed: got_orig != got_rew,
        queue_lint_clean: None,
        detail: format!("sink B fetched {got_orig:?} vs duplicated {got_rew:?}"),
    }
}

// ---- controls ----------------------------------------------------------

/// Control: an honest codec swap — the rewritten schema re-frames the
/// region and storage is re-encoded with the new codec, so both sides
/// decode the same value stream.
fn control_honest_codec_swap() -> GateRow {
    fn build(codec: CodecKind, base: u64) -> (Pipeline, QueueId, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let bytes_q = b.queue(64);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::RangeFetch {
                base,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::SourceVertex,
            },
            in_q,
            vec![bytes_q],
        );
        b.operator(
            OperatorKind::Decompress {
                codec,
                elem_bytes: 4,
            },
            bytes_q,
            vec![out_q],
        );
        (b.build().expect("valid"), in_q, out_q)
    }
    fn schema_for(codec: CodecKind, base: u64, bytes: u64, in_q: QueueId) -> MemorySchema {
        let mut s = MemorySchema::new();
        s.add_region(RegionSchema::framed("cvals", base, bytes, codec, 4, None));
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "cvals".into(),
            },
        );
        s
    }
    let vals: Vec<u64> = (0..64).map(|i| 3 + i * i).collect();
    let mut frames_orig = Vec::new();
    let mut frames_rew = Vec::new();
    CodecKind::Delta.build().compress(&vals, &mut frames_orig);
    CodecKind::Rle.build().compress(&vals, &mut frames_rew);
    let mut img_orig = MemoryImage::new();
    let mut img_rew = MemoryImage::new();
    let base = img_orig.alloc_from("cvals", &frames_orig, DataClass::SourceVertex);
    let base_rew = img_rew.alloc_from("cvals", &frames_rew, DataClass::SourceVertex);
    assert_eq!(base, base_rew, "identical allocation order");
    let (orig, in_q, out_q) = build(CodecKind::Delta, base);
    let (rew, _, _) = build(CodecKind::Rle, base);
    let schema_orig = schema_for(CodecKind::Delta, base, frames_orig.len() as u64, in_q);
    let schema_rew = schema_for(CodecKind::Rle, base, frames_rew.len() as u64, in_q);
    let static_codes: Vec<Code> = equiv::validate(&EquivInput::with_schemas(
        &orig,
        &rew,
        &schema_orig,
        &schema_rew,
    ))
    .diagnostics()
    .iter()
    .map(|d| d.code)
    .collect();
    let drive = |p: &Pipeline, img: &mut MemoryImage, len: u64| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 0, 8);
        eng.enqueue_value(in_q, len, 8);
        eng.run(img);
        values_of(&eng.drain_output(out_q))
    };
    let got_orig = drive(&orig, &mut img_orig, frames_orig.len() as u64);
    let got_rew = drive(&rew, &mut img_rew, frames_rew.len() as u64);
    GateRow {
        name: "control-honest-codec-swap".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: got_orig == vals && got_rew == vals,
        queue_lint_clean: None,
        detail: "both framings decode the same value stream".into(),
    }
}

/// Control: `scale_queues` is an identity rewrite — capacities change,
/// streams do not.
fn control_scale_queues() -> GateRow {
    let mut img = MemoryImage::new();
    let a: Vec<u32> = (0..16).map(|i| (i * 3 + 5) % 16).collect();
    let bt: Vec<u32> = (0..16).map(|i| (i * 7 + 2) % 16).collect();
    let base_a = img.alloc_u32s("a", &a, DataClass::SourceVertex);
    let base_b = img.alloc_u32s("b", &bt, DataClass::SourceVertex);
    let mut b = PipelineBuilder::new();
    let in_q = b.queue(8);
    let mid_q = b.queue(48);
    let out_q = b.queue(48);
    b.operator(indirect(base_a), in_q, vec![mid_q]);
    b.operator(indirect(base_b), mid_q, vec![out_q]);
    let orig = b.build().expect("valid");
    let rew = orig.scale_queues(3.0).expect("scaling certifies");
    let static_codes = validate_codes(&orig, &rew);
    let mut drive = |p: &Pipeline| {
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(in_q, 4, 4);
        eng.run(&mut img);
        values_of(&eng.drain_output(out_q))
    };
    let got_orig = drive(&orig);
    let got_rew = drive(&rew);
    GateRow {
        name: "control-scale-queues".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: !got_orig.is_empty() && got_orig == got_rew,
        queue_lint_clean: None,
        detail: "scaled capacities leave every stream unchanged".into(),
    }
}

/// Control: a real builtin certified against itself, then driven cleanly.
fn control_builtin_identity() -> GateRow {
    let (mut w, cfg) = workload();
    let pipe = pipelines::binning_compressor(&w, &cfg, 0);
    let report = equiv::validate(&EquivInput::with_schemas(
        &pipe.pipeline,
        &pipe.pipeline,
        &pipe.schema,
        &pipe.schema,
    ));
    let static_codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
    let panicked = panics(|| {
        let mut eng = FuncEngine::new(pipe.pipeline.clone());
        eng.enqueue_value(pipe.bin_q, 0, 8);
        eng.enqueue_value(pipe.bin_q, 42, 8);
        eng.enqueue_marker(pipe.bin_q, 0);
        eng.run(&mut w.img);
    });
    GateRow {
        name: "control-builtin-identity".into(),
        expected: None,
        static_codes,
        dynamic_confirmed: !panicked && report.sinks_checked > 0,
        queue_lint_clean: None,
        detail: "builtin certifies against itself and drives cleanly".into(),
    }
}

/// The equiv corpus: every seeded rewrite, then every control.
/// `weakened` swaps in the shallow sink-set comparator, under which only
/// `V006` survives.
pub fn rows(weakened: bool) -> Vec<GateRow> {
    let rows = vec![
        mismatched_codec_pair(),
        width_changing_indirect(),
        dropped_compress_stage(),
        swapped_source_queue(),
        dropped_sink_branch(),
        sort_flag_flip(),
        reordered_indirection_chain(),
        duplicated_stream(),
        control_honest_codec_swap(),
        control_scale_queues(),
        control_builtin_identity(),
    ];
    if weakened {
        keep_only(rows, Code::V006)
    } else {
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_catches_every_seed_and_clears_every_control() {
        crate::corpus::assert_gate_passes("equiv");
    }

    #[test]
    fn reports_render_both_formats() {
        crate::corpus::assert_reports_render("equiv", "mismatched-codec-pair", "V002");
    }

    #[test]
    fn corpus_covers_the_whole_v_family() {
        let rows = crate::corpus::run(rows, false);
        let seeded: Vec<&GateRow> = rows.iter().filter(|r| r.expected.is_some()).collect();
        assert!(seeded.len() >= 8, "{} seeded entries", seeded.len());
        let mut codes: Vec<Code> = seeded.iter().filter_map(|r| r.expected).collect();
        codes.sort_by_key(|c| c.to_string());
        codes.dedup();
        let want = [
            Code::V001,
            Code::V002,
            Code::V003,
            Code::V004,
            Code::V005,
            Code::V006,
        ];
        assert_eq!(codes, want, "every V code has a seed");
        assert!(rows.iter().any(|r| r.expected.is_none()), "has controls");
    }

    #[test]
    fn shallow_comparator_lets_deep_seeds_escape() {
        let rows = crate::corpus::run(rows, true);
        let v002 = rows
            .iter()
            .find(|r| r.name == "mismatched-codec-pair")
            .expect("seed present");
        assert!(!v002.passes(), "a deep seed must escape the shallow pass");
        let v006 = rows
            .iter()
            .find(|r| r.name == "dropped-sink-branch")
            .expect("seed present");
        assert!(v006.passes(), "the sink-set seed is still caught");
        assert!(
            rows.iter().any(|r| !r.passes()),
            "the must-fail leg exits non-zero"
        );
    }
}
