//! Property-based tests on the DCL: textual round-trips for arbitrary
//! pipelines, flow conservation + timing drain for random traversal
//! programs over random data, and a reset functional engine behaving as a
//! fresh one across chunks.

use proptest::prelude::*;
use spzip_compress::CodecKind;
use spzip_core::dcl::{MemQueueMode, OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::engine::{EngineConfig, EngineModel};
use spzip_core::func::FuncEngine;
use spzip_core::memory::MemoryImage;
use spzip_core::parser;
use spzip_mem::hierarchy::{MemConfig, MemorySystem};
use spzip_mem::DataClass;
use std::collections::HashMap;

fn arb_class() -> impl Strategy<Value = DataClass> {
    prop_oneof![
        Just(DataClass::AdjacencyMatrix),
        Just(DataClass::SourceVertex),
        Just(DataClass::DestinationVertex),
        Just(DataClass::Updates),
        Just(DataClass::Frontier),
        Just(DataClass::Other),
    ]
}

fn arb_codec() -> impl Strategy<Value = CodecKind> {
    prop_oneof![
        Just(CodecKind::None),
        Just(CodecKind::Delta),
        Just(CodecKind::Bpc32),
        Just(CodecKind::Rle),
    ]
}

/// A random chain pipeline: range fetch, optionally through a compressor/
/// decompressor pair, optionally ending in an indirection.
fn arb_chain() -> impl Strategy<Value = (Pipeline, bool)> {
    (
        arb_class(),
        arb_codec(),
        any::<bool>(),
        any::<bool>(),
        1u16..64,
    )
        .prop_map(|(class, codec, transform, indirect, cap)| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(8);
            let q1 = b.queue(cap.max(8));
            b.operator(
                OperatorKind::RangeFetch {
                    base: 0x1000,
                    idx_bytes: 8,
                    elem_bytes: 4,
                    input: RangeInput::Pairs,
                    marker: Some(0),
                    class,
                },
                q0,
                vec![q1],
            );
            let mut last = q1;
            if transform {
                let q2 = b.queue(cap.max(8));
                let q3 = b.queue(cap.max(8));
                b.operator(
                    OperatorKind::Compress {
                        codec,
                        elem_bytes: 4,
                        sort_chunks: false,
                    },
                    last,
                    vec![q2],
                );
                b.operator(
                    OperatorKind::Decompress {
                        codec,
                        elem_bytes: 4,
                    },
                    q2,
                    vec![q3],
                );
                last = q3;
            }
            if indirect {
                let q4 = b.queue(cap.max(8));
                b.operator(
                    OperatorKind::Indirect {
                        base: 0x8000,
                        elem_bytes: 4,
                        pair: false,
                        class: DataClass::DestinationVertex,
                    },
                    last,
                    vec![q4],
                );
            }
            (b.build().expect("chain validates"), transform)
        })
}

/// A pipeline whose operators keep state across core enqueues: the shapes
/// `FuncEngine::reset` must return to their just-built state.
#[derive(Debug, Clone)]
enum Stateful {
    /// Range fetch (pending range start or boundary), optionally through a
    /// compressor/decompressor pair, optionally ending in an indirection.
    Range {
        mode: RangeInput,
        codec: CodecKind,
        transform: bool,
        indirect: bool,
    },
    /// Range fetch into a stream writer (write cursor, chunk lengths).
    Write { mode: RangeInput, marker: bool },
    /// Core-fed compressor into a decompressor (open chunk values and
    /// their quarters).
    Codec { codec: CodecKind, sort: bool },
    /// The binning compressor: buffer MemQueue, compressor, append
    /// MemQueue (per-bin counts, append cursor).
    Bins {
        bins: u32,
        chunk: u32,
        codec: CodecKind,
        sort: bool,
    },
    /// Core-fed append MemQueue (open chunk bytes, append cursor).
    Append { bins: u32 },
}

fn arb_mode() -> impl Strategy<Value = RangeInput> {
    prop_oneof![Just(RangeInput::Pairs), Just(RangeInput::Consecutive)]
}

fn arb_stateful() -> impl Strategy<Value = Stateful> {
    prop_oneof![
        (arb_mode(), arb_codec(), any::<bool>(), any::<bool>()).prop_map(
            |(mode, codec, transform, indirect)| Stateful::Range {
                mode,
                codec,
                transform,
                indirect,
            }
        ),
        (arb_mode(), any::<bool>()).prop_map(|(mode, marker)| Stateful::Write { mode, marker }),
        (arb_codec(), any::<bool>()).prop_map(|(codec, sort)| Stateful::Codec { codec, sort }),
        (1u32..5, 1u32..9, arb_codec(), any::<bool>()).prop_map(|(bins, chunk, codec, sort)| {
            Stateful::Bins {
                bins,
                chunk,
                codec,
                sort,
            }
        }),
        (1u32..5).prop_map(|bins| Stateful::Append { bins }),
    ]
}

/// Elements of the range-fetched array.
const ARR_LEN: u32 = 48;
/// Elements of the indirection target (every array value indexes it).
const IND_LEN: u32 = 256;
/// Bytes per append-MemQueue bin.
const APPEND_STRIDE: u64 = 16 << 10;

/// Lays out `shape`'s memory in `img` and builds its pipeline, whose core
/// input is queue 0. Deterministic: two fresh images get the same layout.
fn build_stateful(shape: &Stateful, img: &mut MemoryImage) -> Pipeline {
    let values: Vec<u32> = (0..ARR_LEN).map(|i| (i * 37 + 11) % IND_LEN).collect();
    let arr = img.alloc_u32s("arr", &values, DataClass::AdjacencyMatrix);
    let ind = img.alloc_u32s("ind", &[7; IND_LEN as usize], DataClass::DestinationVertex);
    let out = img.alloc("out", 4 * APPEND_STRIDE, DataClass::Updates);
    let meta = img.alloc("meta", 4 * 8, DataClass::Updates);
    let staging = img.alloc("staging", 4 * 64, DataClass::Updates);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(32);
    let range = |mode, marker| OperatorKind::RangeFetch {
        base: arr,
        idx_bytes: 8,
        elem_bytes: 4,
        input: mode,
        marker,
        class: DataClass::AdjacencyMatrix,
    };
    let append = |bins| OperatorKind::MemQueue {
        num_queues: bins,
        data_base: out,
        stride: APPEND_STRIDE,
        meta_addr: meta,
        chunk_elems: 32,
        elem_bytes: 8,
        mode: MemQueueMode::Append,
        class: DataClass::Updates,
    };
    match *shape {
        Stateful::Range {
            mode,
            codec,
            transform,
            indirect,
        } => {
            b.operator(range(mode, Some(0)), q0, vec![q1]);
            let mut last = q1;
            if transform {
                let (q2, q3) = (b.queue(32), b.queue(32));
                b.operator(
                    OperatorKind::Compress {
                        codec,
                        elem_bytes: 4,
                        sort_chunks: false,
                    },
                    q1,
                    vec![q2],
                );
                b.operator(
                    OperatorKind::Decompress {
                        codec,
                        elem_bytes: 4,
                    },
                    q2,
                    vec![q3],
                );
                last = q3;
            }
            if indirect {
                let q4 = b.queue(32);
                b.operator(
                    OperatorKind::Indirect {
                        base: ind,
                        elem_bytes: 4,
                        pair: false,
                        class: DataClass::DestinationVertex,
                    },
                    last,
                    vec![q4],
                );
            }
        }
        Stateful::Write { mode, marker } => {
            b.operator(range(mode, marker.then_some(0)), q0, vec![q1]);
            b.operator(
                OperatorKind::StreamWrite {
                    base: out,
                    class: DataClass::Updates,
                },
                q1,
                vec![],
            );
        }
        Stateful::Codec { codec, sort } => {
            let q2 = b.queue(32);
            b.operator(
                OperatorKind::Compress {
                    codec,
                    elem_bytes: 4,
                    sort_chunks: sort,
                },
                q0,
                vec![q1],
            );
            b.operator(
                OperatorKind::Decompress {
                    codec,
                    elem_bytes: 4,
                },
                q1,
                vec![q2],
            );
        }
        Stateful::Bins {
            bins,
            chunk,
            codec,
            sort,
        } => {
            let q2 = b.queue(32);
            b.operator(
                OperatorKind::MemQueue {
                    num_queues: bins,
                    data_base: staging,
                    stride: 64,
                    meta_addr: meta,
                    chunk_elems: chunk,
                    elem_bytes: 8,
                    mode: MemQueueMode::Buffer,
                    class: DataClass::Updates,
                },
                q0,
                vec![q1],
            );
            b.operator(
                OperatorKind::Compress {
                    codec,
                    elem_bytes: 8,
                    sort_chunks: sort,
                },
                q1,
                vec![q2],
            );
            b.operator(append(bins), q2, vec![]);
        }
        Stateful::Append { bins } => {
            b.operator(append(bins), q0, vec![]);
        }
    }
    b.build().expect("stateful shape validates")
}

/// Feeds one core enqueue to `shape`'s input queue: a marker when `sel`
/// is 6 or 7, else a value (a range index, a value to compress, a bin
/// update pair or a byte), derived from `x`.
fn feed(shape: &Stateful, eng: &mut FuncEngine, sel: u8, x: u32) {
    let marker = sel >= 6;
    match *shape {
        Stateful::Range { .. } | Stateful::Write { .. } if marker => eng.enqueue_marker(0, 0),
        Stateful::Range { .. } | Stateful::Write { .. } => {
            eng.enqueue_value(0, (x % (ARR_LEN + 1)) as u64, 8)
        }
        Stateful::Codec { .. } if marker => eng.enqueue_marker(0, 0),
        Stateful::Codec { .. } => eng.enqueue_value(0, x as u64, 4),
        Stateful::Bins { bins, .. } | Stateful::Append { bins } if marker => {
            eng.enqueue_marker(0, x % bins)
        }
        Stateful::Bins { bins, .. } => {
            eng.enqueue_value(0, (x % bins) as u64, 4);
            eng.enqueue_value(0, x as u64, 8)
        }
        Stateful::Append { .. } => eng.enqueue_value(0, (x & 0xff) as u64, 1),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn textual_roundtrip((p, _) in arb_chain()) {
        let text = parser::to_text(&p);
        let reparsed = parser::parse(&text, &HashMap::new()).unwrap();
        prop_assert_eq!(p, reparsed);
    }

    #[test]
    fn random_chain_conserves_flow_and_drains(
        (p, _) in arb_chain(),
        data in proptest::collection::vec(0u32..400_000, 1..200),
        scratch in prop_oneof![Just(256u32), Just(512), Just(2048)],
    ) {
        // Functional run over real data.
        let mut img = MemoryImage::new();
        let arr = img.alloc_u32s("arr", &data, DataClass::Other);
        let ind = img.alloc_u32s("ind", &vec![7u32; 2_000_000 / 4], DataClass::Other);
        // Rebuild with real base addresses (the strategy used dummies).
        let mut b = PipelineBuilder::new();
        for q in p.queues() {
            b.queue(q.capacity_words);
        }
        for op in p.operators() {
            let kind = match op.kind.clone() {
                OperatorKind::RangeFetch { idx_bytes, elem_bytes, input, marker, class, .. } => {
                    OperatorKind::RangeFetch { base: arr, idx_bytes, elem_bytes, input, marker, class }
                }
                OperatorKind::Indirect { elem_bytes, pair, class, .. } => {
                    OperatorKind::Indirect { base: ind, elem_bytes, pair, class }
                }
                other => other,
            };
            b.operator(kind, op.input, op.outputs.clone());
        }
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        let mut enq: Vec<(u8, u16)> = Vec::new();
        let c1 = eng.enqueue_value(0, 0, 8);
        let c2 = eng.enqueue_value(0, data.len() as u64, 8);
        enq.push((0, c1));
        enq.push((0, c2));
        eng.run(&mut img);

        // Flow conservation per queue.
        let firings = eng.take_firings();
        let nq = p.queues().len();
        let mut produced = vec![0u64; nq];
        let mut consumed = vec![0u64; nq];
        for &(q, c) in &enq {
            produced[q as usize] += c as u64;
        }
        for (i, op) in p.operators().iter().enumerate() {
            for f in &firings[i] {
                consumed[op.input as usize] += f.consumed_q as u64;
                for &o in &op.outputs {
                    produced[o as usize] += f.produced_q as u64;
                }
            }
        }
        let mut residual = vec![0u64; nq];
        for q in 0..nq as u8 {
            residual[q as usize] =
                eng.drain_output_costed(q).iter().map(|&(_, c)| c as u64).sum();
        }
        for q in 0..nq {
            prop_assert_eq!(produced[q], consumed[q] + residual[q], "queue {} unbalanced", q);
        }

        // Timing drain at the given scratchpad size.
        let mut cfg = EngineConfig::fetcher();
        cfg.scratchpad_bytes = scratch;
        let mut model = EngineModel::new(cfg, 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        for &(q, c) in &enq {
            prop_assert!(model.can_enqueue(q, c));
            model.enqueue(q, c);
        }
        let outs = p.core_output_queues();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut now = 0u64;
        while !model.idle() && now < 20_000_000 {
            model.tick(now, 64, &mut mem);
            for &q in &outs {
                while model.can_dequeue(q, 1) {
                    model.dequeue(q, 1);
                }
            }
            now += 64;
        }
        prop_assert!(model.idle(), "wedged: {:?}", model.stall_reason(now));
    }

    #[test]
    fn reset_engine_matches_fresh_engine(
        shape in arb_stateful(),
        chunks in collection::vec(collection::vec((0u8..8, any::<u32>()), 0..24), 1..6),
    ) {
        // One engine reset between chunks, against a fresh engine per
        // chunk, each over its own (identically laid out) image.
        let mut img_reused = MemoryImage::new();
        let p = build_stateful(&shape, &mut img_reused);
        let mut img_fresh = MemoryImage::new();
        build_stateful(&shape, &mut img_fresh);
        let mut reused = FuncEngine::new(p.clone());
        for (i, feeds) in chunks.iter().enumerate() {
            if i > 0 {
                reused.reset();
            }
            let mut fresh = FuncEngine::new(p.clone());
            for &(sel, x) in feeds {
                feed(&shape, &mut reused, sel, x);
                feed(&shape, &mut fresh, sel, x);
            }
            reused.run(&mut img_reused);
            fresh.run(&mut img_fresh);
            prop_assert_eq!(reused.open_chunks(), fresh.open_chunks(), "{:?} chunk {}", shape, i);
            prop_assert_eq!(reused.enqueue_log(), fresh.enqueue_log(), "{:?} chunk {}", shape, i);
            for op in 0..p.operators().len() {
                prop_assert_eq!(
                    reused.stream_cursor(op),
                    fresh.stream_cursor(op),
                    "{:?} chunk {} op {}", shape, i, op
                );
                prop_assert_eq!(
                    reused.stream_lengths(op),
                    fresh.stream_lengths(op),
                    "{:?} chunk {} op {}", shape, i, op
                );
            }
            for q in 0..p.queues().len() as u8 {
                prop_assert_eq!(
                    reused.drain_output_costed(q),
                    fresh.drain_output_costed(q),
                    "{:?} chunk {} queue {}", shape, i, q
                );
            }
            prop_assert_eq!(reused.take_firings(), fresh.take_firings(), "{:?} chunk {}", shape, i);
        }
    }
}
