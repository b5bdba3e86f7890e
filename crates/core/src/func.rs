//! The functional DCL engine.
//!
//! Executes a validated [`Pipeline`] against a [`MemoryImage`], producing
//! (a) the output streams a core would dequeue and (b) a **firing trace**
//! per operator: each firing records the queue words consumed and produced
//! and the (at most one) memory access performed. The timing model in
//! [`crate::engine`] replays these traces under queue-occupancy, scheduler,
//! and memory constraints, so decoupled execution is a timing phenomenon
//! layered over functionally-exact streams.
//!
//! Word accounting is done in *quarter-words* (bytes of queue payload):
//! a 32-bit value is 4 quarters, a 64-bit value 8, a raw byte 1, and a
//! marker 4 (one tagged word). Producer and consumer accounting is exact
//! because each queue item carries its cost.

use crate::dcl::{MemQueueMode, OperatorKind, Pipeline, RangeInput};
use crate::memory::MemoryImage;
use crate::{QueueId, QueueItem};
use spzip_compress::CodecCtx;
use spzip_mem::{Access, DataClass, MemOp, LINE_BYTES};
use std::collections::VecDeque;

/// Peak bytes an operator moves per firing (the paper sizes units for up
/// to 32 bytes/cycle).
pub const FIRE_BYTES: u64 = 32;

/// One operator activation in the firing trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Firing {
    /// Quarter-words consumed from the operator's input queue.
    pub consumed_q: u16,
    /// Quarter-words produced to **each** of the operator's output queues.
    pub produced_q: u16,
    /// The memory access this firing performs, if any.
    pub mem: Option<Access>,
}

/// A queue item paired with its quarter-word cost.
type CostedItem = (QueueItem, u8);

#[derive(Debug, Default)]
struct OpState {
    /// RangeFetch: pending start index (Pairs) or previous boundary
    /// (Consecutive).
    carry: Option<u64>,
    /// Compress: the pending chunk's values.
    chunk: Vec<u64>,
    /// Quarters consumed into the pending chunk so far.
    chunk_in_q: u32,
    /// StreamWrite/MemQueue-Append: output cursor (bytes written so far).
    cursor: u64,
    /// StreamWrite: recorded chunk lengths.
    lengths: Vec<u64>,
    /// MemQueue Buffer: per-bin element counts.
    bin_counts: Vec<u32>,
    /// Decompress/Compress: cached codec context, rebuilt only when the
    /// operator's codec kind changes (i.e. once per pipeline).
    ctx: Option<CodecCtx>,
    /// Decompress: decoded values, staged between a marker and their
    /// emission; reused across markers instead of allocated per chunk.
    stage_values: Vec<u64>,
    /// Decompress/MemQueue-Append: the pending chunk's bytes. Compress:
    /// the encoded chunk, staged between a marker and its emission. Empty
    /// whenever no chunk is open.
    stage_bytes: Vec<u8>,
}

impl OpState {
    /// Forgets all chunk and stream state, keeping buffers and the codec
    /// context.
    fn reset(&mut self) {
        self.carry = None;
        self.chunk.clear();
        self.chunk_in_q = 0;
        self.cursor = 0;
        self.lengths.clear();
        self.bin_counts.fill(0);
        self.stage_bytes.clear();
    }
}

/// The functional engine. See the module docs.
///
/// # Examples
///
/// Running the Fig. 2 CSR traversal:
///
/// ```
/// use spzip_core::dcl::*;
/// use spzip_core::func::FuncEngine;
/// use spzip_core::memory::MemoryImage;
/// use spzip_core::QueueItem;
/// use spzip_mem::DataClass;
///
/// let mut img = MemoryImage::new();
/// let offsets = img.alloc_u64s("offsets", &[0, 2, 4, 5, 7], DataClass::AdjacencyMatrix);
/// let rows = img.alloc_u32s("rows", &[1, 2, 0, 2, 3, 1, 2], DataClass::AdjacencyMatrix);
///
/// let mut b = PipelineBuilder::new();
/// let input = b.queue(16);
/// let offs_q = b.queue(32);
/// let rows_q = b.queue(64);
/// b.operator(OperatorKind::RangeFetch {
///     base: offsets, idx_bytes: 8, elem_bytes: 8,
///     input: RangeInput::Pairs, marker: None, class: DataClass::AdjacencyMatrix,
/// }, input, vec![offs_q]);
/// b.operator(OperatorKind::RangeFetch {
///     base: rows, idx_bytes: 8, elem_bytes: 4,
///     input: RangeInput::Consecutive, marker: Some(0), class: DataClass::AdjacencyMatrix,
/// }, offs_q, vec![rows_q]);
/// let p = b.build().unwrap();
///
/// let mut eng = FuncEngine::new(p.clone());
/// eng.enqueue_value(input, 0, 8);
/// eng.enqueue_value(input, 5, 8);  // traverse rows 0..5
/// eng.run(&mut img);
/// let out = eng.drain_output(rows_q);
/// // 7 neighbor values + 4 row-end markers.
/// assert_eq!(out.len(), 11);
/// assert_eq!(out[0], QueueItem::Value(1));
/// assert!(out[2].is_marker());
/// ```
pub struct FuncEngine {
    pipeline: Pipeline,
    queues: Vec<VecDeque<CostedItem>>,
    firings: Vec<Vec<Firing>>,
    states: Vec<OpState>,
    /// Core-side enqueues recorded as (queue, quarters), for event replay.
    enqueues: Vec<(QueueId, u16)>,
}

impl FuncEngine {
    /// Creates an engine over `pipeline` with empty queues.
    pub fn new(pipeline: Pipeline) -> Self {
        FuncEngine {
            queues: (0..pipeline.queues().len())
                .map(|_| VecDeque::new())
                .collect(),
            firings: (0..pipeline.operators().len())
                .map(|_| Vec::new())
                .collect(),
            states: (0..pipeline.operators().len())
                .map(|_| OpState::default())
                .collect(),
            enqueues: Vec::new(),
            pipeline,
        }
    }

    /// Returns the engine to its just-constructed state for the next
    /// chunk: empties every queue, the firing traces and the enqueue log,
    /// and forgets each operator's chunk and stream state (range carries,
    /// pending chunks, stream cursors and lengths, bin counts). Buffers
    /// keep their capacity and codec contexts are kept, so the next chunk
    /// rebuilds neither.
    pub fn reset(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.firings.iter_mut().for_each(Vec::clear);
        self.states.iter_mut().for_each(OpState::reset);
        self.enqueues.clear();
    }

    /// The pipeline being executed.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Core-side enqueue of a value of `elem_bytes`; returns its cost in
    /// quarter-words.
    pub fn enqueue_value(&mut self, q: QueueId, value: u64, elem_bytes: u8) -> u16 {
        let cost = elem_bytes.max(1) as u16;
        self.queues[q as usize].push_back((QueueItem::Value(value), cost as u8));
        self.enqueues.push((q, cost));
        cost
    }

    /// Core-side enqueue of a marker.
    pub fn enqueue_marker(&mut self, q: QueueId, value: u32) -> u16 {
        self.queues[q as usize].push_back((QueueItem::Marker(value), 4));
        self.enqueues.push((q, 4));
        4
    }

    /// Drains a core-facing output queue, discarding cost annotations.
    pub fn drain_output(&mut self, q: QueueId) -> Vec<QueueItem> {
        self.queues[q as usize]
            .drain(..)
            .map(|(item, _)| item)
            .collect()
    }

    /// Drains a core-facing output queue with per-item quarter costs.
    pub fn drain_output_costed(&mut self, q: QueueId) -> Vec<(QueueItem, u8)> {
        self.queues[q as usize].drain(..).collect()
    }

    /// The recorded core enqueues (queue, quarters) since construction or
    /// the last [`Self::reset`].
    pub fn enqueue_log(&self) -> &[(QueueId, u16)] {
        &self.enqueues
    }

    /// Takes the per-operator firing traces accumulated so far.
    pub fn take_firings(&mut self) -> Vec<Vec<Firing>> {
        let n = self.firings.len();
        std::mem::replace(&mut self.firings, (0..n).map(|_| Vec::new()).collect())
    }

    /// StreamWrite chunk lengths recorded by operator `op_idx`.
    pub fn stream_lengths(&self, op_idx: usize) -> &[u64] {
        &self.op_state_ref(op_idx).lengths
    }

    /// StreamWrite/MemQueue cursor (total bytes written) of operator
    /// `op_idx`.
    pub fn stream_cursor(&self, op_idx: usize) -> u64 {
        self.op_state_ref(op_idx).cursor
    }

    fn op_state_ref(&self, idx: usize) -> &OpState {
        &self.states[idx]
    }

    /// Operators still holding an open (not marker-terminated) chunk, as
    /// `(operator index, buffered items)`. After a well-formed phase —
    /// closing markers enqueued, or [`Self::flush`] called — every entry
    /// is drained; leftovers mean buffered data would be silently lost,
    /// which is SimSanitizer's S004 drain-discipline violation (the
    /// dynamic twin of the linter's marker E-codes).
    pub fn open_chunks(&self) -> Vec<(usize, usize)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let buffered = s.chunk.len()
                    + s.stage_bytes.len()
                    + s.bin_counts.iter().map(|&c| c as usize).sum::<usize>();
                (buffered > 0).then_some((i, buffered))
            })
            .collect()
    }

    /// Processes all operators until no further progress is possible.
    /// Queue contents destined for the core remain in their queues.
    pub fn run(&mut self, img: &mut MemoryImage) {
        loop {
            let mut progress = false;
            for idx in 0..self.pipeline.operators().len() {
                progress |= self.step_operator(idx, img);
            }
            if !progress {
                break;
            }
        }
    }

    /// Flushes stateful operators at end of phase: emits partial MemQueue
    /// chunks (the explicit close-markers path of Listing 5 is also
    /// available by enqueueing markers).
    pub fn flush(&mut self, img: &mut MemoryImage) {
        for idx in 0..self.pipeline.operators().len() {
            if let OperatorKind::MemQueue {
                mode: MemQueueMode::Buffer,
                num_queues,
                ..
            } = self.pipeline.operators()[idx].kind.clone()
            {
                for qid in 0..num_queues {
                    self.flush_bin(idx, qid, img);
                }
            }
        }
        self.run(img);
    }

    // ---- operator implementations ------------------------------------

    // The marker/value dispatch loops break mid-body; while-let would not
    // simplify them.
    #[allow(clippy::while_let_loop)]
    fn step_operator(&mut self, idx: usize, img: &mut MemoryImage) -> bool {
        let kind = self.pipeline.operators()[idx].kind.clone();
        let input = self.pipeline.operators()[idx].input;
        let mut progress = false;
        match kind {
            OperatorKind::RangeFetch {
                base,
                idx_bytes: _,
                elem_bytes,
                input: mode,
                marker,
                class,
            } => {
                while let Some((item, cost)) = self.pop(input) {
                    progress = true;
                    match item {
                        QueueItem::Marker(m) => self.pass_marker(idx, m, cost),
                        QueueItem::Value(v) => {
                            let state = &mut self.states[idx];
                            match (mode, state.carry) {
                                (RangeInput::Pairs, None) => {
                                    state.carry = Some(v);
                                    self.record(
                                        idx,
                                        Firing {
                                            consumed_q: cost as u16,
                                            produced_q: 0,
                                            mem: None,
                                        },
                                    );
                                }
                                (RangeInput::Pairs, Some(start)) => {
                                    self.states[idx].carry = None;
                                    self.emit_range(
                                        idx, base, start, v, elem_bytes, marker, class, cost, img,
                                    );
                                }
                                (RangeInput::Consecutive, None) => {
                                    state.carry = Some(v);
                                    self.record(
                                        idx,
                                        Firing {
                                            consumed_q: cost as u16,
                                            produced_q: 0,
                                            mem: None,
                                        },
                                    );
                                }
                                (RangeInput::Consecutive, Some(prev)) => {
                                    self.states[idx].carry = Some(v);
                                    self.emit_range(
                                        idx, base, prev, v, elem_bytes, marker, class, cost, img,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            OperatorKind::Indirect {
                base,
                elem_bytes,
                pair,
                class,
            } => {
                while let Some((item, cost)) = self.pop(input) {
                    progress = true;
                    match item {
                        QueueItem::Marker(m) => self.pass_marker(idx, m, cost),
                        QueueItem::Value(v) => {
                            let addr = base + v * elem_bytes as u64;
                            let has_out = !self.pipeline.operators()[idx].outputs.is_empty();
                            let n_elems = if pair { 2u64 } else { 1 };
                            let total = n_elems * elem_bytes as u64;
                            if has_out {
                                for e in 0..n_elems {
                                    let value =
                                        img.read_uint(addr + e * elem_bytes as u64, elem_bytes);
                                    self.push_all(idx, QueueItem::Value(value), elem_bytes);
                                }
                            } else {
                                let _ = img.read_uint(addr, elem_bytes);
                            }
                            // One firing per line segment (a pair can
                            // straddle a line boundary).
                            let mut first = true;
                            for (seg_addr, seg_len) in segments(addr, total) {
                                let seg_elems = seg_len / elem_bytes as u64;
                                self.record(
                                    idx,
                                    Firing {
                                        consumed_q: if first { cost as u16 } else { 0 },
                                        produced_q: if has_out {
                                            (seg_elems * elem_bytes as u64) as u16
                                        } else {
                                            0
                                        },
                                        mem: Some(Access::new(
                                            seg_addr,
                                            seg_len as u32,
                                            MemOp::Load,
                                            class,
                                        )),
                                    },
                                );
                                first = false;
                            }
                        }
                    }
                }
            }
            OperatorKind::Decompress { codec, elem_bytes } => {
                while let Some((item, cost)) = self.pop(input) {
                    progress = true;
                    match item {
                        QueueItem::Value(b) => {
                            let state = &mut self.states[idx];
                            state.stage_bytes.push(b as u8);
                            state.chunk_in_q += cost as u32;
                        }
                        QueueItem::Marker(m) => {
                            let state = &mut self.states[idx];
                            let consumed = state.chunk_in_q + cost as u32;
                            state.chunk_in_q = 0;
                            // Stage in the operator's reusable buffers; the
                            // take/put-back dance frees the borrow on
                            // `self.states` across `emit_transformed`.
                            let mut values = std::mem::take(&mut state.stage_values);
                            values.clear();
                            if !state.stage_bytes.is_empty() {
                                CodecCtx::ensure(&mut state.ctx, codec)
                                    .decompress_frames(&state.stage_bytes, &mut values)
                                    .expect("fetcher decompressed a corrupt stream");
                                state.stage_bytes.clear();
                            }
                            self.emit_transformed(idx, &values, elem_bytes, consumed, Some(m));
                            self.states[idx].stage_values = values;
                        }
                    }
                }
            }
            OperatorKind::Compress {
                codec,
                elem_bytes: _,
                sort_chunks,
            } => {
                while let Some((item, cost)) = self.pop(input) {
                    progress = true;
                    match item {
                        QueueItem::Value(v) => {
                            self.states[idx].chunk.push(v);
                            self.states[idx].chunk_in_q += cost as u32;
                        }
                        QueueItem::Marker(m) => {
                            let state = &mut self.states[idx];
                            let mut values = std::mem::take(&mut state.chunk);
                            let consumed = state.chunk_in_q + cost as u32;
                            state.chunk_in_q = 0;
                            if sort_chunks {
                                values.sort_unstable();
                            }
                            let mut bytes = std::mem::take(&mut state.stage_bytes);
                            if !values.is_empty() {
                                CodecCtx::ensure(&mut state.ctx, codec)
                                    .compress(&values, &mut bytes);
                            }
                            self.emit_transformed(idx, &bytes, 1, consumed, Some(m));
                            // Put the staging buffer (and the chunk's
                            // capacity) back for the next marker.
                            let state = &mut self.states[idx];
                            bytes.clear();
                            state.stage_bytes = bytes;
                            values.clear();
                            state.chunk = values;
                        }
                    }
                }
            }
            OperatorKind::StreamWrite { base, class } => {
                while let Some((item, cost)) = self.pop(input) {
                    progress = true;
                    match item {
                        QueueItem::Marker(_) => {
                            let state = &mut self.states[idx];
                            let prev: u64 = state.lengths.iter().sum();
                            let len = state.cursor - prev;
                            state.lengths.push(len);
                            self.record(
                                idx,
                                Firing {
                                    consumed_q: cost as u16,
                                    produced_q: 0,
                                    mem: None,
                                },
                            );
                        }
                        QueueItem::Value(v) => {
                            let bytes = cost; // quarters == payload bytes
                            let addr = base + self.states[idx].cursor;
                            img.write_bytes(addr, &v.to_le_bytes()[..bytes as usize]);
                            self.states[idx].cursor += bytes as u64;
                            self.record(
                                idx,
                                Firing {
                                    consumed_q: cost as u16,
                                    produced_q: 0,
                                    mem: Some(Access::new(
                                        addr,
                                        bytes as u32,
                                        MemOp::StreamStore,
                                        class,
                                    )),
                                },
                            );
                        }
                    }
                }
            }
            OperatorKind::MemQueue {
                num_queues,
                data_base,
                stride,
                meta_addr,
                chunk_elems,
                elem_bytes,
                mode,
                class,
            } => {
                if self.states[idx].bin_counts.is_empty() {
                    self.states[idx].bin_counts = vec![0; num_queues as usize];
                }
                match mode {
                    MemQueueMode::Buffer => {
                        // Input alternates (qid value, payload value);
                        // Marker(qid) closes a bin.
                        loop {
                            let Some(&(first, _)) = self.queues[input as usize].front() else {
                                break;
                            };
                            match first {
                                QueueItem::Marker(qid) => {
                                    let (_, cost) = self.pop(input).unwrap();
                                    self.record(
                                        idx,
                                        Firing {
                                            consumed_q: cost as u16,
                                            produced_q: 0,
                                            mem: None,
                                        },
                                    );
                                    self.flush_bin(idx, qid, img);
                                    progress = true;
                                }
                                QueueItem::Value(qid) => {
                                    if self.queues[input as usize].len() < 2 {
                                        break;
                                    }
                                    let (_, qid_cost) = self.pop(input).unwrap();
                                    let (payload, pay_cost) = self.pop(input).unwrap();
                                    let qid = qid as u32;
                                    assert!(qid < num_queues, "MemQueue id {qid} out of range");
                                    let count = self.states[idx].bin_counts[qid as usize];
                                    let slot = data_base
                                        + qid as u64 * stride
                                        + count as u64 * elem_bytes as u64;
                                    img.write_bytes(
                                        slot,
                                        &payload.value().to_le_bytes()[..elem_bytes as usize],
                                    );
                                    self.record(
                                        idx,
                                        Firing {
                                            consumed_q: (qid_cost + pay_cost) as u16,
                                            produced_q: 0,
                                            mem: Some(Access::new(
                                                slot,
                                                elem_bytes as u32,
                                                MemOp::StreamStore,
                                                class,
                                            )),
                                        },
                                    );
                                    self.states[idx].bin_counts[qid as usize] = count + 1;
                                    if count + 1 == chunk_elems {
                                        self.flush_bin(idx, qid, img);
                                    }
                                    progress = true;
                                }
                            }
                        }
                    }
                    MemQueueMode::Append => {
                        while let Some((item, cost)) = self.pop(input) {
                            progress = true;
                            match item {
                                QueueItem::Value(b) => {
                                    let state = &mut self.states[idx];
                                    state.stage_bytes.push(b as u8);
                                    state.chunk_in_q += cost as u32;
                                }
                                QueueItem::Marker(qid) => {
                                    let state = &mut self.states[idx];
                                    let len = state.stage_bytes.len() as u64;
                                    let consumed = state.chunk_in_q + cost as u32;
                                    state.chunk_in_q = 0;
                                    let tail_addr = meta_addr + qid as u64 * 8;
                                    let tail = img.read_u64(tail_addr);
                                    assert!(
                                        tail + len <= stride,
                                        "bin {qid} overflow: software must grow the bin (interrupt path)"
                                    );
                                    let dst = data_base + qid as u64 * stride + tail;
                                    img.write_bytes(dst, &state.stage_bytes);
                                    img.write_u64(tail_addr, tail + len);
                                    state.stage_bytes.clear();
                                    state.cursor += len;
                                    // Write firings per <=32B line segment,
                                    // consuming the input incrementally so a
                                    // whole chunk never has to fit in the
                                    // input queue at once.
                                    let n = segments(dst, len).count() as u32 + 1; // + meta firing
                                    let per = consumed / n;
                                    let mut rem = consumed % n;
                                    let take = |rem: &mut u32| {
                                        let c = per + u32::from(*rem > 0);
                                        *rem = rem.saturating_sub(1);
                                        c as u16
                                    };
                                    for (addr, len) in segments(dst, len) {
                                        self.record(
                                            idx,
                                            Firing {
                                                consumed_q: take(&mut rem),
                                                produced_q: 0,
                                                mem: Some(Access::new(
                                                    addr,
                                                    len as u32,
                                                    MemOp::StreamStore,
                                                    class,
                                                )),
                                            },
                                        );
                                    }
                                    // Tail-pointer update.
                                    self.record(
                                        idx,
                                        Firing {
                                            consumed_q: take(&mut rem),
                                            produced_q: 0,
                                            mem: Some(Access::new(
                                                tail_addr,
                                                8,
                                                MemOp::Store,
                                                class,
                                            )),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        progress
    }

    /// Streams a buffered bin's chunk downstream and resets it.
    fn flush_bin(&mut self, idx: usize, qid: u32, img: &mut MemoryImage) {
        let OperatorKind::MemQueue {
            data_base,
            stride,
            chunk_elems: _,
            elem_bytes,
            class,
            ..
        } = self.pipeline.operators()[idx].kind.clone()
        else {
            unreachable!("flush_bin on non-MemQueue");
        };
        let count = self.states[idx].bin_counts[qid as usize];
        if count == 0 {
            return;
        }
        self.states[idx].bin_counts[qid as usize] = 0;
        let bin_base = data_base + qid as u64 * stride;
        // Read the chunk back and emit it, one firing per <=32 B segment.
        let total_bytes = count as u64 * elem_bytes as u64;
        let mut emitted = 0u64;
        for (addr, len) in segments(bin_base, total_bytes) {
            let n_elems = len / elem_bytes as u64;
            for e in 0..n_elems {
                let v = img.read_uint(addr + e * elem_bytes as u64, elem_bytes);
                self.push_all(idx, QueueItem::Value(v), elem_bytes);
            }
            self.record(
                idx,
                Firing {
                    consumed_q: 0,
                    produced_q: (n_elems * elem_bytes as u64) as u16,
                    mem: Some(Access::new(addr, len as u32, MemOp::Load, class)),
                },
            );
            emitted += n_elems;
        }
        debug_assert_eq!(emitted, count as u64);
        // Chunk delimiter carries the bin id.
        self.push_all(idx, QueueItem::Marker(qid), 4);
        self.record(
            idx,
            Firing {
                consumed_q: 0,
                produced_q: 4,
                mem: None,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_range(
        &mut self,
        idx: usize,
        base: u64,
        start: u64,
        end: u64,
        elem_bytes: u8,
        marker: Option<u32>,
        class: DataClass,
        end_cost: u8,
        img: &mut MemoryImage,
    ) {
        let has_out = !self.pipeline.operators()[idx].outputs.is_empty();
        let start_addr = base + start * elem_bytes as u64;
        let total_bytes = end.saturating_sub(start) * elem_bytes as u64;
        let mut first = true;
        for (addr, len) in segments(start_addr, total_bytes) {
            let n_elems = len / elem_bytes.max(1) as u64;
            if has_out {
                if elem_bytes == 1 {
                    let mut seg = [0u8; FIRE_BYTES as usize];
                    let seg = &mut seg[..len as usize];
                    img.read_bytes_into(addr, seg);
                    for &b in seg.iter() {
                        self.push_all(idx, QueueItem::Value(b as u64), 1);
                    }
                } else {
                    for e in 0..n_elems {
                        let v = img.read_uint(addr + e * elem_bytes as u64, elem_bytes);
                        self.push_all(idx, QueueItem::Value(v), elem_bytes);
                    }
                }
            }
            self.record(
                idx,
                Firing {
                    consumed_q: if first { end_cost as u16 } else { 0 },
                    produced_q: if has_out { len as u16 } else { 0 },
                    mem: Some(Access::new(addr, len as u32, MemOp::Load, class)),
                },
            );
            first = false;
        }
        if let Some(mv) = marker {
            if has_out {
                self.push_all(idx, QueueItem::Marker(mv), 4);
            }
            self.record(
                idx,
                Firing {
                    consumed_q: if first { end_cost as u16 } else { 0 },
                    produced_q: if has_out { 4 } else { 0 },
                    mem: None,
                },
            );
        } else if total_bytes == 0 {
            // Zero-length range, no marker: still consume the input.
            self.record(
                idx,
                Firing {
                    consumed_q: end_cost as u16,
                    produced_q: 0,
                    mem: None,
                },
            );
        }
    }

    /// Emits transformed (de/compressed) output values in <=32 B firings,
    /// distributing `consumed` quarters across them, then passes `marker`.
    fn emit_transformed<T: Copy + Into<u64>>(
        &mut self,
        idx: usize,
        values: &[T],
        elem_bytes: u8,
        consumed: u32,
        marker: Option<u32>,
    ) {
        let total_out =
            values.len() as u64 * elem_bytes as u64 + if marker.is_some() { 4 } else { 0 };
        // The unit moves at most 32 B/cycle on BOTH sides: enough firings
        // to cover whichever direction is larger (compression can shrink
        // 256 B of input into a few output bytes, and vice versa).
        let n_firings = total_out
            .div_ceil(FIRE_BYTES)
            .max((consumed as u64).div_ceil(FIRE_BYTES))
            .max(1);
        let per_firing = consumed as u64 / n_firings;
        let mut remainder = consumed as u64 % n_firings;
        let mut vi = 0usize;
        let mut out_left = total_out;
        for _ in 0..n_firings {
            let this_out = out_left.min(FIRE_BYTES);
            out_left -= this_out;
            let mut produced = 0u64;
            while vi < values.len() && produced + elem_bytes as u64 <= this_out {
                self.push_all(idx, QueueItem::Value(values[vi].into()), elem_bytes);
                produced += elem_bytes as u64;
                vi += 1;
            }
            if out_left == 0 {
                if let Some(m) = marker {
                    if produced + 4 <= this_out || vi == values.len() {
                        self.push_all(idx, QueueItem::Marker(m), 4);
                        produced += 4;
                    }
                }
            }
            let consumed_now = per_firing + if remainder > 0 { 1 } else { 0 };
            remainder = remainder.saturating_sub(1);
            self.record(
                idx,
                Firing {
                    consumed_q: consumed_now as u16,
                    produced_q: produced as u16,
                    mem: None,
                },
            );
        }
        debug_assert_eq!(vi, values.len(), "all values emitted");
    }

    // ---- queue plumbing -----------------------------------------------

    fn pop(&mut self, q: QueueId) -> Option<CostedItem> {
        self.queues[q as usize].pop_front()
    }

    fn push_all(&mut self, op_idx: usize, item: QueueItem, cost: u8) {
        for &q in &self.pipeline.operators()[op_idx].outputs {
            self.queues[q as usize].push_back((item, cost));
        }
    }

    fn pass_marker(&mut self, idx: usize, m: u32, cost: u8) {
        let has_out = !self.pipeline.operators()[idx].outputs.is_empty();
        if has_out {
            self.push_all(idx, QueueItem::Marker(m), 4);
        }
        self.record(
            idx,
            Firing {
                consumed_q: cost as u16,
                produced_q: if has_out { 4 } else { 0 },
                mem: None,
            },
        );
    }

    fn record(&mut self, idx: usize, firing: Firing) {
        self.firings[idx].push(firing);
    }
}

/// Splits `[start, start+len)` into `(addr, len)` segments that cross
/// neither a cache line nor the 32-byte firing width.
fn segments(start: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
    let end = start + len;
    let mut addr = start;
    std::iter::from_fn(move || {
        (addr < end).then(|| {
            let line_end = (addr / LINE_BYTES + 1) * LINE_BYTES;
            let seg_end = end.min(line_end).min(addr + FIRE_BYTES);
            let seg = (addr, seg_end - addr);
            addr = seg_end;
            seg
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{OperatorKind, PipelineBuilder, RangeInput};
    use spzip_compress::CodecKind;

    #[test]
    fn segments_respect_lines_and_fire_width() {
        // 100 bytes starting at 40: 24 to line end, then 32+8 (line), ...
        let segs: Vec<(u64, u64)> = segments(40, 100).collect();
        assert!(segs.iter().all(|&(_, l)| l <= 32));
        let total: u64 = segs.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 100);
        for w in segs.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0, "contiguous");
        }
        for &(a, l) in &segs {
            assert_eq!(a / 64, (a + l - 1) / 64, "no line crossing");
        }
    }

    #[test]
    fn indirect_prefetch_only_has_no_output() {
        let mut img = MemoryImage::new();
        let arr = img.alloc_u64s("scores", &[10, 20, 30], DataClass::DestinationVertex);
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::Indirect {
                base: arr,
                elem_bytes: 8,
                pair: false,
                class: DataClass::DestinationVertex,
            },
            q0,
            vec![],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(q0, 2, 4);
        eng.run(&mut img);
        let firings = eng.take_firings();
        assert_eq!(firings[0].len(), 1);
        let f = firings[0][0];
        assert_eq!(f.produced_q, 0);
        let acc = f.mem.unwrap();
        assert_eq!(acc.addr, arr + 16);
    }

    #[test]
    fn decompress_roundtrips_a_compressed_row() {
        use spzip_compress::Codec;
        let mut img = MemoryImage::new();
        let row: Vec<u64> = vec![5, 7, 8, 100];
        let mut bytes = Vec::new();
        spzip_compress::delta::DeltaCodec::new().compress(&row, &mut bytes);
        let blob = img.alloc_from("crow", &bytes, DataClass::AdjacencyMatrix);

        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(32);
        let q2 = b.queue(32);
        b.operator(
            OperatorKind::RangeFetch {
                base: blob,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
            },
            q1,
            vec![q2],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(q0, 0, 8);
        eng.enqueue_value(q0, bytes.len() as u64, 8);
        eng.run(&mut img);
        let out = eng.drain_output(q2);
        let values: Vec<u64> = out
            .iter()
            .filter(|i| !i.is_marker())
            .map(|i| i.value())
            .collect();
        assert_eq!(values, row);
        assert!(out.last().unwrap().is_marker());
    }

    #[test]
    fn word_accounting_balances() {
        let mut img = MemoryImage::new();
        let offsets = img.alloc_u64s("offsets", &[0, 3, 5], DataClass::AdjacencyMatrix);
        let rows = img.alloc_u32s("rows", &[1, 2, 3, 4, 5], DataClass::AdjacencyMatrix);
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(32);
        b.operator(
            OperatorKind::RangeFetch {
                base: offsets,
                idx_bytes: 8,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: rows,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Consecutive,
                marker: Some(7),
                class: DataClass::AdjacencyMatrix,
            },
            q1,
            vec![q2],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        let mut enq = 0u32;
        enq += eng.enqueue_value(q0, 0, 8) as u32;
        enq += eng.enqueue_value(q0, 3, 8) as u32;
        eng.run(&mut img);
        let firings = eng.take_firings();
        // Operator 0 consumed exactly the core enqueue quarters.
        let consumed0: u32 = firings[0].iter().map(|f| f.consumed_q as u32).sum();
        assert_eq!(consumed0, enq);
        // Operator 1 consumed exactly what operator 0 produced.
        let produced0: u32 = firings[0].iter().map(|f| f.produced_q as u32).sum();
        let consumed1: u32 = firings[1].iter().map(|f| f.consumed_q as u32).sum();
        assert_eq!(produced0, consumed1);
        // The core-facing queue holds exactly what operator 1 produced.
        let produced1: u32 = firings[1].iter().map(|f| f.produced_q as u32).sum();
        let out: u32 = eng
            .drain_output_costed(q2)
            .iter()
            .map(|&(_, c)| c as u32)
            .sum();
        assert_eq!(produced1, out);
    }

    #[test]
    fn empty_range_consumes_input() {
        let mut img = MemoryImage::new();
        let arr = img.alloc_u32s("arr", &[1, 2, 3], DataClass::Other);
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        b.operator(
            OperatorKind::RangeFetch {
                base: arr,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        eng.enqueue_value(q0, 2, 8);
        eng.enqueue_value(q0, 2, 8);
        eng.run(&mut img);
        assert!(eng.drain_output(q1).is_empty());
        let firings = eng.take_firings();
        let consumed: u32 = firings[0].iter().map(|f| f.consumed_q as u32).sum();
        assert_eq!(consumed, 16);
    }
}
