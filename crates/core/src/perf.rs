//! Static traffic and throughput analysis over DCL pipelines (P-codes).
//!
//! Where [`crate::lint`] answers "is this program well-formed and
//! deadlock-free?", this module answers "how will it perform?" — without
//! running the timing simulator. The analyzer propagates a steady-state
//! *flow* (items, payload bytes, chunk markers per unit of core-side work)
//! through the acyclic operator graph, charges each operator its analytical
//! memory footprint and firing count, and compares the engine's service
//! rate against the DRAM bandwidth the footprint implies. The result is a
//! [`PerfReport`]: per-operator footprints, per-class byte totals, the
//! predicted binding resource, and `P0xx` diagnostics rendered through the
//! same machinery as the linter's `E`/`W` codes.
//!
//! Codec behaviour comes from the analytical ratio models in
//! [`spzip_compress::model`], so a change to a wire format shows up here
//! (and in the `dcl-perf` cross-check gate) without re-measuring anything.
//!
//! Everything is per *unit*: one range / one chunk of work entering each
//! core-input queue. Ratios — bytes per delivered element, service versus
//! DRAM cycles, marker share of a queue — are scale-free, which is all the
//! P-code rules need.

use crate::dcl::{MemQueueMode, OperatorKind, Pipeline, RangeInput, DEFAULT_SCRATCHPAD_BYTES};
use crate::func::FIRE_BYTES;
use crate::lint::{Code, Diagnostic, Site};
use crate::QueueId;
use spzip_compress::model::{predicted_bytes_per_elem, RateTable, StreamProfile};
use spzip_mem::DataClass;
use std::collections::BTreeMap;

/// Quarter-words a chunk marker occupies in a queue (engine encoding).
const MARKER_QUARTERS: f64 = 4.0;

/// DRAM bandwidth in bytes per core cycle (paper machine: 12.8 GB/s per
/// channel-slice at 3.5 GHz).
const DRAM_BYTES_PER_CYCLE: f64 = 12.8e9 / 3.5e9;
/// Cache line size in bytes; partial-line accesses round up to this.
const LINE_BYTES: f64 = 64.0;
/// Expected extra DRAM bytes per `indirect` gather, as a fraction of a
/// line. Gathers index vertex-sized arrays that stay largely cache-resident
/// (that is the point of prefetching them), so only a fraction of each
/// touched line is charged to memory.
const GATHER_LINE_FRACTION: f64 = 0.125;
/// Extra cycles a (de)compression firing spends in the transform unit.
const TRANSFORM_LATENCY: f64 = 2.0;
/// Software-traversal cost a fetcher must beat (cycles per delivered
/// element) before `P003` fires.
const SW_CYCLES_PER_ELEM: f64 = 5.0;
/// A compressor whose predicted output exceeds `INFLATION_MARGIN ×
/// elem_bytes` per element triggers `P002`.
const INFLATION_MARGIN: f64 = 1.05;
/// `P004` fires when predicted service cycles exceed this multiple of the
/// DRAM cycles on a memory-touching pipeline.
const SERVICE_DRAM_MARGIN: f64 = 2.0;
/// `P005` fires when markers exceed this share of a queue's quarters.
const MARKER_OVERHEAD_THRESHOLD: f64 = 0.5;

/// A pipeline plus everything the analyzer is allowed to assume about its
/// inputs: codec rates, expected elements per fetched range, and
/// value-distribution profiles for codec operators. The machine parameters
/// and rule thresholds are the module's constants.
#[derive(Debug, Clone)]
pub struct PerfInput<'a> {
    /// The validated program under analysis.
    pub pipeline: &'a Pipeline,
    /// Per-codec transform throughput calibration. The nominal table
    /// scales every codec by 1.0, leaving the model exactly as
    /// uncalibrated; `dcl-perf --suggest` loads measured kernel rates
    /// from `BENCH_codecs.json` here.
    pub rates: RateTable,
    /// Expected elements per range for `range`/`indirect` operators with
    /// no per-operator override (graph workloads: average group size).
    pub default_range_elems: f64,
    /// Per-operator override of `default_range_elems`.
    pub range_elems: BTreeMap<usize, f64>,
    /// Per-operator value profile for `compress`/`decompress` operators;
    /// defaults to [`StreamProfile::default_for`] the operator's width.
    pub profiles: BTreeMap<usize, StreamProfile>,
}

impl<'a> PerfInput<'a> {
    /// Default assumptions for `pipeline`: nominal codec rates, 32-element
    /// ranges, and graph-typical value profiles.
    pub fn new(pipeline: &'a Pipeline) -> Self {
        PerfInput {
            pipeline,
            rates: RateTable::nominal(),
            default_range_elems: 32.0,
            range_elems: BTreeMap::new(),
            profiles: BTreeMap::new(),
        }
    }

    fn range_elems_for(&self, op: usize) -> f64 {
        *self
            .range_elems
            .get(&op)
            .unwrap_or(&self.default_range_elems)
    }

    fn profile_for(&self, op: usize, elem_bytes: u8) -> StreamProfile {
        self.profiles
            .get(&op)
            .cloned()
            .unwrap_or_else(|| StreamProfile::default_for(elem_bytes))
    }
}

/// Steady-state flow through one queue, per unit of core-side work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Flow {
    /// Queue items (values or raw bytes, whichever the stream carries).
    items: f64,
    /// Payload bytes (= payload quarters; a quarter-word is one byte).
    bytes: f64,
    /// Chunk markers.
    markers: f64,
}

/// Analytical footprint and service demand of one operator, per unit.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPerf {
    /// Operator definition index.
    pub index: usize,
    /// Operator kind name (`range`, `compress`, ...).
    pub name: &'static str,
    /// Items consumed from the input queue.
    pub items_in: f64,
    /// Payload bytes consumed.
    pub bytes_in: f64,
    /// Items emitted to each output queue.
    pub items_out: f64,
    /// Payload bytes emitted to each output queue.
    pub bytes_out: f64,
    /// Memory bytes read (line-rounding overhead included).
    pub mem_read: f64,
    /// Memory bytes written.
    pub mem_write: f64,
    /// Traffic class of the memory traffic, when the operator has one.
    pub class: Option<DataClass>,
    /// Predicted firings.
    pub firings: f64,
    /// Predicted engine-issue cycles (firings plus transform latency).
    pub service_cycles: f64,
}

/// The resource predicted to bound steady-state throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingResource {
    /// Memory bandwidth: the footprint outweighs the engine's issue rate.
    DramBandwidth,
    /// One operator's service rate dominates (its definition index).
    OperatorService(usize),
    /// A queue too small to cover burst + demand serializes its edge (the
    /// `P001` condition); index of the worst queue.
    QueueCapacity(QueueId),
}

/// Everything the analyzer predicts about one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Per-operator footprints, in definition order.
    pub ops: Vec<OpPerf>,
    /// Memory bytes read per unit, by [`DataClass::index`].
    pub read_bytes: [f64; 6],
    /// Memory bytes written per unit, by [`DataClass::index`].
    pub write_bytes: [f64; 6],
    /// Items per unit arriving at core-output queues.
    pub delivered_elems: f64,
    /// Engine-issue cycles per unit (sum over operators).
    pub service_cycles: f64,
    /// DRAM-transfer cycles per unit implied by the footprint.
    pub dram_cycles: f64,
    /// Predicted binding resource.
    pub binding: BindingResource,
    /// `P0xx` findings, in operator/queue order.
    pub diagnostics: Vec<Diagnostic>,
}

impl PerfReport {
    /// Predicted steady-state cycles per unit: the slower of the engine's
    /// issue rate and the DRAM transfer time.
    pub fn cycles_per_unit(&self) -> f64 {
        self.service_cycles.max(self.dram_cycles)
    }

    /// Total memory bytes moved per unit, reads plus writes.
    pub fn total_bytes(&self) -> f64 {
        self.read_bytes.iter().sum::<f64>() + self.write_bytes.iter().sum::<f64>()
    }
}

/// Runs the static performance analysis.
///
/// Flows are propagated in topological order (the single-producer,
/// acyclic queue graph makes the order unique up to ties), each operator
/// is charged its analytical footprint, and the P-rules are evaluated on
/// the steady state. Never emits `E0xx`/`W0xx` — run [`crate::lint::lint`]
/// for those.
pub fn analyze(input: &PerfInput<'_>) -> PerfReport {
    let p = input.pipeline;
    let nq = p.queues().len();
    let ops = p.operators();

    // --- seed core-input queues with one unit of work each -------------
    let mut flows: Vec<Option<Flow>> = vec![None; nq];
    for q in p.core_input_queues() {
        let consumer = ops.iter().enumerate().find(|(_, op)| op.input == q);
        let flow = match consumer.map(|(i, op)| (i, &op.kind)) {
            Some((
                _,
                OperatorKind::RangeFetch {
                    idx_bytes,
                    input: ri,
                    ..
                },
            )) => {
                let items = if *ri == RangeInput::Pairs { 2.0 } else { 1.0 };
                Flow {
                    items,
                    bytes: items * f64::from(*idx_bytes),
                    markers: 0.0,
                }
            }
            Some((i, OperatorKind::Indirect { .. })) => {
                let n = input.range_elems_for(i);
                Flow {
                    items: n,
                    bytes: n * 4.0,
                    markers: 0.0,
                }
            }
            Some((_, OperatorKind::Compress { elem_bytes, .. })) => Flow {
                items: 32.0,
                bytes: 32.0 * f64::from(*elem_bytes),
                markers: 1.0,
            },
            Some((
                _,
                OperatorKind::MemQueue {
                    chunk_elems,
                    elem_bytes,
                    mode: MemQueueMode::Buffer,
                    ..
                },
            )) => Flow {
                // (queue-id, payload) pairs; one emitted chunk per unit.
                items: 2.0 * f64::from(*chunk_elems),
                bytes: f64::from(*chunk_elems) * (4.0 + f64::from(*elem_bytes)),
                markers: 0.0,
            },
            // Byte-stream consumers (decompress, streamwrite, append
            // MQUs) and unconsumed queues: one firing's worth of bytes.
            _ => Flow {
                items: FIRE_BYTES as f64,
                bytes: FIRE_BYTES as f64,
                markers: 1.0,
            },
        };
        flows[q as usize] = Some(flow);
    }

    // --- propagate flows in topological order --------------------------
    let mut op_perf: Vec<Option<OpPerf>> = vec![None; ops.len()];
    let mut remaining: Vec<usize> = (0..ops.len()).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&i| {
            let op = &ops[i];
            let Some(inflow) = flows[op.input as usize] else {
                return true; // producer not yet processed
            };
            let perf = eval_op(input, i, &op.kind, inflow);
            let outflow = Flow {
                items: perf.items_out,
                bytes: perf.bytes_out,
                markers: out_markers(&op.kind, inflow),
            };
            for &oq in &op.outputs {
                flows[oq as usize] = Some(outflow);
            }
            op_perf[i] = Some(perf);
            false
        });
        // A validated pipeline is acyclic, so every pass makes progress.
        assert!(remaining.len() < before, "cycle in validated pipeline");
    }
    let op_perf: Vec<OpPerf> = op_perf.into_iter().map(|o| o.expect("processed")).collect();

    // --- aggregate ------------------------------------------------------
    let mut read_bytes = [0.0f64; 6];
    let mut write_bytes = [0.0f64; 6];
    for perf in &op_perf {
        let class = perf.class.unwrap_or(DataClass::Other);
        read_bytes[class.index()] += perf.mem_read;
        write_bytes[class.index()] += perf.mem_write;
    }
    let service_cycles: f64 = op_perf.iter().map(|o| o.service_cycles).sum();
    let total_bytes: f64 = read_bytes.iter().sum::<f64>() + write_bytes.iter().sum::<f64>();
    let dram_cycles = total_bytes / DRAM_BYTES_PER_CYCLE;
    let delivered_elems: f64 = p
        .core_output_queues()
        .iter()
        .filter_map(|&q| flows[q as usize])
        .map(|f| f.items)
        .sum();

    // --- P-rules --------------------------------------------------------
    let mut diagnostics = Vec::new();
    let worst_queue = check_queues(input, &flows, &mut diagnostics);
    check_operators(input, &op_perf, &mut diagnostics);
    check_pipeline(
        input,
        &op_perf,
        delivered_elems,
        service_cycles,
        dram_cycles,
        &mut diagnostics,
    );

    let binding = if let Some(q) = worst_queue {
        BindingResource::QueueCapacity(q)
    } else if service_cycles > dram_cycles {
        let max_op = op_perf
            .iter()
            .max_by(|a, b| a.service_cycles.total_cmp(&b.service_cycles))
            .map_or(0, |o| o.index);
        BindingResource::OperatorService(max_op)
    } else {
        BindingResource::DramBandwidth
    };

    PerfReport {
        ops: op_perf,
        read_bytes,
        write_bytes,
        delivered_elems,
        service_cycles,
        dram_cycles,
        binding,
        diagnostics,
    }
}

/// Markers an operator forwards downstream, given its input flow.
fn out_markers(kind: &OperatorKind, inflow: Flow) -> f64 {
    match kind {
        OperatorKind::RangeFetch { marker, input, .. } => {
            if marker.is_some() {
                ranges_in(*input, inflow)
            } else {
                0.0
            }
        }
        OperatorKind::Indirect { .. } => 0.0,
        // Transforms re-chunk on the same marker boundaries.
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => inflow.markers,
        OperatorKind::StreamWrite { .. } => 0.0,
        OperatorKind::MemQueue {
            chunk_elems, mode, ..
        } => match mode {
            MemQueueMode::Buffer => (inflow.items / 2.0) / f64::from(*chunk_elems).max(1.0),
            MemQueueMode::Append => 0.0,
        },
    }
}

fn ranges_in(input: RangeInput, inflow: Flow) -> f64 {
    match input {
        RangeInput::Pairs => inflow.items / 2.0,
        RangeInput::Consecutive => inflow.items,
    }
}

/// Evaluates one operator: output flow, memory footprint, service demand.
fn eval_op(input: &PerfInput<'_>, index: usize, kind: &OperatorKind, inflow: Flow) -> OpPerf {
    let fire = FIRE_BYTES as f64;
    let mut perf = OpPerf {
        index,
        name: kind.name(),
        items_in: inflow.items,
        bytes_in: inflow.bytes,
        items_out: 0.0,
        bytes_out: 0.0,
        mem_read: 0.0,
        mem_write: 0.0,
        class: None,
        firings: 0.0,
        service_cycles: 0.0,
    };
    match kind {
        OperatorKind::RangeFetch {
            elem_bytes,
            input: ri,
            class,
            ..
        } => {
            let ranges = ranges_in(*ri, inflow);
            let elems = ranges * input.range_elems_for(index);
            let useful = elems * f64::from(*elem_bytes);
            // Each range starts and ends mid-line on average: half a line
            // of rounding per boundary pair.
            perf.items_out = elems;
            perf.bytes_out = useful;
            perf.mem_read = useful + ranges * LINE_BYTES / 2.0;
            perf.class = Some(*class);
            perf.firings = useful / fire + ranges;
            perf.service_cycles = perf.firings;
        }
        OperatorKind::Indirect {
            elem_bytes,
            pair,
            class,
            ..
        } => {
            let accesses = inflow.items;
            let per = if *pair { 2.0 } else { 1.0 };
            let useful = accesses * per * f64::from(*elem_bytes);
            // Gathers land on scattered lines, but in largely
            // cache-resident vertex arrays: charge a calibrated fraction
            // of a line per access.
            perf.items_out = accesses * per;
            perf.bytes_out = useful;
            perf.mem_read = useful + accesses * LINE_BYTES * GATHER_LINE_FRACTION;
            perf.class = Some(*class);
            perf.firings = accesses;
            perf.service_cycles = perf.firings;
        }
        OperatorKind::Decompress { codec, elem_bytes } => {
            let profile = input.profile_for(index, *elem_bytes);
            let bpe = predicted_bytes_per_elem(*codec, &profile);
            let elems = inflow.bytes / bpe.max(f64::MIN_POSITIVE);
            perf.items_out = elems;
            perf.bytes_out = elems * f64::from(*elem_bytes);
            perf.firings = inflow.bytes.max(perf.bytes_out) / fire + inflow.markers;
            // A slower-than-nominal codec (measured, relative to the
            // fastest in the rate table) stretches each firing.
            perf.service_cycles = perf.firings / input.rates.decode_scale(*codec)
                + inflow.markers * TRANSFORM_LATENCY;
        }
        OperatorKind::Compress {
            codec, elem_bytes, ..
        } => {
            let profile = input.profile_for(index, *elem_bytes);
            let bpe = predicted_bytes_per_elem(*codec, &profile);
            let out = inflow.items * bpe;
            perf.items_out = out; // a byte stream: one item per byte
            perf.bytes_out = out;
            perf.firings = inflow.bytes.max(out) / fire + inflow.markers;
            perf.service_cycles = perf.firings / input.rates.encode_scale(*codec)
                + inflow.markers * TRANSFORM_LATENCY;
        }
        OperatorKind::StreamWrite { class, .. } => {
            perf.mem_write = inflow.bytes;
            perf.class = Some(*class);
            perf.firings = inflow.bytes / fire;
            perf.service_cycles = perf.firings;
        }
        OperatorKind::MemQueue {
            chunk_elems,
            elem_bytes,
            mode,
            class,
            ..
        } => match mode {
            MemQueueMode::Buffer => {
                // Input is (queue-id, payload) pairs: stage each payload
                // in memory, read full chunks back on flush.
                let updates = inflow.items / 2.0;
                let stored = updates * f64::from(*elem_bytes);
                perf.items_out = updates;
                perf.bytes_out = stored;
                perf.mem_write = stored;
                perf.mem_read = stored;
                perf.class = Some(*class);
                let chunks = updates / f64::from(*chunk_elems).max(1.0);
                perf.firings = updates + stored / fire + chunks;
                perf.service_cycles = perf.firings;
            }
            MemQueueMode::Append => {
                // Append raw chunk bytes; one 8 B tail-pointer store per
                // marker-delimited chunk.
                perf.mem_write = inflow.bytes + inflow.markers * 8.0;
                perf.class = Some(*class);
                perf.firings = inflow.bytes / fire + inflow.markers;
                perf.service_cycles = perf.firings;
            }
        },
    }
    perf
}

/// Per-queue rules: `P001` (capacity slack) and `P005` (marker share).
/// Returns the worst `P001` queue, if any.
fn check_queues(
    input: &PerfInput<'_>,
    flows: &[Option<Flow>],
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<QueueId> {
    let p = input.pipeline;
    let declared: u32 = p.scratchpad_words();
    let budget_words = f64::from(DEFAULT_SCRATCHPAD_BYTES / 4);
    let scale = budget_words / f64::from(declared.max(1));
    let mut worst: Option<(f64, QueueId)> = None;

    for (qi, q) in p.queues().iter().enumerate() {
        let qid = qi as QueueId;
        let line = p.queue_lines()[qi];
        // P001: the engine rescues any queue scaled below 16 words with a
        // hard floor, but a queue that *needs* the rescue steals
        // scratchpad from its siblings and serializes its edge. Compare
        // the pre-floor scaled capacity against producer burst plus
        // consumer demand.
        let scaled_q = f64::from(q.capacity_words) * scale * 4.0;
        let burst = producer_burst_quarters(p, qid);
        let demand = consumer_demand_quarters(p, qid);
        if scaled_q < burst + demand {
            let ratio = scaled_q / (burst + demand).max(1.0);
            if worst.is_none_or(|(r, _)| ratio < r) {
                worst = Some((ratio, qid));
            }
            diagnostics.push(
                Diagnostic::new(
                    Code::P001,
                    Site::Queue(qid),
                    line,
                    format!(
                        "queue q{qid} scales to {scaled_q:.0} quarters in a \
                         {} B scratchpad, below its producer burst ({burst:.0}) \
                         plus consumer demand ({demand:.0})",
                        DEFAULT_SCRATCHPAD_BYTES
                    ),
                )
                .hint(format!(
                    "rebalance declared capacities: q{qid} will run at the \
                     16-word floor and serialize its edge"
                )),
            );
        }
        // P005: markers are overhead; a queue moving mostly markers wastes
        // its bandwidth on chunk delimiters.
        if let Some(flow) = flows[qi] {
            let marker_q = flow.markers * MARKER_QUARTERS;
            let total_q = marker_q + flow.bytes;
            if total_q > 0.0 && marker_q / total_q > MARKER_OVERHEAD_THRESHOLD {
                diagnostics.push(
                    Diagnostic::new(
                        Code::P005,
                        Site::Queue(qid),
                        line,
                        format!(
                            "markers are {:.0}% of queue q{qid}'s traffic \
                             ({marker_q:.1} of {total_q:.1} quarters per unit)",
                            100.0 * marker_q / total_q
                        ),
                    )
                    .hint("coarsen the chunking: more elements per marker"),
                );
            }
        }
    }
    worst.map(|(_, q)| q)
}

/// Largest burst (quarters) the producer of `q` can commit atomically.
fn producer_burst_quarters(p: &Pipeline, q: QueueId) -> f64 {
    for op in p.operators() {
        if op.outputs.contains(&q) {
            let fire = FIRE_BYTES as f64;
            return match &op.kind {
                OperatorKind::RangeFetch { marker, .. } => {
                    fire + if marker.is_some() {
                        MARKER_QUARTERS
                    } else {
                        0.0
                    }
                }
                OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => {
                    fire + MARKER_QUARTERS
                }
                OperatorKind::Indirect {
                    elem_bytes, pair, ..
                } => f64::from(*elem_bytes) * if *pair { 2.0 } else { 1.0 },
                OperatorKind::MemQueue { .. } => fire + MARKER_QUARTERS,
                OperatorKind::StreamWrite { .. } => 0.0,
            };
        }
    }
    // Core-produced: one enqueue burst (up to two 64-bit operands).
    16.0
}

/// Quarters the consumer of `q` must see before it can fire.
fn consumer_demand_quarters(p: &Pipeline, q: QueueId) -> f64 {
    for op in p.operators() {
        if op.input == q {
            let fire = FIRE_BYTES as f64;
            return match &op.kind {
                OperatorKind::RangeFetch {
                    idx_bytes, input, ..
                } => {
                    let per = if *input == RangeInput::Pairs {
                        2.0
                    } else {
                        1.0
                    };
                    per * f64::from(*idx_bytes)
                }
                OperatorKind::Indirect { .. } => 8.0,
                OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => fire,
                OperatorKind::StreamWrite { .. } => 1.0,
                OperatorKind::MemQueue {
                    elem_bytes, mode, ..
                } => match mode {
                    MemQueueMode::Buffer => 4.0 + f64::from(*elem_bytes),
                    MemQueueMode::Append => 1.0,
                },
            };
        }
    }
    // Core-consumed: a dequeue takes whatever is there.
    0.0
}

/// Per-operator rules: `P002` (predicted inflation) and `P006` (sub-line
/// MemQueue chunks).
fn check_operators(input: &PerfInput<'_>, op_perf: &[OpPerf], diagnostics: &mut Vec<Diagnostic>) {
    let p = input.pipeline;
    for (i, op) in p.operators().iter().enumerate() {
        let line = p.operator_lines()[i];
        match &op.kind {
            OperatorKind::Compress {
                codec, elem_bytes, ..
            } => {
                let profile = input.profile_for(i, *elem_bytes);
                let bpe = predicted_bytes_per_elem(*codec, &profile);
                if bpe > INFLATION_MARGIN * f64::from(*elem_bytes) {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::P002,
                            Site::Operator(i),
                            line,
                            format!(
                                "{codec:?} is predicted to store {bpe:.2} B per \
                                 {elem_bytes} B element (ratio {:.2}): the \
                                 compressed stream inflates",
                                f64::from(*elem_bytes) / bpe
                            ),
                        )
                        .hint(
                            "pick a codec matched to the stream's width and \
                             value distribution, or skip compression for this \
                             class",
                        ),
                    );
                }
            }
            OperatorKind::MemQueue {
                chunk_elems,
                elem_bytes,
                mode,
                ..
            } => {
                let chunk_bytes = match mode {
                    MemQueueMode::Buffer => f64::from(*chunk_elems) * f64::from(*elem_bytes),
                    MemQueueMode::Append => {
                        let perf = &op_perf[i];
                        if perf.items_in > 0.0 {
                            // Mean appended chunk: input bytes per marker.
                            let markers = chunks_into(p, i, op_perf);
                            if markers > 0.0 {
                                perf.bytes_in / markers
                            } else {
                                f64::INFINITY
                            }
                        } else {
                            f64::INFINITY
                        }
                    }
                };
                if chunk_bytes < LINE_BYTES / 2.0 {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::P006,
                            Site::Operator(i),
                            line,
                            format!(
                                "memqueue chunks average {chunk_bytes:.1} B, \
                                 under half a {:.0} B cache line: every chunk \
                                 store wastes most of its line",
                                LINE_BYTES
                            ),
                        )
                        .hint("raise chunk_elems so chunks fill cache lines"),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Markers per unit flowing into operator `i`'s input queue.
fn chunks_into(p: &Pipeline, i: usize, op_perf: &[OpPerf]) -> f64 {
    let q = p.operators()[i].input;
    for (j, op) in p.operators().iter().enumerate() {
        if op.outputs.contains(&q) {
            return out_markers(
                &op.kind,
                Flow {
                    items: op_perf[j].items_in,
                    bytes: op_perf[j].bytes_in,
                    markers: 0.0,
                },
            )
            .max(marker_passthrough(p, j, op_perf));
        }
    }
    1.0 // core-fed: one chunk per unit
}

/// Conservative marker count produced by operator `j` per unit.
fn marker_passthrough(p: &Pipeline, j: usize, op_perf: &[OpPerf]) -> f64 {
    match &p.operators()[j].kind {
        OperatorKind::RangeFetch { marker, input, .. } if marker.is_some() => ranges_in(
            *input,
            Flow {
                items: op_perf[j].items_in,
                bytes: op_perf[j].bytes_in,
                markers: 0.0,
            },
        ),
        // Transforms forward one marker per consumed chunk; approximate
        // with one per firing batch.
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => 1.0,
        OperatorKind::MemQueue {
            chunk_elems,
            mode: MemQueueMode::Buffer,
            ..
        } => (op_perf[j].items_in / 2.0) / f64::from(*chunk_elems).max(1.0),
        _ => 0.0,
    }
}

/// Pipeline-level rules: `P003` (slower than software) and `P004`
/// (service-bound when DRAM should bind).
fn check_pipeline(
    input: &PerfInput<'_>,
    op_perf: &[OpPerf],
    delivered_elems: f64,
    service_cycles: f64,
    dram_cycles: f64,
    diagnostics: &mut Vec<Diagnostic>,
) {
    // P003 only applies to pipelines that deliver elements to the core
    // (traversal-style); write-only compressors have no software analogue
    // with the same interface.
    if delivered_elems > 0.0 {
        let cpe = service_cycles.max(dram_cycles) / delivered_elems;
        if cpe >= SW_CYCLES_PER_ELEM {
            diagnostics.push(
                Diagnostic::new(
                    Code::P003,
                    Site::Program,
                    None,
                    format!(
                        "predicted {cpe:.1} cycles per delivered element, no \
                         faster than the {:.1}-cycle software traversal bound",
                        SW_CYCLES_PER_ELEM
                    ),
                )
                .hint(
                    "batch more elements per range or compress the fetched \
                     stream: per-range overheads dominate",
                ),
            );
        }
    }
    // P004: a pipeline that moves real memory traffic should be
    // DRAM-bound; service dominating by a wide margin means the engine
    // itself is the bottleneck.
    if dram_cycles > 0.0 && service_cycles > SERVICE_DRAM_MARGIN * dram_cycles {
        let max_op = op_perf
            .iter()
            .max_by(|a, b| a.service_cycles.total_cmp(&b.service_cycles))
            .map_or(0, |o| o.index);
        diagnostics.push(
            Diagnostic::new(
                Code::P004,
                Site::Operator(max_op),
                input.pipeline.operator_lines()[max_op],
                format!(
                    "engine service rate binds: {service_cycles:.1} issue \
                     cycles per unit against {dram_cycles:.1} DRAM cycles",
                ),
            )
            .hint(
                "reduce firings on the hot operator (wider elements, fewer \
                 transform stages) or split work across engines",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::PipelineBuilder;
    use crate::lint::{render_json, Code};
    use spzip_compress::CodecKind;

    fn codes(report: &PerfReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Plain CSR traversal: offsets range-fetch feeding a neighbor
    /// range-fetch. Clean under default assumptions.
    fn traversal() -> Pipeline {
        let mut b = PipelineBuilder::new();
        let input = b.queue(16);
        let offs = b.queue(16);
        let neigh = b.queue(32);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0x1000,
                idx_bytes: 4,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            input,
            vec![offs],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: 0x2000,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::AdjacencyMatrix,
            },
            offs,
            vec![neigh],
        );
        b.build().unwrap()
    }

    #[test]
    fn traversal_is_p_clean_and_dram_bound() {
        let p = traversal();
        let report = analyze(&PerfInput::new(&p));
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.binding, BindingResource::DramBandwidth);
        assert!(report.delivered_elems > 0.0);
        assert!(report.read_bytes[DataClass::AdjacencyMatrix.index()] > 0.0);
    }

    #[test]
    fn p001_fires_when_scaling_starves_a_queue() {
        // Declared capacities grossly over-subscribe the scratchpad: the
        // 8-word queue scales to 8 quarters, far below burst + demand.
        let mut b = PipelineBuilder::new();
        let input = b.queue(8);
        let ballast = b.queue(1000);
        let out = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::Other,
            },
            input,
            vec![ballast],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
            },
            ballast,
            vec![out],
        );
        let p = b.build().unwrap();
        let report = analyze(&PerfInput::new(&p));
        assert!(
            codes(&report).contains(&Code::P001),
            "{:?}",
            report.diagnostics
        );
        assert!(matches!(report.binding, BindingResource::QueueCapacity(_)));
    }

    #[test]
    fn p002_fires_on_predicted_inflation() {
        // Delta on 1-byte elements: even best-case delta storage (control
        // bits + 1 B class) exceeds the element width.
        let mut b = PipelineBuilder::new();
        let vals = b.queue(16);
        let bytes = b.queue(16);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 1,
                sort_chunks: false,
            },
            vals,
            vec![bytes],
        );
        b.operator(
            OperatorKind::StreamWrite {
                base: 0x4000,
                class: DataClass::Updates,
            },
            bytes,
            vec![],
        );
        let p = b.build().unwrap();
        let report = analyze(&PerfInput::new(&p));
        assert!(
            codes(&report).contains(&Code::P002),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn calibrated_rates_stretch_transform_service() {
        // A rate-handicapped codec costs more service cycles than the
        // nominal table; the nominal table is exactly a no-op.
        let mut b = PipelineBuilder::new();
        let input = b.queue(16);
        let bytes = b.queue(32);
        let vals = b.queue(32);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::AdjacencyMatrix,
            },
            input,
            vec![bytes],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
            },
            bytes,
            vec![vals],
        );
        let p = b.build().unwrap();
        let nominal = analyze(&PerfInput::new(&p));

        let mut calibrated = PerfInput::new(&p);
        let mut rates = RateTable::nominal();
        rates.set(
            CodecKind::Delta,
            spzip_compress::model::CodecRates {
                decode_gbps: 1.0,
                encode_gbps: 1.0,
            },
        );
        rates.set(
            CodecKind::None,
            spzip_compress::model::CodecRates {
                decode_gbps: 8.0,
                encode_gbps: 8.0,
            },
        );
        calibrated.rates = rates;
        let scaled = analyze(&calibrated);

        let nom_svc = nominal.ops[1].service_cycles;
        let cal_svc = scaled.ops[1].service_cycles;
        assert!(
            cal_svc > nom_svc * 2.0,
            "calibration should stretch service: {nom_svc} vs {cal_svc}"
        );
        // Traffic is untouched by rate calibration.
        assert_eq!(nominal.total_bytes(), scaled.total_bytes());
    }

    #[test]
    fn p003_fires_on_tiny_ranges() {
        // One element per range: per-range line rounding swamps the
        // useful bytes, so each delivered element costs a DRAM eternity.
        let p = traversal();
        let mut input = PerfInput::new(&p);
        input.default_range_elems = 1.0;
        let report = analyze(&input);
        assert!(
            codes(&report).contains(&Code::P003),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn p004_fires_on_transform_heavy_chain() {
        // A recompression ladder: tiny compressed footprint in memory,
        // but every byte runs through four transform stages.
        let mut b = PipelineBuilder::new();
        let input = b.queue(8);
        let cbytes = b.queue(16);
        let vals = b.queue(32);
        let re = b.queue(16);
        let vals2 = b.queue(32);
        let out = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::Updates,
            },
            input,
            vec![cbytes],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Rle,
                elem_bytes: 8,
            },
            cbytes,
            vec![vals],
        );
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 8,
                sort_chunks: false,
            },
            vals,
            vec![re],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 8,
            },
            re,
            vec![vals2],
        );
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 8,
                sort_chunks: false,
            },
            vals2,
            vec![out],
        );
        let p = b.build().unwrap();
        let mut input = PerfInput::new(&p);
        // A very compressible stored stream: long runs expand 8x+ on
        // decode, multiplying transform work per fetched byte.
        let mut prof = StreamProfile::default_for(8);
        prof.avg_run_len = 32.0;
        prof.avg_value_bytes = 1.0;
        input.profiles.insert(1, prof);
        let report = analyze(&input);
        assert!(
            codes(&report).contains(&Code::P004),
            "{:?}",
            report.diagnostics
        );
        assert!(matches!(
            report.binding,
            BindingResource::OperatorService(_)
        ));
    }

    #[test]
    fn p005_fires_on_marker_dominated_queue() {
        // One 1-byte element per range, marker after each: 4 marker
        // quarters against 1 payload quarter.
        let mut b = PipelineBuilder::new();
        let input = b.queue(16);
        let out = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 4,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(1),
                class: DataClass::Frontier,
            },
            input,
            vec![out],
        );
        let p = b.build().unwrap();
        let mut pin = PerfInput::new(&p);
        pin.default_range_elems = 1.0;
        let report = analyze(&pin);
        assert!(
            codes(&report).contains(&Code::P005),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn p006_fires_on_sub_line_chunks() {
        // 2-element, 4-byte chunks: 8 B per chunk store against 64 B
        // lines.
        let mut b = PipelineBuilder::new();
        let input = b.queue(16);
        let out = b.queue(16);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 4,
                data_base: 0x8000,
                stride: 0x1000,
                meta_addr: 0x7000,
                chunk_elems: 2,
                elem_bytes: 4,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            input,
            vec![out],
        );
        let p = b.build().unwrap();
        let report = analyze(&PerfInput::new(&p));
        assert!(
            codes(&report).contains(&Code::P006),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn perf_diagnostics_render_as_json() {
        let p = traversal();
        let mut input = PerfInput::new(&p);
        input.default_range_elems = 1.0;
        let report = analyze(&input);
        assert!(!report.diagnostics.is_empty());
        let json = render_json(&report.diagnostics);
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"code\":\"P003\""), "{json}");
        assert!(json.contains("\"severity\":\"warning\""), "{json}");
    }

    #[test]
    fn report_totals_are_consistent() {
        let p = traversal();
        let report = analyze(&PerfInput::new(&p));
        let per_op: f64 = report.ops.iter().map(|o| o.mem_read + o.mem_write).sum();
        assert!((per_op - report.total_bytes()).abs() < 1e-9);
        assert!(report.cycles_per_unit() >= report.dram_cycles);
        assert!(report.cycles_per_unit() >= report.service_cycles);
    }
}
