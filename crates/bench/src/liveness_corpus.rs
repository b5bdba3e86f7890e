//! The seeded cross-queue deadlock corpus: the liveness checker's
//! differential gate.
//!
//! Each corpus entry deliberately wires a small pipeline that passes
//! every structural and per-queue lint check (it builds through
//! [`PipelineBuilder::build`], so E013/E014/E019 are all clean) yet
//! wedges under the standard core drive protocol — a cross-queue cyclic
//! wait, an unbounded chunk backlog, a fan-out imbalance, a bin that can
//! never flush. The gate asserts every bug is caught **twice**:
//!
//! 1. *Statically*: [`spzip_core::liveness::verify`] must reject the
//!    pipeline with the expected `D0xx` code and produce a
//!    counterexample schedule.
//! 2. *Dynamically*: replaying the counterexample's core program through
//!    the functional engine ([`spzip_core::func::FuncEngine`]) and the
//!    timing machine ([`spzip_sim::Machine`]) must trip the machine's
//!    deadlock watchdog, yielding a structured
//!    [`spzip_sim::DeadlockReport`].
//!
//! Control entries (the honest capacity-balanced wirings of the same
//! shapes) must be clean on both sides: liveness-clean statically, and
//! the default drive program must run to completion on the machine
//! without tripping the watchdog. The weakened checker scales the drive
//! protocol's per-group budgets (see [`drive_config`]). `dcl-lint --corpus
//! liveness` runs the gate through the shared [`crate::corpus`] harness.

use crate::corpus::GateRow;
use spzip_compress::CodecKind;
use spzip_core::dcl::{MemQueueMode, OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::func::FuncEngine;
use spzip_core::lint::{self, Code};
use spzip_core::liveness::{self, CoreStep, LivenessConfig};
use spzip_core::memory::MemoryImage;
use spzip_core::QueueId;
use spzip_mem::DataClass;
use spzip_sim::{CoreWork, DeadlockReport, Event, Machine, MachineConfig};
use std::collections::BTreeMap;

// ---- drive replay ------------------------------------------------------

/// Per-core-input value synthesis for the replay. The abstract drive
/// says *when* and *how wide* each enqueue is; the feed says *what
/// value* keeps the functional engine on the model's nominal path.
enum Feed {
    /// `(bin, payload)` pairs for a buffer MemQueue: bin id 0, then a
    /// monotonic payload spaced so downstream range fetches span the
    /// model's nominal two granules.
    Pairs { count: u64 },
    /// Monotonic indices spaced `step` elements for range/indirect-fed
    /// inputs (consecutive and pair range inputs both span `step`
    /// elements per completed range).
    Index { step: u64, count: u64 },
    /// Arbitrary values for transform/stream-fed inputs.
    Stream { count: u64 },
}

impl Feed {
    fn next(&mut self) -> u64 {
        match self {
            Feed::Pairs { count } => {
                let v = if *count % 2 == 0 { 0 } else { (*count / 2) * 8 };
                *count += 1;
                v
            }
            Feed::Index { step, count } => {
                let v = *count * *step;
                *count += 1;
                v
            }
            Feed::Stream { count } => {
                let v = 0x5EED + *count;
                *count += 1;
                v
            }
        }
    }
}

/// Derives a feed per core-input queue from its consumer, mirroring the
/// checker's own feed classification.
fn feeds_for(p: &Pipeline) -> BTreeMap<QueueId, Feed> {
    let produced: Vec<QueueId> = p
        .operators()
        .iter()
        .flat_map(|op| op.outputs.iter().copied())
        .collect();
    let mut feeds = BTreeMap::new();
    for op in p.operators() {
        let q = op.input;
        if produced.contains(&q) {
            continue; // fed by another operator, not the core
        }
        let feed = match &op.kind {
            OperatorKind::RangeFetch { elem_bytes, .. } => Feed::Index {
                step: (64 / (*elem_bytes).max(1) as u64).max(1),
                count: 0,
            },
            OperatorKind::Indirect { .. } => Feed::Index { step: 1, count: 0 },
            OperatorKind::MemQueue {
                mode: MemQueueMode::Buffer,
                ..
            } => Feed::Pairs { count: 0 },
            _ => Feed::Stream { count: 0 },
        };
        feeds.insert(q, feed);
    }
    feeds
}

/// Replays a core drive program through the functional engine and the
/// timing machine; returns the watchdog's report if the machine wedged.
///
/// `starved_out`, for starvation seeds whose wedge is *absence* of
/// output: a final dequeue on that queue that the pipeline can never
/// satisfy (the application waiting for chunk output that is stuck in
/// an open bin).
fn replay(
    p: &Pipeline,
    img: &mut MemoryImage,
    program: &[CoreStep],
    starved_out: Option<QueueId>,
) -> Option<DeadlockReport> {
    let mut feeds = feeds_for(p);
    let mut func = FuncEngine::new(p.clone());
    let mut events = Vec::new();
    for step in program {
        match *step {
            CoreStep::Enqueue {
                q,
                quarters,
                marker,
            } => {
                let cost = if marker {
                    func.enqueue_marker(q, 0)
                } else {
                    let v = feeds.get_mut(&q).expect("feed for core input").next();
                    func.enqueue_value(q, v, quarters as u8)
                };
                events.push(Event::FetcherEnqueue { q, quarters: cost });
            }
            CoreStep::Absorb { q } => {
                func.run(img);
                for (_, cost) in func.drain_output_costed(q) {
                    events.push(Event::FetcherDequeue {
                        q,
                        quarters: cost as u16,
                    });
                }
            }
        }
    }
    func.run(img);
    if let Some(q) = starved_out {
        events.push(Event::FetcherDequeue { q, quarters: 4 });
    }
    let trace = func.take_firings();
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 2;
    cfg.deadlock_cycles = 30_000;
    let mut m = Machine::new(cfg);
    m.load_fetcher_program_for(0, p);
    let mut work = Some(CoreWork {
        events,
        fetcher_trace: Some(trace),
        compressor_trace: None,
    });
    let mut source = move |core: usize| if core == 0 { work.take() } else { None };
    m.run_phase(&mut source);
    m.take_deadlock()
}

/// Builds a row: runs the checker, then replays either the finding's
/// counterexample program (seeded) or the default drive (controls).
fn row_for(
    name: &str,
    expected: Option<Code>,
    p: Pipeline,
    mut img: MemoryImage,
    starved_out: Option<QueueId>,
    cfg: &LivenessConfig,
) -> GateRow {
    let report = liveness::verify_with(&p, cfg);
    let static_codes: Vec<Code> = report.findings.iter().map(|f| f.diagnostic.code).collect();
    let queue_lint_clean = !lint::lint(&p)
        .iter()
        .any(|d| matches!(d.code, Code::E013 | Code::E014 | Code::E019));
    let program: Vec<CoreStep> = match report
        .findings
        .iter()
        .find(|f| Some(f.diagnostic.code) == expected)
    {
        Some(f) => f.counterexample.core_program.clone(),
        None => liveness::drive_program(&p, &LivenessConfig::default()),
    };
    let wedge = replay(&p, &mut img, &program, starved_out);
    let (dynamic_confirmed, detail) = match (expected.is_some(), &wedge) {
        (true, Some(r)) => {
            let actor = r
                .edges
                .first()
                .map(|e| format!("{} waits on {}", e.actor, e.waits_on))
                .unwrap_or_else(|| "no blocked actor recorded".into());
            (
                true,
                format!(
                    "replayed {} steps; watchdog at cycle {}: {}",
                    program.len(),
                    r.at_cycle,
                    actor
                ),
            )
        }
        (true, None) => (false, "counterexample replay completed cleanly".into()),
        (false, None) => (true, "default drive completed without the watchdog".into()),
        (false, Some(r)) => (
            false,
            format!("honest drive tripped the watchdog at cycle {}", r.at_cycle),
        ),
    };
    GateRow {
        name: name.into(),
        expected,
        static_codes,
        dynamic_confirmed,
        queue_lint_clean: Some(queue_lint_clean),
        detail,
    }
}

// ---- shared pieces -----------------------------------------------------

/// A mapped single-bin buffer MemQueue. 4 KiB of bin storage holds any
/// chunk size the corpus uses (E011 needs stride >= one chunk).
fn buffer_mqu(img: &mut MemoryImage, chunk_elems: u32) -> OperatorKind {
    let stride = 4096;
    let data_base = img.alloc("mqu-bins", stride, DataClass::Updates);
    let meta_addr = img.alloc("mqu-meta", 64, DataClass::Updates);
    OperatorKind::MemQueue {
        num_queues: 1,
        data_base,
        stride,
        meta_addr,
        chunk_elems,
        elem_bytes: 8,
        mode: MemQueueMode::Buffer,
        class: DataClass::Updates,
    }
}

/// A zeroed 32 KiB element array for range/indirect fetches; zero values
/// keep any downstream MemQueue's bin ids valid.
fn elem_array(img: &mut MemoryImage) -> u64 {
    img.alloc("elems", 4096 * 8, DataClass::AdjacencyMatrix)
}

fn range(base: u64, input: RangeInput, marker: Option<u32>) -> OperatorKind {
    OperatorKind::RangeFetch {
        base,
        idx_bytes: 8,
        elem_bytes: 8,
        input,
        marker,
        class: DataClass::AdjacencyMatrix,
    }
}

/// A StreamWrite sink over a freshly mapped 64 KiB output region.
fn stream_sink(img: &mut MemoryImage) -> OperatorKind {
    OperatorKind::StreamWrite {
        base: img.alloc("stream-out", 64 * 1024, DataClass::Other),
        class: DataClass::Other,
    }
}

/// A lone buffer MemQueue of `chunk`-element flushes from a 16-word core
/// input into an `out_cap`-word core output; padding fills the
/// scratchpad to 128 words.
fn lone_mqu(
    name: &str,
    expected: Option<Code>,
    chunk: u32,
    out_cap: u16,
    cfg: &LivenessConfig,
) -> GateRow {
    let mut img = MemoryImage::new();
    let mqu = buffer_mqu(&mut img, chunk);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(out_cap);
    let _pad = b.queue(112 - out_cap);
    b.operator(mqu, q0, vec![q1]);
    let p = b.build().expect("lint-clean by construction");
    row_for(name, expected, p, img, None, cfg)
}

// ---- seeded entries ----------------------------------------------------

/// D002: a buffer MemQueue whose chunk flushes outrun its 16-word output
/// queue while the core keeps feeding pairs — the classic producer
/// backlog E013's per-queue burst check cannot see (one flush fits; the
/// steady stream does not).
fn seed_mqu_backlog(cfg: &LivenessConfig) -> GateRow {
    lone_mqu("mqu-backlog", Some(Code::D002), 4, 16, cfg)
}

/// D002 variant: a smaller chunk (more flushes, each individually tiny)
/// wedges the same way — the backlog is a rate property, not a size one.
fn seed_mqu_smallchunk_backlog(cfg: &LivenessConfig) -> GateRow {
    lone_mqu("mqu-smallchunk-backlog", Some(Code::D002), 2, 16, cfg)
}

/// D001: MemQueue -> range fetch chain. The range amplifies each flushed
/// chunk past its output capacity, backpressure propagates to the
/// MemQueue's output queue, and the core wedges on the input — a
/// cross-queue cyclic wait spanning two operators. `input` selects the
/// range unit's consecutive or pair (explicit `[start, end)` boundaries)
/// input discipline; both wedge the same way.
fn seed_mqu_range_cycle(name: &str, input: RangeInput, cfg: &LivenessConfig) -> GateRow {
    let mut img = MemoryImage::new();
    // Chunk of 2: flushes small enough that the range's backpressure
    // stalls the MemQueue before the core's remaining pairs can fit in
    // the input queue.
    let mqu = buffer_mqu(&mut img, 2);
    let adj = elem_array(&mut img);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(16);
    let q2 = b.queue(16);
    let _pad = b.queue(80);
    b.operator(mqu, q0, vec![q1]);
    b.operator(range(adj, input, Some(1)), q1, vec![q2]);
    let p = b.build().expect("lint-clean by construction");
    row_for(name, Some(Code::D001), p, img, None, cfg)
}

/// D003: a markerless range feeds a binning MemQueue whose chunk size
/// the bounded drive never reaches. Elements accumulate in an open bin
/// forever; the downstream compressor and the core's output queue starve.
fn seed_markerless_binning(cfg: &LivenessConfig) -> GateRow {
    let mut img = MemoryImage::new();
    let adj = elem_array(&mut img);
    let mqu = buffer_mqu(&mut img, 64);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(16);
    let q2 = b.queue(16);
    let q3 = b.queue(16);
    let _pad = b.queue(64);
    b.operator(range(adj, RangeInput::Consecutive, None), q0, vec![q1]);
    b.operator(mqu, q1, vec![q2]);
    b.operator(
        OperatorKind::Compress {
            codec: CodecKind::None,
            elem_bytes: 8,
            sort_chunks: false,
        },
        q2,
        vec![q3],
    );
    let p = b.build().expect("lint-clean by construction");
    row_for(
        "markerless-binning",
        Some(Code::D003),
        p,
        img,
        Some(q3),
        cfg,
    )
}

/// D004: a marker range fans out to a drained StreamWrite sink and an
/// undrained core output. Push-all emission blocks the whole fan-out on
/// the slow branch while the fast one sits near-empty.
fn seed_fanout_imbalance(cfg: &LivenessConfig) -> GateRow {
    let mut img = MemoryImage::new();
    let mqu = buffer_mqu(&mut img, 2);
    let adj = elem_array(&mut img);
    let sink = stream_sink(&mut img);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(16);
    let q2 = b.queue(16);
    let q3 = b.queue(16);
    let _pad = b.queue(64);
    b.operator(mqu, q0, vec![q1]);
    b.operator(
        range(adj, RangeInput::Consecutive, Some(1)),
        q1,
        vec![q2, q3],
    );
    b.operator(sink, q2, vec![]);
    let p = b.build().expect("lint-clean by construction");
    row_for("fanout-imbalance", Some(Code::D004), p, img, None, cfg)
}

/// D005: a chunk whose flush (8 elements + marker = 68 quarters) exceeds
/// its output queue's effective 64-quarter capacity. The atomic flush
/// can never complete under the drive; the pipeline wedges on the first
/// full bin.
fn seed_oversized_flush(cfg: &LivenessConfig) -> GateRow {
    lone_mqu("oversized-flush", Some(Code::D005), 8, 16, cfg)
}

// ---- control entries ---------------------------------------------------

/// Control: the mqu-backlog shape with an output queue sized for the
/// whole per-group backlog. Clean statically; the drive completes.
fn control_mqu_drained(cfg: &LivenessConfig) -> GateRow {
    lone_mqu("control-mqu-drained", None, 4, 40, cfg)
}

/// Control: the oversized-flush shape with a queue that holds both of a
/// group's flushes — the flush fits and the backlog drains.
fn control_roomy_flush(cfg: &LivenessConfig) -> GateRow {
    lone_mqu("control-roomy-flush", None, 8, 48, cfg)
}

/// Control: a markerless range into a pure StreamWrite sink — no chunk
/// state anywhere, so markerless feeding is harmless.
fn control_markerless_sink(cfg: &LivenessConfig) -> GateRow {
    let mut img = MemoryImage::new();
    let adj = elem_array(&mut img);
    let sink = stream_sink(&mut img);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q1 = b.queue(16);
    let _pad = b.queue(96);
    b.operator(range(adj, RangeInput::Consecutive, None), q0, vec![q1]);
    b.operator(sink, q1, vec![]);
    let p = b.build().expect("lint-clean by construction");
    row_for("control-markerless-sink", None, p, img, None, cfg)
}

/// Control: a core-fed pair-range fan-out whose undrained branch holds a
/// full group's amplified output — balanced, so push-all never wedges.
fn control_balanced_fanout(cfg: &LivenessConfig) -> GateRow {
    let mut img = MemoryImage::new();
    let adj = elem_array(&mut img);
    let sink = stream_sink(&mut img);
    let mut b = PipelineBuilder::new();
    let q0 = b.queue(16);
    let q2 = b.queue(16);
    let q3 = b.queue(40);
    let _pad = b.queue(56);
    b.operator(range(adj, RangeInput::Pairs, Some(1)), q0, vec![q2, q3]);
    b.operator(sink, q2, vec![]);
    let p = b.build().expect("lint-clean by construction");
    row_for("control-balanced-fanout", None, p, img, None, cfg)
}

/// The liveness corpus — every seeded deadlock, then every control —
/// checked under [`drive_config`]`(weakened)`.
pub fn rows(weakened: Option<f64>) -> Vec<GateRow> {
    let cfg = &drive_config(weakened);
    vec![
        seed_mqu_backlog(cfg),
        seed_mqu_smallchunk_backlog(cfg),
        seed_mqu_range_cycle("mqu-range-cycle", RangeInput::Consecutive, cfg),
        seed_mqu_range_cycle("mqu-pair-range-cycle", RangeInput::Pairs, cfg),
        seed_markerless_binning(cfg),
        seed_fanout_imbalance(cfg),
        seed_oversized_flush(cfg),
        control_mqu_drained(cfg),
        control_roomy_flush(cfg),
        control_markerless_sink(cfg),
        control_balanced_fanout(cfg),
    ]
}

/// The drive protocol the gate checks under, optionally perturbed: a
/// ratio below 1 shrinks every per-group budget, modeling a checker
/// whose bounded drive is too shallow to push any queue to its blocking
/// point. CI's must-fail leg runs the gate this way and requires it to
/// fail — proving the gate can tell a weakened checker from an honest
/// one.
pub fn drive_config(perturb: Option<f64>) -> LivenessConfig {
    let mut cfg = LivenessConfig::default();
    if let Some(r) = perturb {
        let scale = |v: u32| ((v as f64 * r) as u32).max(1);
        cfg.index_items = scale(cfg.index_items);
        cfg.stream_values = scale(cfg.stream_values);
        cfg.mqu_pairs = scale(cfg.mqu_pairs);
        cfg.range_granules = scale(cfg.range_granules);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_catches_every_seed_and_clears_every_control() {
        crate::corpus::assert_gate_passes("liveness");
    }

    #[test]
    fn reports_render_both_formats() {
        crate::corpus::assert_reports_render("liveness", "mqu-range-cycle", "D001");
    }

    #[test]
    fn corpus_covers_at_least_six_seeds_and_five_codes() {
        let rows = rows(None);
        let seeded: Vec<&GateRow> = rows.iter().filter(|r| r.expected.is_some()).collect();
        assert!(seeded.len() >= 6, "{} seeded entries", seeded.len());
        let mut codes: Vec<Code> = seeded.iter().filter_map(|r| r.expected).collect();
        codes.sort_by_key(|c| c.to_string());
        codes.dedup();
        assert!(codes.len() >= 5, "distinct codes: {codes:?}");
        assert!(rows.iter().any(|r| r.expected.is_none()), "has controls");
    }

    #[test]
    fn seeds_are_invisible_to_the_per_queue_capacity_lints() {
        // The checker's reason to exist: these deadlocks pass E013/E014/
        // E019 (they all build through the linting builder).
        let rows = rows(None);
        let clean = rows
            .iter()
            .filter(|r| r.expected.is_some() && r.queue_lint_clean == Some(true))
            .count();
        assert!(clean >= 2, "only {clean} seeds pass the capacity lints");
    }
}
