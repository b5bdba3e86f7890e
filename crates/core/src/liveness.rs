//! Whole-pipeline liveness model checker: `D0xx` diagnostics.
//!
//! The per-queue lints (`E013`/`E014`/`E019`) prove each queue can hold
//! its producer's largest atomic burst and its consumer's demand — a
//! *local* property. Deadlocks are *global*: every edge can be locally
//! fine while a cycle of full/empty waits across the engine and the
//! core's in-order event stream wedges the machine, which today only the
//! simulator's multi-million-cycle watchdog catches. This module promotes
//! that watchdog to a static proof.
//!
//! # The abstraction
//!
//! A DCL graph is an out-forest (one producer and one consumer per
//! queue, no fan-in), so a wait cycle can never close among operators
//! alone — every real deadlock threads through the **core**, whose
//! enqueues and dequeues retire in program order. The checker therefore
//! runs a bounded abstract simulation of the pipeline against the same
//! *chunked drive protocol* the instrumented applications use
//! (`spzip_apps::runtime`):
//!
//! * each queue is abstracted to its occupancy in quarter-words, with
//!   the **effective** capacity the engine model computes at
//!   `load_program` time (declared words rescaled to the scratchpad
//!   budget, floored at 16 words);
//! * each operator firing is a guarded produce/consume delta — ranges
//!   amplify indices into granules, transforms buffer a chunk belly and
//!   flush it on a marker, MemQueues bin pairs and flush whole bins —
//!   with the engine's push-all atomicity (an emission blocks until
//!   *every* output has space);
//! * the core replays work groups: short index batches for
//!   range/indirect-fed inputs, marker-delimited value runs for
//!   transform-fed inputs, long `(bin, payload)` runs for
//!   MemQueue-fed inputs, each group followed by an absorbing drain of
//!   every core-output queue (the application's dequeue loop), with
//!   close markers at end of phase.
//!
//! The simulation is deterministic (eager round-robin); the wedges it
//! finds are schedule-independent because the core's event order is
//! fixed and operator firing order only permutes which actor blocks
//! first. A stuck state is classified by walking the blocking wait-for
//! graph into one of the `D0xx` codes of the registry
//! ([`Code::D001`] through [`Code::D006`], whose `summary()` and `why()`
//! say what each stuck shape is).
//!
//! Every finding carries a **counterexample**: the minimal drive
//! schedule that reproduces the wedge (the checker shrinks the work
//! groups until the code disappears), the final occupancy vector, the
//! wait cycle, and the core program a replay harness can drive through
//! the functional engine and the timing machine to the watchdog's
//! `DeadlockReport` (see `spzip-bench`'s `liveness_corpus`).
//!
//! The search is *bounded*: nominal amplification constants (two
//! granules per range) and a step budget make it a bounded model check,
//! not an unbounded proof. Pipelines that exhaust the budget are
//! reported clean with [`LivenessReport::bounded_out`] set; every
//! built-in pipeline settles in a few thousand steps.

use crate::dcl::{MemQueueMode, OperatorKind, Pipeline, RangeInput};
use crate::engine::{effective_capacities, EngineConfig};
use crate::lint::{self, Code, Diagnostic, Site};
use crate::QueueId;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Drive-protocol knobs for the bounded check.
///
/// The defaults mirror the instrumented applications: index feeds get
/// small per-chunk batches (a couple of `(start, end)` pairs), value
/// streams get a marker-delimited run per chunk, MemQueue feeds get a
/// long per-edge pair run with close markers only at end of phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Work groups (application chunks) the core drives.
    pub work_groups: u32,
    /// Index values per group for range/indirect-fed core inputs. Kept
    /// at or below 8 so a group (≤ 64 quarters) always fits the
    /// engine's 16-word capacity floor — matching the traversal apps,
    /// which enqueue a handful of pairs per chunk and then drain.
    pub index_items: u32,
    /// Values per group (before the closing marker) for transform- and
    /// stream-fed core inputs.
    pub stream_values: u32,
    /// `(bin, payload)` pairs per group for buffer-MemQueue-fed inputs.
    pub mqu_pairs: u32,
    /// Granules (32-byte firings) a completed range emits: the nominal
    /// amplification of one fetched range.
    pub range_granules: u32,
    /// Step budget; exhausting it ends the check inconclusively
    /// ([`LivenessReport::bounded_out`]).
    pub max_steps: u32,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            work_groups: 2,
            index_items: 4,
            stream_values: 12,
            mqu_pairs: 16,
            range_granules: 2,
            max_steps: 200_000,
        }
    }
}

/// One instruction of the abstract core program. The replay harness maps
/// these one-to-one onto machine events (`FetcherEnqueue` /
/// per-group `FetcherDequeue` drains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStep {
    /// Enqueue `quarters` quarter-words into core-input queue `q`.
    Enqueue {
        /// Target core-input queue.
        q: QueueId,
        /// Quarter-words this item occupies.
        quarters: u16,
        /// Whether the item is a chunk marker.
        marker: bool,
    },
    /// Absorbing drain of core-output queue `q` until the pipeline
    /// settles (the application's dequeue-until-done loop for one
    /// work group).
    Absorb {
        /// Drained core-output queue.
        q: QueueId,
    },
}

/// One executed action of the counterexample schedule (run-length
/// compressed: `repeat` consecutive identical actions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Acting party: `"core"` or `"op<N> <name>"`.
    pub actor: String,
    /// Human-readable action.
    pub action: String,
    /// Consecutive repetitions merged into this step.
    pub repeat: u32,
}

/// A replayable witness of a liveness violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The executed firing sequence up to the stuck state.
    pub schedule: Vec<ScheduleStep>,
    /// Final occupancy per queue, in quarter-words.
    pub final_occupancy: Vec<u32>,
    /// Effective capacity per queue, in quarter-words (the engine's
    /// rescaled capacities the model checked against).
    pub capacity: Vec<u32>,
    /// The blocking wait-for cycle (or chain), as actor labels.
    pub wait_cycle: Vec<String>,
    /// The full core program that reproduces the wedge; the replay
    /// harness drives exactly this through the machine.
    pub core_program: Vec<CoreStep>,
}

/// A diagnostic plus its witness.
#[derive(Debug, Clone)]
pub struct LivenessFinding {
    /// The `D0xx` diagnostic (error severity, lint renderers apply).
    pub diagnostic: Diagnostic,
    /// The minimal counterexample schedule.
    pub counterexample: Counterexample,
}

/// Result of a liveness check.
#[derive(Debug, Clone, Default)]
pub struct LivenessReport {
    /// Findings, at most one per check: the first stuck state's root
    /// cause (a wedged pipeline has exactly one earliest wedge under
    /// the deterministic drive).
    pub findings: Vec<LivenessFinding>,
    /// Abstract steps the (final, unminimized) run explored.
    pub steps: u32,
    /// The step budget ran out before the drive settled; the verdict
    /// is *clean within bounds*, not a proof.
    pub bounded_out: bool,
}

impl LivenessReport {
    /// The findings' diagnostics, for folding into a lint report.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.findings.iter().map(|f| f.diagnostic.clone()).collect()
    }

    /// Whether no liveness violation was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Checks `p` under the default drive protocol.
pub fn verify(p: &Pipeline) -> LivenessReport {
    verify_with(p, &LivenessConfig::default())
}

/// Checks `p` under an explicit protocol configuration.
pub fn verify_with(p: &Pipeline, cfg: &LivenessConfig) -> LivenessReport {
    // The fetcher's queues, sized as the engine model sizes them.
    let caps: Vec<u32> =
        effective_capacities(p, EngineConfig::fetcher().scratchpad_bytes).collect();
    let program = core_program(p, cfg);
    let outcome = simulate(p, cfg, &caps, &program);
    let mut report = LivenessReport {
        findings: Vec::new(),
        steps: outcome.steps,
        bounded_out: outcome.bounded_out,
    };
    if let Some(stuck) = outcome.stuck {
        // Shrink the drive: the smallest protocol reproducing the same
        // code gives the minimal counterexample schedule.
        let minimized = minimize(p, cfg, &caps, stuck.diagnostic.code);
        report.findings.push(minimized.unwrap_or(stuck));
    }
    report
}

/// Renders a counterexample as an indented block (appended by `dcl-lint`
/// after the diagnostic it witnesses).
pub fn render_counterexample(c: &Counterexample) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  counterexample ({} schedule steps):",
        c.schedule.len()
    );
    const SHOWN: usize = 12;
    for s in c.schedule.iter().take(SHOWN) {
        let _ = write!(out, "    {}: {}", s.actor, s.action);
        if s.repeat > 1 {
            let _ = write!(out, "  (x{})", s.repeat);
        }
        out.push('\n');
    }
    if c.schedule.len() > SHOWN {
        let _ = writeln!(out, "    ... ({} more)", c.schedule.len() - SHOWN);
    }
    let occ: Vec<String> = c
        .final_occupancy
        .iter()
        .zip(&c.capacity)
        .enumerate()
        .filter(|(_, (&o, _))| o > 0)
        .map(|(q, (o, cap))| format!("q{q} {o}/{cap}"))
        .collect();
    let _ = writeln!(
        out,
        "  final occupancy (quarters): {}",
        if occ.is_empty() {
            "all empty".to_string()
        } else {
            occ.join(", ")
        }
    );
    if !c.wait_cycle.is_empty() {
        let _ = writeln!(out, "  wait cycle: {}", c.wait_cycle.join(" -> "));
    }
    out
}

// ---- the drive protocol -----------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// Range/indirect consumer: short per-chunk index batches.
    Index,
    /// Transform/stream consumer: a value run, closed by a marker when
    /// the consumer requires chunk delimiters.
    Stream { width: u16, markers: bool },
    /// Buffer-MemQueue consumer: long `(bin, payload)` pair runs with
    /// close markers at end of phase only.
    MquPairs,
}

fn feed_of(kind: &OperatorKind) -> Feed {
    match kind {
        OperatorKind::RangeFetch { .. } | OperatorKind::Indirect { .. } => Feed::Index,
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => Feed::Stream {
            width: expected_width(kind),
            markers: true,
        },
        OperatorKind::StreamWrite { .. } => Feed::Stream {
            width: 8,
            markers: false,
        },
        OperatorKind::MemQueue { mode, .. } => match mode {
            MemQueueMode::Buffer => Feed::MquPairs,
            MemQueueMode::Append => Feed::Stream {
                width: 4,
                markers: true,
            },
        },
    }
}

/// The quarter-word width of one core-enqueued value for a stream feed.
fn expected_width(kind: &OperatorKind) -> u16 {
    match kind {
        OperatorKind::Compress { elem_bytes, .. } => (*elem_bytes).max(1) as u16,
        // Decompress consumes a byte stream; single bytes are enqueued
        // in 4-quarter granularity by the apps.
        OperatorKind::Decompress { .. } => 4,
        _ => 8,
    }
}

/// The operator consuming queue `q`, if any.
fn consumer_of(p: &Pipeline, q: QueueId) -> Option<usize> {
    p.operators().iter().position(|op| op.input == q)
}

/// The operator producing into queue `q`, if any.
fn producer_of(p: &Pipeline, q: QueueId) -> Option<usize> {
    p.operators().iter().position(|op| op.outputs.contains(&q))
}

/// Builds the abstract core drive program for `p` under `cfg` — the
/// enqueue/absorb sequence the checker simulates. Public so replay
/// harnesses (the seeded-deadlock corpus, property tests) can drive the
/// functional engine and the timing machine with exactly the schedule
/// the checker explored.
pub fn drive_program(p: &Pipeline, cfg: &LivenessConfig) -> Vec<CoreStep> {
    core_program(p, cfg)
}

/// Builds the abstract core program for `p` under `cfg`.
fn core_program(p: &Pipeline, cfg: &LivenessConfig) -> Vec<CoreStep> {
    let ins = p.core_input_queues();
    let outs = p.core_output_queues();
    let mut prog = Vec::new();
    for _ in 0..cfg.work_groups {
        for &q in &ins {
            let kind = match consumer_of(p, q) {
                Some(op) => &p.operators()[op].kind,
                None => continue,
            };
            match feed_of(kind) {
                Feed::Index => {
                    for _ in 0..cfg.index_items.min(8) {
                        prog.push(CoreStep::Enqueue {
                            q,
                            quarters: 8,
                            marker: false,
                        });
                    }
                }
                Feed::Stream { width, markers } => {
                    for _ in 0..cfg.stream_values {
                        prog.push(CoreStep::Enqueue {
                            q,
                            quarters: width,
                            marker: false,
                        });
                    }
                    if markers {
                        prog.push(CoreStep::Enqueue {
                            q,
                            quarters: 4,
                            marker: true,
                        });
                    }
                }
                Feed::MquPairs => {
                    for _ in 0..cfg.mqu_pairs {
                        prog.push(CoreStep::Enqueue {
                            q,
                            quarters: 8,
                            marker: false,
                        });
                        prog.push(CoreStep::Enqueue {
                            q,
                            quarters: 8,
                            marker: false,
                        });
                    }
                }
            }
        }
        for &q in &outs {
            prog.push(CoreStep::Absorb { q });
        }
    }
    // End of phase: close markers for binning MemQueues, then a final
    // settle drain (the applications' finalize step).
    for &q in &ins {
        if let Some(op) = consumer_of(p, q) {
            if matches!(feed_of(&p.operators()[op].kind), Feed::MquPairs) {
                prog.push(CoreStep::Enqueue {
                    q,
                    quarters: 4,
                    marker: true,
                });
            }
        }
    }
    for &q in &outs {
        prog.push(CoreStep::Absorb { q });
    }
    prog
}

// ---- the abstract machine ---------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Item {
    quarters: u16,
    marker: bool,
}

#[derive(Debug)]
struct QueueSim {
    cap: u32,
    occ: u32,
    items: VecDeque<Item>,
}

impl QueueSim {
    fn push(&mut self, it: Item) {
        self.occ += it.quarters as u32;
        self.items.push_back(it);
    }
    fn fits(&self, quarters: u16) -> bool {
        self.occ + quarters as u32 <= self.cap
    }
    fn pop(&mut self) -> Option<Item> {
        let it = self.items.pop_front()?;
        self.occ -= it.quarters as u32;
        Some(it)
    }
}

#[derive(Debug, Default)]
struct OpSim {
    /// Items awaiting emission; the head blocks until every output has
    /// space (the engine's push-all reservation).
    pending: VecDeque<Item>,
    /// The pending run came from a marker-delimited flush, which the
    /// engine emits as one atomic chunk.
    pending_atomic: bool,
    /// Total quarters of the last flush (for the D005 can-never-fit
    /// test).
    flush_quarters: u32,
    /// Chunk belly in quarters (transforms, append MemQueues).
    belly_q: u32,
    /// Buffered bin elements (buffer MemQueues).
    belly_elems: u32,
    /// A consecutive-mode range holds its first index.
    carried: bool,
    /// Pairs-mode ranges accumulate indices two at a time.
    pair_accum: u32,
}

/// Why an actor could not act this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Free to act or idle with nothing to do.
    None,
    /// Emission head does not fit output queue `q`.
    Output(QueueId),
    /// Waiting for input on queue `q` (empty, or a lone half-pair).
    Input(QueueId),
}

struct SimOutcome {
    steps: u32,
    bounded_out: bool,
    stuck: Option<LivenessFinding>,
}

struct Recorder {
    steps: Vec<ScheduleStep>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { steps: Vec::new() }
    }
    fn record(&mut self, actor: String, action: String) {
        if let Some(last) = self.steps.last_mut() {
            if last.actor == actor && last.action == action {
                last.repeat += 1;
                return;
            }
        }
        self.steps.push(ScheduleStep {
            actor,
            action,
            repeat: 1,
        });
    }
}

fn op_label(p: &Pipeline, op: usize) -> String {
    format!("op{op} {}", p.operators()[op].kind.name())
}

/// Runs the abstract simulation. `caps` are effective capacities in
/// quarters; `program` is the core drive.
fn simulate(p: &Pipeline, cfg: &LivenessConfig, caps: &[u32], program: &[CoreStep]) -> SimOutcome {
    let mut queues: Vec<QueueSim> = caps
        .iter()
        .map(|&cap| QueueSim {
            cap,
            occ: 0,
            items: VecDeque::new(),
        })
        .collect();
    let n_ops = p.operators().len();
    let mut ops: Vec<OpSim> = (0..n_ops).map(|_| OpSim::default()).collect();
    let mut cursor = 0usize;
    let mut steps = 0u32;
    let mut rec = Recorder::new();
    let mut executed_any = false;

    loop {
        let mut acted = false;
        for op in 0..n_ops {
            if step_op(p, cfg, op, &mut ops, &mut queues, &mut rec) {
                acted = true;
                steps += 1;
            }
        }
        if core_step(program, &mut cursor, &mut queues, &mut rec) {
            acted = true;
            steps += 1;
        }
        executed_any |= acted;
        if steps > cfg.max_steps {
            return SimOutcome {
                steps,
                bounded_out: true,
                stuck: None,
            };
        }
        if acted {
            continue;
        }
        // Nothing moved: advance past settled absorbing drains.
        let mut advanced = false;
        while let Some(CoreStep::Absorb { q }) = program.get(cursor) {
            if queues[*q as usize].items.is_empty() {
                cursor += 1;
                advanced = true;
            } else {
                break;
            }
        }
        if advanced {
            continue;
        }
        break;
    }

    if cursor >= program.len() {
        // Drive completed; leftover chunk state is a starvation wedge.
        let stuck = classify_starvation(p, &ops, &queues, &rec, program);
        return SimOutcome {
            steps,
            bounded_out: false,
            stuck,
        };
    }
    // Stuck mid-program.
    let stuck = if !executed_any {
        Some(finding(
            p,
            Code::D006,
            Site::Program,
            None,
            "the drive protocol admits no initial firing: the first core \
             enqueue exceeds its queue's effective capacity"
                .to_string(),
            "increase the first core-input queue's capacity".to_string(),
            &rec,
            &queues,
            program,
            vec!["core".to_string()],
        ))
    } else {
        classify_stuck(p, cursor, program, &ops, &queues, &rec)
    };
    SimOutcome {
        steps,
        bounded_out: false,
        stuck,
    }
}

/// One operator action: place a pending emission item, or consume one
/// input item. Returns whether the operator acted.
fn step_op(
    p: &Pipeline,
    cfg: &LivenessConfig,
    op: usize,
    ops: &mut [OpSim],
    queues: &mut [QueueSim],
    rec: &mut Recorder,
) -> bool {
    let spec = &p.operators()[op];
    let outputs = spec.outputs.clone();
    // 1. Emission first: the engine cannot consume past a blocked firing.
    if let Some(&head) = ops[op].pending.front() {
        let fits_all = outputs
            .iter()
            .all(|&q| queues[q as usize].fits(head.quarters));
        if !fits_all {
            return false;
        }
        for &q in &outputs {
            queues[q as usize].push(head);
        }
        ops[op].pending.pop_front();
        if ops[op].pending.is_empty() {
            ops[op].pending_atomic = false;
        }
        rec.record(
            op_label(p, op),
            format!(
                "emit {}{}q -> {}",
                if head.marker { "marker " } else { "" },
                head.quarters,
                outputs
                    .iter()
                    .map(|q| format!("q{q}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        return true;
    }
    // 2. Consume.
    let in_q = spec.input as usize;
    let Some(&front) = queues[in_q].items.front() else {
        return false;
    };
    let state = &mut ops[op];
    match &spec.kind {
        OperatorKind::RangeFetch {
            idx_bytes,
            marker,
            input,
            ..
        } => {
            let it = queues[in_q].pop().expect("front exists");
            if it.marker {
                // Markers pass through the range.
                state.pending.push_back(Item {
                    quarters: 4,
                    marker: true,
                });
            } else {
                let mut n_idx = ((it.quarters as u32) / (*idx_bytes).max(1) as u32).max(1);
                let mut ranges = 0u32;
                match input {
                    RangeInput::Pairs => {
                        state.pair_accum += n_idx;
                        while state.pair_accum >= 2 {
                            state.pair_accum -= 2;
                            ranges += 1;
                        }
                    }
                    RangeInput::Consecutive => {
                        if !state.carried {
                            state.carried = true;
                            n_idx -= 1;
                        }
                        ranges = n_idx;
                    }
                }
                for _ in 0..ranges {
                    for _ in 0..cfg.range_granules {
                        state.pending.push_back(Item {
                            quarters: 32,
                            marker: false,
                        });
                    }
                    if marker.is_some() {
                        state.pending.push_back(Item {
                            quarters: 4,
                            marker: true,
                        });
                    }
                }
            }
            rec.record(op_label(p, op), "consume index item".to_string());
            true
        }
        OperatorKind::Indirect {
            elem_bytes, pair, ..
        } => {
            let it = queues[in_q].pop().expect("front exists");
            if it.marker {
                state.pending.push_back(Item {
                    quarters: 4,
                    marker: true,
                });
            } else {
                let n = ((it.quarters as u32) / 8).max(1);
                let burst =
                    ((if *pair { 2 } else { 1 }) * (*elem_bytes).max(1) as u32).clamp(4, 32);
                for _ in 0..n {
                    state.pending.push_back(Item {
                        quarters: burst as u16,
                        marker: false,
                    });
                }
            }
            rec.record(op_label(p, op), "consume index item".to_string());
            true
        }
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => {
            let it = queues[in_q].pop().expect("front exists");
            if it.marker {
                flush_chunk(state, state.belly_q, true);
                rec.record(op_label(p, op), "flush chunk on marker".to_string());
            } else {
                state.belly_q += it.quarters as u32;
                rec.record(op_label(p, op), "buffer value into chunk".to_string());
            }
            true
        }
        OperatorKind::StreamWrite { .. } => {
            queues[in_q].pop();
            rec.record(op_label(p, op), "write item to memory".to_string());
            true
        }
        OperatorKind::MemQueue {
            chunk_elems,
            elem_bytes,
            mode,
            ..
        } => match mode {
            MemQueueMode::Buffer => {
                if front.marker {
                    queues[in_q].pop();
                    let elems = state.belly_elems;
                    state.belly_elems = 0;
                    if elems > 0 {
                        flush_chunk(state, elems * (*elem_bytes).max(1) as u32, true);
                    }
                    rec.record(op_label(p, op), "close bin on marker".to_string());
                    true
                } else if queues[in_q].items.len() >= 2 {
                    let a = queues[in_q].pop().expect("len >= 2");
                    let b = queues[in_q].pop().expect("len >= 2");
                    let pair_q = a.quarters as u32 + b.quarters as u32;
                    state.belly_elems += (pair_q / (2 * (*elem_bytes).max(1) as u32).max(1)).max(1);
                    if state.belly_elems >= *chunk_elems {
                        let elems = state.belly_elems;
                        state.belly_elems = 0;
                        flush_chunk(state, elems * (*elem_bytes).max(1) as u32, true);
                        rec.record(op_label(p, op), "flush full bin".to_string());
                    } else {
                        rec.record(op_label(p, op), "bin (id, payload) pair".to_string());
                    }
                    true
                } else {
                    // A lone half-pair: wait for its partner.
                    false
                }
            }
            MemQueueMode::Append => {
                let it = queues[in_q].pop().expect("front exists");
                if it.marker {
                    state.belly_q = 0; // appended to memory
                    rec.record(op_label(p, op), "append chunk to bin".to_string());
                } else {
                    state.belly_q += it.quarters as u32;
                    rec.record(op_label(p, op), "buffer byte run".to_string());
                }
                true
            }
        },
    }
}

/// Queues `belly` quarters of chunk data (in ≤ 32-quarter firings) plus
/// a closing marker as one atomic emission.
fn flush_chunk(state: &mut OpSim, belly: u32, marker: bool) {
    let mut left = belly;
    while left > 0 {
        let seg = left.min(32);
        state.pending.push_back(Item {
            quarters: seg as u16,
            marker: false,
        });
        left -= seg;
    }
    if marker {
        state.pending.push_back(Item {
            quarters: 4,
            marker: true,
        });
    }
    state.pending_atomic = true;
    state.flush_quarters = belly + if marker { 4 } else { 0 };
    state.belly_q = 0;
}

/// One core action: execute the current enqueue if it fits, or drain an
/// absorbing dequeue. Returns whether the core acted.
fn core_step(
    program: &[CoreStep],
    cursor: &mut usize,
    queues: &mut [QueueSim],
    rec: &mut Recorder,
) -> bool {
    match program.get(*cursor) {
        Some(&CoreStep::Enqueue {
            q,
            quarters,
            marker,
        }) if queues[q as usize].fits(quarters) => {
            queues[q as usize].push(Item { quarters, marker });
            *cursor += 1;
            rec.record(
                "core".to_string(),
                format!(
                    "enqueue {}{quarters}q -> q{q}",
                    if marker { "marker " } else { "" }
                ),
            );
            true
        }
        Some(&CoreStep::Enqueue { .. }) => false,
        Some(&CoreStep::Absorb { q }) => {
            let mut drained = 0u32;
            while let Some(it) = queues[q as usize].pop() {
                drained += it.quarters as u32;
            }
            if drained > 0 {
                rec.record("core".to_string(), format!("drain q{q}"));
                true
            } else {
                false
            }
        }
        None => false,
    }
}

// ---- stuck-state classification ---------------------------------------

/// Actors in the wait-for graph: the core, or an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Actor {
    Core,
    Op(usize),
}

#[allow(clippy::too_many_arguments)]
fn finding(
    p: &Pipeline,
    code: Code,
    site: Site,
    line: Option<u32>,
    message: String,
    hint: String,
    rec: &Recorder,
    queues: &[QueueSim],
    program: &[CoreStep],
    wait_cycle: Vec<String>,
) -> LivenessFinding {
    let _ = p;
    LivenessFinding {
        diagnostic: Diagnostic::new(code, site, line, message).hint(hint),
        counterexample: Counterexample {
            schedule: rec.steps.clone(),
            final_occupancy: queues.iter().map(|q| q.occ).collect(),
            capacity: queues.iter().map(|q| q.cap).collect(),
            wait_cycle,
            core_program: program.to_vec(),
        },
    }
}

/// The drive finished but chunk state is stranded: a marker that could
/// close it can never arrive (`D003`).
fn classify_starvation(
    p: &Pipeline,
    ops: &[OpSim],
    queues: &[QueueSim],
    rec: &Recorder,
    program: &[CoreStep],
) -> Option<LivenessFinding> {
    for (op, state) in ops.iter().enumerate() {
        let kind = &p.operators()[op].kind;
        let leftover_chunk = state.belly_q > 0 && lint::requires_markers(kind);
        let leftover_bin = state.belly_elems > 0
            && matches!(
                kind,
                OperatorKind::MemQueue {
                    mode: MemQueueMode::Buffer,
                    ..
                }
            )
            && !p.operators()[op].outputs.is_empty();
        if leftover_chunk || leftover_bin {
            let what = if leftover_bin {
                format!(
                    "an open bin of {} buffered element(s) that no close marker can reach",
                    state.belly_elems
                )
            } else {
                format!(
                    "{} buffered quarter-word(s) of an unterminated chunk",
                    state.belly_q
                )
            };
            let msg = format!(
                "`{}` ends the drive holding {}: its input stream never carries \
                 the closing marker, so downstream chunk consumers starve forever",
                kind.name(),
                what
            );
            return Some(finding(
                p,
                Code::D003,
                Site::Operator(op),
                p.operator_lines()[op],
                msg,
                "route a marker-bearing stream into this operator (give the \
                 upstream range a `marker=` tag, or close bins from the core)"
                    .to_string(),
                rec,
                queues,
                program,
                Vec::new(),
            ));
        }
    }
    None
}

/// The drive wedged mid-program: classify by precedence
/// D005 → D004 → wait-for cycle (D001 / D002).
fn classify_stuck(
    p: &Pipeline,
    cursor: usize,
    program: &[CoreStep],
    ops: &[OpSim],
    queues: &[QueueSim],
    rec: &Recorder,
) -> Option<LivenessFinding> {
    // Per-operator block reasons.
    let block_of = |op: usize| -> Block {
        let spec = &p.operators()[op];
        if let Some(&head) = ops[op].pending.front() {
            for &q in &spec.outputs {
                if !queues[q as usize].fits(head.quarters) {
                    return Block::Output(q);
                }
            }
            return Block::None;
        }
        let in_q = spec.input;
        match queues[in_q as usize].items.front() {
            None => Block::Input(in_q),
            // A lone half-pair keeps a buffer MemQueue waiting.
            Some(it)
                if !it.marker
                    && queues[in_q as usize].items.len() < 2
                    && matches!(
                        spec.kind,
                        OperatorKind::MemQueue {
                            mode: MemQueueMode::Buffer,
                            ..
                        }
                    ) =>
            {
                Block::Input(in_q)
            }
            Some(_) => Block::None,
        }
    };

    // D005: a marker-delimited flush that can never fit its output.
    for (op, state) in ops.iter().enumerate() {
        if !state.pending_atomic {
            continue;
        }
        if let Block::Output(q) = block_of(op) {
            if state.flush_quarters > queues[q as usize].cap {
                let msg = format!(
                    "`{}` is wedged mid-flush: its {}-quarter chunk emission exceeds \
                     queue q{q}'s effective capacity of {} quarters, so the chunk can \
                     never be placed",
                    p.operators()[op].kind.name(),
                    state.flush_quarters,
                    queues[q as usize].cap
                );
                return Some(finding(
                    p,
                    Code::D005,
                    Site::Operator(op),
                    p.operator_lines()[op],
                    msg,
                    format!(
                        "shrink the chunk (chunk_elems / values per marker) or grow \
                         queue q{q} beyond {} quarters",
                        state.flush_quarters
                    ),
                    rec,
                    queues,
                    program,
                    Vec::new(),
                ));
            }
        }
    }

    // D004: a fan-out whose outputs diverge — one full, a sibling with
    // space — wedging every branch forever.
    for (op, state) in ops.iter().enumerate() {
        let spec = &p.operators()[op];
        if spec.outputs.len() < 2 || state.pending.is_empty() {
            continue;
        }
        let head = *state.pending.front().expect("non-empty");
        let full: Vec<QueueId> = spec
            .outputs
            .iter()
            .copied()
            .filter(|&q| !queues[q as usize].fits(head.quarters))
            .collect();
        if !full.is_empty() && full.len() < spec.outputs.len() {
            let msg = format!(
                "`{}` fans out to {} queues but queue q{} is full while a sibling \
                 still has space: the push-all firing blocks every branch forever",
                spec.kind.name(),
                spec.outputs.len(),
                full[0]
            );
            return Some(finding(
                p,
                Code::D004,
                Site::Operator(op),
                p.operator_lines()[op],
                msg,
                format!(
                    "balance the branches: grow queue q{} or drain it as often as \
                     its siblings",
                    full[0]
                ),
                rec,
                queues,
                program,
                Vec::new(),
            ));
        }
    }

    // Wait-for cycle through the core's in-order stream.
    let CoreStep::Enqueue { q: blocked_q, .. } = program[cursor] else {
        return None; // absorbs never stick (they drain greedily)
    };
    let mut cycle: Vec<Actor> = vec![Actor::Core];
    let mut labels: Vec<String> = vec!["core".to_string()];
    let mut next = match consumer_of(p, blocked_q) {
        Some(op) => Actor::Op(op),
        None => Actor::Core,
    };
    while !cycle.contains(&next) {
        cycle.push(next);
        let Actor::Op(op) = next else { break };
        labels.push(op_label(p, op));
        next = match block_of(op) {
            Block::Output(q) => match consumer_of(p, q) {
                Some(c) => Actor::Op(c),
                None => Actor::Core, // a full core-output: the drain is behind
            },
            Block::Input(q) => match producer_of(p, q) {
                Some(prod) => Actor::Op(prod),
                None => Actor::Core, // a starved core-input: the enqueue is behind
            },
            Block::None => break,
        };
    }
    let n_ops_in_cycle = cycle.iter().filter(|a| matches!(a, Actor::Op(_))).count();
    let (code, shape) = if n_ops_in_cycle >= 2 {
        (
            Code::D001,
            "a capacity cycle through multiple engine operators",
        )
    } else {
        (
            Code::D002,
            "a capacity cycle coupling one operator to the core's in-order stream",
        )
    };
    let q_line = p.queue_lines().get(blocked_q as usize).copied().flatten();
    let msg = format!(
        "the core's enqueue into queue q{blocked_q} blocks forever ({}/{} quarters \
         occupied) behind {}: every queue passes its local capacity lint, but the \
         global wait-for graph is cyclic",
        queues[blocked_q as usize].occ, queues[blocked_q as usize].cap, shape
    );
    labels.push("core".to_string());
    Some(finding(
        p,
        code,
        Site::Queue(blocked_q),
        q_line,
        msg,
        "break the cycle: grow the cited queues, shorten the per-chunk input \
         runs, or drain the core outputs more often"
            .to_string(),
        rec,
        queues,
        program,
        labels,
    ))
}

// ---- minimization ------------------------------------------------------

/// Re-runs the check under progressively smaller drive protocols and
/// returns the smallest one that still reproduces `code` — the minimal
/// counterexample schedule.
fn minimize(
    p: &Pipeline,
    cfg: &LivenessConfig,
    caps: &[u32],
    code: Code,
) -> Option<LivenessFinding> {
    let ladder: [(u32, u32, u32, u32); 4] = [
        (1, 1, 3, 4),
        (1, 2, 6, 8),
        (1, cfg.index_items, cfg.stream_values, cfg.mqu_pairs),
        (
            cfg.work_groups,
            cfg.index_items,
            cfg.stream_values,
            cfg.mqu_pairs,
        ),
    ];
    for (work_groups, index_items, stream_values, mqu_pairs) in ladder {
        let small = LivenessConfig {
            work_groups,
            index_items,
            stream_values,
            mqu_pairs,
            ..*cfg
        };
        let program = core_program(p, &small);
        let outcome = simulate(p, &small, caps, &program);
        if let Some(f) = outcome.stuck {
            if f.diagnostic.code == code {
                return Some(f);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::PipelineBuilder;
    use spzip_mem::DataClass;

    fn range(marker: Option<u32>, input: RangeInput) -> OperatorKind {
        OperatorKind::RangeFetch {
            base: 0x1000,
            idx_bytes: 8,
            elem_bytes: 8,
            input,
            marker,
            class: DataClass::AdjacencyMatrix,
        }
    }

    fn buffer_mqu(chunk_elems: u32) -> OperatorKind {
        OperatorKind::MemQueue {
            num_queues: 1,
            data_base: 0x40_0000,
            stride: 1 << 16,
            meta_addr: 0x50_0000,
            chunk_elems,
            elem_bytes: 8,
            mode: MemQueueMode::Buffer,
            class: DataClass::Updates,
        }
    }

    /// A simple clean chain: pairs range into an amply sized core-out.
    #[test]
    fn clean_range_chain_verifies_clean() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(112);
        b.operator(range(Some(0), RangeInput::Pairs), q0, vec![q1]);
        let p = b.build().unwrap();
        let r = verify(&p);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert!(!r.bounded_out);
        assert!(r.steps > 0);
    }

    /// A one-operator capacity cycle: small buffer-MemQueue flushes pile
    /// into an undrained core-out while the core is mid-run — D002.
    #[test]
    fn mqu_backlog_into_core_out_is_d002() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let _pad = b.queue(96); // pin effective == declared (128 words)
        b.operator(buffer_mqu(4), q0, vec![q1]);
        let p = b.build().unwrap();
        let r = verify(&p);
        let diags = r.diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::D002, "{diags:?}");
        let cx = &r.findings[0].counterexample;
        assert!(!cx.schedule.is_empty());
        assert!(cx.wait_cycle.len() >= 2, "{:?}", cx.wait_cycle);
        assert!(cx.final_occupancy.iter().any(|&o| o > 0));
    }

    /// A chunk flush provably larger than its output queue — D005.
    #[test]
    fn oversized_bin_flush_is_d005() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let _pad = b.queue(96);
        b.operator(buffer_mqu(12), q0, vec![q1]);
        let p = b.build().unwrap();
        let r = verify(&p);
        let diags = r.diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::D005, "{diags:?}");
    }

    /// A markerless range feeding a binning MemQueue whose bins can
    /// never close — D003 starvation.
    #[test]
    fn markerless_bin_feed_is_d003() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        let q3 = b.queue(16);
        let _pad = b.queue(64);
        b.operator(range(None, RangeInput::Consecutive), q0, vec![q1]);
        // Large enough that the bounded drive never fills a bin, small
        // enough to satisfy the stride lint (E011).
        b.operator(buffer_mqu(64), q1, vec![q2]);
        b.operator(
            OperatorKind::Compress {
                codec: spzip_compress::CodecKind::None,
                elem_bytes: 8,
                sort_chunks: false,
            },
            q2,
            vec![q3],
        );
        let p = b.build().unwrap();
        let r = verify(&p);
        let diags = r.diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::D003, "{diags:?}");
    }

    /// D006 is reachable only through the model API (buildable pipelines
    /// satisfy E014, which floors every input queue above one atom);
    /// the classification is pinned here against a hand-built capacity
    /// vector.
    #[test]
    fn impossible_first_enqueue_is_d006() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(112);
        b.operator(range(Some(0), RangeInput::Pairs), q0, vec![q1]);
        let p = b.build().unwrap();
        let cfg = LivenessConfig::default();
        let program = core_program(&p, &cfg);
        // Hand-crafted: q0 cannot hold even one 8-quarter index.
        let outcome = simulate(&p, &cfg, &[4, 448], &program);
        let f = outcome.stuck.expect("must wedge immediately");
        assert_eq!(f.diagnostic.code, Code::D006);
    }

    #[test]
    fn minimized_counterexample_is_single_group() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let _pad = b.queue(96);
        b.operator(buffer_mqu(4), q0, vec![q1]);
        let p = b.build().unwrap();
        let r = verify(&p);
        let cx = &r.findings[0].counterexample;
        let groups = cx
            .core_program
            .iter()
            .filter(|s| matches!(s, CoreStep::Absorb { .. }))
            .count();
        // One work group plus the final settle drain.
        assert!(groups <= 2, "minimizer kept {groups} absorb groups");
    }

    #[test]
    fn counterexample_renders() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let _pad = b.queue(96);
        b.operator(buffer_mqu(4), q0, vec![q1]);
        let p = b.build().unwrap();
        let r = verify(&p);
        let text = render_counterexample(&r.findings[0].counterexample);
        assert!(text.contains("counterexample ("), "{text}");
        assert!(text.contains("final occupancy"), "{text}");
        assert!(text.contains("wait cycle: core"), "{text}");
    }

    #[test]
    fn effective_capacities_mirror_the_engine_floor_and_rescale() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(112);
        b.operator(range(Some(0), RangeInput::Pairs), q0, vec![q1]);
        let p = b.build().unwrap();
        // Declared total is exactly the 128-word fetcher budget: the
        // scale is 1 and declared words carry through (in quarters).
        let fetcher = EngineConfig::fetcher().scratchpad_bytes;
        let caps: Vec<u32> = effective_capacities(&p, fetcher).collect();
        assert_eq!(caps, vec![64, 448]);
    }
}
