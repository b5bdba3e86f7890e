//! The time-multiplexed engine timing model (Sec. III-B / III-C).
//!
//! Rather than a reconfigurable fabric, SpZip implements programmability by
//! time-multiplexing: a scratchpad holds the program's queues as circular
//! buffers, operator contexts hold per-operator configuration, and a
//! round-robin scheduler fires **one ready operator per cycle**. An
//! operator is ready when its input queue has an element, its output
//! queues have space, and its functional unit is available (the access
//! unit supports a bounded number of outstanding line requests).
//!
//! The model replays the per-operator firing traces produced by
//! [`crate::func::FuncEngine`] under those constraints. Decoupling,
//! backpressure, and run-ahead emerge from queue occupancy: the core sees
//! only its enqueue/dequeue interface.
//!
//! The same model implements the fetcher (issuing through the L2 port) and
//! the compressor (issuing through the LLC port).

use crate::dcl::Pipeline;
use crate::func::Firing;
use crate::QueueId;
use spzip_mem::hierarchy::MemorySystem;
use spzip_mem::Port;
use std::collections::VecDeque;

/// Static engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Scratchpad bytes available for queues (2 KB in the paper).
    pub scratchpad_bytes: u32,
    /// Outstanding line requests the access unit supports (8 in the paper).
    pub au_outstanding: usize,
    /// Cycles before a non-memory (transform) firing's output is visible.
    pub transform_latency: u64,
    /// Port this engine issues memory accesses through.
    pub port: Port,
    /// One-time cost of loading a DCL program (memory-mapped I/O writes).
    pub config_cycles: u64,
}

impl EngineConfig {
    /// The fetcher: 8 outstanding lines, L2 port. The paper's scratchpad
    /// is 2 KB; the default here is scaled down 4x with the caches (the
    /// scratchpad bounds the prefetch run-ahead distance, which must scale
    /// with cache residency — see DESIGN.md). The Fig. 21 sweep scales the
    /// 1/2/4 KB points accordingly.
    pub fn fetcher() -> Self {
        EngineConfig {
            scratchpad_bytes: 512,
            au_outstanding: 8,
            transform_latency: 2,
            port: Port::FetcherL2,
            config_cycles: 64,
        }
    }

    /// The paper's compressor: same engine at the LLC port.
    pub fn compressor() -> Self {
        EngineConfig {
            port: Port::EngineLlc,
            ..Self::fetcher()
        }
    }
}

/// The queue capacities, in quarter-words, an engine with
/// `scratchpad_bytes` of scratchpad gives `pipeline`: the declared words
/// rescaled so they fill the scratchpad (as in the Fig. 21 sweep), each
/// floored at 16 words so a queue holds at least one maximal firing
/// (32 B + marker). [`EngineModel::load_program`] sizes its queues with
/// it, and the [`crate::liveness`] checker its model of them.
pub(crate) fn effective_capacities(
    pipeline: &Pipeline,
    scratchpad_bytes: u32,
) -> impl Iterator<Item = u32> + '_ {
    let declared: u32 = pipeline.scratchpad_words();
    let scale = (scratchpad_bytes / 4) as f64 / declared.max(1) as f64;
    pipeline
        .queues()
        .iter()
        .map(move |q| (((q.capacity_words as f64 * scale) as u32).max(16)) * 4)
}

#[derive(Debug, Default)]
struct QState {
    capacity_q: u32,
    /// Quarters visible to consumers.
    occupancy_q: u32,
    /// Quarters reserved by in-flight producer firings.
    reserved_q: u32,
    /// While the engine sleeps: a core enqueue that leaves at least this
    /// many quarters wakes it (`u32::MAX`: none does).
    wake_at_q: u32,
    /// While the engine sleeps: a core dequeue that leaves fewer than this
    /// many quarters wakes it (0: none does).
    wake_below_q: u32,
}

impl QState {
    /// Whether a firing producing `produced_q` quarters fits, counting
    /// in-flight reservations.
    #[inline]
    fn fits(&self, produced_q: u16) -> bool {
        self.occupancy_q + self.reserved_q + produced_q as u32 <= self.capacity_q
    }
}

/// The first check of the firing rule a front firing fails.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// Its input queue holds fewer quarters than it consumes.
    Input(QueueId),
    /// This output queue has no room for what it produces.
    Output(QueueId),
    /// It accesses memory and the access unit has no free slot.
    AccessUnit,
}

#[derive(Debug)]
struct Pending {
    complete_at: u64,
    op: usize,
    produced_q: u16,
    /// Whether this pending entry holds an access-unit slot.
    uses_au: bool,
}

/// One engine-side queue movement, recorded for SimSanitizer trace
/// replay: engine firings pop their input queue when they fire and push
/// their outputs when the firing's latency elapses. Core-side pushes and
/// pops are recorded by the machine, which knows the core's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLogEntry {
    /// Queue operated on.
    pub q: QueueId,
    /// Quarter-words moved.
    pub quarters: u32,
    /// True for a push (occupancy increase), false for a pop.
    pub push: bool,
    /// Cycle at which the movement became visible.
    pub cycle: u64,
}

/// Appends a queue movement of `quarters` quarter-words to a SimSanitizer
/// log, unless it moved nothing. Cold: engines log only during a
/// sanitized run.
#[cold]
fn log_queue_op(log: &mut Vec<QueueLogEntry>, q: QueueId, quarters: u16, push: bool, cycle: u64) {
    if quarters > 0 {
        log.push(QueueLogEntry {
            q,
            quarters: quarters as u32,
            push,
            cycle,
        });
    }
}

/// Why the engine could not fire on a given tick (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// No trace entries remain anywhere.
    Drained,
    /// Every runnable operator waits on input data.
    InputEmpty,
    /// Some operator is blocked on output-queue space.
    OutputFull,
    /// The access unit is out of outstanding-request slots.
    AuBusy,
    /// Only in-flight work remains (waiting on memory).
    InFlight,
}

/// The engine timing model. See the module docs.
pub struct EngineModel {
    cfg: EngineConfig,
    core: usize,
    queues: Vec<QState>,
    outputs: Vec<Vec<QueueId>>,
    inputs: Vec<QueueId>,
    traces: Vec<VecDeque<Firing>>,
    pending: Vec<Pending>,
    /// Pending entries holding an access-unit slot.
    au_busy: usize,
    /// Earliest `complete_at` in `pending` (`u64::MAX` when empty).
    next_complete: u64,
    /// Set by a failed firing attempt: the next cycle at which an
    /// attempt could succeed without outside help (the earliest pending
    /// completion, `u64::MAX` when none). Reset to 0 by new work, a
    /// program load, or a core queue operation that crosses a queue's
    /// wake threshold; see [`EngineModel::tick`].
    wake: u64,
    rr_next: usize,
    ready_at: u64,
    /// Total firings executed (utilization statistics).
    pub fired: u64,
    /// SimSanitizer queue-op log; `Some` only while logging is enabled.
    queue_log: Option<Vec<QueueLogEntry>>,
}

impl EngineModel {
    /// Creates an engine for `core` with no program loaded.
    pub fn new(cfg: EngineConfig, core: usize) -> Self {
        EngineModel {
            cfg,
            core,
            queues: Vec::new(),
            outputs: Vec::new(),
            inputs: Vec::new(),
            traces: Vec::new(),
            pending: Vec::new(),
            au_busy: 0,
            next_complete: u64::MAX,
            wake: 0,
            rr_next: 0,
            ready_at: 0,
            fired: 0,
            queue_log: None,
        }
    }

    /// Turns SimSanitizer queue-op logging on. Idempotent.
    pub fn enable_queue_log(&mut self) {
        self.queue_log.get_or_insert_with(Vec::new);
    }

    /// Takes the queue-op log accumulated so far (empty when logging is
    /// off).
    pub fn take_queue_log(&mut self) -> Vec<QueueLogEntry> {
        self.queue_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Loads a DCL program at cycle `now`: sizes the queues (scaled so the
    /// program's declared capacities fill the scratchpad, as in the Fig. 21
    /// sweep), clears traces, and charges the configuration cost.
    pub fn load_program(&mut self, pipeline: &Pipeline, now: u64) {
        // Built pipelines are lint-clean by construction; catch anyone
        // assembling a Pipeline through a back door (debug builds only).
        #[cfg(debug_assertions)]
        {
            let diags = crate::lint::lint(pipeline);
            debug_assert!(
                !crate::lint::has_errors(&diags),
                "engine loaded a pipeline that fails lint:\n{}",
                crate::lint::render(&diags)
            );
        }
        self.queues = effective_capacities(pipeline, self.cfg.scratchpad_bytes)
            .map(|capacity_q| QState {
                capacity_q,
                ..QState::default()
            })
            .collect();
        self.outputs = pipeline
            .operators()
            .iter()
            .map(|op| op.outputs.clone())
            .collect();
        self.inputs = pipeline.operators().iter().map(|op| op.input).collect();
        self.traces = (0..pipeline.operators().len())
            .map(|_| VecDeque::new())
            .collect();
        self.pending.clear();
        self.au_busy = 0;
        self.next_complete = u64::MAX;
        self.wake = 0;
        self.rr_next = 0;
        self.ready_at = now + self.cfg.config_cycles;
    }

    /// Appends per-operator firings (from a functional run over newly
    /// enqueued work). An operator whose trace is empty takes its firing
    /// vector whole, without copying it.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded or the trace count mismatches.
    pub fn append_trace(&mut self, firings: Vec<Vec<Firing>>) {
        assert_eq!(
            firings.len(),
            self.traces.len(),
            "trace/operator count mismatch"
        );
        for (t, f) in self.traces.iter_mut().zip(firings) {
            if t.is_empty() {
                *t = VecDeque::from(f);
            } else {
                t.extend(f);
            }
        }
        self.wake = 0;
    }

    /// Whether the core can enqueue `quarters` into queue `q` now.
    pub fn can_enqueue(&self, q: QueueId, quarters: u16) -> bool {
        self.queues[q as usize].fits(quarters)
    }

    /// Core-side enqueue (caller must have checked [`Self::can_enqueue`]).
    /// Wakes a sleeping engine only if an operator blocked on this
    /// queue's input may now fire.
    pub fn enqueue(&mut self, q: QueueId, quarters: u16) {
        debug_assert!(self.can_enqueue(q, quarters));
        let qs = &mut self.queues[q as usize];
        qs.occupancy_q += quarters as u32;
        if qs.occupancy_q >= qs.wake_at_q {
            self.wake = 0;
        }
    }

    /// Whether the core can dequeue `quarters` from queue `q` now.
    pub fn can_dequeue(&self, q: QueueId, quarters: u16) -> bool {
        self.queues[q as usize].occupancy_q >= quarters as u32
    }

    /// Core-side dequeue (caller must have checked [`Self::can_dequeue`]).
    /// Wakes a sleeping engine only if an operator blocked on this
    /// queue's space may now fire.
    pub fn dequeue(&mut self, q: QueueId, quarters: u16) {
        debug_assert!(self.can_dequeue(q, quarters));
        let qs = &mut self.queues[q as usize];
        qs.occupancy_q -= quarters as u32;
        if qs.occupancy_q < qs.wake_below_q {
            self.wake = 0;
        }
    }

    /// Whether all traces are drained and no work is in flight.
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.traces.iter().all(|t| t.is_empty())
    }

    /// Advances the engine through `[now, now + budget)` cycles, firing at
    /// most one operator per cycle. Returns the number of firings.
    ///
    /// Event-driven, with the same schedule as attempting a firing on
    /// every cycle: the firing rule reads only queue occupancies and
    /// reservations, the trace fronts, the access-unit count and the
    /// round-robin pointer. Within a call only the engine's own
    /// completions change them, so a failed attempt jumps straight to the
    /// next completion (the wake cycle). Between calls only
    /// [`Self::enqueue`], [`Self::dequeue`], [`Self::append_trace`] and
    /// [`Self::load_program`] do. The last two reset the wake cycle. A
    /// failed attempt that sleeps past its window also records, per
    /// queue, the occupancy that would let a blocked operator pass the
    /// first check it failed: an input queue must reach the firing's
    /// consumption, a full output queue must drain to capacity minus
    /// reservations minus the firing's production. A core enqueue or
    /// dequeue resets the wake cycle only when it crosses one of these;
    /// any other leaves every operator failing the same check. An engine
    /// whose wake cycle lies past the window returns at once.
    /// [`Self::stall_reason`] commits completions too, so no later window
    /// may end before the cycle it was given.
    #[inline]
    pub fn tick(&mut self, now: u64, budget: u64, mem: &mut MemorySystem) -> u64 {
        if self.traces.is_empty() || self.wake > now + budget {
            return 0;
        }
        self.tick_window(now, now + budget, mem)
    }

    /// The window loop behind `tick`'s inlined sleep check.
    fn tick_window(&mut self, now: u64, end: u64, mem: &mut MemorySystem) -> u64 {
        let mut fired_now = 0u64;
        let mut t = now.max(self.ready_at);
        while t < end {
            self.commit_pending(t);
            if self.fire_one(t, mem) {
                fired_now += 1;
                t += 1;
            } else {
                // Nothing the firing rule reads changes before then.
                self.wake = self.next_complete;
                t = self.next_complete;
                if t >= end {
                    self.arm_wake_thresholds();
                }
            }
        }
        // Commit anything that completes exactly at the end of the window
        // so core-side checks at `end` see it.
        self.commit_pending(end);
        self.fired += fired_now;
        fired_now
    }

    fn commit_pending(&mut self, t: u64) {
        if t < self.next_complete {
            return;
        }
        let mut next = u64::MAX;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete_at <= t {
                let p = self.pending.swap_remove(i);
                self.au_busy -= usize::from(p.uses_au);
                for &q in &self.outputs[p.op] {
                    let qs = &mut self.queues[q as usize];
                    qs.reserved_q -= p.produced_q as u32;
                    qs.occupancy_q += p.produced_q as u32;
                    if let Some(log) = &mut self.queue_log {
                        log_queue_op(log, q, p.produced_q, true, p.complete_at);
                    }
                }
            } else {
                next = next.min(self.pending[i].complete_at);
                i += 1;
            }
        }
        self.next_complete = next;
    }

    /// The first check of the firing rule that `f`, operator `op`'s front
    /// firing, fails: input available, then space in each output queue
    /// (including in-flight reservations), then a free access-unit slot.
    /// `None` if it can fire.
    #[inline]
    fn blocked(&self, op: usize, f: &Firing) -> Option<Block> {
        let input = self.inputs[op];
        if self.queues[input as usize].occupancy_q < f.consumed_q as u32 {
            return Some(Block::Input(input));
        }
        if let Some(&q) = self.outputs[op]
            .iter()
            .find(|&&q| !self.queues[q as usize].fits(f.produced_q))
        {
            return Some(Block::Output(q));
        }
        if f.mem.is_some() && self.au_busy >= self.cfg.au_outstanding {
            return Some(Block::AccessUnit);
        }
        None
    }

    /// Records each queue's wake thresholds for a sleep that follows a
    /// failed attempt (see [`Self::tick`]): an operator blocked on input
    /// waits for its input queue to reach the firing's consumption, one
    /// blocked on output space for that queue to drain until the firing
    /// fits. One blocked on the access unit waits for a completion, which
    /// the wake cycle already covers.
    fn arm_wake_thresholds(&mut self) {
        for qs in &mut self.queues {
            qs.wake_at_q = u32::MAX;
            qs.wake_below_q = 0;
        }
        for op in 0..self.traces.len() {
            let Some(f) = self.traces[op].front().copied() else {
                continue;
            };
            match self.blocked(op, &f) {
                Some(Block::Input(q)) => {
                    let qs = &mut self.queues[q as usize];
                    qs.wake_at_q = qs.wake_at_q.min(f.consumed_q as u32);
                }
                Some(Block::Output(q)) => {
                    let qs = &mut self.queues[q as usize];
                    // Fits once occupancy is at most this; never while
                    // the reservations alone leave too little room.
                    if let Some(room) = qs
                        .capacity_q
                        .checked_sub(qs.reserved_q + f.produced_q as u32)
                    {
                        qs.wake_below_q = qs.wake_below_q.max(room + 1);
                    }
                }
                Some(Block::AccessUnit) => {}
                None => unreachable!("a failed attempt left operator {op} ready"),
            }
        }
    }

    /// Attempts to fire one ready operator (round-robin). Returns whether
    /// a firing happened.
    fn fire_one(&mut self, t: u64, mem: &mut MemorySystem) -> bool {
        let n_ops = self.traces.len();
        for op in (self.rr_next..n_ops).chain(0..self.rr_next) {
            let Some(f) = self.traces[op].front().copied() else {
                continue;
            };
            if self.blocked(op, &f).is_some() {
                continue;
            }
            let uses_au = f.mem.is_some();
            // Fire.
            self.traces[op].pop_front();
            self.queues[self.inputs[op] as usize].occupancy_q -= f.consumed_q as u32;
            if let Some(log) = &mut self.queue_log {
                log_queue_op(log, self.inputs[op], f.consumed_q, false, t);
            }
            for &q in &self.outputs[op] {
                self.queues[q as usize].reserved_q += f.produced_q as u32;
            }
            let complete_at = match f.mem {
                // Writes are posted: the access updates cache state and
                // traffic, but the unit does not wait for the round trip.
                Some(acc) if acc.op.is_write() => {
                    mem.issue(self.core, self.cfg.port, &acc, t);
                    t + 1
                }
                Some(acc) => mem.issue(self.core, self.cfg.port, &acc, t),
                None => t + self.cfg.transform_latency,
            };
            self.pending.push(Pending {
                complete_at,
                op,
                produced_q: f.produced_q,
                uses_au,
            });
            self.au_busy += usize::from(uses_au);
            self.next_complete = self.next_complete.min(complete_at);
            self.rr_next = if op + 1 == n_ops { 0 } else { op + 1 };
            return true;
        }
        false
    }

    /// Diagnoses why the engine cannot fire at `t` (after committing
    /// arrivals), for tests and deadlock reports.
    pub fn stall_reason(&mut self, t: u64) -> Stall {
        self.commit_pending(t);
        if self.idle() {
            return Stall::Drained;
        }
        if self.traces.iter().all(|t| t.is_empty()) {
            return Stall::InFlight;
        }
        let mut saw_output_full = false;
        let mut saw_au = false;
        for op in 0..self.traces.len() {
            let Some(f) = self.traces[op].front() else {
                continue;
            };
            match self.blocked(op, f) {
                Some(Block::Output(_)) => saw_output_full = true,
                Some(Block::AccessUnit) => saw_au = true,
                Some(Block::Input(_)) | None => {}
            }
        }
        if saw_au {
            Stall::AuBusy
        } else if saw_output_full {
            Stall::OutputFull
        } else {
            Stall::InputEmpty
        }
    }

    /// Occupancy of queue `q` in quarter-words (tests, reporting).
    pub fn occupancy(&self, q: QueueId) -> u32 {
        self.queues[q as usize].occupancy_q
    }

    /// Number of queues in the loaded program (0 when none is loaded).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }
}

impl std::fmt::Debug for EngineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineModel")
            .field("core", &self.core)
            .field("fired", &self.fired)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{OperatorKind, PipelineBuilder, RangeInput};
    use crate::func::FuncEngine;
    use crate::memory::MemoryImage;
    use proptest::prelude::*;
    use spzip_mem::hierarchy::{MemConfig, MemorySystem};
    use spzip_mem::{Access, DataClass, MemOp};

    /// Builds the Fig. 2 pipeline over real data and returns everything a
    /// timing test needs.
    fn fig2_setup() -> (Pipeline, MemoryImage, Vec<Vec<Firing>>, u16, u16) {
        let mut img = MemoryImage::new();
        let offsets: Vec<u64> = (0..=64u64).map(|i| i * 7).collect();
        let rows: Vec<u32> = (0..448u32).collect();
        let offsets_a = img.alloc_u64s("offsets", &offsets, DataClass::AdjacencyMatrix);
        let rows_a = img.alloc_u32s("rows", &rows, DataClass::AdjacencyMatrix);
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(32);
        let q2 = b.queue(64);
        b.operator(
            OperatorKind::RangeFetch {
                base: offsets_a,
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
                base: rows_a,
                idx_bytes: 8,
                elem_bytes: 4,
                input: RangeInput::Consecutive,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            q1,
            vec![q2],
        );
        let p = b.build().unwrap();
        let mut eng = FuncEngine::new(p.clone());
        let mut enq = 0;
        enq += eng.enqueue_value(q0, 0, 8);
        enq += eng.enqueue_value(q0, 64, 8);
        eng.run(&mut img);
        let firings = eng.take_firings();
        let out_q: u32 = eng
            .drain_output_costed(q2)
            .iter()
            .map(|&(_, c)| c as u32)
            .sum();
        (p, img, firings, enq, out_q as u16)
    }

    #[test]
    fn replay_drains_trace_and_produces_all_output() {
        let (p, _img, firings, enq, out_q) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        let mut now = 0u64;
        let mut drained_q = 0u32;
        while !model.idle() && now < 2_000_000 {
            model.tick(now, 16, &mut mem);
            // The "core" drains the output queue greedily.
            while model.can_dequeue(2, 4) {
                model.dequeue(2, 4);
                drained_q += 4;
            }
            now += 16;
        }
        assert!(model.idle(), "engine wedged: {:?}", model.stall_reason(now));
        while model.can_dequeue(2, 4) {
            model.dequeue(2, 4);
            drained_q += 4;
        }
        assert_eq!(drained_q, out_q as u32);
        assert!(model.fired > 0);
    }

    #[test]
    fn backpressure_blocks_until_core_dequeues() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        // Run without the core ever dequeueing: the engine must stall with
        // full output queues, not wedge or overflow.
        let mut now = 0;
        for _ in 0..5000 {
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(!model.idle());
        assert_eq!(model.stall_reason(now), Stall::OutputFull);
        let cap_before = model.occupancy(2);
        // Core drains; engine proceeds to completion.
        while !model.idle() && now < 4_000_000 {
            while model.can_dequeue(2, 4) {
                model.dequeue(2, 4);
            }
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(
            model.idle(),
            "wedged after drain: {:?}",
            model.stall_reason(now)
        );
        assert!(cap_before > 0);
    }

    #[test]
    fn decoupling_runs_ahead_of_core() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        // Without any core dequeues, the fetcher fills its output queue.
        let mut now = 0;
        for _ in 0..3000 {
            model.tick(now, 8, &mut mem);
            now += 8;
        }
        assert!(
            model.occupancy(2) > 0,
            "fetcher ran ahead and buffered output"
        );
    }

    #[test]
    fn au_limit_bounds_outstanding_requests() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut cfg = EngineConfig::fetcher();
        cfg.au_outstanding = 1;
        let mut slow = EngineModel::new(cfg, 0);
        slow.load_program(&p, 0);
        slow.append_trace(firings.clone());
        slow.enqueue(0, enq);
        let run = |model: &mut EngineModel, mem: &mut MemorySystem| -> u64 {
            let mut now = 0;
            while !model.idle() && now < 10_000_000 {
                model.tick(now, 16, mem);
                while model.can_dequeue(2, 4) {
                    model.dequeue(2, 4);
                }
                now += 16;
            }
            now
        };
        let t_slow = run(&mut slow, &mut mem);
        let mut mem2 = MemorySystem::new(MemConfig::paper_scaled());
        let mut fast = EngineModel::new(EngineConfig::fetcher(), 0);
        fast.load_program(&p, 0);
        fast.append_trace(firings);
        fast.enqueue(0, enq);
        let t_fast = run(&mut fast, &mut mem2);
        assert!(
            t_slow > t_fast,
            "1 outstanding request ({t_slow}) must be slower than 8 ({t_fast})"
        );
    }

    #[test]
    fn config_cost_delays_start() {
        let (p, _img, firings, enq, _) = fig2_setup();
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        model.load_program(&p, 0);
        model.append_trace(firings);
        model.enqueue(0, enq);
        model.tick(0, 32, &mut mem);
        assert_eq!(model.fired, 0, "nothing fires during configuration");
        model.tick(64, 32, &mut mem);
        assert!(model.fired > 0);
    }

    #[test]
    fn effective_capacities_rescale_to_the_scratchpad_and_floor_at_16_words() {
        // Fig. 2 declares 16 + 32 + 64 = 112 words.
        let (p, ..) = fig2_setup();
        // 56 words halve every queue; q0's 8 words floor at 16.
        let caps = |bytes| effective_capacities(&p, bytes).collect::<Vec<_>>();
        assert_eq!(caps(224), vec![64, 64, 128]);
        // 224 words double them.
        assert_eq!(caps(896), vec![128, 256, 512]);
    }

    #[test]
    fn idle_engine_tick_is_cheap_noop() {
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut model = EngineModel::new(EngineConfig::fetcher(), 0);
        assert_eq!(model.tick(0, 1000, &mut mem), 0);
    }

    /// The per-cycle loop `tick` replaces: attempt a firing on every
    /// cycle of the window once configuration is done, then commit what
    /// completes at the window's end.
    fn reference_tick(e: &mut EngineModel, now: u64, budget: u64, mem: &mut MemorySystem) -> u64 {
        if e.traces.is_empty() {
            return 0;
        }
        let mut fired_now = 0;
        for t in now.max(e.ready_at)..now + budget {
            e.commit_pending(t);
            fired_now += u64::from(e.fire_one(t, mem));
        }
        e.commit_pending(now + budget);
        e.fired += fired_now;
        fired_now
    }

    /// One move of the differential driver below.
    #[derive(Debug, Clone)]
    enum Step {
        /// Tick this many consecutive windows with no outside activity.
        Windows(u32),
        /// Core-side enqueue of quarters into a queue, if it fits.
        Enqueue(QueueId, u16),
        /// Core-side dequeue of quarters from a queue, if available.
        Dequeue(QueueId, u16),
        /// Append another batch of firings (one list per operator).
        Append(Vec<Vec<Firing>>),
        /// Reload the program at the current cycle.
        Reload,
        /// Move time forward without ticking.
        Gap(u64),
    }

    /// Random firings: flow-inconsistent on purpose, so engines also wedge
    /// on input, output space and the access unit.
    fn arb_firing() -> impl Strategy<Value = Firing> {
        (0u16..=4, 0u16..=16, 0u8..4, 0u64..1 << 14, 1u32..=64).prop_map(
            |(consumed_q, produced_q, kind, line, bytes)| {
                let op = match kind {
                    0 => None,
                    1 => Some(MemOp::Store),
                    _ => Some(MemOp::Load),
                };
                Firing {
                    consumed_q,
                    produced_q,
                    mem: op.map(|op| Access::new(line * 16, bytes, op, DataClass::Other)),
                }
            },
        )
    }

    fn arb_batch() -> impl Strategy<Value = Vec<Vec<Firing>>> {
        collection::vec(collection::vec(arb_firing(), 0..48), 2)
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        // `prop_oneof!` draws uniformly; repeated arms weight the draw
        // toward short runs of windows and core-side queue traffic.
        prop_oneof![
            (1u32..=4).prop_map(Step::Windows),
            (1u32..=4).prop_map(Step::Windows),
            (50u32..=300).prop_map(Step::Windows),
            (0u8..3, 1u16..=64).prop_map(|(q, n)| Step::Enqueue(q, n)),
            (0u8..3, 1u16..=64).prop_map(|(q, n)| Step::Enqueue(q, n)),
            (0u8..3, 1u16..=64).prop_map(|(q, n)| Step::Dequeue(q, n)),
            (0u8..3, 1u16..=64).prop_map(|(q, n)| Step::Dequeue(q, n)),
            arb_batch().prop_map(Step::Append),
            Just(Step::Reload),
            (1u64..5_000).prop_map(Step::Gap),
        ]
    }

    /// Stands for the queue a core-traffic case focuses on.
    const FOCUS: QueueId = QueueId::MAX;

    /// Steps dominated by small core-side enqueues and dequeues on one
    /// queue drawn per case, a window or two apart, so a sleeping engine
    /// sees its wake thresholds approached a few quarters at a time and
    /// crossed.
    fn arb_core_traffic() -> impl Strategy<Value = Vec<Step>> {
        let step = prop_oneof![
            (1u32..=2).prop_map(Step::Windows),
            (1u32..=2).prop_map(Step::Windows),
            (20u32..=100).prop_map(Step::Windows),
            (1u16..=8).prop_map(|n| Step::Enqueue(FOCUS, n)),
            (1u16..=8).prop_map(|n| Step::Enqueue(FOCUS, n)),
            (1u16..=8).prop_map(|n| Step::Dequeue(FOCUS, n)),
            (1u16..=8).prop_map(|n| Step::Dequeue(FOCUS, n)),
            (0u8..3, 1u16..=32).prop_map(|(q, n)| Step::Enqueue(q, n)),
            (0u8..3, 1u16..=32).prop_map(|(q, n)| Step::Dequeue(q, n)),
            arb_batch().prop_map(Step::Append),
        ];
        (0u8..3, collection::vec(step, 40..200)).prop_map(|(focus, steps)| {
            let focused = |q| if q == FOCUS { focus } else { q };
            steps
                .into_iter()
                .map(|step| match step {
                    Step::Enqueue(q, n) => Step::Enqueue(focused(q), n),
                    Step::Dequeue(q, n) => Step::Dequeue(focused(q), n),
                    step => step,
                })
                .collect()
        })
    }

    /// Asserts that the event-driven engine `ev` and the per-cycle
    /// reference `rf` agree after a window ending at `end`.
    fn assert_lockstep(ev: &mut EngineModel, rf: &mut EngineModel, end: u64, fired: (u64, u64)) {
        assert_eq!(fired.0, fired.1, "firings in the window ending at {end}");
        assert_eq!(ev.fired, rf.fired);
        let queues = |e: &EngineModel| -> Vec<(u32, u32)> {
            e.queues
                .iter()
                .map(|q| (q.occupancy_q, q.reserved_q))
                .collect()
        };
        assert_eq!(queues(ev), queues(rf), "queues at {end}");
        let pending = |e: &EngineModel| -> Vec<(u64, usize, u16, bool)> {
            e.pending
                .iter()
                .map(|p| (p.complete_at, p.op, p.produced_q, p.uses_au))
                .collect()
        };
        assert_eq!(pending(ev), pending(rf), "pending at {end}");
        assert_eq!(ev.idle(), rf.idle());
        assert_eq!(ev.stall_reason(end), rf.stall_reason(end), "at {end}");
        // The O(1) bookkeeping mirrors the pending list.
        assert_eq!(ev.au_busy, ev.pending.iter().filter(|p| p.uses_au).count());
        let earliest = ev.pending.iter().map(|p| p.complete_at).min();
        assert_eq!(ev.next_complete, earliest.unwrap_or(u64::MAX));
    }

    /// Drives the event-driven engine and the per-cycle reference through
    /// `steps` in lockstep from cycle `start`, asserting after every
    /// window that they agree.
    fn run_lockstep(
        au_outstanding: usize,
        window: u64,
        start: u64,
        first: Vec<Vec<Firing>>,
        steps: Vec<Step>,
    ) {
        let (p, ..) = fig2_setup();
        let mut cfg = EngineConfig::fetcher();
        cfg.au_outstanding = au_outstanding;
        let mut ev = EngineModel::new(cfg, 0);
        let mut rf = EngineModel::new(cfg, 0);
        let mut mem_ev = MemorySystem::new(MemConfig::paper_scaled());
        let mut mem_rf = MemorySystem::new(MemConfig::paper_scaled());
        let mut now = start;
        for e in [&mut ev, &mut rf] {
            e.enable_queue_log();
            e.load_program(&p, now);
            e.append_trace(first.clone());
        }
        for step in steps {
            match step {
                Step::Windows(n) => {
                    for _ in 0..n {
                        let a = ev.tick(now, window, &mut mem_ev);
                        let b = reference_tick(&mut rf, now, window, &mut mem_rf);
                        now += window;
                        assert_lockstep(&mut ev, &mut rf, now, (a, b));
                    }
                }
                Step::Enqueue(q, n) => {
                    let fits = ev.can_enqueue(q, n);
                    assert_eq!(fits, rf.can_enqueue(q, n));
                    if fits {
                        ev.enqueue(q, n);
                        rf.enqueue(q, n);
                    }
                }
                Step::Dequeue(q, n) => {
                    let ready = ev.can_dequeue(q, n);
                    assert_eq!(ready, rf.can_dequeue(q, n));
                    if ready {
                        ev.dequeue(q, n);
                        rf.dequeue(q, n);
                    }
                }
                Step::Append(batch) => {
                    ev.append_trace(batch.clone());
                    rf.append_trace(batch);
                }
                Step::Reload => {
                    ev.load_program(&p, now);
                    rf.load_program(&p, now);
                }
                Step::Gap(cycles) => now += cycles,
            }
        }
        assert_eq!(mem_ev.stats(), mem_rf.stats());
        assert_eq!(mem_ev.llc_stats(), mem_rf.llc_stats());
        assert_eq!(ev.take_queue_log(), rf.take_queue_log());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn event_driven_tick_matches_per_cycle_reference(
            au_outstanding in 1usize..=8,
            window in 1u64..=16,
            start in 1u64..2_000,
            first in arb_batch(),
            steps in collection::vec(arb_step(), 40..160),
        ) {
            run_lockstep(au_outstanding, window, start, first, steps);
        }

        #[test]
        fn core_traffic_wakes_match_per_cycle_reference(
            au_outstanding in 1usize..=8,
            window in 1u64..=16,
            start in 1u64..2_000,
            first in arb_batch(),
            steps in arb_core_traffic(),
        ) {
            run_lockstep(au_outstanding, window, start, first, steps);
        }
    }

    /// A one-operator engine, input queue 0 and output queue 1 of 256
    /// quarters each, configured by cycle 64 and given `firings`.
    fn single_op_engine(firings: Vec<Firing>) -> EngineModel {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(64);
        let q1 = b.queue(64);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0x1000,
                idx_bytes: 8,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        let p = b.build().unwrap();
        let mut e = EngineModel::new(EngineConfig::fetcher(), 0);
        e.load_program(&p, 0);
        assert_eq!(
            effective_capacities(&p, 512).collect::<Vec<_>>(),
            [256, 256]
        );
        e.append_trace(vec![firings]);
        e
    }

    /// A transform firing: no memory access, visible two cycles later.
    fn transform(consumed_q: u16, produced_q: u16) -> Firing {
        Firing {
            consumed_q,
            produced_q,
            mem: None,
        }
    }

    #[test]
    fn output_blocked_engine_wakes_only_on_the_dequeue_that_makes_room() {
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut e = single_op_engine(vec![transform(4, 64); 6]);
        e.enqueue(0, 24);
        // Four firings fill the 256-quarter output queue; the fifth
        // blocks on space once they commit, with nothing in flight.
        let mut now = 64;
        while now < 96 {
            e.tick(now, 8, &mut mem);
            now += 8;
        }
        assert_eq!((e.fired, e.occupancy(1)), (4, 256));
        assert_eq!(e.stall_reason(now), Stall::OutputFull);
        assert_eq!(e.wake, u64::MAX, "asleep until a core operation");
        // 193 quarters leave one quarter too few for a 64-quarter firing.
        e.dequeue(1, 63);
        assert_eq!(e.wake, u64::MAX, "a dequeue short of room keeps it asleep");
        assert_eq!(e.tick(now, 8, &mut mem), 0);
        now += 8;
        e.dequeue(1, 1);
        assert_eq!(e.wake, 0, "the dequeue that makes room wakes it");
        assert_eq!(e.tick(now, 8, &mut mem), 1);
        assert_eq!(e.occupancy(0), 4);
    }

    #[test]
    fn input_blocked_engine_wakes_only_on_the_enqueue_that_fills_a_firing() {
        let mut mem = MemorySystem::new(MemConfig::paper_scaled());
        let mut e = single_op_engine(vec![transform(8, 4); 2]);
        assert_eq!(e.tick(64, 8, &mut mem), 0);
        assert_eq!(e.stall_reason(72), Stall::InputEmpty);
        assert_eq!(e.wake, u64::MAX);
        e.enqueue(0, 7);
        assert_eq!(e.wake, u64::MAX, "7 of 8 quarters keep it asleep");
        assert_eq!(e.tick(72, 8, &mut mem), 0);
        e.enqueue(0, 1);
        assert_eq!(e.wake, 0, "the enqueue that reaches 8 quarters wakes it");
        assert_eq!(e.tick(80, 8, &mut mem), 1);
        assert_eq!(e.occupancy(0), 0);
    }
}
