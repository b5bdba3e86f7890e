//! The machine: cores + per-core engines + memory system, advanced in
//! small cycle quanta.
//!
//! Each core is an in-order event consumer with a bounded window of
//! outstanding misses (standing in for the OOO window's memory-level
//! parallelism). Engines fire one operator per cycle. The main loop
//! advances everything in `quantum`-cycle steps, pulling new work for a
//! core from the [`WorkSource`] whenever its event queue drains — the
//! dynamic chunk scheduling of the paper's runtime. A step visits only
//! the cores that can act in it and ticks only engines with a program.

use crate::ctrace::CTrace;
use crate::event::Event;
use crate::report::RunReport;
use crate::sanitize::{RunContext, SanitizeReport, TraceEvent, Violation};
use spzip_core::dcl::Pipeline;
use spzip_core::engine::{EngineConfig, EngineModel};
use spzip_core::func::Firing;
use spzip_mem::hierarchy::{MemConfig, MemorySystem};
use spzip_mem::sanitize::Actor;
use spzip_mem::Port;

/// One blocked actor in a wedged machine and what it waits on — an edge
/// of the wait-for graph at the moment the watchdog tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitForEdge {
    /// The blocked actor, e.g. `"core 0"` or `"fetcher 1"`.
    pub actor: String,
    /// What it waits for: the core's front event, or the engine's
    /// stall diagnosis (`InputEmpty`, `OutputFull`, ...).
    pub waits_on: String,
}

/// Structured diagnosis of a machine deadlock: the watchdog's wait-for
/// report, produced instead of a panic when no component makes progress
/// for [`MachineConfig::deadlock_cycles`]. The liveness corpus asserts on
/// this report to confirm statically predicted deadlocks dynamically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// Cycle at which the watchdog tripped.
    pub at_cycle: u64,
    /// Last cycle on which any core or engine made progress.
    pub last_progress: u64,
    /// Every blocked actor and its pending wait.
    pub edges: Vec<WaitForEdge>,
    /// Fetcher queue occupancies in quarter-words, indexed `[core][queue]`.
    pub fetcher_occupancy: Vec<Vec<u32>>,
    /// Compressor queue occupancies in quarter-words, `[core][queue]`.
    pub compressor_occupancy: Vec<Vec<u32>>,
}

impl DeadlockReport {
    /// Multi-line human-readable rendering (used by the `Display` impl).
    pub fn render(&self) -> String {
        let mut s = format!(
            "machine deadlock at cycle {} (last progress at {}):\n",
            self.at_cycle, self.last_progress
        );
        for e in &self.edges {
            s.push_str(&format!("  {} blocked on {}\n", e.actor, e.waits_on));
        }
        let occ = |name: &str, per_core: &[Vec<u32>], out: &mut String| {
            for (i, qs) in per_core.iter().enumerate() {
                if qs.iter().any(|&q| q > 0) {
                    let list: Vec<String> = qs
                        .iter()
                        .enumerate()
                        .map(|(q, &o)| format!("q{q}={o}"))
                        .collect();
                    out.push_str(&format!("  {name} {i} occupancy: {}\n", list.join(" ")));
                }
            }
        };
        occ("fetcher", &self.fetcher_occupancy, &mut s);
        occ("compressor", &self.compressor_occupancy, &mut s);
        s
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Machine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Outstanding misses a core can have in flight (the MLP window).
    pub core_mlp: usize,
    /// Cycles per enqueue/dequeue instruction when it does not block.
    pub queue_op_cycles: u32,
    /// Simulation quantum in cycles.
    pub quantum: u64,
    /// Fetcher engine parameters.
    pub fetcher: EngineConfig,
    /// Compressor engine parameters.
    pub compressor: EngineConfig,
    /// Abort if no component makes progress for this many cycles.
    pub deadlock_cycles: u64,
}

impl MachineConfig {
    /// The scaled Table II system.
    pub fn paper_scaled() -> Self {
        MachineConfig {
            mem: MemConfig::paper_scaled(),
            core_mlp: 10,
            queue_op_cycles: 1,
            quantum: 8,
            fetcher: EngineConfig::fetcher(),
            compressor: EngineConfig::compressor(),
            deadlock_cycles: 4_000_000,
        }
    }
}

/// One batch of work handed to a core: its event stream plus any firing
/// traces for that core's engines.
#[derive(Debug, Default)]
pub struct CoreWork {
    /// Events the core replays, in order.
    pub events: Vec<Event>,
    /// Firings to append to the core's fetcher (per operator).
    pub fetcher_trace: Option<Vec<Vec<Firing>>>,
    /// Firings to append to the core's compressor (per operator).
    pub compressor_trace: Option<Vec<Vec<Firing>>>,
}

/// Supplies chunks of work on demand (dynamic load balancing).
pub trait WorkSource {
    /// Next batch for `core`, or `None` if no work remains this phase.
    fn next(&mut self, core: usize) -> Option<CoreWork>;
}

impl<F: FnMut(usize) -> Option<CoreWork>> WorkSource for F {
    fn next(&mut self, core: usize) -> Option<CoreWork> {
        self(core)
    }
}

#[derive(Debug, Default)]
struct CoreState {
    /// The current batch, taken whole from its [`CoreWork`]; events before
    /// `next` have retired.
    events: Vec<Event>,
    /// Index of the first unretired event in `events`.
    next: usize,
    /// Completion cycles of outstanding misses.
    window: Vec<u64>,
    /// Core-local time (>= global now; core idles until it).
    t: u64,
    /// Whether the source reported no more work.
    exhausted: bool,
    retired_events: u64,
    stall_cycles: u64,
}

impl CoreState {
    /// The oldest unretired event.
    fn front(&self) -> Option<&Event> {
        self.events.get(self.next)
    }

    /// Whether every event of the current batch has retired.
    fn drained(&self) -> bool {
        self.next == self.events.len()
    }

    /// Takes `events` as the next batch. A core is refilled only once
    /// drained, so nothing unretired is dropped.
    fn refill(&mut self, events: Vec<Event>) {
        debug_assert!(self.drained());
        self.events = events;
        self.next = 0;
    }
}

/// The simulated machine. See the module docs.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    cores: Vec<CoreState>,
    fetchers: Vec<EngineModel>,
    compressors: Vec<EngineModel>,
    /// Whether any engine has had a program loaded; until then the
    /// engines cannot act and the quantum loop skips them.
    engines_loaded: bool,
    now: u64,
    /// Set when the watchdog trips; poisons subsequent phases.
    deadlock: Option<DeadlockReport>,
    /// SimSanitizer trace; `Some` only while a sanitized run is active.
    sanitize: Option<CTrace>,
    /// Violations noted by outer layers (codec checks, drain discipline).
    external_violations: Vec<Violation>,
}

impl Machine {
    /// Creates an idle machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.mem.cores;
        Machine {
            mem: MemorySystem::new(cfg.mem),
            cores: (0..n).map(|_| CoreState::default()).collect(),
            fetchers: (0..n).map(|i| EngineModel::new(cfg.fetcher, i)).collect(),
            compressors: (0..n)
                .map(|i| EngineModel::new(cfg.compressor, i))
                .collect(),
            engines_loaded: false,
            now: 0,
            deadlock: None,
            sanitize: None,
            external_violations: Vec::new(),
            cfg,
        }
    }

    /// Turns on SimSanitizer collection: the memory probe, engine
    /// queue-op logs, and the synchronization trace. Idempotent. Call
    /// before the first phase; end the run with [`Machine::finish_sanitized`].
    pub fn enable_sanitizer(&mut self) {
        self.mem.enable_probe();
        for e in self.fetchers.iter_mut().chain(&mut self.compressors) {
            e.enable_queue_log();
        }
        if self.sanitize.is_none() {
            self.sanitize = Some(CTrace::new(self.cfg.mem.cores));
        }
    }

    /// Whether a sanitized run is active.
    pub fn sanitizing(&self) -> bool {
        self.sanitize.is_some()
    }

    /// Records a violation found by an outer layer (codec conservation,
    /// functional drain discipline) for inclusion in the final report.
    pub fn note_violation(&mut self, v: Violation) {
        self.external_violations.push(v);
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The memory system (for oracles and direct inspection).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Enables the compressed-memory-hierarchy baseline (Fig. 22) with a
    /// static per-line BDI profile.
    pub fn enable_cmh(&mut self, profile: std::collections::HashMap<u64, u32>) {
        self.mem
            .enable_cmh(spzip_mem::hierarchy::BdiProfile::from_lines(profile), 6);
    }

    /// Loads a DCL program into every core's fetcher.
    pub fn load_fetcher_program(&mut self, pipeline: &Pipeline) {
        for f in &mut self.fetchers {
            f.load_program(pipeline, self.now);
        }
        self.engines_loaded = true;
    }

    /// Loads a DCL program into one core's fetcher only.
    pub fn load_fetcher_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.fetchers[core].load_program(pipeline, self.now);
        self.engines_loaded = true;
    }

    /// Loads a DCL program into one core's compressor only.
    pub fn load_compressor_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.compressors[core].load_program(pipeline, self.now);
        self.engines_loaded = true;
    }

    /// Overrides the fetcher scratchpad size on every core (the Fig. 21
    /// sensitivity sweep). Takes effect at the next program load.
    pub fn set_fetcher_scratchpad(&mut self, bytes: u32) {
        self.cfg.fetcher.scratchpad_bytes = bytes;
        let relog = self.sanitize.is_some();
        for (i, f) in self.fetchers.iter_mut().enumerate() {
            *f = EngineModel::new(self.cfg.fetcher, i);
            if relog {
                f.enable_queue_log();
            }
        }
    }

    /// Runs one phase: pulls work from `source` per core until everything
    /// is drained, then returns the cycles this phase took.
    ///
    /// If no component makes progress for `deadlock_cycles` (a protocol
    /// bug in the instrumented application, or a liveness-corpus seed),
    /// the phase records a structured [`DeadlockReport`]
    /// ([`Machine::deadlock`]) and drains the rest of its source without
    /// simulating it; the machine is poisoned — later phases do the same
    /// from the start and return 0 cycles.
    pub fn run_phase(&mut self, source: &mut dyn WorkSource) -> u64 {
        self.run_phase_with(source, Self::step)
    }

    /// [`Machine::run_phase`] with `step` advancing every component
    /// through one quantum starting at `now` and reporting whether any
    /// made progress.
    fn run_phase_with(
        &mut self,
        source: &mut dyn WorkSource,
        mut step: impl FnMut(&mut Self) -> bool,
    ) -> u64 {
        let start = self.now;
        for c in &mut self.cores {
            c.exhausted = false;
            c.t = self.now;
        }
        if self.deadlock.is_some() {
            // Poisoned: consume the source (so callers that feed a fixed
            // batch list terminate) but simulate nothing further.
            self.drain_source(source);
            return 0;
        }
        let mut last_progress = self.now;
        loop {
            // Refill drained cores.
            for i in 0..self.cores.len() {
                if self.cores[i].drained() && !self.cores[i].exhausted {
                    match source.next(i) {
                        Some(work) => {
                            self.cores[i].refill(work.events);
                            if let Some(t) = work.fetcher_trace {
                                self.fetchers[i].append_trace(t);
                            }
                            if let Some(t) = work.compressor_trace {
                                self.compressors[i].append_trace(t);
                            }
                        }
                        None => self.cores[i].exhausted = true,
                    }
                }
            }
            if self.quiescent() {
                break;
            }
            let progressed = step(self);
            self.now += self.cfg.quantum;
            if progressed {
                last_progress = self.now;
            } else if self.now - last_progress > self.cfg.deadlock_cycles {
                self.deadlock = Some(self.deadlock_report(last_progress));
                self.drain_source(source);
                break;
            }
        }
        // A phase ends only once every core and engine is quiescent: a
        // global barrier in happens-before terms.
        if let Some(tr) = self.sanitize.as_mut() {
            tr.record(TraceEvent::Barrier { cycle: self.now });
        }
        self.now - start
    }

    /// Advances one quantum: the cores first, then the engines. A core
    /// whose clock is at or past the quantum's end, or whose batch has
    /// fully retired, cannot act in it (`advance_core` would only pull a
    /// lagging clock up to `now`, which it does again before the core's
    /// next event), so it is not visited; nor are the engines while none
    /// has a program.
    fn step(&mut self) -> bool {
        let (now, quantum) = (self.now, self.cfg.quantum);
        let mut progressed = false;
        for i in 0..self.cores.len() {
            let core = &mut self.cores[i];
            if core.t >= now + quantum || core.drained() {
                continue;
            }
            progressed |= advance_core(
                &self.cfg,
                i,
                core,
                &mut self.fetchers[i],
                &mut self.compressors[i],
                &mut self.mem,
                now,
                quantum,
                self.sanitize.as_mut(),
            );
        }
        if self.engines_loaded {
            progressed |= self.tick_engines();
        }
        progressed
    }

    /// Ticks every core's fetcher and compressor through the quantum
    /// starting at `now`. Returns whether any fired.
    fn tick_engines(&mut self) -> bool {
        let (now, quantum) = (self.now, self.cfg.quantum);
        let mut fired = false;
        for i in 0..self.cores.len() {
            fired |= self.fetchers[i].tick(now, quantum, &mut self.mem) > 0;
            if let Some(tr) = &mut self.sanitize {
                drain_engine_events(tr, &mut self.mem, &mut self.fetchers[i], Actor::Fetcher(i));
            }
            fired |= self.compressors[i].tick(now, quantum, &mut self.mem) > 0;
            if let Some(tr) = &mut self.sanitize {
                drain_engine_events(
                    tr,
                    &mut self.mem,
                    &mut self.compressors[i],
                    Actor::Compressor(i),
                );
            }
        }
        fired
    }

    /// Pulls the rest of `source`'s work without simulating it, dealing
    /// it round-robin over the cores not yet exhausted, as live cores
    /// would take it: sources keep per-core state (UB bins, compressor
    /// chunks) that is sized for a balanced share and flushed only when
    /// each core's share runs out.
    fn drain_source(&mut self, source: &mut dyn WorkSource) {
        while self.cores.iter().any(|c| !c.exhausted) {
            for (i, c) in self.cores.iter_mut().enumerate() {
                c.exhausted = c.exhausted || source.next(i).is_none();
            }
        }
    }

    fn quiescent(&self) -> bool {
        // Cores may run their local clocks ahead of the global one within
        // a quantum; the phase ends only once global time catches up.
        self.cores
            .iter()
            .all(|c| c.exhausted && c.drained() && c.t <= self.now)
            && self.fetchers.iter().all(|f| f.idle())
            && self.compressors.iter().all(|c| c.idle())
    }

    /// The watchdog's structured wait-for report, if this machine wedged.
    pub fn deadlock(&self) -> Option<&DeadlockReport> {
        self.deadlock.as_ref()
    }

    /// Takes the deadlock report out of the machine (for embedding in
    /// the apps crate's `RunOutcome` before `finish()` consumes the
    /// machine).
    pub fn take_deadlock(&mut self) -> Option<DeadlockReport> {
        self.deadlock.take()
    }

    fn deadlock_report(&mut self, last_progress: u64) -> DeadlockReport {
        let mut edges = Vec::new();
        let mut fetcher_occupancy = Vec::new();
        let mut compressor_occupancy = Vec::new();
        for i in 0..self.cores.len() {
            if let Some(ev) = self.cores[i].front() {
                edges.push(WaitForEdge {
                    actor: format!("core {i}"),
                    waits_on: format!("{ev:?}"),
                });
            }
            if !self.fetchers[i].idle() {
                edges.push(WaitForEdge {
                    actor: format!("fetcher {i}"),
                    waits_on: format!("{:?}", self.fetchers[i].stall_reason(self.now)),
                });
            }
            if !self.compressors[i].idle() {
                edges.push(WaitForEdge {
                    actor: format!("compressor {i}"),
                    waits_on: format!("{:?}", self.compressors[i].stall_reason(self.now)),
                });
            }
            let occ = |e: &EngineModel| -> Vec<u32> {
                (0..e.queue_count()).map(|q| e.occupancy(q as u8)).collect()
            };
            fetcher_occupancy.push(occ(&self.fetchers[i]));
            compressor_occupancy.push(occ(&self.compressors[i]));
        }
        DeadlockReport {
            at_cycle: self.now,
            last_progress,
            edges,
            fetcher_occupancy,
            compressor_occupancy,
        }
    }

    /// Flushes dirty cached data to DRAM and produces the run report.
    pub fn finish(mut self) -> RunReport {
        self.build_report()
    }

    /// Ends a sanitized run: produces the timing report plus the
    /// sanitizer's verdict ([`crate::sanitize::analyze`] over the recorded
    /// trace, then any externally noted violations).
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::enable_sanitizer`] was never called.
    pub fn finish_sanitized(mut self) -> (RunReport, SanitizeReport) {
        let mut trace = self
            .sanitize
            .take()
            .expect("finish_sanitized without enable_sanitizer");
        trace.seal();
        let report = self.build_report();
        let probe = self.mem.take_probe().unwrap_or_default();
        let now = self.now;
        let context = RunContext {
            cores: self.cores.len(),
            core_mlp: self.cfg.core_mlp,
            outstanding: self
                .cores
                .iter()
                .map(|c| c.window.iter().filter(|&&done| done > now).count())
                .collect(),
            traffic: report.traffic.clone(),
            dram_fetch_lines: probe.dram_fetch_lines,
            dram_writeback_lines: probe.dram_writeback_lines,
            flushed_lines: probe.flushed_lines,
        };
        let mut violations = crate::sanitize::analyze(&trace, &context);
        violations.append(&mut self.external_violations);
        (
            report,
            SanitizeReport {
                violations,
                trace,
                context,
            },
        )
    }

    fn build_report(&mut self) -> RunReport {
        self.mem.flush_dirty();
        let fetcher_fired: u64 = self.fetchers.iter().map(|f| f.fired).sum();
        let compressor_fired: u64 = self.compressors.iter().map(|c| c.fired).sum();
        RunReport {
            cycles: self.now,
            traffic: self.mem.stats().clone(),
            llc: *self.mem.llc_stats(),
            dram_utilization: self.mem.dram().utilization(self.now.max(1)),
            fetcher_fired,
            compressor_fired,
            core_stall_cycles: self.cores.iter().map(|c| c.stall_cycles).sum(),
            retired_events: self.cores.iter().map(|c| c.retired_events).sum(),
        }
    }
}

/// Merges an engine's freshly collected queue-op log and memory records
/// into the trace. Both streams are internally in processing order;
/// merging by `(cycle, rank)` (stable) reconstructs the engine's
/// processing order across them: pending pushes commit first each cycle,
/// then a firing pops its input and touches memory.
#[cold]
fn drain_engine_events(
    tr: &mut CTrace,
    mem: &mut MemorySystem,
    engine: &mut EngineModel,
    who: Actor,
) {
    let mut evs: Vec<TraceEvent> = engine
        .take_queue_log()
        .into_iter()
        .map(|e| {
            if e.push {
                TraceEvent::Push {
                    actor: who,
                    engine: who,
                    q: e.q,
                    quarters: e.quarters,
                    cycle: e.cycle,
                }
            } else {
                TraceEvent::Pop {
                    actor: who,
                    engine: who,
                    q: e.q,
                    quarters: e.quarters,
                    cycle: e.cycle,
                }
            }
        })
        .collect();
    evs.extend(mem.drain_probe_records().into_iter().map(TraceEvent::Mem));
    evs.sort_by_key(|e| (e.cycle(), e.rank()));
    tr.record_all(evs);
}

/// Advances one core through `[now, now+quantum)`. Returns whether it made
/// progress.
#[allow(clippy::too_many_arguments)]
fn advance_core(
    cfg: &MachineConfig,
    core_id: usize,
    core: &mut CoreState,
    fetcher: &mut EngineModel,
    compressor: &mut EngineModel,
    mem: &mut MemorySystem,
    now: u64,
    quantum: u64,
    mut trace: Option<&mut CTrace>,
) -> bool {
    let deadline = now + quantum;
    if core.t < now {
        core.t = now;
    }
    let mut progressed = false;
    while core.t < deadline {
        let Some(&ev) = core.front() else {
            break;
        };
        let ready = match ev {
            Event::Compute(n) => {
                core.t += n as u64;
                true
            }
            Event::Mem(acc) => {
                // Need a free slot in the outstanding-miss window. Misses
                // done by `core.t` are pruned only when the window looks
                // full: pruning cannot make a window with a free slot
                // full, and the sanitizer counts only misses past `now`.
                if core.window.len() >= cfg.core_mlp {
                    core.window.retain(|&c| c > core.t);
                }
                if core.window.len() >= cfg.core_mlp {
                    let earliest = core.window.iter().copied().min().unwrap();
                    core.stall_cycles += earliest.saturating_sub(core.t);
                    core.t = earliest;
                    if core.t >= deadline {
                        break;
                    }
                    core.window.retain(|&c| c > core.t);
                }
                let done = mem.issue(core_id, Port::Core, &acc, core.t);
                if let Some(tr) = trace.as_mut() {
                    tr.record_all(mem.drain_probe_records().into_iter().map(TraceEvent::Mem));
                }
                if acc.op == spzip_mem::MemOp::Atomic {
                    // Locked read-modify-writes serialize the core (store
                    // buffer drain): no overlap with younger accesses.
                    // This is what makes software Push core-bound rather
                    // than bandwidth-bound (Sec. V-A).
                    core.stall_cycles += done.saturating_sub(core.t);
                    core.t = done;
                } else if done - core.t <= cfg.mem.l2_latency + cfg.mem.l1_latency {
                    // Fast accesses retire inline.
                    core.t = done;
                } else {
                    // Misses occupy the window while the core runs ahead
                    // (OOO-style MLP).
                    core.window.push(done);
                    core.t += 1;
                }
                true
            }
            Event::FetcherEnqueue { q, quarters } | Event::CompressorEnqueue { q, quarters } => {
                let (engine, who) = match ev {
                    Event::FetcherEnqueue { .. } => (&mut *fetcher, Actor::Fetcher(core_id)),
                    _ => (&mut *compressor, Actor::Compressor(core_id)),
                };
                let ready = engine.can_enqueue(q, quarters);
                if ready {
                    engine.enqueue(q, quarters);
                    if let Some(tr) = trace.as_mut() {
                        tr.record(TraceEvent::Push {
                            actor: Actor::Core(core_id),
                            engine: who,
                            q,
                            quarters: quarters as u32,
                            cycle: core.t,
                        });
                    }
                    core.t += cfg.queue_op_cycles as u64;
                }
                ready
            }
            Event::FetcherDequeue { q, quarters } => {
                let ready = fetcher.can_dequeue(q, quarters);
                if ready {
                    fetcher.dequeue(q, quarters);
                    if let Some(tr) = trace.as_mut() {
                        tr.record(TraceEvent::Pop {
                            actor: Actor::Core(core_id),
                            engine: Actor::Fetcher(core_id),
                            q,
                            quarters: quarters as u32,
                            cycle: core.t,
                        });
                    }
                    core.t += cfg.queue_op_cycles as u64;
                }
                ready
            }
            Event::CompressorDrain => {
                let ready = compressor.idle();
                if ready {
                    if let Some(tr) = trace.as_mut() {
                        tr.record(TraceEvent::Drain {
                            actor: Actor::Core(core_id),
                            engine: Actor::Compressor(core_id),
                            cycle: core.t,
                        });
                    }
                }
                ready
            }
        };
        if !ready {
            // A blocked queue event stalls the core to the deadline.
            core.stall_cycles += deadline - core.t;
            core.t = deadline;
            break;
        }
        core.next += 1;
        core.retired_events += 1;
        progressed = true;
    }
    progressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spzip_mem::{Access, DataClass, MemOp};
    use std::collections::VecDeque;

    fn tiny_config() -> MachineConfig {
        let mut cfg = MachineConfig::paper_scaled();
        cfg.mem.cores = 2;
        cfg
    }

    /// A source handing each core a fixed list of batches.
    struct ListSource {
        batches: Vec<VecDeque<CoreWork>>,
    }

    impl WorkSource for ListSource {
        fn next(&mut self, core: usize) -> Option<CoreWork> {
            self.batches[core].pop_front()
        }
    }

    #[test]
    fn compute_only_run_takes_expected_cycles() {
        let mut m = Machine::new(tiny_config());
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        let cycles = m.run_phase(&mut src);
        assert!((1000..1200).contains(&cycles), "{cycles}");
        let report = m.finish();
        assert_eq!(report.retired_events, 1);
    }

    #[test]
    fn parallel_cores_overlap() {
        // Two cores doing 1000 cycles each should take ~1000, not ~2000.
        let mut m = Machine::new(tiny_config());
        let work = || CoreWork {
            events: vec![Event::Compute(1000)],
            ..Default::default()
        };
        let mut src = ListSource {
            batches: vec![VecDeque::from([work()]), VecDeque::from([work()])],
        };
        let cycles = m.run_phase(&mut src);
        assert!(cycles < 1500, "{cycles}");
    }

    #[test]
    fn memory_bound_core_is_limited_by_mlp_and_bandwidth() {
        let mut m = Machine::new(tiny_config());
        // 1000 scattered misses.
        let events: Vec<Event> = (0..1000)
            .map(|i| Event::load(0x10000 + i * 8 * 997, 8, DataClass::DestinationVertex))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        let cycles = m.run_phase(&mut src);
        // Far slower than 1 access/cycle, far faster than serialized
        // (1000 x ~150-cycle DRAM latency) thanks to the MLP window.
        assert!(cycles > 2_000, "{cycles}");
        assert!(cycles < 120_000, "{cycles}");
    }

    #[test]
    fn sequential_accesses_hit_after_first_line() {
        let mut m = Machine::new(tiny_config());
        let events: Vec<Event> = (0..64u64)
            .map(|i| Event::load(0x40000 + i * 4, 4, DataClass::AdjacencyMatrix))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let report = m.finish();
        // 64 x 4B touches 4 lines = 256 B.
        assert_eq!(report.traffic.read_bytes(DataClass::AdjacencyMatrix), 256);
    }

    #[test]
    fn multiple_phases_accumulate_time() {
        let mut m = Machine::new(tiny_config());
        let mk = || {
            let mut src_batches = vec![VecDeque::new(), VecDeque::new()];
            src_batches[0].push_back(CoreWork {
                events: vec![Event::Compute(500)],
                ..Default::default()
            });
            ListSource {
                batches: src_batches,
            }
        };
        let c1 = m.run_phase(&mut mk());
        let c2 = m.run_phase(&mut mk());
        assert!(c1 >= 500 && c2 >= 500);
        assert!(m.now() >= 1000);
    }

    #[test]
    fn sanitized_run_is_clean_and_accounts_all_lines() {
        let mut m = Machine::new(tiny_config());
        m.enable_sanitizer();
        assert!(m.sanitizing());
        // Same-core scattered frontier loads: watched, but race-free.
        let events: Vec<Event> = (0..64u64)
            .map(|i| Event::load(0x40000 + i * 64, 8, DataClass::Frontier))
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let (report, san) = m.finish_sanitized();
        assert!(san.clean(), "{}", san.render());
        let events = san.trace.decode_all().expect("trace decodes");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, crate::sanitize::TraceEvent::Mem(_))),
            "watched accesses should be traced"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, crate::sanitize::TraceEvent::Barrier { .. })),
            "phase end should record a barrier"
        );
        assert_eq!(report.traffic.read_bytes(DataClass::Frontier), 64 * 64);
    }

    #[test]
    fn watchdog_records_structured_report_and_poisons_later_phases() {
        let mut cfg = tiny_config();
        cfg.deadlock_cycles = 2_000;
        let mut m = Machine::new(cfg);
        // A lint-clean one-operator program whose trace is never appended:
        // the engine consumes nothing, so the core's enqueues eventually
        // block forever on a full queue.
        let mut b = spzip_core::dcl::PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        b.operator(
            spzip_core::dcl::OperatorKind::RangeFetch {
                base: 0x1000,
                idx_bytes: 8,
                elem_bytes: 8,
                input: spzip_core::dcl::RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            q0,
            vec![q1],
        );
        let p = b.build().unwrap();
        m.load_fetcher_program_for(0, &p);
        let events: Vec<Event> = (0..200)
            .map(|_| Event::FetcherEnqueue { q: q0, quarters: 8 })
            .collect();
        let mut src = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events,
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        m.run_phase(&mut src);
        let report = m.deadlock().expect("watchdog must trip").clone();
        assert!(report.at_cycle > report.last_progress);
        assert!(
            report
                .edges
                .iter()
                .any(|e| e.actor == "core 0" && e.waits_on.contains("FetcherEnqueue")),
            "{report}"
        );
        assert!(
            report.fetcher_occupancy[0][q0 as usize] > 0,
            "wedged queue must show occupancy: {report}"
        );
        assert!(report.render().contains("machine deadlock at cycle"));
        // Poisoned: a later phase drains its source and simulates nothing.
        let mut src2 = ListSource {
            batches: vec![
                VecDeque::from([CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                }]),
                VecDeque::new(),
            ],
        };
        assert_eq!(m.run_phase(&mut src2), 0);
        assert!(
            src2.batches[0].is_empty(),
            "poisoned phase drains its source"
        );
        assert!(m.take_deadlock().is_some());
    }

    #[test]
    fn work_stealing_balances_load() {
        // A shared pool of 20 batches: with 2 cores, wall time should be
        // about half the serial time.
        struct Pool {
            left: usize,
        }
        impl WorkSource for Pool {
            fn next(&mut self, _core: usize) -> Option<CoreWork> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(CoreWork {
                    events: vec![Event::Compute(1000)],
                    ..Default::default()
                })
            }
        }
        let mut m = Machine::new(tiny_config());
        let cycles = m.run_phase(&mut Pool { left: 20 });
        assert!((10_000..13_000).contains(&cycles), "{cycles}");
    }

    /// The quantum step before the machine skipped what cannot act: every
    /// core and engine is visited, the MLP window is pruned on every
    /// memory event, and every core queue operation wakes its engine
    /// (`append_trace` of `ops.0` or `ops.1` empty traces resets the wake
    /// cycle, as `enqueue` and `dequeue` once did).
    fn reference_step(m: &mut Machine, ops: (usize, usize)) -> bool {
        let (now, quantum) = (m.now, m.cfg.quantum);
        let mut progressed = false;
        for i in 0..m.cores.len() {
            progressed |= reference_advance_core(
                &m.cfg,
                i,
                &mut m.cores[i],
                &mut m.fetchers[i],
                &mut m.compressors[i],
                &mut m.mem,
                now,
                quantum,
                m.sanitize.as_mut(),
                ops,
            );
        }
        progressed | m.tick_engines()
    }

    /// `advance_core` as [`reference_step`] runs it.
    #[allow(clippy::too_many_arguments)]
    fn reference_advance_core(
        cfg: &MachineConfig,
        core_id: usize,
        core: &mut CoreState,
        fetcher: &mut EngineModel,
        compressor: &mut EngineModel,
        mem: &mut MemorySystem,
        now: u64,
        quantum: u64,
        mut trace: Option<&mut CTrace>,
        ops: (usize, usize),
    ) -> bool {
        let deadline = now + quantum;
        if core.t < now {
            core.t = now;
        }
        let mut progressed = false;
        while core.t < deadline {
            let Some(&ev) = core.front() else {
                break;
            };
            let ready = match ev {
                Event::Compute(n) => {
                    core.t += n as u64;
                    true
                }
                Event::Mem(acc) => {
                    core.window.retain(|&c| c > core.t);
                    if core.window.len() >= cfg.core_mlp {
                        let earliest = core.window.iter().copied().min().unwrap();
                        core.stall_cycles += earliest.saturating_sub(core.t);
                        core.t = earliest;
                        if core.t >= deadline {
                            break;
                        }
                        core.window.retain(|&c| c > core.t);
                    }
                    let done = mem.issue(core_id, Port::Core, &acc, core.t);
                    if let Some(tr) = trace.as_mut() {
                        tr.record_all(mem.drain_probe_records().into_iter().map(TraceEvent::Mem));
                    }
                    if acc.op == MemOp::Atomic {
                        core.stall_cycles += done.saturating_sub(core.t);
                        core.t = done;
                    } else if done - core.t <= cfg.mem.l2_latency + cfg.mem.l1_latency {
                        core.t = done;
                    } else {
                        core.window.push(done);
                        core.t += 1;
                    }
                    true
                }
                Event::FetcherEnqueue { q, quarters }
                | Event::CompressorEnqueue { q, quarters } => {
                    let (engine, who, n_ops) = match ev {
                        Event::FetcherEnqueue { .. } => {
                            (&mut *fetcher, Actor::Fetcher(core_id), ops.0)
                        }
                        _ => (&mut *compressor, Actor::Compressor(core_id), ops.1),
                    };
                    let ready = engine.can_enqueue(q, quarters);
                    if ready {
                        engine.enqueue(q, quarters);
                        engine.append_trace(vec![Vec::new(); n_ops]);
                        if let Some(tr) = trace.as_mut() {
                            tr.record(TraceEvent::Push {
                                actor: Actor::Core(core_id),
                                engine: who,
                                q,
                                quarters: quarters as u32,
                                cycle: core.t,
                            });
                        }
                        core.t += cfg.queue_op_cycles as u64;
                    }
                    ready
                }
                Event::FetcherDequeue { q, quarters } => {
                    let ready = fetcher.can_dequeue(q, quarters);
                    if ready {
                        fetcher.dequeue(q, quarters);
                        fetcher.append_trace(vec![Vec::new(); ops.0]);
                        if let Some(tr) = trace.as_mut() {
                            tr.record(TraceEvent::Pop {
                                actor: Actor::Core(core_id),
                                engine: Actor::Fetcher(core_id),
                                q,
                                quarters: quarters as u32,
                                cycle: core.t,
                            });
                        }
                        core.t += cfg.queue_op_cycles as u64;
                    }
                    ready
                }
                Event::CompressorDrain => {
                    let ready = compressor.idle();
                    if ready {
                        if let Some(tr) = trace.as_mut() {
                            tr.record(TraceEvent::Drain {
                                actor: Actor::Core(core_id),
                                engine: Actor::Compressor(core_id),
                                cycle: core.t,
                            });
                        }
                    }
                    ready
                }
            };
            if !ready {
                core.stall_cycles += deadline - core.t;
                core.t = deadline;
                break;
            }
            core.next += 1;
            core.retired_events += 1;
            progressed = true;
        }
        progressed
    }

    /// One generated batch: events, then optional fetcher and compressor
    /// firings (one list per operator).
    type Batch = (
        Vec<Event>,
        Option<Vec<Vec<Firing>>>,
        Option<Vec<Vec<Firing>>>,
    );

    /// A differential case: per phase, per core, the batches it is fed.
    #[derive(Debug, Clone)]
    struct Case {
        cores: usize,
        /// Whether both engines of every core get a program.
        loaded: bool,
        sanitize: bool,
        deadlock_cycles: u64,
        phases: Vec<Vec<Vec<Batch>>>,
    }

    /// A two-operator program (q0 -> q1 -> q2) for either engine.
    fn two_stage_pipeline() -> Pipeline {
        let mut b = spzip_core::dcl::PipelineBuilder::new();
        let q0 = b.queue(16);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        for (input, output, marker) in [(q0, q1, None), (q1, q2, Some(0))] {
            b.operator(
                spzip_core::dcl::OperatorKind::RangeFetch {
                    base: 0x1000,
                    idx_bytes: 8,
                    elem_bytes: 8,
                    input: spzip_core::dcl::RangeInput::Pairs,
                    marker,
                    class: DataClass::AdjacencyMatrix,
                },
                input,
                vec![output],
            );
        }
        b.build().unwrap()
    }

    /// Memory events over a small range the cores contend for, plus a
    /// wider one that keeps missing.
    fn arb_mem_event() -> impl Strategy<Value = Event> {
        let addr = prop_oneof![
            (0u64..64).prop_map(|i| 0x4_0000 + i * 24),
            (0u64..2048).prop_map(|i| 0x10_0000 + i * 200),
        ];
        let class = prop_oneof![
            Just(DataClass::Frontier),
            Just(DataClass::Updates),
            Just(DataClass::Other),
        ];
        (addr, 1u32..=8, 0u8..4, class).prop_map(|(addr, bytes, op, class)| match op {
            0 => Event::load(addr, bytes, class),
            1 => Event::store(addr, bytes, class),
            2 => Event::atomic(addr, bytes, class),
            _ => Event::stream_store(addr & !63, 64, class),
        })
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        // `prop_oneof!` draws uniformly; repeated arms weight the draw.
        let enqueue = || (1u16..=16).prop_map(|quarters| Event::FetcherEnqueue { q: 0, quarters });
        let dequeue = || (1u16..=4).prop_map(|quarters| Event::FetcherDequeue { q: 2, quarters });
        prop_oneof![
            (1u32..=24).prop_map(Event::Compute),
            arb_mem_event(),
            arb_mem_event(),
            enqueue(),
            enqueue(),
            dequeue(),
            dequeue(),
            (1u16..=16).prop_map(|quarters| Event::CompressorEnqueue { q: 0, quarters }),
            Just(Event::CompressorDrain),
        ]
    }

    /// Firings for the two-operator program, flow-inconsistent on purpose
    /// so engines also block on input, output space and the access unit.
    fn arb_trace() -> impl Strategy<Value = Vec<Vec<Firing>>> {
        let firing = (0u16..=4, 0u16..=16, 0u8..4, 0u64..1 << 10).prop_map(
            |(consumed_q, produced_q, kind, line)| Firing {
                consumed_q,
                produced_q,
                mem: match kind {
                    0 | 1 => None,
                    2 => Some(Access::new(line * 64, 8, MemOp::Store, DataClass::Other)),
                    _ => Some(Access::new(line * 64, 8, MemOp::Load, DataClass::Other)),
                },
            },
        );
        collection::vec(collection::vec(firing, 0..24), 2)
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        // A third of the cases trip the watchdog early.
        let deadlock = prop_oneof![16u64..400, Just(20_000), Just(20_000)];
        let loaded = prop_oneof![Just(true), Just(true), Just(false)];
        let trace = || prop_oneof![Just(None), arb_trace().prop_map(Some)];
        let batch = (collection::vec(arb_event(), 0..48), trace(), trace());
        let phase = collection::vec(collection::vec(batch, 0..5), 4usize);
        let phases = collection::vec(phase, 1..=2usize);
        (1usize..=4, loaded, any::<bool>(), deadlock, phases).prop_map(
            |(cores, loaded, sanitize, deadlock_cycles, mut phases)| {
                for phase in &mut phases {
                    phase.truncate(cores);
                    // Without programs, cores replay only compute and
                    // memory events.
                    for batch in phase.iter_mut().flatten().filter(|_| !loaded) {
                        batch
                            .0
                            .retain(|e| matches!(e, Event::Compute(_) | Event::Mem(_)));
                        (batch.1, batch.2) = (None, None);
                    }
                }
                Case {
                    cores,
                    loaded,
                    sanitize,
                    deadlock_cycles,
                    phases,
                }
            },
        )
    }

    /// Everything a run exposes: the cycle after each phase, the deadlock
    /// report, the run report, and for a sanitized run its trace,
    /// violations and post-run context.
    type Observed = (
        Vec<u64>,
        Option<DeadlockReport>,
        String,
        Option<Vec<TraceEvent>>,
        String,
    );

    fn observe(case: &Case, reference: bool) -> Observed {
        let mut cfg = tiny_config();
        cfg.mem.cores = case.cores;
        cfg.deadlock_cycles = case.deadlock_cycles;
        // 48 words give every queue the 16-word floor: 64 quarters.
        cfg.fetcher.scratchpad_bytes = 192;
        cfg.compressor.scratchpad_bytes = 192;
        let mut m = Machine::new(cfg);
        if case.sanitize {
            m.enable_sanitizer();
        }
        let p = two_stage_pipeline();
        let ops = if case.loaded {
            m.load_fetcher_program(&p);
            for core in 0..case.cores {
                m.load_compressor_program_for(core, &p);
            }
            (2, 2)
        } else {
            (0, 0)
        };
        let mut nows = Vec::new();
        for phase in &case.phases {
            let mut src = ListSource {
                batches: phase
                    .iter()
                    .map(|batches| {
                        batches
                            .iter()
                            .map(|(events, fetcher, compressor)| CoreWork {
                                events: events.clone(),
                                fetcher_trace: fetcher.clone(),
                                compressor_trace: compressor.clone(),
                            })
                            .collect()
                    })
                    .collect(),
            };
            if reference {
                m.run_phase_with(&mut src, |m| reference_step(m, ops));
            } else {
                m.run_phase(&mut src);
            }
            nows.push(m.now());
        }
        let deadlock = m.deadlock().cloned();
        if case.sanitize {
            let (report, san) = m.finish_sanitized();
            let trace = san.trace.decode_all().expect("trace decodes");
            let rest = format!("{:?} {:?}", san.violations, san.context);
            (nows, deadlock, report.to_kv(), Some(trace), rest)
        } else {
            (nows, deadlock, m.finish().to_kv(), None, String::new())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The quantum step that skips idle cores and unloaded engines,
        /// prunes the MLP window only when full and wakes engines only on
        /// threshold crossings simulates exactly what the step visiting
        /// everything does.
        #[test]
        fn skipping_step_matches_the_visit_everything_reference(case in arb_case()) {
            let fast = observe(&case, false);
            let reference = observe(&case, true);
            prop_assert_eq!(&fast.0, &reference.0, "cycle after each phase");
            prop_assert_eq!(&fast.1, &reference.1, "deadlock report");
            prop_assert_eq!(&fast.2, &reference.2, "run report");
            prop_assert!(fast.3 == reference.3, "sanitized traces differ");
            prop_assert_eq!(&fast.4, &reference.4, "violations and context");
        }
    }
}
