//! The machine: cores + per-core engines + memory system, advanced in
//! small cycle quanta.
//!
//! Each core is an in-order event consumer with a bounded window of
//! outstanding misses (standing in for the OOO window's memory-level
//! parallelism). Engines fire one operator per cycle. The main loop
//! advances everything in `quantum`-cycle steps, pulling new work for a
//! core from the [`WorkSource`] whenever its event queue drains — the
//! dynamic chunk scheduling of the paper's runtime.

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
    }

    /// Loads a DCL program into one core's fetcher only.
    pub fn load_fetcher_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.fetchers[core].load_program(pipeline, self.now);
    }

    /// Loads a DCL program into one core's compressor only.
    pub fn load_compressor_program_for(&mut self, core: usize, pipeline: &Pipeline) {
        self.compressors[core].load_program(pipeline, self.now);
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
            // Advance one quantum.
            let quantum = self.cfg.quantum;
            let mut progressed = false;
            for i in 0..self.cores.len() {
                progressed |= advance_core(
                    &self.cfg,
                    i,
                    &mut self.cores[i],
                    &mut self.fetchers[i],
                    &mut self.compressors[i],
                    &mut self.mem,
                    self.now,
                    quantum,
                    self.sanitize.as_mut(),
                );
            }
            for i in 0..self.cores.len() {
                progressed |= self.fetchers[i].tick(self.now, quantum, &mut self.mem) > 0;
                if let Some(tr) = &mut self.sanitize {
                    drain_engine_events(
                        tr,
                        &mut self.mem,
                        &mut self.fetchers[i],
                        Actor::Fetcher(i),
                    );
                }
                progressed |= self.compressors[i].tick(self.now, quantum, &mut self.mem) > 0;
                if let Some(tr) = &mut self.sanitize {
                    drain_engine_events(
                        tr,
                        &mut self.mem,
                        &mut self.compressors[i],
                        Actor::Compressor(i),
                    );
                }
            }
            self.now += quantum;
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
                // Need a free slot in the outstanding-miss window.
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
    use spzip_mem::DataClass;
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
}
