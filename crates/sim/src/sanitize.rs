//! SimSanitizer: happens-before race detection and invariant checking over
//! the replayed trace.
//!
//! The simulator replays per-core event streams against a timing model, so
//! every ordering obligation of the instrumented application is visible in
//! one place: DCL queue pushes and pops, engine drains, phase boundaries,
//! and the memory accesses whose correctness depends on them. [`analyze`]
//! checks that record after a run, in one pass over the codec-compressed
//! trace ([`CTrace`]):
//!
//! * **trace integrity** (S010): every chunk must decode and carry its
//!   position as its sequence number;
//! * a vector-clock **race detector** over watched memory words (frontier
//!   and binned-update regions; see
//!   [`spzip_mem::sanitize::Probe::watched`]), with queue push/pop edges,
//!   engine drains, phase barriers, and coherence-serialized atomics as
//!   the synchronization edges;
//! * a **queue-protocol check**: occupancy never goes negative (no
//!   pop-before-push) and every quarter-word pushed is popped by the end
//!   of the run (no leaked slots);
//! * a **window check**: no core finishes with more outstanding-miss slots
//!   allocated than the MLP window has;
//! * a **line-accounting check**: every line the DRAM model moved is
//!   attributed to exactly one traffic class, in both directions.
//!
//! The codec byte-conservation checks (S008/S009) live in
//! `spzip_compress::sanitize` and feed in through the application layer.
//!
//! The *collection* hooks in the machine, the engines and the memory
//! hierarchy are compiled into every build and switched on at run time by
//! [`crate::Machine::enable_sanitizer`]; until then each hook is one
//! `None` check.
//!
//! # Trace order
//!
//! The trace is in **execution order** — the order the machine processed
//! the underlying operations — not sorted by cycle. Cores run their local
//! clocks ahead of global time within a quantum, so cycle numbers
//! interleave non-monotonically across actors; execution order is the
//! causally consistent one (a pop is always recorded after the push it
//! consumed, a drain after the engine work it waited for). Cycle numbers
//! are kept for diagnostics only.

use crate::ctrace::{decode_chunk, CTrace};
use spzip_core::QueueId;
use spzip_mem::sanitize::{Actor, MemRecord};
use spzip_mem::stats::TrafficStats;
use spzip_mem::{DataClass, MemOp, LINE_BYTES};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Race detection granularity: the 4-byte word, the smallest element the
/// applications store (frontier flags are `u32`).
pub const WORD_BYTES: u64 = 4;

/// Stable sanitizer diagnostic codes (the `S` registry; the DCL linter
/// owns `E`/`W`). See `DESIGN.md` for the invariant each one guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// S001 — two writes to the same watched word with no happens-before
    /// edge between them.
    WriteWriteRace,
    /// S002 — a read and a write of the same watched word with no
    /// happens-before edge between them.
    ReadWriteRace,
    /// S003 — a queue pop of more quarter-words than the queue held.
    PopBeforePush,
    /// S004 — an operator still holds buffered chunk state at a drain
    /// point (a chunk was opened but never closed with a marker).
    UnterminatedChunk,
    /// S005 — a queue ends the run with pushed quarter-words never popped.
    QueueSlotLeak,
    /// S006 — a core finishes with more outstanding-miss slots allocated
    /// than its MLP window has.
    WindowLeak,
    /// S007 — DRAM line movements do not match the per-class byte totals:
    /// some traffic was moved but attributed to no class, or vice versa.
    LineAccounting,
    /// S008 — compress∘decompress is not the identity on a compressed
    /// region.
    RoundtripMismatch,
    /// S009 — a region's framed length does not match the bytes its
    /// frames actually consume.
    FramedLength,
    /// S010 — the compressed trace itself is damaged: a chunk fails to
    /// decode, or the chunk sequence is reordered, duplicated, or has
    /// gaps.
    TraceIntegrity,
}

impl Code {
    /// All codes, in registry order.
    pub fn all() -> [Code; 10] {
        [
            Code::WriteWriteRace,
            Code::ReadWriteRace,
            Code::PopBeforePush,
            Code::UnterminatedChunk,
            Code::QueueSlotLeak,
            Code::WindowLeak,
            Code::LineAccounting,
            Code::RoundtripMismatch,
            Code::FramedLength,
            Code::TraceIntegrity,
        ]
    }

    fn row(self) -> Row {
        match self {
            Code::WriteWriteRace => Row {
                id: "S001",
                summary: "unordered writes to a shared word",
                hint: "order the accesses with a queue edge, an engine drain, or a phase barrier",
                why: "unordered writes mean the run's outcome depends on engine/core \
                      interleaving, so figures stop being reproducible",
            },
            Code::ReadWriteRace => Row {
                id: "S002",
                summary: "unordered read/write of a shared word",
                hint: "order the accesses with a queue edge, an engine drain, or a phase barrier",
                why: "a read racing a write can observe half-updated state the real hardware \
                      would also expose",
            },
            Code::PopBeforePush => Row {
                id: "S003",
                summary: "queue pop exceeds occupancy",
                hint: "the consumer ran ahead of the producer; check enqueue/dequeue placement",
                why: "popping more than was pushed means the model consumed data that never \
                      existed",
            },
            Code::UnterminatedChunk => Row {
                id: "S004",
                summary: "chunk open at drain",
                hint: "close every chunk with its length/marker before draining",
                why: "chunk state open at a drain point is silent data loss: the tail elements \
                      are never flushed",
            },
            Code::QueueSlotLeak => Row {
                id: "S005",
                summary: "queue not drained by end of run",
                hint: "drain engines before ending the phase that feeds them",
                why: "items left in a queue at end of run were produced but never consumed — \
                      dropped work the statistics still counted",
            },
            Code::WindowLeak => Row {
                id: "S006",
                summary: "miss window over-subscribed",
                hint: "the MLP window accounting leaked a slot; check retire paths",
                why: "over-subscribing the miss window models more memory parallelism than the \
                      hardware has, inflating performance",
            },
            Code::LineAccounting => Row {
                id: "S007",
                summary: "DRAM lines not attributed to a class",
                hint: "a hierarchy path moved a line without recording its traffic class",
                why: "unattributed DRAM traffic makes the per-class byte breakdowns (the \
                      paper's figures) silently wrong",
            },
            Code::RoundtripMismatch => Row {
                id: "S008",
                summary: "codec round-trip not identity",
                hint: "the codec or the region it was framed into is corrupt",
                why: "if decompress(compress(x)) != x the simulated application computed on \
                      corrupt data",
            },
            Code::FramedLength => Row {
                id: "S009",
                summary: "framed length mismatch",
                hint: "recompute the region's framed length after the last append",
                why: "framed lengths that disagree with actual frame bytes desynchronize every \
                      later reader of the stream",
            },
            Code::TraceIntegrity => Row {
                id: "S010",
                summary: "compressed trace chunk corrupt or out of order",
                hint: "regenerate the trace; a damaged trace cannot vouch for the run it records",
                why: "a corrupt or reordered compressed trace replays a different execution \
                      than was recorded",
            },
        }
    }

    /// The stable code string.
    pub fn as_str(self) -> &'static str {
        self.row().id
    }

    /// One-line description of the invariant the code guards.
    pub fn summary(self) -> &'static str {
        self.row().summary
    }

    /// Generic remediation hint.
    pub fn hint(self) -> &'static str {
        self.row().hint
    }

    /// Why a violation matters: the `--explain` prose.
    pub fn why(self) -> &'static str {
        self.row().why
    }
}

/// One registry row: a code's stable id and its texts.
struct Row {
    id: &'static str,
    summary: &'static str,
    hint: &'static str,
    why: &'static str,
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violated invariant, with enough actor/cycle/address context to
/// localize it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant.
    pub code: Code,
    /// What happened, concretely.
    pub message: String,
    /// Where: actor/cycle/address context rendered on the `-->` line.
    pub site: String,
}

impl Violation {
    /// Convenience constructor.
    pub fn new(code: Code, message: impl Into<String>, site: impl Into<String>) -> Self {
        Violation {
            code,
            message: message.into(),
            site: site.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.message)
    }
}

/// Renders violations in the compiler style the DCL linter uses:
///
/// ```text
/// error[S001]: write/write race on Updates word 0x3210
///   --> compressor 1 store at cycle 4821 vs fetcher 0 store at cycle 4770 (addr 0x3210)
///    = help: order the accesses with a queue edge, an engine drain, or a phase barrier
/// ```
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{v}\n"));
        out.push_str(&format!("  --> {}\n", v.site));
        out.push_str(&format!("   = help: {}\n", v.code.hint()));
    }
    if !violations.is_empty() {
        out.push_str(&format!("{} sanitizer violation(s)\n", violations.len()));
    }
    out
}

/// One entry of the synchronization/memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A watched memory access.
    Mem(MemRecord),
    /// `actor` pushed `quarters` quarter-words into queue `q` of `engine`
    /// (a release: downstream pops acquire everything the pusher had done).
    Push {
        /// Who pushed.
        actor: Actor,
        /// Whose queue.
        engine: Actor,
        /// Which queue.
        q: QueueId,
        /// Quarter-words moved.
        quarters: u32,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// `actor` popped `quarters` quarter-words from queue `q` of `engine`.
    Pop {
        /// Who popped.
        actor: Actor,
        /// Whose queue.
        engine: Actor,
        /// Which queue.
        q: QueueId,
        /// Quarter-words moved.
        quarters: u32,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// `actor` observed `engine` idle (a drain: the observer acquires
    /// everything the engine had done).
    Drain {
        /// Who waited.
        actor: Actor,
        /// Which engine was drained.
        engine: Actor,
        /// Cycle, for diagnostics.
        cycle: u64,
    },
    /// End of a phase: a global barrier across all actors.
    Barrier {
        /// Cycle, for diagnostics.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The diagnostic cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Mem(r) => r.cycle,
            TraceEvent::Push { cycle, .. }
            | TraceEvent::Pop { cycle, .. }
            | TraceEvent::Drain { cycle, .. }
            | TraceEvent::Barrier { cycle } => cycle,
        }
    }

    /// Tie-break rank when merging same-actor streams recorded at the
    /// same cycle, matching engine processing order: pending pushes commit
    /// first, then a firing pops its input, then it touches memory.
    pub fn rank(&self) -> u8 {
        match self {
            TraceEvent::Push { .. } => 0,
            TraceEvent::Pop { .. } | TraceEvent::Drain { .. } => 1,
            TraceEvent::Mem(_) => 2,
            TraceEvent::Barrier { .. } => 3,
        }
    }
}

/// Post-run state the non-trace checkers need.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Core count.
    pub cores: usize,
    /// MLP window size per core.
    pub core_mlp: usize,
    /// Outstanding-miss slots still allocated per core at finish.
    pub outstanding: Vec<usize>,
    /// Per-class DRAM-boundary byte totals.
    pub traffic: TrafficStats,
    /// Lines the DRAM model fetched.
    pub dram_fetch_lines: u64,
    /// Lines written back to DRAM on LLC eviction.
    pub dram_writeback_lines: u64,
    /// Dirty lines accounted by the end-of-run flush.
    pub flushed_lines: u64,
}

impl RunContext {
    /// A context with no traffic and empty windows — the identity for
    /// every non-trace check. Useful for trace-only analysis in tests.
    pub fn empty(cores: usize) -> Self {
        RunContext {
            cores,
            core_mlp: usize::MAX,
            outstanding: vec![0; cores],
            traffic: TrafficStats::new(),
            dram_fetch_lines: 0,
            dram_writeback_lines: 0,
            flushed_lines: 0,
        }
    }
}

/// Checks one run: S010 for every chunk of `trace` that is out of
/// sequence or does not decode, then the race detector's and the queue
/// checker's findings over every decoded event in order, then the window
/// (S006) and line-accounting (S007) checks over `ctx`.
pub fn analyze(trace: &CTrace, ctx: &RunContext) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut races = RaceFold::new(trace.cores);
    let mut queues = QueueFold::default();
    let mut events = Vec::new();
    for (i, chunk) in trace.chunks().iter().enumerate() {
        if chunk.seq != i as u64 {
            out.push(Violation::new(
                Code::TraceIntegrity,
                format!(
                    "trace chunk at position {i} carries sequence number {} \
                     (chunks reordered, duplicated, or lost)",
                    chunk.seq
                ),
                format!("compressed trace chunk {i}"),
            ));
        }
        events.clear();
        if let Err(e) = decode_chunk(chunk, &mut events) {
            out.push(Violation::new(
                Code::TraceIntegrity,
                format!("trace chunk {i} failed to decode: {e}"),
                format!("compressed trace chunk {i} ({} event(s))", chunk.events),
            ));
            continue;
        }
        for ev in &events {
            races.step(ev);
            queues.step(ev);
        }
    }
    for ev in trace.pending() {
        races.step(ev);
        queues.step(ev);
    }
    out.extend(races.out);
    out.extend(queues.finish());
    window_leaks(ctx, &mut out);
    line_accounting(ctx, &mut out);
    out
}

fn join_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn op_name(op: MemOp) -> &'static str {
    match op {
        MemOp::Load => "load",
        MemOp::Store => "store",
        MemOp::StreamStore => "stream-store",
        MemOp::Atomic => "atomic",
    }
}

/// Races reported (one per word) before the detector goes quiet.
const MAX_RACE_REPORTS: usize = 16;

/// Last-access state of one watched word: the most recent write and the
/// reads since it, each stamped with the issuer's epoch at access time.
/// Reads are kept ordered by actor index so that when a write races more
/// than one prior reader, the reported one is the same on every analysis
/// of the same trace (hash-map iteration order would make the diagnostic
/// nondeterministic).
#[derive(Default)]
struct WordState {
    write: Option<(usize, Actor, u64, u64, MemOp)>,
    reads: BTreeMap<usize, (Actor, u64, u64)>,
}

/// Vector-clock happens-before race detector over watched words, advanced
/// one [`RaceFold::step`] per trace event in execution order.
///
/// Each actor (core, fetcher, compressor — see [`Actor`]) carries a vector
/// clock. Synchronization edges:
///
/// * **queue push** — release: the channel clock of `(engine, queue)`
///   absorbs the pusher's clock, then the pusher's own epoch increments;
/// * **queue pop** — acquire: the popper absorbs the channel clock;
/// * **engine drain** — acquire of the whole engine clock by the waiter;
/// * **phase barrier** — every actor absorbs every clock;
/// * **atomics** — coherence-serialized RMWs acquire and release a
///   per-word lock clock, so chains of atomics order their surroundings.
///
/// Two accesses to the same word race when neither's epoch is covered by
/// the other's clock at access time. Two atomics never race with each
/// other (the coherence protocol serializes them); an atomic against a
/// plain access does.
struct RaceFold {
    n: usize,
    clocks: Vec<Vec<u64>>,
    channels: HashMap<(usize, QueueId), Vec<u64>>,
    locks: HashMap<u64, Vec<u64>>,
    words: HashMap<u64, WordState>,
    reported: HashSet<u64>,
    out: Vec<Violation>,
}

impl RaceFold {
    /// Fresh detector state for a `cores`-core machine.
    fn new(cores: usize) -> Self {
        let n = Actor::count(cores.max(1));
        let mut clocks: Vec<Vec<u64>> = vec![vec![0; n]; n];
        for (i, c) in clocks.iter_mut().enumerate() {
            c[i] = 1;
        }
        RaceFold {
            n,
            clocks,
            channels: HashMap::new(),
            locks: HashMap::new(),
            words: HashMap::new(),
            reported: HashSet::new(),
            out: Vec::new(),
        }
    }

    /// Advances the vector-clock state by one event.
    fn step(&mut self, ev: &TraceEvent) {
        let n = self.n;
        match *ev {
            TraceEvent::Push {
                actor, engine, q, ..
            } => {
                let a = actor.index();
                let ch = self
                    .channels
                    .entry((engine.index(), q))
                    .or_insert_with(|| vec![0; n]);
                join_into(ch, &self.clocks[a]);
                self.clocks[a][a] += 1;
            }
            TraceEvent::Pop {
                actor, engine, q, ..
            } => {
                if let Some(ch) = self.channels.get(&(engine.index(), q)) {
                    let ch = ch.clone();
                    join_into(&mut self.clocks[actor.index()], &ch);
                }
            }
            TraceEvent::Drain { actor, engine, .. } => {
                let e = engine.index();
                let ec = self.clocks[e].clone();
                join_into(&mut self.clocks[actor.index()], &ec);
                self.clocks[e][e] += 1;
            }
            TraceEvent::Barrier { .. } => {
                let mut merged = vec![0u64; n];
                for c in &self.clocks {
                    join_into(&mut merged, c);
                }
                for (i, c) in self.clocks.iter_mut().enumerate() {
                    c.copy_from_slice(&merged);
                    c[i] += 1;
                }
            }
            TraceEvent::Mem(r) => {
                let a = r.actor.index();
                let first = r.addr / WORD_BYTES;
                let last = (r.addr + r.bytes.max(1) as u64 - 1) / WORD_BYTES;
                if r.op == MemOp::Atomic {
                    for w in first..=last {
                        if let Some(l) = self.locks.get(&w) {
                            let l = l.clone();
                            join_into(&mut self.clocks[a], &l);
                        }
                    }
                }
                for w in first..=last {
                    let st = self.words.entry(w).or_default();
                    let mut race: Option<(Actor, u64, MemOp, Code)> = None;
                    if r.op.is_write() {
                        if let Some((b, bact, ep, cyc, bop)) = st.write {
                            let both_atomic = bop == MemOp::Atomic && r.op == MemOp::Atomic;
                            if b != a && !both_atomic && self.clocks[a][b] < ep {
                                race = Some((bact, cyc, bop, Code::WriteWriteRace));
                            }
                        }
                        if race.is_none() {
                            for (&b, &(bact, ep, cyc)) in &st.reads {
                                if b != a && self.clocks[a][b] < ep {
                                    race = Some((bact, cyc, MemOp::Load, Code::ReadWriteRace));
                                    break;
                                }
                            }
                        }
                        st.write = Some((a, r.actor, self.clocks[a][a], r.cycle, r.op));
                        st.reads.clear();
                    } else {
                        if let Some((b, bact, ep, cyc, bop)) = st.write {
                            if b != a && self.clocks[a][b] < ep {
                                race = Some((bact, cyc, bop, Code::ReadWriteRace));
                            }
                        }
                        st.reads.insert(a, (r.actor, self.clocks[a][a], r.cycle));
                    }
                    if let Some((bact, cyc, bop, code)) = race {
                        if self.reported.insert(w) && self.out.len() < MAX_RACE_REPORTS {
                            let kind = match code {
                                Code::WriteWriteRace => "write/write",
                                _ => "read/write",
                            };
                            self.out.push(Violation::new(
                                code,
                                format!("{kind} race on {} word {:#x}", r.class, w * WORD_BYTES),
                                format!(
                                    "{} {} at cycle {} vs {} {} at cycle {} (addr {:#x})",
                                    r.actor,
                                    op_name(r.op),
                                    r.cycle,
                                    bact,
                                    op_name(bop),
                                    cyc,
                                    r.addr
                                ),
                            ));
                        }
                    }
                }
                if r.op == MemOp::Atomic {
                    for w in first..=last {
                        let l = self.locks.entry(w).or_insert_with(|| vec![0; n]);
                        join_into(l, &self.clocks[a]);
                    }
                    self.clocks[a][a] += 1;
                }
            }
        }
    }
}

/// Queue-protocol checker, advanced one [`QueueFold::step`] per trace
/// event: occupancy never goes negative (S003) and every queue is empty by
/// the end of the run (S005).
#[derive(Default)]
struct QueueFold {
    occ: HashMap<(Actor, QueueId), u64>,
    flagged: HashSet<(Actor, QueueId)>,
    out: Vec<Violation>,
}

impl QueueFold {
    /// Advances the occupancy state by one event.
    fn step(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Push {
                engine,
                q,
                quarters,
                ..
            } => {
                *self.occ.entry((engine, q)).or_default() += quarters as u64;
            }
            TraceEvent::Pop {
                actor,
                engine,
                q,
                quarters,
                cycle,
            } => {
                let o = self.occ.entry((engine, q)).or_default();
                if (quarters as u64) > *o {
                    if self.flagged.insert((engine, q)) {
                        self.out.push(Violation::new(
                            Code::PopBeforePush,
                            format!(
                                "pop of {quarters} quarter-words from queue q{q} of {engine} \
                                 which held only {o}"
                            ),
                            format!("{actor} pop at cycle {cycle} (queue q{q} of {engine})"),
                        ));
                    }
                    *o = 0;
                } else {
                    *o -= quarters as u64;
                }
            }
            _ => {}
        }
    }

    /// Appends the end-of-run leak violations and takes everything found.
    fn finish(mut self) -> Vec<Violation> {
        let mut leaks: Vec<_> = self.occ.into_iter().filter(|&(_, v)| v > 0).collect();
        leaks.sort_by_key(|&((e, q), _)| (e, q));
        for ((engine, q), v) in leaks {
            self.out.push(Violation::new(
                Code::QueueSlotLeak,
                format!("queue q{q} of {engine} ends the run holding {v} quarter-word(s)"),
                format!("queue q{q} of {engine} at end of run"),
            ));
        }
        self.out
    }
}

/// S006: at finish, no core may hold more outstanding-miss slots than its
/// MLP window has.
fn window_leaks(ctx: &RunContext, out: &mut Vec<Violation>) {
    for (core, &n) in ctx.outstanding.iter().enumerate() {
        if n > ctx.core_mlp {
            out.push(Violation::new(
                Code::WindowLeak,
                format!(
                    "core {core} finished with {n} outstanding-miss slots allocated \
                     (window holds {})",
                    ctx.core_mlp
                ),
                format!("core {core} at end of run"),
            ));
        }
    }
}

/// S007: the DRAM model's line movements must equal the per-class byte
/// totals in both directions, so every fetched or written-back line is
/// attributed to exactly one traffic class.
fn line_accounting(ctx: &RunContext, out: &mut Vec<Violation>) {
    let read_bytes: u64 = DataClass::all()
        .iter()
        .map(|&c| ctx.traffic.read_bytes(c))
        .sum();
    let write_bytes: u64 = DataClass::all()
        .iter()
        .map(|&c| ctx.traffic.write_bytes(c))
        .sum();
    let fetched = ctx.dram_fetch_lines * LINE_BYTES;
    if fetched != read_bytes {
        out.push(Violation::new(
            Code::LineAccounting,
            format!(
                "DRAM fetched {} line(s) = {fetched} bytes but classed read traffic \
                 totals {read_bytes} bytes",
                ctx.dram_fetch_lines
            ),
            "DRAM read boundary at end of run".to_string(),
        ));
    }
    let written = (ctx.dram_writeback_lines + ctx.flushed_lines) * LINE_BYTES;
    if written != write_bytes {
        out.push(Violation::new(
            Code::LineAccounting,
            format!(
                "DRAM absorbed {} writeback + {} flushed line(s) = {written} bytes but \
                 classed write traffic totals {write_bytes} bytes",
                ctx.dram_writeback_lines, ctx.flushed_lines
            ),
            "DRAM write boundary at end of run".to_string(),
        ));
    }
}

/// Everything a sanitized run produced beyond its timing report.
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// Violations: [`analyze`]'s first, then externally noted ones.
    pub violations: Vec<Violation>,
    /// The recorded compressed trace (kept so tests can decode, tamper,
    /// re-encode, and re-analyze).
    pub trace: CTrace,
    /// The post-run context the checkers saw.
    pub context: RunContext,
}

impl SanitizeReport {
    /// No violations at all.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the violations compiler-style (empty string when clean).
    pub fn render(&self) -> String {
        render(&self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrace::CHUNK_EVENTS;

    fn rec(actor: Actor, addr: u64, bytes: u32, op: MemOp, cycle: u64) -> TraceEvent {
        TraceEvent::Mem(MemRecord {
            actor,
            addr,
            bytes,
            op,
            class: DataClass::Updates,
            cycle,
        })
    }

    fn push(actor: Actor, engine: Actor, q: QueueId, quarters: u32, cycle: u64) -> TraceEvent {
        TraceEvent::Push {
            actor,
            engine,
            q,
            quarters,
            cycle,
        }
    }

    fn pop(actor: Actor, engine: Actor, q: QueueId, quarters: u32, cycle: u64) -> TraceEvent {
        TraceEvent::Pop {
            actor,
            engine,
            q,
            quarters,
            cycle,
        }
    }

    /// Verdicts on `trace` against a context that trips no context check.
    fn check(trace: &CTrace) -> Vec<Violation> {
        analyze(trace, &RunContext::empty(trace.cores))
    }

    fn codes(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.code.as_str()).collect()
    }

    /// A trace of `n` barriers, sealed into full chunks.
    fn barriers(n: usize) -> CTrace {
        let events: Vec<_> = (0..n as u64)
            .map(|cycle| TraceEvent::Barrier { cycle })
            .collect();
        CTrace::from_events(1, &events)
    }

    #[test]
    fn unordered_writes_race() {
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x100, 4, MemOp::Store, 10));
        t.record(rec(Actor::Compressor(1), 0x100, 4, MemOp::Store, 20));
        let v = check(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WriteWriteRace);
        assert!(v[0].site.contains("compressor 1"), "{}", v[0].site);
        assert!(v[0].site.contains("core 0"), "{}", v[0].site);
        assert!(v[0].site.contains("cycle 20"), "{}", v[0].site);
        assert!(v[0].site.contains("0x100"), "{}", v[0].site);
    }

    #[test]
    fn queue_edge_orders_accesses_and_its_removal_races() {
        let events = [
            rec(Actor::Core(0), 0x200, 4, MemOp::Store, 10),
            push(Actor::Core(0), Actor::Fetcher(0), 0, 4, 11),
            pop(Actor::Fetcher(0), Actor::Fetcher(0), 0, 4, 12),
            rec(Actor::Fetcher(0), 0x200, 4, MemOp::Store, 20),
        ];
        assert!(check(&CTrace::from_events(1, &events)).is_empty());

        // Remove the pop: the producer→consumer edge is gone and the same
        // two stores now race (and the pushed slots leak).
        let broken: Vec<_> = events
            .into_iter()
            .filter(|e| !matches!(e, TraceEvent::Pop { .. }))
            .collect();
        let v = check(&CTrace::from_events(1, &broken));
        assert_eq!(codes(&v), ["S001", "S005"]);
    }

    #[test]
    fn barrier_orders_phases_and_its_removal_races() {
        let events = [
            rec(Actor::Core(0), 0x300, 4, MemOp::Store, 10),
            TraceEvent::Barrier { cycle: 15 },
            rec(Actor::Core(1), 0x300, 4, MemOp::Load, 20),
        ];
        assert!(check(&CTrace::from_events(2, &events)).is_empty());

        let broken = [events[0], events[2]];
        let v = check(&CTrace::from_events(2, &broken));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::ReadWriteRace);
    }

    #[test]
    fn drain_orders_engine_before_core() {
        let mut t = CTrace::new(1);
        t.record(rec(Actor::Compressor(0), 0x400, 4, MemOp::StreamStore, 10));
        t.record(TraceEvent::Drain {
            actor: Actor::Core(0),
            engine: Actor::Compressor(0),
            cycle: 15,
        });
        t.record(rec(Actor::Core(0), 0x400, 4, MemOp::Load, 20));
        assert!(check(&t).is_empty());
    }

    #[test]
    fn atomics_do_not_race_each_other_but_do_race_plain_stores() {
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x500, 4, MemOp::Atomic, 10));
        t.record(rec(Actor::Core(1), 0x500, 4, MemOp::Atomic, 11));
        assert!(check(&t).is_empty());

        let mut t2 = CTrace::new(2);
        t2.record(rec(Actor::Core(0), 0x500, 4, MemOp::Atomic, 10));
        t2.record(rec(Actor::Core(1), 0x500, 4, MemOp::Store, 11));
        let v = check(&t2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WriteWriteRace);
    }

    #[test]
    fn atomic_chain_carries_ordering() {
        // a stores, a atomics the flag, b atomics the flag, b loads: the
        // lock clock on the flag word orders the store before the load.
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x600, 4, MemOp::Store, 10));
        t.record(rec(Actor::Core(0), 0x700, 4, MemOp::Atomic, 11));
        t.record(rec(Actor::Core(1), 0x700, 4, MemOp::Atomic, 12));
        t.record(rec(Actor::Core(1), 0x600, 4, MemOp::Load, 13));
        assert!(check(&t).is_empty());
    }

    #[test]
    fn multi_word_access_races_per_word() {
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x800, 16, MemOp::Store, 10));
        t.record(rec(Actor::Core(1), 0x804, 4, MemOp::Store, 11));
        let v = check(&t);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("0x804"), "{}", v[0].message);
    }

    #[test]
    fn race_reports_are_capped() {
        // One race per word on twice as many words as the cap.
        let mut t = CTrace::new(2);
        for w in 0..2 * MAX_RACE_REPORTS as u64 {
            t.record(rec(Actor::Core(0), 0x1000 + 4 * w, 4, MemOp::Store, 1));
            t.record(rec(Actor::Core(1), 0x1000 + 4 * w, 4, MemOp::Store, 2));
        }
        assert_eq!(check(&t).len(), MAX_RACE_REPORTS);
    }

    #[test]
    fn pop_before_push_flagged() {
        let mut t = CTrace::new(1);
        t.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 2, 4, 5));
        let v = check(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::PopBeforePush);
        assert!(v[0].message.contains("q2"), "{}", v[0].message);
    }

    #[test]
    fn leaked_queue_slots_flagged() {
        let mut t = CTrace::new(1);
        t.record(push(Actor::Core(0), Actor::Compressor(0), 0, 8, 5));
        t.record(pop(Actor::Compressor(0), Actor::Compressor(0), 0, 4, 6));
        let v = check(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::QueueSlotLeak);
        assert!(v[0].message.contains('4'), "{}", v[0].message);
    }

    #[test]
    fn balanced_queues_are_clean() {
        let mut t = CTrace::new(1);
        for _ in 0..3 {
            t.record(push(Actor::Core(0), Actor::Fetcher(0), 1, 4, 0));
            t.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 1, 4, 1));
        }
        assert!(check(&t).is_empty());
    }

    #[test]
    fn window_oversubscription_flagged() {
        let mut ctx = RunContext::empty(2);
        ctx.core_mlp = 10;
        ctx.outstanding = vec![3, 11];
        let v = analyze(&CTrace::new(2), &ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::WindowLeak);
        assert!(v[0].message.contains("core 1"), "{}", v[0].message);
    }

    #[test]
    fn accounting_mismatch_flagged_per_direction() {
        let empty = CTrace::new(1);
        let mut ctx = RunContext::empty(1);
        ctx.traffic.record_read(DataClass::Updates, 128);
        ctx.dram_fetch_lines = 2; // matches: 2 * 64 == 128
        assert!(analyze(&empty, &ctx).is_empty());

        ctx.dram_fetch_lines = 3; // one line fetched with no class
        let v = analyze(&empty, &ctx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::LineAccounting);

        let mut ctx2 = RunContext::empty(1);
        ctx2.traffic.record_write(DataClass::Frontier, 64);
        let v2 = analyze(&empty, &ctx2);
        assert_eq!(v2.len(), 1);
        assert!(v2[0].message.contains("write"), "{}", v2[0].message);
    }

    #[test]
    fn render_is_compiler_style() {
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x900, 4, MemOp::Store, 10));
        t.record(rec(Actor::Fetcher(1), 0x900, 4, MemOp::Store, 20));
        let out = render(&check(&t));
        assert!(out.contains("error[S001]"), "{out}");
        assert!(out.contains("  --> "), "{out}");
        assert!(out.contains("= help:"), "{out}");
        assert!(out.contains("1 sanitizer violation(s)"), "{out}");
    }

    #[test]
    fn codes_are_dense_and_unique() {
        let mut seen = HashSet::new();
        for c in Code::all() {
            assert!(seen.insert(c.as_str()));
            assert!(c.as_str().starts_with('S'));
            assert!(!c.summary().is_empty());
            assert!(!c.hint().is_empty());
            assert!(!c.why().is_empty());
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn clean_trace_analyzes_silent() {
        assert!(check(&CTrace::new(4)).is_empty());
    }

    // The two `compressed_analysis_matches_legacy_*` tests expect exactly
    // the verdicts the flat-trace analysis this path replaced reported on
    // the same events.

    #[test]
    fn compressed_analysis_matches_legacy_on_racy_traces() {
        let mut ctx = RunContext::empty(2);
        ctx.core_mlp = 1;
        ctx.outstanding = vec![0, 2];
        ctx.dram_fetch_lines = 1;
        let mut t = CTrace::new(2);
        t.record(rec(Actor::Core(0), 0x100, 4, MemOp::Store, 10));
        t.record(rec(Actor::Compressor(1), 0x100, 4, MemOp::Store, 20));
        t.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 2, 4, 5));
        t.record(push(Actor::Core(0), Actor::Compressor(0), 0, 8, 6));
        // Races, then queue checks (S003 before the S005 leaks), then the
        // window and accounting checks.
        let v = analyze(&t, &ctx);
        assert_eq!(codes(&v), ["S001", "S003", "S005", "S006", "S007"]);
        assert_eq!(
            v[2].message,
            "queue q0 of compressor 0 ends the run holding 8 quarter-word(s)"
        );
    }

    #[test]
    fn compressed_analysis_matches_legacy_across_chunk_boundaries() {
        // A balanced push/pop loop long enough to span several chunks,
        // then a push that fills its chunk with barriers behind it, and a
        // pop that underflows that queue plus a race in the unsealed tail:
        // both folds must carry their state across chunk boundaries.
        let mut t = CTrace::new(2);
        for i in 0..3 * CHUNK_EVENTS as u64 {
            t.record(push(Actor::Core(0), Actor::Fetcher(0), 1, 4, 2 * i));
            t.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 1, 4, 2 * i + 1));
        }
        t.record(push(Actor::Core(0), Actor::Fetcher(0), 1, 4, 1));
        for cycle in 1..CHUNK_EVENTS as u64 {
            t.record(TraceEvent::Barrier { cycle });
        }
        t.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 1, 8, 2));
        t.record(rec(Actor::Core(0), 0xA00, 4, MemOp::Store, 1));
        t.record(rec(Actor::Core(1), 0xA00, 4, MemOp::Store, 2));
        assert_eq!(t.chunks().len(), 7);
        let v = check(&t);
        assert_eq!(codes(&v), ["S001", "S003"]);
        assert_eq!(
            v[1].message,
            "pop of 8 quarter-words from queue q1 of fetcher 0 which held only 4"
        );
    }

    #[test]
    fn reordered_chunks_report_s010() {
        let mut ct = barriers(2 * CHUNK_EVENTS);
        ct.chunks_mut().swap(0, 1);
        let v = check(&ct);
        assert_eq!(codes(&v), ["S010", "S010"], "{}", render(&v));
        assert!(v[0].message.contains("sequence number"), "{}", v[0].message);
        assert!(render(&v).contains("error[S010]"));
    }

    #[test]
    fn duplicated_chunk_reports_s010() {
        let mut ct = barriers(2 * CHUNK_EVENTS);
        let dup = ct.chunks()[0].clone();
        ct.chunks_mut().insert(1, dup);
        let v = check(&ct);
        assert!(v.iter().any(|x| x.code == Code::TraceIntegrity), "{v:?}");
    }

    #[test]
    fn undecodable_chunk_reports_s010_not_panic() {
        let mut ct = barriers(CHUNK_EVENTS);
        let b = &mut ct.chunks_mut()[0].bytes;
        let len = b.len();
        b.truncate(len / 2);
        let v = check(&ct);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, Code::TraceIntegrity);
        assert!(
            v[0].message.contains("failed to decode"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn corrupted_copy_of_a_repeated_chunk_reports_s010() {
        // Four byte-identical chunks; damage the third without changing
        // its length. It must be decoded, not trusted as a repeat.
        let mut ct = CTrace::new(1);
        for _ in 0..2 * CHUNK_EVENTS {
            ct.record(push(Actor::Core(0), Actor::Fetcher(0), 0, 4, 7));
            ct.record(pop(Actor::Fetcher(0), Actor::Fetcher(0), 0, 4, 7));
        }
        assert_eq!(ct.chunks().len(), 4);
        assert!(ct.chunks().iter().all(|c| c.bytes == ct.chunks()[0].bytes));
        assert!(check(&ct).is_empty());

        ct.chunks_mut()[2].bytes[0] ^= 0xFF;
        let v = check(&ct);
        assert_eq!(v.len(), 1, "{}", render(&v));
        assert_eq!(v[0].code, Code::TraceIntegrity);
        assert!(
            v[0].message.starts_with("trace chunk 2 failed to decode"),
            "{}",
            v[0].message
        );
    }
}
