//! Static analysis ("lint") for DCL programs.
//!
//! [`lint`] runs over any [`Pipeline`] — built in code or parsed from text —
//! and returns structured [`Diagnostic`]s with stable codes (`E0xx` hard
//! errors, `W0xx` warnings), the offending operator or queue, an optional
//! source line from the parser, and a one-line fix hint. [`render`] formats a
//! diagnostic list in rustc style.
//!
//! The checks go beyond the structural validation that
//! [`PipelineBuilder::build`](crate::dcl::PipelineBuilder::build) always
//! enforced (cardinality, references, single producer/consumer, acyclicity):
//!
//! * **Deadlock freedom** (`E013`, `E014`, `E019`): every queue must be able
//!   to hold the largest atomic burst its producer emits in one firing
//!   (a ≤ 32-byte segment, or a 4-quarter chunk marker) and the largest
//!   per-firing demand of its consumer — otherwise the engine's round-robin
//!   scheduler can never fire the operator and the pipeline wedges. `E019`
//!   aggregates these per-queue faults into the core-visible consequence: a
//!   core-input → core-output path that can never drain.
//! * **Chunk-marker discipline** (`E015`, `E016`): operators that consume
//!   marker-delimited chunks ([`Decompress`](OperatorKind::Decompress),
//!   [`Compress`](OperatorKind::Compress), and append-mode
//!   [`MemQueue`](OperatorKind::MemQueue)) only flush on a marker, so a
//!   marker-less upstream stream starves them forever; and marker values
//!   that address MemQueue bins must stay within `num_queues`. (Markers are
//!   a distinct item kind on the queue bus, so they are always
//!   distinguishable from data words; only their *values* need checking.)
//! * **Width compatibility** (`E012`, `E017`): element/index widths must be
//!   powers of two that divide the 32-byte firing width — anything else
//!   breaks the burst accounting above — and the width produced into a queue
//!   must agree with what its consumer decodes.
//! * **Dead operators and unreachable queues** (`E018`, `W001`, `W002`):
//!   sinks with declared outputs starve their consumers (the hardware never
//!   pushes from a stream-writer), dangling queues waste scratchpad, and
//!   transforms with no outputs compute chunks nobody reads.
//! * **Scratchpad budget** (`W003`): declared queue words are checked
//!   against the per-engine scratchpad
//!   ([`DEFAULT_SCRATCHPAD_BYTES`]);
//!   the engine rescales on load, so oversubscription is a warning, not an
//!   error.
//! * **Traffic-class consistency** (`W004`): one base address tagged with
//!   two different [`DataClass`]es splits one stream's traffic across
//!   compression/placement policies.
//!
//! `build()` keeps its contract: diagnostics of [`Severity::Error`] deny the
//! build, warnings pass through. The full diagnostic registry is documented
//! in `DESIGN.md`.

use crate::dcl::{
    MemQueueMode, OperatorKind, OperatorSpec, Pipeline, QueueSpec, DEFAULT_SCRATCHPAD_BYTES,
    MAX_OPERATORS, MAX_QUEUES,
};
use crate::QueueId;
use spzip_mem::DataClass;
use std::collections::BTreeMap;
use std::fmt;

/// Largest payload one firing can move, in quarter-words (32 bytes —
/// `func::FIRE_BYTES`).
pub(crate) const FIRING_QUARTERS: u32 = 32;
/// Queue cost of a chunk marker, in quarter-words.
pub(crate) const MARKER_QUARTERS: u32 = 4;
/// Largest single item the core enqueues (a u64), in quarter-words.
pub(crate) const CORE_ENQUEUE_QUARTERS: u32 = 8;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal: the program builds and runs.
    Warning,
    /// The program is rejected by [`PipelineBuilder::build`](crate::dcl::PipelineBuilder::build).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Declares the lint-family registry, one row per code in numeric order:
/// `CODE: "summary", why: "...", fix: "...";`. [`Code`] (each variant
/// documented with its summary), [`Code::all`] and the text accessors all
/// come from these rows, so a new code is one row here plus its row in
/// DESIGN.md's registry tables, which a drift test holds to `summary()`.
macro_rules! registry {
    ($($code:ident: $summary:literal, why: $why:literal, fix: $fix:literal;)+) => {
        /// Stable diagnostic codes. `E0xx` are hard errors, `W0xx` warnings,
        /// `P0xx` performance predictions, `B0xx` shape-and-bounds violations,
        /// `A0xx` codec-selection advisories, `D0xx` liveness (whole-pipeline
        /// deadlock) violations, `V0xx` translation-validation (rewrite
        /// equivalence) violations; codes are never renumbered so tools can
        /// match on them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Code {
            $(#[doc = $summary] $code,)+
        }

        impl Code {
            /// Every code in the registry, in numeric order.
            pub fn all() -> &'static [Code] {
                &[$(Code::$code),+]
            }
        }

        /// The registry rows, indexed by `Code as usize`.
        const ROWS: &[Row] = &[$(Row {
            id: stringify!($code),
            summary: $summary,
            why: $why,
            fix: $fix,
        }),+];
    };
}

/// One registry row: a code's stable id and its three texts.
struct Row {
    id: &'static str,
    summary: &'static str,
    why: &'static str,
    fix: &'static str,
}

registry! {
    E001: "program declares no queues",
        why: "a pipeline with no queues has no data path; the engine would load an empty program",
        fix: "declare at least one queue and connect an operator to it";
    E002: "program declares no operators",
        why: "queues without operators never move data; the configuration is inert",
        fix: "add at least one operator reading a declared queue";
    E003: "queue count exceeds the hardware limit",
        why: "the engine scratchpad multiplexes a fixed register file of 16 queue contexts",
        fix: "merge or remove queues until at most 16 remain";
    E004: "operator count exceeds the hardware limit",
        why: "the engine round-robins over at most 16 operator contexts",
        fix: "split the pipeline across engines or drop operators";
    E005: "operator references an undeclared queue",
        why: "an undeclared queue id would index past the scratchpad map at load time",
        fix: "declare the queue before referencing it";
    E006: "operator writes its own input queue",
        why: "an operator feeding its own input livelocks: it can never drain what it grows",
        fix: "route the output to a distinct downstream queue";
    E007: "queue has multiple producers",
        why: "queues are single-producer in hardware; two writers would interleave corrupt streams",
        fix: "give each producer its own queue and merge downstream";
    E008: "queue has multiple consumers",
        why: "queues are single-consumer; two readers would steal items from each other",
        fix: "fan out explicitly with separate output queues";
    E009: "operator graph contains a cycle",
        why: "the DCL graph must be acyclic: a cycle of queues deadlocks as soon as one fills",
        fix: "break the cycle; feed loops back through the core instead";
    E010: "MemQueue declares zero in-memory queues",
        why: "a MemQueue with zero bins can accept no marker and would divide by zero on binning",
        fix: "declare num_queues >= 1";
    E011: "MemQueue stride smaller than one chunk",
        why: "bins are strided in memory; a stride under one chunk makes neighbours overwrite",
        fix: "raise the stride to at least chunk_elems x elem_bytes";
    E012: "invalid element or index width",
        why: "widths outside 1..=8 bytes cannot be packed into the 32-bit queue words",
        fix: "use a supported element/index width (1, 2, 4, or 8)";
    E013: "queue cannot hold its producer's largest burst",
        why: "a producer's atomic burst larger than the queue can never be placed: instant wedge",
        fix: "grow the queue past the burst (granule + marker) size";
    E014: "queue cannot hold its consumer's per-firing demand",
        why: "a consumer demanding more than the queue holds can never fire",
        fix: "grow the queue past the consumer's per-firing demand";
    E015: "marker-less stream feeds a chunk-delimited consumer",
        why: "chunk-delimited consumers block forever on streams that never carry a marker",
        fix: "tag the upstream range with marker= or insert a marker source";
    E016: "marker value outside the MemQueue bin range",
        why: "a bin id outside 0..num_queues would write through the wrong tail pointer",
        fix: "clamp marker values to the declared bin range";
    E017: "element width disagrees across a queue edge",
        why: "width disagreement across an edge silently splits or merges values",
        fix: "make producer elem_bytes match the consumer's expectation";
    E018: "sink operator declares output queues",
        why: "sink operators (stream writers, append MemQueues) emit nothing; outputs would starve",
        fix: "remove the output queues or use a non-sink operator";
    E019: "core-input to core-output path can wedge",
        why: "a core-fed chain re-entering the core can fill end-to-end and stall the \
             in-order core",
        fix: "bound the chain's amplification or grow its queues";
    W001: "queue has no producer and no consumer",
        why: "an unconnected queue still reserves scratchpad words other queues could use",
        fix: "remove the declaration to reclaim scratchpad";
    W002: "transform discards its output",
        why: "a transform with no consumer does work whose result is dropped",
        fix: "route the output somewhere, or delete the operator";
    W003: "declared queue words exceed the engine scratchpad",
        why: "declared words beyond the scratchpad are rescaled down at load; capacities shrink",
        fix: "keep total declared words within the engine budget";
    W004: "one base address used with different traffic classes",
        why: "one address range under two traffic classes double-counts bytes in the model",
        fix: "give each base address a single consistent class";
    P001: "queue leaves no slack over producer burst plus consumer demand",
        why: "with no slack over burst + demand, the queue ping-pongs between full and empty",
        fix: "add headroom so the producer can run ahead";
    P002: "compression scheme predicted to inflate its stream",
        why: "a codec predicted to inflate its stream costs bandwidth twice for negative gain",
        fix: "pick a different codec or store the stream raw";
    P003: "pipeline predicted no faster than software traversal",
        why: "if the pipeline beats software by nothing, the engine is pure overhead",
        fix: "restructure the traversal or keep the software path";
    P004: "engine service rate predicted to bottleneck a DRAM-bound pipeline",
        why: "an engine slower than DRAM turns a bandwidth-bound loop into a compute-bound one",
        fix: "reduce per-item operator work or split across engines";
    P005: "chunk-marker overhead dominates a queue's bandwidth",
        why: "tiny chunks spend their bandwidth on markers instead of payload",
        fix: "batch more elements per chunk";
    P006: "MemQueue chunks predicted far below a cache line",
        why: "chunks far below a cache line make every bin append a partial-line write",
        fix: "raise chunk_elems toward a line-sized chunk";
    B001: "operator base address lies outside every declared region",
        why: "a base outside every declared region reads memory the layout does not own",
        fix: "declare the region or fix the base address";
    B002: "index or bin stream can exceed its target's declared extent",
        why: "an index stream that can exceed the target extent is an out-of-bounds access in wait",
        fix: "bound the index stream or grow the declared extent";
    B003: "operator element width disagrees with the region's declared width",
        why: "width disagreement with the region reinterprets element boundaries",
        fix: "match operator elem_bytes to the region's declared width";
    B004: "codec framing disagrees between stream and region",
        why: "framing disagreement decodes one codec's frames with another's decoder",
        fix: "align the stream codec with the region's declared framing";
    B005: "framed/raw stream kind mismatches its consumer",
        why: "a framed stream into a raw consumer (or vice versa) misparses lengths as data",
        fix: "insert or remove the (de)compression stage";
    B006: "decoded element width disagrees across a queue edge",
        why: "decoded widths must agree across an edge or downstream elements shear",
        fix: "reconcile decoder output width with the consumer";
    B007: "core input or index stream has no declared shape",
        why: "an undeclared shape leaves the verifier blind where bugs are most likely",
        fix: "declare the stream's region and element width in the schema";
    B008: "MemQueue footprint exceeds its region's extent",
        why: "a MemQueue whose bins outgrow the region tramples whatever follows it",
        fix: "grow the region or shrink bins x stride";
    A001: "a different codec is predicted measurably faster on this queue",
        why: "the rate model predicts another codec measurably faster on this queue's data",
        fix: "apply the suggested rewiring (dcl-perf --suggest prints it)";
    A002: "compression predicted net-negative on this queue",
        why: "compression on this queue is predicted net-negative: codec time exceeds bytes saved",
        fix: "drop the compression stage on this stream";
    A003: "suggestion suppressed: verifier rejects the rewired pipeline",
        why: "the winning rewiring fails lint/shape verification, so the advisory is withheld",
        fix: "fix the cited verifier errors to unlock the suggestion";
    D001: "cyclic wait among engine operators: a capacity cycle wedges",
        why: "every queue passes its local capacity lint, yet a cycle of full queues across \
             multiple operators and the core's in-order stream wedges the whole pipeline; only \
             the whole-pipeline model check sees it",
        fix: "grow the queues on the cited cycle, shorten per-chunk input runs, or drain core \
             outputs more often (the counterexample schedule shows the exact wedge)";
    D002: "cyclic wait through the core's coupled enqueue/dequeue",
        why: "the core's enqueues and dequeues retire in program order, so one operator's \
             backpressure can block the very dequeue that would relieve it",
        fix: "drain the operator's output before enqueueing the next batch, or grow the two \
             queues in the cycle";
    D003: "chunk consumer starves waiting for a marker that never arrives",
        why: "a chunk consumer buffers state it can only release on a marker; a stream that \
             never carries one starves it forever even though data keeps flowing",
        fix: "route a marker-bearing stream into the operator (marker= on the upstream range, \
             or close bins from the core)";
    D004: "fan-out imbalance: one full output blocks the others forever",
        why: "fan-out firings are push-all atomic: one full output blocks emission to every \
             sibling, so an unbalanced branch wedges all branches",
        fix: "drain the branches at similar rates or grow the slow branch's queue";
    D005: "chunk in flight exceeds downstream capacity mid-stream",
        why: "a marker-delimited flush is emitted atomically; if the accumulated chunk exceeds \
             a downstream capacity it can never be placed, regardless of scheduling",
        fix: "shrink the chunk (chunk_elems, values per marker) or grow the downstream queue \
             past the flush size";
    D006: "pipeline admits no initial firing from its start state",
        why: "if the drive protocol's first enqueue already exceeds its queue, nothing ever \
             fires; buildable pipelines avoid this via the capacity lints, so D006 guards \
             model-level capacity overrides",
        fix: "raise the first core-input queue's capacity above one input item";
    V001: "observable sink carries a different value stream after the rewrite",
        why: "the translation validator's symbolic chains for this sink disagree after the \
             rewrite in a way no certified codec roundtrip explains: the pipeline computes \
             a different value stream",
        fix: "compare the two witness chains in the message; restore the dropped or altered \
             stage, or re-certify the codec roundtrip that no longer cancels";
    V002: "rewrite pairs a codec with a transform that is not its inverse",
        why: "a decode must be the formal inverse of the encode (or declared framing) that \
             produced its bytes; pairing different codecs decodes garbage — the exact \
             wrong-answer failure transparent compression must exclude",
        fix: "swap both sides of an internal compress/decompress pair together, or re-encode \
             the stored region so its framing matches the transform";
    V003: "rewrite drops or duplicates a value stream",
        why: "the rewritten sink consumes a different core-input stream (or a stream is \
             dropped or duplicated), so the sink observes values from the wrong source",
        fix: "reconnect the operator to the queue it consumed before the rewrite; rewrites \
             may change transforms, never the stream wiring";
    V004: "rewrite changes an observable element width",
        why: "the chains match shape-for-shape but an element width changed, so the sink \
             reinterprets the same bytes at a different granularity",
        fix: "keep element widths fixed across the rewrite, or change producer and consumer \
             widths together";
    V005: "rewrite reorders an indirection chain",
        why: "the same fetch/transform atoms appear in a different order; indirections are \
             uninterpreted functions and A[B[i]] is not B[A[i]]",
        fix: "restore the original operator order — reordering is only sound for stages the \
             validator can prove commute, which indirection chains never do";
    V006: "rewrite changes the set of observable sinks",
        why: "an observable sink (memory writer or terminal queue) exists on one side only, \
             so the rewrite silently drops or invents output",
        fix: "preserve the full sink set: every memory-writing operator and core-dequeued \
             queue of the original must survive the rewrite";
}

impl Code {
    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// The stable textual form, e.g. `"E013"`.
    pub fn as_str(&self) -> &'static str {
        self.row().id
    }

    /// Errors deny `build()`; warnings pass through. `P0xx` performance
    /// predictions (emitted by [`perf`](crate::perf), never by [`lint`])
    /// are warnings: the pipeline runs correctly, just not as fast or as
    /// small as intended. `B0xx` shape violations (emitted by
    /// [`shape`](crate::shape), never by [`lint`]) are errors — the
    /// pipeline reads or writes memory its declared layout does not give
    /// it — but since they need a [`MemorySchema`](crate::shape::MemorySchema)
    /// they cannot be raised by `build()` itself. `A0xx` codec-selection
    /// advisories (emitted by [`suggest`](crate::suggest)) are warnings:
    /// they recommend a rewiring, they never fail a build or a CI gate.
    /// `D0xx` liveness violations (emitted by
    /// [`liveness`](crate::liveness), never by [`lint`]) are errors — the
    /// pipeline provably wedges under its only schedule — but, like shape
    /// codes, they come from a separate verification pass, not `build()`.
    /// `V0xx` translation-validation violations (emitted by
    /// [`equiv`](crate::equiv), never by [`lint`]) are errors — a rewrite
    /// changed what an observable sink carries — raised when two
    /// pipelines are compared, so again outside `build()`.
    pub fn severity(&self) -> Severity {
        if matches!(self.as_str().as_bytes()[0], b'E' | b'B' | b'D' | b'V') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }

    /// One-line description of what the code means (the registry entry).
    pub fn summary(&self) -> &'static str {
        self.row().summary
    }

    /// Why the code matters: the `--explain` prose.
    pub fn why(&self) -> &'static str {
        self.row().why
    }

    /// How to fix it, in one line.
    pub fn fix(&self) -> &'static str {
        self.row().fix
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// The program as a whole.
    Program,
    /// A queue, by id.
    Queue(QueueId),
    /// An operator, by definition index.
    Operator(usize),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Program => write!(f, "program"),
            Site::Queue(q) => write!(f, "queue q{q}"),
            Site::Operator(i) => write!(f, "operator {i}"),
        }
    }
}

/// One finding from the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code; severity derives from it.
    pub code: Code,
    /// The offending operator or queue.
    pub site: Site,
    /// Source line in the `.dcl` text, when the pipeline was parsed.
    pub line: Option<u32>,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// One-line suggested fix.
    pub hint: Option<String>,
}

impl Diagnostic {
    pub(crate) fn new(code: Code, site: Site, line: Option<u32>, message: String) -> Self {
        Diagnostic {
            code,
            site,
            line,
            message,
            hint: None,
        }
    }

    pub(crate) fn hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Error or warning, per the code registry.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.code, self.message)
    }
}

/// Renders diagnostics in rustc style:
///
/// ```text
/// error[E013]: queue q1 (4 words) cannot hold its producer's burst of 32 quarters
///   --> line 3 (queue q1)
///    = help: declare at least 8 words
/// ```
pub fn render(diags: &[Diagnostic]) -> String {
    let diags = sorted_for_render(diags);
    let mut out = String::new();
    for d in &diags {
        out.push_str(&format!("{d}\n"));
        match d.line {
            Some(l) => out.push_str(&format!("  --> line {l} ({})\n", d.site)),
            None => out.push_str(&format!("  --> {}\n", d.site)),
        }
        if let Some(h) = &d.hint {
            out.push_str(&format!("   = help: {h}\n"));
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if errors > 0 {
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    } else if warnings > 0 {
        out.push_str(&format!("{warnings} warning(s)\n"));
    }
    out
}

/// Deterministic rendering order: a stable sort by (code, site, source
/// line), so multi-pass output — lint, shape, perf, and liveness
/// diagnostics folded into one list — is identical across runs no matter
/// how the passes interleaved. Within one (code, site, line) key the
/// original emission order is preserved (the sort is stable).
pub fn sorted_for_render(diags: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut out = diags.to_vec();
    out.sort_by_key(|d| {
        let (site_rank, site_idx) = match d.site {
            Site::Program => (0u8, 0usize),
            Site::Queue(q) => (1, q as usize),
            Site::Operator(i) => (2, i),
        };
        (d.code.as_str(), site_rank, site_idx, d.line)
    });
    out
}

/// Escapes `s` for inclusion in a JSON string literal. Public so tools
/// wrapping [`render_json`] output in named envelopes (`dcl-lint`,
/// `dcl-perf`) escape their keys the same way.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON array — the machine-readable form shared
/// by `dcl-lint --format json` and `dcl-perf --format json`. Each element
/// carries the stable code, severity, site, optional source line, message,
/// and optional hint; the field set is append-only so downstream tooling
/// can match on it.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let diags = sorted_for_render(diags);
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"code\":\"{}\",\"severity\":\"{}\",\"site\":\"{}\"",
            d.code,
            d.severity(),
            json_escape(&d.site.to_string()),
        ));
        match d.line {
            Some(l) => out.push_str(&format!(",\"line\":{l}")),
            None => out.push_str(",\"line\":null"),
        }
        out.push_str(&format!(",\"message\":\"{}\"", json_escape(&d.message)));
        match &d.hint {
            Some(h) => out.push_str(&format!(",\"hint\":\"{}\"}}", json_escape(h))),
            None => out.push_str(",\"hint\":null}"),
        }
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Lints a built pipeline. Built pipelines already passed the error-level
/// checks, so this returns warnings only — parse-time spans, when present,
/// are carried through.
pub fn lint(p: &Pipeline) -> Vec<Diagnostic> {
    lint_parts(
        p.queues(),
        p.operators(),
        p.queue_lines(),
        p.operator_lines(),
    )
}

/// True if any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

/// Largest number of quarter-words `kind` can push into each of its output
/// queues in a single firing; `None` for sinks that never push.
pub(crate) fn producer_burst_quarters(kind: &OperatorKind) -> Option<u32> {
    match kind {
        // Range fetches emit <=32-byte segments, then a 4-quarter marker.
        OperatorKind::RangeFetch { .. } => Some(FIRING_QUARTERS),
        // One element (or start/end pair) per firing, plus passed markers.
        OperatorKind::Indirect {
            elem_bytes, pair, ..
        } => {
            let payload = if *pair { 2 } else { 1 } * *elem_bytes as u32;
            Some(payload.clamp(MARKER_QUARTERS, FIRING_QUARTERS))
        }
        // Transforms emit in <=32-byte firings (func::emit_transformed).
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => Some(FIRING_QUARTERS),
        // Buffer-mode MQUs stream flushed bins in <=32-byte segments.
        OperatorKind::MemQueue {
            mode: MemQueueMode::Buffer,
            ..
        } => Some(FIRING_QUARTERS),
        // Stream writers and append MQUs never push downstream.
        OperatorKind::StreamWrite { .. }
        | OperatorKind::MemQueue {
            mode: MemQueueMode::Append,
            ..
        } => None,
    }
}

/// Largest number of quarter-words one firing of `kind` removes from its
/// input queue. A firing only happens once its demand is resident, so the
/// input queue must be at least this big.
pub(crate) fn consumer_demand_quarters(kind: &OperatorKind) -> u32 {
    match kind {
        // One index / value / marker item per firing (<= a u64's 8 quarters).
        OperatorKind::RangeFetch { .. }
        | OperatorKind::Indirect { .. }
        | OperatorKind::StreamWrite { .. } => CORE_ENQUEUE_QUARTERS,
        // Chunk transforms spread a chunk's cost over <=32-quarter firings.
        OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => FIRING_QUARTERS,
        OperatorKind::MemQueue { mode, .. } => match mode {
            // (bin id, payload) pairs: two items per firing.
            MemQueueMode::Buffer => 2 * CORE_ENQUEUE_QUARTERS,
            // Chunk cost spread over <=32-quarter write firings.
            MemQueueMode::Append => FIRING_QUARTERS,
        },
    }
}

/// Byte width of the values `kind` pushes downstream, when fixed.
fn output_width(kind: &OperatorKind) -> Option<u8> {
    match kind {
        OperatorKind::RangeFetch { elem_bytes, .. }
        | OperatorKind::Indirect { elem_bytes, .. }
        | OperatorKind::Decompress { elem_bytes, .. } => Some(*elem_bytes),
        // Compressors emit raw bytes.
        OperatorKind::Compress { .. } => Some(1),
        OperatorKind::MemQueue {
            mode: MemQueueMode::Buffer,
            elem_bytes,
            ..
        } => Some(*elem_bytes),
        OperatorKind::StreamWrite { .. }
        | OperatorKind::MemQueue {
            mode: MemQueueMode::Append,
            ..
        } => None,
    }
}

/// Byte width `kind` expects on its input queue, when it decodes one.
/// `None` means any width is accepted (indices, raw streams, id/payload
/// pairs).
fn expected_input_width(kind: &OperatorKind) -> Option<u8> {
    match kind {
        OperatorKind::RangeFetch { idx_bytes, .. } => Some(*idx_bytes),
        OperatorKind::Compress { elem_bytes, .. } => Some(*elem_bytes),
        // Compressed streams are byte streams.
        OperatorKind::Decompress { .. } => Some(1),
        OperatorKind::MemQueue {
            mode: MemQueueMode::Append,
            ..
        } => Some(1),
        OperatorKind::Indirect { .. }
        | OperatorKind::StreamWrite { .. }
        | OperatorKind::MemQueue {
            mode: MemQueueMode::Buffer,
            ..
        } => None,
    }
}

/// Whether `kind` only makes progress on marker-delimited chunks: without a
/// marker-emitting producer somewhere upstream it accumulates forever.
pub(crate) fn requires_markers(kind: &OperatorKind) -> bool {
    matches!(
        kind,
        OperatorKind::Decompress { .. }
            | OperatorKind::Compress { .. }
            | OperatorKind::MemQueue {
                mode: MemQueueMode::Append,
                ..
            }
    )
}

/// Element widths the fetch/transform datapaths support: they must divide
/// the 32-byte firing width or burst accounting (and the functional model's
/// chunking) breaks.
fn valid_elem_width(w: u8) -> bool {
    matches!(w, 1 | 2 | 4 | 8)
}

/// Core-side index widths.
fn valid_idx_width(w: u8) -> bool {
    matches!(w, 4 | 8)
}

/// The linter proper, over raw parts so both [`Pipeline`] and the builder
/// can run it. Deterministic: same input yields the same diagnostics in the
/// same order (no hash-order dependence anywhere).
pub(crate) fn lint_parts(
    queues: &[QueueSpec],
    operators: &[OperatorSpec],
    queue_lines: &[Option<u32>],
    op_lines: &[Option<u32>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nq = queues.len();
    let no = operators.len();
    let qline = |q: QueueId| queue_lines.get(q as usize).copied().flatten();
    let oline = |i: usize| op_lines.get(i).copied().flatten();

    // ---- phase A: cardinality, references, per-operator configuration ----
    if nq == 0 {
        diags.push(
            Diagnostic::new(Code::E001, Site::Program, None, "no queues declared".into())
                .hint("declare at least one queue for the core to enqueue into"),
        );
    }
    if no == 0 {
        diags.push(
            Diagnostic::new(
                Code::E002,
                Site::Program,
                None,
                "no operators declared".into(),
            )
            .hint("a pipeline needs at least one operator"),
        );
    }
    if nq == 0 || no == 0 {
        return diags;
    }
    if nq > MAX_QUEUES {
        diags.push(
            Diagnostic::new(
                Code::E003,
                Site::Program,
                None,
                format!("{nq} queues exceed the hardware limit of {MAX_QUEUES}"),
            )
            .hint("split the program across engines or merge streams"),
        );
    }
    if no > MAX_OPERATORS {
        diags.push(
            Diagnostic::new(
                Code::E004,
                Site::Program,
                None,
                format!("{no} operators exceed the hardware limit of {MAX_OPERATORS}"),
            )
            .hint("split the program across engines"),
        );
    }

    let mut bad_ref = false;
    for (i, op) in operators.iter().enumerate() {
        if op.input as usize >= nq {
            diags.push(
                Diagnostic::new(
                    Code::E005,
                    Site::Operator(i),
                    oline(i),
                    format!(
                        "operator {i} ({}) reads undeclared queue {}",
                        op.kind.name(),
                        op.input
                    ),
                )
                .hint(format!("declare queue {} before using it", op.input)),
            );
            bad_ref = true;
        }
        for &o in &op.outputs {
            if o as usize >= nq {
                diags.push(
                    Diagnostic::new(
                        Code::E005,
                        Site::Operator(i),
                        oline(i),
                        format!(
                            "operator {i} ({}) writes undeclared queue {o}",
                            op.kind.name()
                        ),
                    )
                    .hint(format!("declare queue {o} before using it")),
                );
                bad_ref = true;
            } else if o == op.input {
                diags.push(
                    Diagnostic::new(
                        Code::E006,
                        Site::Operator(i),
                        oline(i),
                        format!(
                            "operator {i} ({}) writes its own input queue {o}",
                            op.kind.name()
                        ),
                    )
                    .hint("route the output through a distinct queue"),
                );
            }
        }
    }
    if bad_ref {
        // Downstream analyses index by queue id; stop here.
        return diags;
    }

    for (i, op) in operators.iter().enumerate() {
        match &op.kind {
            OperatorKind::RangeFetch {
                idx_bytes,
                elem_bytes,
                ..
            } => {
                if !valid_idx_width(*idx_bytes) {
                    diags.push(
                        Diagnostic::new(
                            Code::E012,
                            Site::Operator(i),
                            oline(i),
                            format!("operator {i} (range) has invalid idx_bytes {idx_bytes}"),
                        )
                        .hint("index widths must be 4 or 8 bytes"),
                    );
                }
                if !valid_elem_width(*elem_bytes) {
                    diags.push(
                        Diagnostic::new(
                            Code::E012,
                            Site::Operator(i),
                            oline(i),
                            format!("operator {i} (range) has invalid elem_bytes {elem_bytes}"),
                        )
                        .hint("element widths must be 1, 2, 4 or 8 bytes"),
                    );
                }
            }
            OperatorKind::Indirect { elem_bytes, .. }
            | OperatorKind::Decompress { elem_bytes, .. }
            | OperatorKind::Compress { elem_bytes, .. } => {
                if !valid_elem_width(*elem_bytes) {
                    diags.push(
                        Diagnostic::new(
                            Code::E012,
                            Site::Operator(i),
                            oline(i),
                            format!(
                                "operator {i} ({}) has invalid elem_bytes {elem_bytes}",
                                op.kind.name()
                            ),
                        )
                        .hint("element widths must be 1, 2, 4 or 8 bytes"),
                    );
                }
            }
            OperatorKind::MemQueue {
                num_queues,
                stride,
                chunk_elems,
                elem_bytes,
                mode,
                ..
            } => {
                if *num_queues == 0 {
                    diags.push(
                        Diagnostic::new(
                            Code::E010,
                            Site::Operator(i),
                            oline(i),
                            format!("operator {i} (memqueue) declares zero in-memory queues"),
                        )
                        .hint("set nq to the number of bins"),
                    );
                }
                if !valid_elem_width(*elem_bytes) {
                    diags.push(
                        Diagnostic::new(
                            Code::E012,
                            Site::Operator(i),
                            oline(i),
                            format!("operator {i} (memqueue) has invalid elem_bytes {elem_bytes}"),
                        )
                        .hint("element widths must be 1, 2, 4 or 8 bytes"),
                    );
                }
                if *mode == MemQueueMode::Buffer
                    && *stride < *chunk_elems as u64 * *elem_bytes as u64
                {
                    diags.push(
                        Diagnostic::new(
                            Code::E011,
                            Site::Operator(i),
                            oline(i),
                            format!(
                                "operator {i} (memqueue) stride {stride} is smaller than one \
                                 chunk ({chunk_elems} x {elem_bytes} bytes)",
                            ),
                        )
                        .hint("bins must hold at least one buffered chunk"),
                    );
                }
            }
            OperatorKind::StreamWrite { .. } => {}
        }
        // Sinks never push; declared outputs would starve their consumers.
        if producer_burst_quarters(&op.kind).is_none() && !op.outputs.is_empty() {
            diags.push(
                Diagnostic::new(
                    Code::E018,
                    Site::Operator(i),
                    oline(i),
                    format!(
                        "operator {i} ({}) is a sink but declares {} output queue(s)",
                        op.kind.name(),
                        op.outputs.len()
                    ),
                )
                .hint("sinks (streamwrite, append memqueue) take no outputs"),
            );
        }
        // Transforms that drop their result compute chunks nobody reads.
        if matches!(
            op.kind,
            OperatorKind::Decompress { .. } | OperatorKind::Compress { .. }
        ) && op.outputs.is_empty()
        {
            diags.push(
                Diagnostic::new(
                    Code::W002,
                    Site::Operator(i),
                    oline(i),
                    format!(
                        "operator {i} ({}) has no outputs: its result is discarded",
                        op.kind.name()
                    ),
                )
                .hint("connect an output queue or drop the operator"),
            );
        }
    }

    // ---- phase B: producer/consumer structure and acyclicity -------------
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); nq];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nq];
    for (i, op) in operators.iter().enumerate() {
        consumers[op.input as usize].push(i);
        for &o in &op.outputs {
            producers[o as usize].push(i);
        }
    }
    let mut structure_bad = false;
    for q in 0..nq {
        if producers[q].len() > 1 {
            diags.push(
                Diagnostic::new(
                    Code::E007,
                    Site::Queue(q as QueueId),
                    qline(q as QueueId),
                    format!("queue {q} has {} producers", producers[q].len()),
                )
                .hint("each queue takes exactly one producer; fan in through an operator"),
            );
            structure_bad = true;
        }
        if consumers[q].len() > 1 {
            diags.push(
                Diagnostic::new(
                    Code::E008,
                    Site::Queue(q as QueueId),
                    qline(q as QueueId),
                    format!("queue {q} has {} consumers", consumers[q].len()),
                )
                .hint("fan out by listing several outputs on the producer"),
            );
            structure_bad = true;
        }
        if producers[q].is_empty() && consumers[q].is_empty() {
            diags.push(
                Diagnostic::new(
                    Code::W001,
                    Site::Queue(q as QueueId),
                    qline(q as QueueId),
                    format!("queue {q} has no producer and no consumer"),
                )
                .hint("remove the declaration to reclaim scratchpad"),
            );
        }
    }

    // Kahn's algorithm over operator nodes; also yields a topological order
    // for the stream-property propagation below.
    let producer_of: Vec<Option<usize>> = (0..nq).map(|q| producers[q].first().copied()).collect();
    let mut indeg: Vec<u32> = operators
        .iter()
        .map(|op| u32::from(producer_of[op.input as usize].is_some()))
        .collect();
    let mut ready: Vec<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut topo = Vec::with_capacity(no);
    while let Some(i) = ready.pop() {
        topo.push(i);
        for &o in &operators[i].outputs {
            for &c in &consumers[o as usize] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(c);
                }
            }
        }
    }
    if topo.len() != no {
        diags.push(
            Diagnostic::new(
                Code::E009,
                Site::Program,
                None,
                "operator graph contains a cycle".into(),
            )
            .hint("DCL programs must be acyclic dataflow DAGs"),
        );
        structure_bad = true;
    }
    if structure_bad {
        // The semantic phase assumes single-producer/consumer DAG shape.
        return diags;
    }

    // ---- phase C: semantic stream analysis -------------------------------

    // E013: capacity vs producer burst (core enqueues for unproduced
    // queues). A queue smaller than one atomic burst can never accept the
    // firing that fills it: the producer stalls forever.
    for q in 0..nq {
        let cap_q = queues[q].capacity_words as u32 * 4;
        let (burst, what) = match producer_of[q] {
            Some(p) => match producer_burst_quarters(&operators[p].kind) {
                Some(b) => (b, format!("operator {p} ({})", operators[p].kind.name())),
                None => continue, // sink "producer": already E018
            },
            None if !consumers[q].is_empty() => (CORE_ENQUEUE_QUARTERS, "the core".to_string()),
            None => continue, // dangling: W001
        };
        if cap_q < burst {
            let need = burst.div_ceil(4);
            diags.push(
                Diagnostic::new(
                    Code::E013,
                    Site::Queue(q as QueueId),
                    qline(q as QueueId),
                    format!(
                        "queue {q} ({} words) cannot hold the largest burst {what} \
                         can emit in one firing ({burst} quarter-words): the pipeline deadlocks",
                        queues[q].capacity_words
                    ),
                )
                .hint(format!("declare at least {need} words")),
            );
        }
    }

    // E014: capacity vs consumer demand. A firing only launches once its
    // whole demand is resident; a smaller queue never reaches it.
    for q in 0..nq {
        let cap_q = queues[q].capacity_words as u32 * 4;
        let Some(&c) = consumers[q].first() else {
            continue;
        };
        let demand = consumer_demand_quarters(&operators[c].kind);
        if cap_q < demand {
            let need = demand.div_ceil(4);
            diags.push(
                Diagnostic::new(
                    Code::E014,
                    Site::Queue(q as QueueId),
                    qline(q as QueueId),
                    format!(
                        "queue {q} ({} words) cannot hold the {demand} quarter-words one \
                         firing of operator {c} ({}) consumes: the pipeline deadlocks",
                        queues[q].capacity_words,
                        operators[c].kind.name()
                    ),
                )
                .hint(format!("declare at least {need} words")),
            );
        }
    }

    // Stream properties propagated in topological order:
    //  - can the stream into queue q ever carry a chunk marker?
    //  - which constant marker values / bin-id bounds flow along it?
    let mut marker_capable = vec![false; nq];
    let mut marker_consts: Vec<Vec<u32>> = vec![Vec::new(); nq];
    let mut bin_bound: Vec<Option<u32>> = vec![None; nq];
    for q in 0..nq {
        if producer_of[q].is_none() && !consumers[q].is_empty() {
            // The core can enqueue markers directly.
            marker_capable[q] = true;
        }
    }
    for &i in &topo {
        let op = &operators[i];
        let inq = op.input as usize;
        let (capable, consts, bound) = match &op.kind {
            // A range fetch regenerates its stream (output items are
            // fetched elements, not input items); downstream chunk framing
            // must come from its own marker config, not from markers that
            // happen to survive pass-through two hops up.
            OperatorKind::RangeFetch { marker, .. } => {
                let mut consts = marker_consts[inq].clone();
                if let Some(m) = marker {
                    if !consts.contains(m) {
                        consts.push(*m);
                    }
                }
                (marker.is_some(), consts, bin_bound[inq])
            }
            // Indirections and transforms pass incoming markers through.
            OperatorKind::Indirect { .. }
            | OperatorKind::Decompress { .. }
            | OperatorKind::Compress { .. } => (
                marker_capable[inq],
                marker_consts[inq].clone(),
                bin_bound[inq],
            ),
            // Buffer MQUs re-emit flushed bins delimited by Marker(bin id).
            OperatorKind::MemQueue {
                mode: MemQueueMode::Buffer,
                num_queues,
                ..
            } => (true, Vec::new(), Some(*num_queues)),
            OperatorKind::StreamWrite { .. }
            | OperatorKind::MemQueue {
                mode: MemQueueMode::Append,
                ..
            } => (false, Vec::new(), None),
        };
        for &o in &op.outputs {
            marker_capable[o as usize] = capable;
            marker_consts[o as usize] = consts.clone();
            bin_bound[o as usize] = bound;
        }
    }

    // E015: chunk-delimited consumers need a marker-emitting producer
    // somewhere upstream, or they accumulate forever.
    for (i, op) in operators.iter().enumerate() {
        if requires_markers(&op.kind) && !marker_capable[op.input as usize] {
            diags.push(
                Diagnostic::new(
                    Code::E015,
                    Site::Operator(i),
                    oline(i),
                    format!(
                        "operator {i} ({}) consumes marker-delimited chunks but queue {} can \
                         never carry a marker: it would accumulate forever",
                        op.kind.name(),
                        op.input
                    ),
                )
                .hint("give an upstream range fetch a marker=N, or feed it from the core"),
            );
        }
    }

    // E016: marker values reaching a MemQueue address its bins.
    for (i, op) in operators.iter().enumerate() {
        if let OperatorKind::MemQueue { num_queues, .. } = &op.kind {
            let inq = op.input as usize;
            for &m in &marker_consts[inq] {
                if m >= *num_queues {
                    diags.push(
                        Diagnostic::new(
                            Code::E016,
                            Site::Operator(i),
                            oline(i),
                            format!(
                                "operator {i} (memqueue) has {num_queues} bins but an upstream \
                                 marker carries bin id {m}",
                            ),
                        )
                        .hint("markers reaching a memqueue select bins: keep them < nq"),
                    );
                }
            }
            if let Some(b) = bin_bound[inq] {
                if b > *num_queues {
                    diags.push(
                        Diagnostic::new(
                            Code::E016,
                            Site::Operator(i),
                            oline(i),
                            format!(
                                "operator {i} (memqueue) has {num_queues} bins but an upstream \
                                 memqueue emits bin ids up to {}",
                                b - 1
                            ),
                        )
                        .hint("downstream memqueues need at least as many bins as upstream"),
                    );
                }
            }
        }
    }

    // E017: width agreement across each queue edge.
    for (i, op) in operators.iter().enumerate() {
        let Some(expect) = expected_input_width(&op.kind) else {
            continue;
        };
        let Some(p) = producer_of[op.input as usize] else {
            continue; // core-fed: the software side chooses widths
        };
        let Some(got) = output_width(&operators[p].kind) else {
            continue;
        };
        if got != expect {
            diags.push(
                Diagnostic::new(
                    Code::E017,
                    Site::Operator(i),
                    oline(i),
                    format!(
                        "operator {i} ({}) decodes {expect}-byte values from queue {} but \
                         operator {p} ({}) produces {got}-byte values",
                        op.kind.name(),
                        op.input,
                        operators[p].kind.name()
                    ),
                )
                .hint("make elem_bytes/idx_bytes agree across the queue"),
            );
        }
    }

    // W004: one base address, two traffic classes.
    let mut base_class: BTreeMap<u64, (DataClass, usize)> = BTreeMap::new();
    let mut check_base = |base: u64, class: DataClass, i: usize, diags: &mut Vec<Diagnostic>| {
        match base_class.get(&base) {
            None => {
                base_class.insert(base, (class, i));
            }
            Some(&(first_class, first_op)) if first_class != class => {
                diags.push(
                    Diagnostic::new(
                        Code::W004,
                        Site::Operator(i),
                        oline(i),
                        format!(
                            "operator {i} ({}) tags base {base:#x} as {class:?} but operator \
                             {first_op} tagged it {first_class:?}",
                            operators[i].kind.name()
                        ),
                    )
                    .hint("one stream, one traffic class: split arrays or align the classes"),
                );
                // Report each conflicting base once.
                base_class.insert(base, (class, i));
            }
            Some(_) => {}
        }
    };
    for (i, op) in operators.iter().enumerate() {
        match &op.kind {
            OperatorKind::RangeFetch { base, class, .. }
            | OperatorKind::Indirect { base, class, .. }
            | OperatorKind::StreamWrite { base, class } => check_base(*base, *class, i, &mut diags),
            OperatorKind::MemQueue {
                data_base,
                meta_addr,
                class,
                ..
            } => {
                check_base(*data_base, *class, i, &mut diags);
                check_base(*meta_addr, *class, i, &mut diags);
            }
            OperatorKind::Decompress { .. } | OperatorKind::Compress { .. } => {}
        }
    }

    // W003: scratchpad budget. The engine rescales declared capacities on
    // load, so oversubscription distorts relative sizes rather than failing.
    let total_words: u32 = queues.iter().map(|q| q.capacity_words as u32).sum();
    let budget_words = DEFAULT_SCRATCHPAD_BYTES / 4;
    if total_words > budget_words {
        diags.push(
            Diagnostic::new(
                Code::W003,
                Site::Program,
                None,
                format!(
                    "declared queues total {total_words} words but the engine scratchpad \
                     holds {budget_words}: capacities will be scaled down on load",
                ),
            )
            .hint("shrink declared capacities to keep their ratios meaningful"),
        );
    }

    // E019: fold the per-queue deadlocks into the core-visible consequence —
    // a core-input -> core-output path through a wedged operator.
    let blocked: Vec<usize> = diags
        .iter()
        .filter_map(|d| match (d.code, d.site) {
            // E013 wedges the producer mid-burst (or, for a core-fed
            // queue, starves the consumer); E014 wedges the consumer.
            (Code::E013, Site::Queue(q)) => {
                producer_of[q as usize].or_else(|| consumers[q as usize].first().copied())
            }
            (Code::E014, Site::Queue(q)) => consumers[q as usize].first().copied(),
            _ => None,
        })
        .collect();
    if !blocked.is_empty() {
        // forward[i] = ops reachable from i (inclusive); back likewise.
        let reach = |start: usize, forward: bool| -> Vec<bool> {
            let mut seen = vec![false; no];
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                if std::mem::replace(&mut seen[i], true) {
                    continue;
                }
                if forward {
                    for &o in &operators[i].outputs {
                        for &c in &consumers[o as usize] {
                            stack.push(c);
                        }
                    }
                } else if let Some(p) = producer_of[operators[i].input as usize] {
                    stack.push(p);
                }
            }
            seen
        };
        let core_in: Vec<QueueId> = (0..nq as QueueId)
            .filter(|&q| producer_of[q as usize].is_none() && !consumers[q as usize].is_empty())
            .collect();
        let core_out: Vec<QueueId> = (0..nq as QueueId)
            .filter(|&q| producer_of[q as usize].is_some() && consumers[q as usize].is_empty())
            .collect();
        for &ci in &core_in {
            let fwd = reach(consumers[ci as usize][0], true);
            let mut found = None;
            'outer: for &co in &core_out {
                let back = reach(producer_of[co as usize].unwrap(), false);
                for &b in &blocked {
                    if fwd[b] && back[b] {
                        found = Some((co, b));
                        break 'outer;
                    }
                }
            }
            if let Some((co, b)) = found {
                diags.push(
                    Diagnostic::new(
                        Code::E019,
                        Site::Queue(ci),
                        qline(ci),
                        format!(
                            "the path from core input queue {ci} to core output queue {co} \
                             crosses operator {b} ({}), which can never fire: data enqueued \
                             at {ci} wedges the engine",
                            operators[b].kind.name()
                        ),
                    )
                    .hint("fix the E013/E014 capacities on this path"),
                );
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::PipelineBuilder;
    use spzip_compress::CodecKind;

    fn range8(base: u64, marker: Option<u32>) -> OperatorKind {
        OperatorKind::RangeFetch {
            base,
            idx_bytes: 8,
            elem_bytes: 8,
            input: crate::dcl::RangeInput::Pairs,
            marker,
            class: DataClass::AdjacencyMatrix,
        }
    }

    fn codes(b: &PipelineBuilder) -> Vec<&'static str> {
        b.lint().iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn registry_is_consistent() {
        let mut prev = "";
        for c in Code::all() {
            let (family, number) = c.as_str().split_at(1);
            let number: u32 = number.parse().expect("three digits");
            // Within a family the rows run 001, 002, ... with no gap.
            let expected = match prev.strip_prefix(family) {
                Some(p) => p.parse::<u32>().expect("three digits") + 1,
                None => 1,
            };
            assert_eq!(number, expected, "{c}");
            prev = c.as_str();
            assert!(!c.summary().is_empty() && !c.why().is_empty() && !c.fix().is_empty());
            match c.as_str().as_bytes()[0] {
                b'E' | b'B' | b'D' | b'V' => assert_eq!(c.severity(), Severity::Error),
                b'W' | b'P' | b'A' => assert_eq!(c.severity(), Severity::Warning),
                _ => panic!("bad code prefix"),
            }
        }
    }

    #[test]
    fn e001_e002_empty_program() {
        let b = PipelineBuilder::new();
        assert_eq!(codes(&b), vec!["E001", "E002"]);
    }

    #[test]
    fn e002_queue_without_operators() {
        let mut b = PipelineBuilder::new();
        b.queue(8);
        assert_eq!(codes(&b), vec!["E002"]);
    }

    #[test]
    fn e003_too_many_queues() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        for _ in 0..15 {
            b.queue(8);
        }
        b.operator(range8(0, None), q0, vec![q1]);
        assert!(codes(&b).contains(&"E003"));
    }

    #[test]
    fn e004_too_many_operators() {
        let mut b = PipelineBuilder::new();
        let mut prev = b.queue(8);
        for _ in 0..17 {
            let next = b.queue(8);
            b.operator(range8(0, None), prev, vec![next]);
            prev = next;
        }
        assert!(codes(&b).contains(&"E004"));
    }

    #[test]
    fn e005_undeclared_queue() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(range8(0, None), q0, vec![9]);
        assert_eq!(codes(&b), vec!["E005"]);
    }

    #[test]
    fn e006_self_loop() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(range8(0, None), q0, vec![q0]);
        assert!(codes(&b).contains(&"E006"));
    }

    #[test]
    fn e007_multiple_producers() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        let q2 = b.queue(8);
        b.operator(range8(0, None), q0, vec![q2]);
        b.operator(range8(0, None), q1, vec![q2]);
        assert!(codes(&b).contains(&"E007"));
    }

    #[test]
    fn e008_multiple_consumers() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        let q2 = b.queue(8);
        b.operator(range8(0, None), q0, vec![q1]);
        b.operator(range8(0, None), q0, vec![q2]);
        assert!(codes(&b).contains(&"E008"));
    }

    #[test]
    fn e009_cycle() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        b.operator(range8(0, None), q0, vec![q1]);
        b.operator(range8(0, None), q1, vec![q0]);
        assert!(codes(&b).contains(&"E009"));
    }

    #[test]
    fn e010_memqueue_zero_bins() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 0,
                data_base: 0x1000,
                stride: 4096,
                meta_addr: 0x8000,
                chunk_elems: 32,
                elem_bytes: 8,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            q0,
            vec![],
        );
        assert!(codes(&b).contains(&"E010"));
    }

    #[test]
    fn e011_memqueue_stride_too_small() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 4,
                data_base: 0x1000,
                stride: 8,
                meta_addr: 0x8000,
                chunk_elems: 32,
                elem_bytes: 8,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            q0,
            vec![],
        );
        assert!(codes(&b).contains(&"E011"));
    }

    #[test]
    fn e012_invalid_widths() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 3,
                elem_bytes: 5,
                input: crate::dcl::RangeInput::Pairs,
                marker: None,
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        let cs = codes(&b);
        assert_eq!(cs.iter().filter(|c| **c == "E012").count(), 2);
    }

    #[test]
    fn e013_queue_smaller_than_burst() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(4); // 16 quarters < a 32-quarter fetch segment
        b.operator(range8(0, None), q0, vec![q1]);
        let cs = codes(&b);
        assert!(cs.contains(&"E013"), "{cs:?}");
    }

    #[test]
    fn e013_core_fed_queue_too_small() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(1); // 4 quarters < one u64 enqueue
        let q1 = b.queue(16);
        b.operator(range8(0, None), q0, vec![q1]);
        assert!(codes(&b).contains(&"E013"));
    }

    #[test]
    fn e014_queue_smaller_than_demand() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(4); // 16 quarters < a transform's 32-quarter firing
        let q1 = b.queue(16);
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
            },
            q0,
            vec![q1],
        );
        let cs = codes(&b);
        assert!(cs.contains(&"E014"), "{cs:?}");
        assert!(!cs.contains(&"E013"), "core burst fits 16 quarters: {cs:?}");
    }

    #[test]
    fn e015_markerless_stream_into_compressor() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 4,
                input: crate::dcl::RangeInput::Pairs,
                marker: None, // no chunk delimiters ever
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
                sort_chunks: false,
            },
            q1,
            vec![q2],
        );
        assert!(codes(&b).contains(&"E015"));
    }

    #[test]
    fn e016_marker_out_of_bin_range() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 1,
                input: crate::dcl::RangeInput::Pairs,
                marker: Some(9),
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 4,
                data_base: 0x1000,
                stride: 4096,
                meta_addr: 0x8000,
                chunk_elems: 32,
                elem_bytes: 8,
                mode: MemQueueMode::Append,
                class: DataClass::Updates,
            },
            q1,
            vec![],
        );
        assert!(codes(&b).contains(&"E016"));
    }

    #[test]
    fn e017_width_mismatch() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0,
                idx_bytes: 8,
                elem_bytes: 4, // produces 4-byte values...
                input: crate::dcl::RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        b.operator(range8(64, Some(0)), q1, vec![q2]); // ...decoded as 8-byte indices
        assert!(codes(&b).contains(&"E017"));
    }

    #[test]
    fn e018_sink_with_outputs() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        b.operator(
            OperatorKind::StreamWrite {
                base: 0x1000,
                class: DataClass::Other,
            },
            q0,
            vec![q1],
        );
        assert!(codes(&b).contains(&"E018"));
    }

    #[test]
    fn e019_wedged_core_path() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(4); // wedges mid-path
        let q2 = b.queue(16);
        b.operator(range8(0, None), q0, vec![q1]);
        b.operator(range8(64, None), q1, vec![q2]);
        let cs = codes(&b);
        assert!(cs.contains(&"E013"), "{cs:?}");
        assert!(cs.contains(&"E019"), "{cs:?}");
    }

    #[test]
    fn w001_dangling_queue() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        b.queue(8); // never referenced
        b.operator(range8(0, None), q0, vec![q1]);
        assert_eq!(codes(&b), vec!["W001"]);
    }

    #[test]
    fn w002_transform_discards_output() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
                sort_chunks: false,
            },
            q0,
            vec![],
        );
        assert!(codes(&b).contains(&"W002"));
    }

    #[test]
    fn w003_scratchpad_oversubscribed() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(300);
        let q1 = b.queue(300);
        b.operator(range8(0, None), q0, vec![q1]);
        assert!(codes(&b).contains(&"W003"));
    }

    #[test]
    fn w004_base_class_conflict() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        b.operator(range8(0x1000, None), q0, vec![q1]);
        b.operator(
            OperatorKind::Indirect {
                base: 0x1000,
                elem_bytes: 8,
                pair: false,
                class: DataClass::DestinationVertex,
            },
            q1,
            vec![q2],
        );
        assert!(codes(&b).contains(&"W004"));
    }

    #[test]
    fn every_w_warning_renders_with_hint() {
        // One minimal pipeline per warning path; each must render in the
        // rustc style with its code, a site line, and a help hint.
        let mut dangling = PipelineBuilder::new();
        let q0 = dangling.queue(8);
        let q1 = dangling.queue(16);
        dangling.queue(8);
        dangling.operator(range8(0, None), q0, vec![q1]);

        let mut discarded = PipelineBuilder::new();
        let q0 = discarded.queue(8);
        discarded.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
                sort_chunks: false,
            },
            q0,
            vec![],
        );

        let mut oversubscribed = PipelineBuilder::new();
        let q0 = oversubscribed.queue(300);
        let q1 = oversubscribed.queue(300);
        oversubscribed.operator(range8(0, None), q0, vec![q1]);

        let mut conflicted = PipelineBuilder::new();
        let q0 = conflicted.queue(8);
        let q1 = conflicted.queue(16);
        let q2 = conflicted.queue(16);
        conflicted.operator(range8(0x1000, None), q0, vec![q1]);
        conflicted.operator(
            OperatorKind::Indirect {
                base: 0x1000,
                elem_bytes: 8,
                pair: false,
                class: DataClass::DestinationVertex,
            },
            q1,
            vec![q2],
        );

        for (code, b) in [
            ("W001", &dangling),
            ("W002", &discarded),
            ("W003", &oversubscribed),
            ("W004", &conflicted),
        ] {
            let diags = b.lint();
            let d = diags
                .iter()
                .find(|d| d.code.as_str() == code)
                .unwrap_or_else(|| panic!("{code} did not fire: {:?}", codes(b)));
            assert_eq!(d.severity(), Severity::Warning);
            assert!(d.hint.is_some(), "{code} must carry a hint");
            let out = render(std::slice::from_ref(d));
            assert!(out.contains(&format!("warning[{code}]")), "{out}");
            assert!(out.contains("  --> "), "{out}");
            assert!(out.contains("   = help: "), "{out}");
            assert!(out.contains("1 warning(s)"), "{out}");
        }
    }

    #[test]
    fn render_order_is_sorted_by_code_then_site() {
        // Feed diagnostics deliberately out of order, as interleaved
        // lint/shape/perf/liveness passes would; both renderers must sort.
        let d = |code, site, line| Diagnostic::new(code, site, line, "x".into());
        let diags = vec![
            d(Code::W003, Site::Program, None),
            d(Code::E013, Site::Queue(2), Some(7)),
            d(Code::D001, Site::Program, None),
            d(Code::E013, Site::Queue(1), Some(3)),
            d(Code::B002, Site::Operator(4), None),
        ];
        let order: Vec<String> = sorted_for_render(&diags)
            .iter()
            .map(|d| format!("{} {}", d.code, d.site))
            .collect();
        assert_eq!(
            order,
            vec![
                "B002 operator 4",
                "D001 program",
                "E013 queue q1",
                "E013 queue q2",
                "W003 program",
            ]
        );
        for renderer in [render(&diags), render_json(&diags)] {
            let pos = |c: &str| {
                renderer
                    .find(c)
                    .unwrap_or_else(|| panic!("{c}: {renderer}"))
            };
            assert!(pos("B002") < pos("D001"), "{renderer}");
            assert!(pos("D001") < pos("E013"), "{renderer}");
            assert!(pos("queue q1") < pos("queue q2"), "{renderer}");
            assert!(pos("queue q2") < pos("W003"), "{renderer}");
        }
    }

    #[test]
    fn clean_pipeline_has_no_diagnostics() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(32);
        b.operator(range8(0x1000, None), q0, vec![q1]);
        b.operator(range8(0x2000, Some(0)), q1, vec![q2]);
        assert!(codes(&b).is_empty());
    }

    #[test]
    fn render_is_rustc_style() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(4);
        b.operator(range8(0, None), q0, vec![q1]);
        let out = render(&b.lint());
        assert!(out.contains("error[E013]"), "{out}");
        assert!(out.contains("= help:"), "{out}");
        assert!(out.contains("--> queue q1"), "{out}");
    }
}
