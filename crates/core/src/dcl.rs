//! The Dataflow Configuration Language (DCL).
//!
//! A DCL program is an acyclic graph of simple, composable operators that
//! communicate through queues (Sec. II-A). Memory-access operators fetch or
//! write data streams; (de)compression operators transform streams; each
//! operator takes one input stream and fans out to one or more consumers.
//!
//! A [`Pipeline`] validates the hardware's structural constraints: at most
//! 16 operators and 16 queues (the paper's implementation), single producer
//! and single consumer per queue, acyclicity, and scratchpad capacity.
//! Validation is the error-level half of the static analyzer in
//! [`crate::lint`]; [`PipelineBuilder::build`] rejects any program with an
//! `E0xx` diagnostic and lets `W0xx` warnings pass.

use crate::lint::{self, Diagnostic, Severity};
use crate::QueueId;
use spzip_compress::CodecKind;
use spzip_mem::DataClass;
use std::fmt;

/// Hardware limit on operator contexts per engine (Sec. III-B).
pub const MAX_OPERATORS: usize = 16;
/// Hardware limit on queues per engine.
pub const MAX_QUEUES: usize = 16;
/// Default scratchpad size in bytes (Sec. III-E: 2 KB per engine).
pub const DEFAULT_SCRATCHPAD_BYTES: u32 = 2048;

/// How a range-fetch operator consumes its input indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeInput {
    /// Consecutive `(start, end)` pairs at the input.
    Pairs,
    /// Each input is the end of the previous range and the start of the
    /// next (Fig. 11's `useEndAsNextStart`): offsets arrays.
    Consecutive,
}

/// Whether a MemQueue operator buffers chunks or appends to large bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemQueueMode {
    /// Build fixed-size chunks per queue, emitting each full (or closed)
    /// chunk downstream — the first MQU of Fig. 14.
    Buffer,
    /// Append incoming chunks to per-queue growable storage — the second
    /// MQU of Fig. 14 (compressed bins).
    Append,
}

/// An operator's behaviour and static configuration (its "context").
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorKind {
    /// Fetches `A[i..j]` for each input range (Sec. II-A).
    RangeFetch {
        /// Base address of the array.
        base: u64,
        /// Bytes per input index (4 or 8).
        idx_bytes: u8,
        /// Bytes per fetched element.
        elem_bytes: u8,
        /// Input mode.
        input: RangeInput,
        /// Emit a marker with this value after each range.
        marker: Option<u32>,
        /// Traffic class of the fetched data.
        class: DataClass,
    },
    /// Fetches `A[i]` for each input index; with no output queues this is
    /// the prefetch-only form of Fig. 5.
    Indirect {
        /// Base address of the array.
        base: u64,
        /// Bytes per fetched element.
        elem_bytes: u8,
        /// Also fetch `A[i+1]` and emit both — how the Fig. 6 BFS pipeline
        /// turns a non-contiguous offsets access into a (start, end) pair
        /// for the downstream neighbor range fetch.
        pair: bool,
        /// Traffic class.
        class: DataClass,
    },
    /// Decompresses marker-delimited byte chunks into values.
    Decompress {
        /// Codec of the stored stream.
        codec: CodecKind,
        /// Bytes per decoded output element.
        elem_bytes: u8,
    },
    /// Compresses marker-delimited value chunks into bytes.
    Compress {
        /// Codec to encode with.
        codec: CodecKind,
        /// Bytes per input element.
        elem_bytes: u8,
        /// Sort each chunk before encoding (order-insensitive data,
        /// Sec. III-C).
        sort_chunks: bool,
    },
    /// Writes its input stream sequentially to memory from `base`,
    /// tracking the length (the compressor's stream-writer unit).
    StreamWrite {
        /// Start address of the output stream.
        base: u64,
        /// Traffic class of the written data.
        class: DataClass,
    },
    /// Memory-backed queues (the MQU, Sec. III-C): maintains `num_queues`
    /// queues in conventional memory.
    MemQueue {
        /// Number of in-memory queues (bins).
        num_queues: u32,
        /// Base address of queue 0's storage.
        data_base: u64,
        /// Byte stride between consecutive queues' storage.
        stride: u64,
        /// Address of the tail-pointer array (8 B per queue).
        meta_addr: u64,
        /// Elements per emitted chunk (Buffer mode).
        chunk_elems: u32,
        /// Bytes per element (Buffer mode; Append mode moves raw bytes).
        elem_bytes: u8,
        /// Buffering or appending behaviour.
        mode: MemQueueMode,
        /// Traffic class of queue storage.
        class: DataClass,
    },
}

impl OperatorKind {
    /// Short operator name for display and parsing.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::RangeFetch { .. } => "range",
            OperatorKind::Indirect { .. } => "indirect",
            OperatorKind::Decompress { .. } => "decompress",
            OperatorKind::Compress { .. } => "compress",
            OperatorKind::StreamWrite { .. } => "streamwrite",
            OperatorKind::MemQueue { .. } => "memqueue",
        }
    }
}

/// An operator instance: kind + input queue + output queues.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Behaviour and configuration.
    pub kind: OperatorKind,
    /// The single input queue.
    pub input: QueueId,
    /// Output queues (the stream fans out to all of them). May be empty
    /// (prefetch-only indirections, stream writers, append MQUs).
    pub outputs: Vec<QueueId>,
}

/// A queue declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSpec {
    /// Capacity in 32-bit words within the scratchpad.
    pub capacity_words: u16,
}

/// Validation failure for a DCL program: the error-severity subset of the
/// [`crate::lint`] diagnostics the program produced (warnings ride along
/// for context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    diagnostics: Vec<Diagnostic>,
}

impl ValidateError {
    fn new(diagnostics: Vec<Diagnostic>) -> Self {
        debug_assert!(lint::has_errors(&diagnostics));
        ValidateError { diagnostics }
    }

    /// Every diagnostic the linter produced, errors and warnings alike.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The first error-severity diagnostic (there is always at least one).
    pub fn first_error(&self) -> &Diagnostic {
        self.diagnostics
            .iter()
            .find(|d| d.severity() == Severity::Error)
            .expect("a ValidateError holds at least one error diagnostic")
    }

    /// Full rustc-style report of every diagnostic.
    pub fn render(&self) -> String {
        lint::render(&self.diagnostics)
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.first_error();
        write!(f, "invalid DCL program: [{}] {}", first.code, first.message)?;
        let more = self.diagnostics.len() - 1;
        if more > 0 {
            write!(f, " (+{more} more diagnostics)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidateError {}

/// A validated DCL program.
///
/// # Examples
///
/// Building the CSR-traversal pipeline of Fig. 2 (two chained range
/// fetches). A built pipeline has no error-level diagnostics by
/// construction, and this one lints completely clean (no warnings either):
///
/// ```
/// use spzip_core::dcl::*;
/// use spzip_core::lint;
/// use spzip_mem::DataClass;
///
/// let mut b = PipelineBuilder::new();
/// let input = b.queue(16);
/// let offsets_q = b.queue(32);
/// let rows_q = b.queue(64);
/// b.operator(
///     OperatorKind::RangeFetch {
///         base: 0x1000, idx_bytes: 8, elem_bytes: 8,
///         input: RangeInput::Pairs, marker: None,
///         class: DataClass::AdjacencyMatrix,
///     },
///     input, vec![offsets_q],
/// );
/// b.operator(
///     OperatorKind::RangeFetch {
///         base: 0x2000, idx_bytes: 8, elem_bytes: 8,
///         input: RangeInput::Consecutive, marker: Some(0),
///         class: DataClass::AdjacencyMatrix,
///     },
///     offsets_q, vec![rows_q],
/// );
/// let pipeline = b.build().unwrap();
/// assert_eq!(pipeline.operators().len(), 2);
/// assert!(lint::lint(&pipeline).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    queues: Vec<QueueSpec>,
    operators: Vec<OperatorSpec>,
    /// Source line of each queue declaration, when parsed from text.
    queue_lines: Vec<Option<u32>>,
    /// Source line of each operator, when parsed from text.
    op_lines: Vec<Option<u32>>,
}

/// Source spans are diagnostics metadata, not program content: two
/// pipelines are equal if their queues and operators match, wherever they
/// came from (so `parse(to_text(p)) == p` holds).
impl PartialEq for Pipeline {
    fn eq(&self, other: &Self) -> bool {
        self.queues == other.queues && self.operators == other.operators
    }
}

impl Pipeline {
    /// The queue declarations.
    pub fn queues(&self) -> &[QueueSpec] {
        &self.queues
    }

    /// The operator instances, in definition order.
    pub fn operators(&self) -> &[OperatorSpec] {
        &self.operators
    }

    /// Source line of each queue declaration (`None` for pipelines built in
    /// code). Feeds diagnostic spans.
    pub fn queue_lines(&self) -> &[Option<u32>] {
        &self.queue_lines
    }

    /// Source line of each operator (`None` for pipelines built in code).
    pub fn operator_lines(&self) -> &[Option<u32>] {
        &self.op_lines
    }

    /// Queues read by an operator but produced by none: the core's
    /// enqueue targets.
    pub fn core_input_queues(&self) -> Vec<QueueId> {
        (0..self.queues.len() as QueueId)
            .filter(|q| self.operators.iter().any(|op| op.input == *q))
            .filter(|q| !self.operators.iter().any(|op| op.outputs.contains(q)))
            .collect()
    }

    /// Queues produced by operators but consumed by no operator: the
    /// core's dequeue sources.
    pub fn core_output_queues(&self) -> Vec<QueueId> {
        (0..self.queues.len() as QueueId)
            .filter(|q| self.operators.iter().any(|op| op.outputs.contains(q)))
            .filter(|q| !self.operators.iter().any(|op| op.input == *q))
            .collect()
    }

    /// Total scratchpad words declared.
    pub fn scratchpad_words(&self) -> u32 {
        self.queues.iter().map(|q| q.capacity_words as u32).sum()
    }

    /// Scales every queue capacity by `factor`, re-validating the result:
    /// a capacity-only rewrite for the static passes and their tests. The
    /// Fig. 21 scratchpad sweep does not use it; the engine rescales queues
    /// itself when it loads a program into the scratchpad size that
    /// `MachineSpec::with_fetcher_scratchpad` sets.
    ///
    /// # Errors
    ///
    /// Aggressive down-scaling can shrink a queue below the largest atomic
    /// burst its producer emits, which statically deadlocks the pipeline;
    /// the scaled program is re-linted and any error (typically `E013` or
    /// `E014`) is returned instead of a pipeline that would wedge the
    /// engine model. The rewired pipeline is also re-checked by the
    /// [`crate::liveness`] model checker, so whole-pipeline wedges the
    /// local lints miss come back as `D0xx` errors, not watchdog trips,
    /// and certified equivalent to `self` by the [`crate::equiv`]
    /// translation validator (capacity changes never alter dataflow, so a
    /// `V0xx` here would indicate a validator or builder bug).
    pub fn scale_queues(&self, factor: f64) -> Result<Pipeline, ValidateError> {
        let mut p = self.clone();
        for q in &mut p.queues {
            q.capacity_words = ((q.capacity_words as f64 * factor) as u16).max(4);
        }
        self.revalidate(p)
    }

    /// Returns a copy with transform operator `op`'s codec replaced (the
    /// codec-selection rewiring primitive of [`crate::suggest`]),
    /// re-validating the result.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] if the rewired program no longer lints
    /// error-clean, fails the [`crate::liveness`] model check, or is
    /// refuted by the [`crate::equiv`] translation validator (`V0xx`):
    /// boundary swaps — a compress feeding storage, a decompress fed from
    /// storage — certify under the rewiring contract (the caller
    /// re-encodes the stored stream, see
    /// [`crate::suggest::certify`]), but swapping only one side of
    /// an internal compress/decompress pair breaks the roundtrip and is
    /// rejected here.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range or names an operator that is
    /// neither `compress` nor `decompress` — a codec swap on a fetch or
    /// writer is a caller bug, not a recoverable condition.
    pub fn with_op_codec(&self, op: usize, codec: CodecKind) -> Result<Pipeline, ValidateError> {
        let mut p = self.clone();
        match &mut p.operators[op].kind {
            OperatorKind::Decompress { codec: c, .. } | OperatorKind::Compress { codec: c, .. } => {
                *c = codec;
            }
            other => panic!(
                "operator {op} ({}) carries no codec to replace",
                other.name()
            ),
        }
        self.revalidate(p)
    }

    /// Re-validates `p`, a rewiring of `self`: it must lint error-clean,
    /// pass the [`crate::liveness`] model check and be certified
    /// equivalent to `self` by the [`crate::equiv`] translation validator.
    /// The first stage that fails returns its diagnostics.
    fn revalidate(&self, p: Pipeline) -> Result<Pipeline, ValidateError> {
        let diags = lint::lint_parts(&p.queues, &p.operators, &p.queue_lines, &p.op_lines);
        if lint::has_errors(&diags) {
            return Err(ValidateError::new(diags));
        }
        let live = crate::liveness::verify(&p);
        if !live.is_clean() {
            return Err(ValidateError::new(live.diagnostics()));
        }
        let equiv = crate::equiv::validate(&crate::equiv::EquivInput::new(self, &p));
        if !equiv.is_clean() {
            return Err(ValidateError::new(equiv.diagnostics()));
        }
        Ok(p)
    }
}

/// Incremental builder for [`Pipeline`].
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    queues: Vec<QueueSpec>,
    operators: Vec<OperatorSpec>,
    queue_lines: Vec<Option<u32>>,
    op_lines: Vec<Option<u32>>,
}

impl PipelineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a queue of `capacity_words` 32-bit words, returning its id.
    pub fn queue(&mut self, capacity_words: u16) -> QueueId {
        let id = self.queues.len() as QueueId;
        self.queues.push(QueueSpec { capacity_words });
        self.queue_lines.push(None);
        id
    }

    /// Like [`queue`](Self::queue), recording the source line the
    /// declaration came from so diagnostics can point at it.
    pub fn queue_at(&mut self, capacity_words: u16, line: u32) -> QueueId {
        let id = self.queue(capacity_words);
        self.queue_lines[id as usize] = Some(line);
        id
    }

    /// Adds an operator reading `input` and fanning out to `outputs`.
    pub fn operator(
        &mut self,
        kind: OperatorKind,
        input: QueueId,
        outputs: Vec<QueueId>,
    ) -> &mut Self {
        self.operators.push(OperatorSpec {
            kind,
            input,
            outputs,
        });
        self.op_lines.push(None);
        self
    }

    /// Like [`operator`](Self::operator), recording the source line.
    pub fn operator_at(
        &mut self,
        kind: OperatorKind,
        input: QueueId,
        outputs: Vec<QueueId>,
        line: u32,
    ) -> &mut Self {
        self.operator(kind, input, outputs);
        *self.op_lines.last_mut().unwrap() = Some(line);
        self
    }

    /// Replaces the outputs of the operator currently producing `q` —
    /// used when a stage's fan-out is only known after later stages are
    /// declared (e.g. adding a source-data consumer to the frontier
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if no declared operator produces `q`; the message lists each
    /// operator's index and fan-out so the missing edge is easy to spot.
    pub fn retarget_producer_of(&mut self, q: QueueId, new_outputs: Vec<QueueId>) -> &mut Self {
        let Some(idx) = self
            .operators
            .iter()
            .rposition(|op| op.outputs.contains(&q))
        else {
            let fanout: Vec<String> = self
                .operators
                .iter()
                .enumerate()
                .map(|(i, op)| format!("operator {i} ({}) -> {:?}", op.kind.name(), op.outputs))
                .collect();
            panic!(
                "no producer of queue {q} to retarget; declared fan-out: [{}]",
                fanout.join(", ")
            )
        };
        self.operators[idx].outputs = new_outputs;
        self
    }

    /// Runs the full static analysis on the program as declared so far,
    /// without consuming the builder. [`build`](Self::build) succeeds iff
    /// this returns no [`Severity::Error`] diagnostics.
    pub fn lint(&self) -> Vec<Diagnostic> {
        lint::lint_parts(
            &self.queues,
            &self.operators,
            &self.queue_lines,
            &self.op_lines,
        )
    }

    /// Validates and produces the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError`] carrying every lint diagnostic if any is
    /// error-severity: hardware limits, undeclared or multiply-connected
    /// queues, cycles, statically-deadlocking capacities, broken marker
    /// discipline, or width mismatches (see [`crate::lint`] for the code
    /// registry). Warning-severity diagnostics do not block the build.
    pub fn build(self) -> Result<Pipeline, ValidateError> {
        let diags = self.lint();
        if lint::has_errors(&diags) {
            return Err(ValidateError::new(diags));
        }
        Ok(Pipeline {
            queues: self.queues,
            operators: self.operators,
            queue_lines: self.queue_lines,
            op_lines: self.op_lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(base: u64) -> OperatorKind {
        OperatorKind::RangeFetch {
            base,
            idx_bytes: 8,
            elem_bytes: 8,
            input: RangeInput::Pairs,
            marker: Some(0),
            class: DataClass::AdjacencyMatrix,
        }
    }

    #[test]
    fn fig2_pipeline_builds() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(32);
        b.operator(range(0), q0, vec![q1]);
        b.operator(range(64), q1, vec![q2]);
        let p = b.build().unwrap();
        assert_eq!(p.core_input_queues(), vec![0]);
        assert_eq!(p.core_output_queues(), vec![2]);
        assert_eq!(p.scratchpad_words(), 56);
    }

    #[test]
    fn rejects_cycles() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        b.operator(range(0), q0, vec![q1]);
        b.operator(range(0), q1, vec![q0]);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_double_producer_and_consumer() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(8);
        b.operator(range(0), q0, vec![q1]);
        b.operator(range(0), q0, vec![q1]);
        let err = b.build().unwrap_err();
        let s = err.to_string();
        assert!(s.contains("producers") || s.contains("consumers"), "{s}");
    }

    #[test]
    fn rejects_undeclared_queues() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(range(0), q0, vec![7]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(range(0), q0, vec![q0]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_too_many_operators() {
        let mut b = PipelineBuilder::new();
        let mut prev = b.queue(4);
        for _ in 0..17 {
            let next = b.queue(8);
            b.operator(range(0), prev, vec![next]);
            prev = next;
        }
        // 18 queues also exceeds MAX_QUEUES; either error is acceptable,
        // but the message must mention a limit.
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn rejects_undersized_queue_with_deadlock_code() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(4); // 16 quarters < one 32-quarter fetch burst
        b.operator(range(0), q0, vec![q1]);
        let err = b.build().unwrap_err();
        assert_eq!(err.first_error().code.as_str(), "E013");
        assert!(err.to_string().contains("E013"), "{err}");
    }

    #[test]
    fn validate_error_exposes_all_diagnostics() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(4);
        b.queue(8); // dangling -> W001 rides along
        b.operator(range(0), q0, vec![q1]);
        let err = b.build().unwrap_err();
        assert!(err.diagnostics().len() >= 2);
        assert!(err.render().contains("warning[W001]"), "{}", err.render());
    }

    #[test]
    fn prefetch_only_indirection_is_valid() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::Indirect {
                base: 0,
                elem_bytes: 8,
                pair: false,
                class: DataClass::DestinationVertex,
            },
            q0,
            vec![],
        );
        let p = b.build().unwrap();
        assert!(p.core_output_queues().is_empty());
    }

    #[test]
    fn memqueue_stride_validation() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 4,
                data_base: 0,
                stride: 8, // too small for 32 x 8B chunks
                meta_addr: 4096,
                chunk_elems: 32,
                elem_bytes: 8,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            q0,
            vec![],
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn scale_queues_scales_capacity() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(100);
        let q1 = b.queue(50);
        b.operator(range(0), q0, vec![q1]);
        let p = b.build().unwrap();
        let doubled = p.scale_queues(2.0).unwrap();
        assert_eq!(doubled.queues()[0].capacity_words, 200);
        assert_eq!(doubled.queues()[1].capacity_words, 100);
    }

    #[test]
    fn scale_queues_rejects_statically_deadlocked_result() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(100);
        let q1 = b.queue(50);
        b.operator(range(0), q0, vec![q1]);
        let p = b.build().unwrap();
        // The .max(4)-word floor is below one 32-quarter fetch burst: this
        // used to produce a pipeline that wedged the engine model.
        let err = p.scale_queues(0.01).unwrap_err();
        assert_eq!(err.first_error().code.as_str(), "E013");
    }

    #[test]
    fn retarget_producer_chains_and_panics_richly() {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(8);
        let q1 = b.queue(16);
        let q2 = b.queue(16);
        b.operator(range(0), q0, vec![q1]);
        b.retarget_producer_of(q1, vec![q1, q2])
            .operator(range(64), q1, vec![]);
        let p = b.build().unwrap();
        assert_eq!(p.operators()[0].outputs, vec![q1, q2]);

        let msg = std::panic::catch_unwind(|| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(8);
            let q1 = b.queue(16);
            b.operator(range(0), q0, vec![q1]);
            b.retarget_producer_of(9, vec![q1]);
        })
        .unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("queue 9"), "{msg}");
        assert!(msg.contains("operator 0 (range)"), "{msg}");
    }

    #[test]
    fn operator_names() {
        assert_eq!(range(0).name(), "range");
        let d = OperatorKind::Decompress {
            codec: CodecKind::Delta,
            elem_bytes: 4,
        };
        assert_eq!(d.name(), "decompress");
    }
}
