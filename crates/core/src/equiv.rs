//! Translation validation for DCL rewrites (the seventh static pass).
//!
//! The repo rewrites pipelines — [`crate::suggest`] swaps codecs,
//! [`Pipeline::scale_queues`] rescales capacities — and this module proves
//! each rewrite sound instead of trusting it. Given two pipelines
//! (original and rewritten), [`validate`] computes a symbolic dataflow
//! summary per observable sink — the composition chain of transform
//! semantics feeding it, with compress/decompress as formal inverses per
//! codec and fetch/bin operators as uninterpreted functions over the
//! [`crate::shape`] region/width domain — and requires every sink to carry
//! the same value stream on both sides, modulo certified codec roundtrips.
//!
//! Observable sinks are memory-writing operators (`streamwrite`, both
//! MemQueue modes) and terminal queues (the core's dequeue sources);
//! prefetch-only indirections observe nothing and are ignored. Divergence
//! surfaces as the `V001`–`V006` error family through the
//! [`crate::lint`] machinery, each diagnostic carrying a two-sided
//! witness: the divergent symbolic chains, rendered side by side.
//!
//! "Modulo certified codec roundtrips" is what lets honest codec swaps
//! certify: an `encode(c)` immediately undone by `decode(c)` cancels, a
//! framed-region fetch feeding `decode(c)` collapses to a plain decoded
//! fetch when the region's declared framing agrees (the rewiring contract
//! re-encodes storage, see [`crate::suggest::certify`]), and an
//! encode terminating at a memory sink is absorbed into the sink when the
//! destination region is framed with the same codec. Everything else —
//! non-inverse pairings, dropped or duplicated streams, width changes,
//! reordered indirection chains, sink-set changes — is a counterexample.

use crate::dcl::{MemQueueMode, OperatorKind, Pipeline};
use crate::lint::{self, Code, Diagnostic, Site};
use crate::shape::{Framing, MemorySchema};
use crate::QueueId;
use spzip_compress::CodecKind;
use std::collections::BTreeMap;
use std::fmt;

/// The two pipelines under comparison, plus (optionally) each side's
/// declared memory layout. Schemas sharpen the analysis: region names
/// replace raw base addresses in the symbolic chains, and declared
/// framings let the validator certify or refute codec roundtrips against
/// storage instead of trusting the rewiring contract.
#[derive(Debug, Clone, Copy)]
pub struct EquivInput<'a> {
    /// The pipeline before the rewrite.
    pub original: &'a Pipeline,
    /// The pipeline after the rewrite.
    pub rewritten: &'a Pipeline,
    /// Memory layout the original runs against, when declared.
    pub original_schema: Option<&'a MemorySchema>,
    /// Memory layout the rewritten pipeline runs against (the rewiring
    /// may have re-framed regions), when declared.
    pub rewritten_schema: Option<&'a MemorySchema>,
}

impl<'a> EquivInput<'a> {
    /// Schema-free comparison: codec roundtrips are certified against the
    /// rewiring contract (storage is re-encoded to match the new codec)
    /// rather than a declared layout.
    pub fn new(original: &'a Pipeline, rewritten: &'a Pipeline) -> Self {
        EquivInput {
            original,
            rewritten,
            original_schema: None,
            rewritten_schema: None,
        }
    }

    /// Comparison against declared layouts for both sides.
    pub fn with_schemas(
        original: &'a Pipeline,
        rewritten: &'a Pipeline,
        original_schema: &'a MemorySchema,
        rewritten_schema: &'a MemorySchema,
    ) -> Self {
        EquivInput {
            original,
            rewritten,
            original_schema: Some(original_schema),
            rewritten_schema: Some(rewritten_schema),
        }
    }
}

/// The validator's verdict.
#[derive(Debug, Clone)]
pub struct EquivReport {
    diagnostics: Vec<Diagnostic>,
    /// Observable sinks compared (matched across both pipelines).
    pub sinks_checked: usize,
}

impl EquivReport {
    /// The `V0xx` findings, in deterministic render order.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics.clone()
    }

    /// No divergence: every observable sink provably carries the same
    /// value stream in both pipelines.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One uninterpreted or algebraic step in a sink's dataflow chain,
/// source-to-sink order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Atom {
    /// Uninterpreted memory fetch: `op` is the fetch flavour (range,
    /// consecutive range, indirect, paired indirect), `target` the region
    /// (by name when a schema resolves the base, else the hex base).
    Fetch {
        op: &'static str,
        target: String,
        width: u8,
    },
    /// A framed-region fetch fused with its decode: yields the region's
    /// decoded values. The codec is dropped — storage and decode were
    /// certified to agree.
    FetchDecoded { target: String, width: u8 },
    /// Buffer-mode MemQueue: regroups the stream into `bins` per-bin
    /// chunk sequences (uninterpreted over bin ids).
    Bin {
        target: String,
        bins: u32,
        width: u8,
    },
    /// Chunk decode.
    Decode { codec: CodecKind, width: u8 },
    /// Chunk encode.
    Encode {
        codec: CodecKind,
        width: u8,
        sorted: bool,
    },
    /// Residue of a cancelled sorted encode/decode roundtrip: each chunk
    /// comes back sorted, which is observable.
    SortChunks { width: u8 },
    /// Residue of a same-codec roundtrip at mismatched widths.
    Reinterpret { from: u8, to: u8 },
    /// A refuted roundtrip: the stored stream (`stored` codec or framing)
    /// does not invert under `transform`.
    NonInverse {
        stored: String,
        transform: String,
        width: u8,
    },
}

impl Atom {
    /// Same constructor and same non-width configuration — the shapes a
    /// width-changing rewrite (`V004`) preserves.
    fn shape_eq(&self, other: &Atom) -> bool {
        match (self, other) {
            (
                Atom::Fetch {
                    op: a, target: t, ..
                },
                Atom::Fetch {
                    op: b, target: u, ..
                },
            ) => a == b && t == u,
            (Atom::FetchDecoded { target: t, .. }, Atom::FetchDecoded { target: u, .. }) => t == u,
            (
                Atom::Bin {
                    target: t, bins: a, ..
                },
                Atom::Bin {
                    target: u, bins: b, ..
                },
            ) => t == u && a == b,
            (Atom::Decode { codec: a, .. }, Atom::Decode { codec: b, .. }) => a == b,
            (
                Atom::Encode {
                    codec: a,
                    sorted: s,
                    ..
                },
                Atom::Encode {
                    codec: b,
                    sorted: z,
                    ..
                },
            ) => a == b && s == z,
            (Atom::SortChunks { .. }, Atom::SortChunks { .. }) => true,
            (Atom::Reinterpret { .. }, Atom::Reinterpret { .. }) => true,
            (
                Atom::NonInverse {
                    stored: a,
                    transform: t,
                    ..
                },
                Atom::NonInverse {
                    stored: b,
                    transform: u,
                    ..
                },
            ) => a == b && t == u,
            _ => false,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Fetch { op, target, width } => write!(f, "{op}[{target},w{width}]"),
            Atom::FetchDecoded { target, width } => write!(f, "fetchdec[{target},w{width}]"),
            Atom::Bin {
                target,
                bins,
                width,
            } => write!(f, "bin[{target},x{bins},w{width}]"),
            Atom::Decode { codec, width } => write!(f, "decode({codec},w{width})"),
            Atom::Encode {
                codec,
                width,
                sorted,
            } => {
                let s = if *sorted { ",sorted" } else { "" };
                write!(f, "encode({codec},w{width}{s})")
            }
            Atom::SortChunks { width } => write!(f, "sortchunks(w{width})"),
            Atom::Reinterpret { from, to } => write!(f, "reinterpret(w{from}->w{to})"),
            Atom::NonInverse {
                stored,
                transform,
                width,
            } => write!(f, "noninverse({stored}!={transform},w{width})"),
        }
    }
}

/// The symbolic summary of one observable sink: the core-input queue the
/// chain originates at, the normalized atom composition, and sink-level
/// flags (an absorbed terminal encode marks the sink `encoded`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SinkSummary {
    site: Site,
    source: QueueId,
    atoms: Vec<Atom>,
    /// Memory sink stores codec frames (certified against its region's
    /// framing); the chain's values are the decoded stream.
    encoded: bool,
}

impl SinkSummary {
    fn render(&self) -> String {
        let mut s = format!("in(q{})", self.source);
        for a in &self.atoms {
            s.push_str(&format!(" -> {a}"));
        }
        if self.encoded {
            s.push_str(" -> store(framed)");
        }
        s
    }
}

/// Resolves a base address to a region name when a schema declares one.
fn target_name(schema: Option<&MemorySchema>, base: u64) -> String {
    match schema.and_then(|s| s.region_containing(base)) {
        Some(r) => r.name.clone(),
        None => format!("0x{base:x}"),
    }
}

/// The declared framing of the region containing `base`, when known.
fn framing_at(schema: Option<&MemorySchema>, base: u64) -> Option<Framing> {
    schema
        .and_then(|s| s.region_containing(base))
        .map(|r| r.framing)
}

/// Walks upstream from (and including) operator `op`, collecting atoms in
/// source-to-sink order, and returns the core-input queue the chain
/// starts at. Chains are linear by construction: every operator has one
/// input queue and every queue one producer (lint `E007`).
fn walk_chain(p: &Pipeline, schema: Option<&MemorySchema>, op: usize) -> (QueueId, Vec<Atom>) {
    let mut atoms = Vec::new();
    let mut cur = op;
    loop {
        let spec = &p.operators()[cur];
        if let Some(atom) = atom_of(&spec.kind, schema) {
            atoms.push(atom);
        }
        let q = spec.input;
        match p.operators().iter().position(|o| o.outputs.contains(&q)) {
            Some(producer) => cur = producer,
            None => {
                atoms.reverse();
                return (q, atoms);
            }
        }
    }
}

/// The symbolic step an operator applies to its stream; `None` for pure
/// sinks (stream writers, append MQUs) which contribute no transform.
fn atom_of(kind: &OperatorKind, schema: Option<&MemorySchema>) -> Option<Atom> {
    match kind {
        OperatorKind::RangeFetch {
            base,
            elem_bytes,
            input,
            ..
        } => Some(Atom::Fetch {
            op: match input {
                crate::dcl::RangeInput::Pairs => "range",
                crate::dcl::RangeInput::Consecutive => "rangec",
            },
            target: target_name(schema, *base),
            width: *elem_bytes,
        }),
        OperatorKind::Indirect {
            base,
            elem_bytes,
            pair,
            ..
        } => Some(Atom::Fetch {
            op: if *pair { "indirect2" } else { "indirect" },
            target: target_name(schema, *base),
            width: *elem_bytes,
        }),
        OperatorKind::Decompress { codec, elem_bytes } => Some(Atom::Decode {
            codec: *codec,
            width: *elem_bytes,
        }),
        OperatorKind::Compress {
            codec,
            elem_bytes,
            sort_chunks,
        } => Some(Atom::Encode {
            codec: *codec,
            width: *elem_bytes,
            sorted: *sort_chunks,
        }),
        OperatorKind::MemQueue {
            mode: MemQueueMode::Buffer,
            num_queues,
            data_base,
            elem_bytes,
            ..
        } => Some(Atom::Bin {
            target: target_name(schema, *data_base),
            bins: *num_queues,
            width: *elem_bytes,
        }),
        OperatorKind::StreamWrite { .. }
        | OperatorKind::MemQueue {
            mode: MemQueueMode::Append,
            ..
        } => None,
    }
}

/// Rewrites the chain to a normal form: certified codec roundtrips cancel
/// (leaving their observable residues), framed fetches fuse with their
/// decodes, refuted pairings become explicit [`Atom::NonInverse`] markers.
/// Runs to fixpoint; each rule strictly shrinks or ends rewriting, so it
/// terminates.
fn normalize(mut atoms: Vec<Atom>, fetch_framings: &BTreeMap<String, Framing>) -> Vec<Atom> {
    loop {
        let mut changed = false;
        let mut i = 0;
        while i + 1 < atoms.len() {
            let replace: Option<Vec<Atom>> = match (&atoms[i], &atoms[i + 1]) {
                // encode(c) immediately undone by decode(c): a certified
                // roundtrip. Sorted encodes leave a per-chunk sort; width
                // disagreement leaves a reinterpretation; codec
                // disagreement refutes the pairing.
                (
                    Atom::Encode {
                        codec: c1,
                        width: w1,
                        sorted,
                    },
                    Atom::Decode {
                        codec: c2,
                        width: w2,
                    },
                ) => {
                    if c1 != c2 {
                        Some(vec![Atom::NonInverse {
                            stored: c1.to_string(),
                            transform: c2.to_string(),
                            width: *w2,
                        }])
                    } else if w1 != w2 {
                        Some(vec![Atom::Reinterpret { from: *w1, to: *w2 }])
                    } else if *sorted {
                        Some(vec![Atom::SortChunks { width: *w1 }])
                    } else {
                        Some(vec![])
                    }
                }
                // A byte-wise fetch feeding a decode pulls codec frames
                // from storage. With a declared framing we certify (or
                // refute) the pairing against the region; without one the
                // rewiring contract guarantees storage matches the decode.
                (
                    Atom::Fetch {
                        target, width: 1, ..
                    },
                    Atom::Decode { codec, width },
                ) => match fetch_framings.get(target) {
                    Some(Framing::Frames { codec: stored, .. }) if stored == codec => {
                        Some(vec![Atom::FetchDecoded {
                            target: target.clone(),
                            width: *width,
                        }])
                    }
                    Some(Framing::Frames { codec: stored, .. }) => Some(vec![Atom::NonInverse {
                        stored: stored.to_string(),
                        transform: codec.to_string(),
                        width: *width,
                    }]),
                    Some(Framing::Raw) => Some(vec![Atom::NonInverse {
                        stored: "raw".to_string(),
                        transform: codec.to_string(),
                        width: *width,
                    }]),
                    None => Some(vec![Atom::FetchDecoded {
                        target: target.clone(),
                        width: *width,
                    }]),
                },
                _ => None,
            };
            if let Some(mut repl) = replace {
                atoms.splice(i..i + 2, repl.drain(..));
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return atoms;
        }
    }
}

/// Collects the summary of every observable sink, keyed for cross-side
/// matching: terminal queues by queue id, memory writers by kind plus
/// target region.
fn summarize(p: &Pipeline, schema: Option<&MemorySchema>) -> BTreeMap<String, SinkSummary> {
    let mut fetch_framings = BTreeMap::new();
    if let Some(s) = schema {
        for r in &s.regions {
            fetch_framings.insert(r.name.clone(), r.framing);
        }
    }
    let mut sinks = BTreeMap::new();
    // Memory-writing operators.
    for (i, spec) in p.operators().iter().enumerate() {
        let (key, store_base) = match &spec.kind {
            OperatorKind::StreamWrite { base, .. } => {
                (format!("write@{}", target_name(schema, *base)), Some(*base))
            }
            OperatorKind::MemQueue {
                mode: MemQueueMode::Append,
                data_base,
                ..
            } => (
                format!("append@{}", target_name(schema, *data_base)),
                Some(*data_base),
            ),
            OperatorKind::MemQueue {
                mode: MemQueueMode::Buffer,
                data_base,
                ..
            } => (format!("bin@{}", target_name(schema, *data_base)), None),
            _ => continue,
        };
        let (source, atoms) = walk_chain(p, schema, i);
        let mut atoms = normalize(atoms, &fetch_framings);
        // An encode terminating at a memory store is absorbed into the
        // sink when the destination's framing certifies it (or when the
        // rewiring contract must, absent a schema): the observable stream
        // is the decoded one. A sorted encode still leaves its sort.
        let mut encoded = false;
        if store_base.is_some() {
            if let Some(Atom::Encode {
                codec,
                width,
                sorted,
            }) = atoms.last().cloned()
            {
                let certified = match store_base.and_then(|b| framing_at(schema, b)) {
                    Some(Framing::Frames { codec: stored, .. }) => {
                        if stored == codec {
                            Some(true)
                        } else {
                            Some(false)
                        }
                    }
                    Some(Framing::Raw) => None, // encoded bytes into a raw region: keep Encode
                    None => Some(true),         // no schema: the rewiring contract re-frames
                };
                match certified {
                    Some(true) => {
                        atoms.pop();
                        if sorted {
                            atoms.push(Atom::SortChunks { width });
                        }
                        encoded = true;
                    }
                    Some(false) => {
                        atoms.pop();
                        atoms.push(Atom::NonInverse {
                            stored: "stored-framing".to_string(),
                            transform: codec.to_string(),
                            width,
                        });
                        encoded = true;
                    }
                    None => {}
                }
            }
        }
        sinks.insert(
            key,
            SinkSummary {
                site: Site::Operator(i),
                source,
                atoms,
                encoded,
            },
        );
    }
    // Terminal queues.
    for q in p.core_output_queues() {
        let producer = p
            .operators()
            .iter()
            .position(|o| o.outputs.contains(&q))
            .expect("a core-output queue has a producer by definition");
        let (source, atoms) = walk_chain(p, schema, producer);
        let atoms = normalize(atoms, &fetch_framings);
        sinks.insert(
            format!("q{q}"),
            SinkSummary {
                site: Site::Queue(q),
                source,
                atoms,
                encoded: false,
            },
        );
    }
    sinks
}

/// Multiset equality over rendered atoms — the `V005` (reordered chain)
/// discriminator.
fn same_multiset(a: &[Atom], b: &[Atom]) -> bool {
    let mut xs: Vec<String> = a.iter().map(|x| x.to_string()).collect();
    let mut ys: Vec<String> = b.iter().map(|x| x.to_string()).collect();
    xs.sort();
    ys.sort();
    xs == ys
}

fn two_sided(orig: &SinkSummary, rew: &SinkSummary) -> String {
    format!(
        "original <{}> vs rewritten <{}>",
        orig.render(),
        rew.render()
    )
}

/// Classifies one matched-but-divergent sink pair into its `V` code, most
/// specific first: a different source stream (`V003`) before a refuted
/// codec pairing (`V002`) before a pure width change (`V004`) before a
/// reordering (`V005`) before the catch-all stream divergence (`V001`).
fn classify(orig: &SinkSummary, rew: &SinkSummary) -> (Code, &'static str) {
    if orig.source != rew.source {
        return (
            Code::V003,
            "reconnect the sink to the value stream it consumed before the rewrite",
        );
    }
    let non_inverse =
        |s: &SinkSummary| s.atoms.iter().any(|a| matches!(a, Atom::NonInverse { .. }));
    if non_inverse(orig) != non_inverse(rew) || (non_inverse(rew) && orig.atoms != rew.atoms) {
        return (
            Code::V002,
            "swap both sides of the codec pair together, or re-frame the stored stream to match",
        );
    }
    if orig.atoms.len() == rew.atoms.len()
        && orig
            .atoms
            .iter()
            .zip(&rew.atoms)
            .all(|(a, b)| a.shape_eq(b))
        && orig.encoded == rew.encoded
    {
        return (
            Code::V004,
            "keep element widths fixed across the rewrite, or widen the consumer to match",
        );
    }
    if same_multiset(&orig.atoms, &rew.atoms) && orig.encoded == rew.encoded {
        return (
            Code::V005,
            "restore the original operator order: indirection chains do not commute",
        );
    }
    (
        Code::V001,
        "the rewrite must preserve each sink's transform chain up to certified codec roundtrips",
    )
}

/// Validates that `input.rewritten` is observationally equivalent to
/// `input.original`: every observable sink (memory-writing operator,
/// terminal queue) carries the same symbolic value stream, modulo
/// certified codec roundtrips. Returns a clean report or `V001`–`V006`
/// error diagnostics, each witnessed by the two divergent chains.
pub fn validate(input: &EquivInput<'_>) -> EquivReport {
    let orig = summarize(input.original, input.original_schema);
    let rew = summarize(input.rewritten, input.rewritten_schema);
    let mut diagnostics = Vec::new();
    let mut sinks_checked = 0usize;
    let mut sink_level_source_mismatch = false;

    for (key, o) in &orig {
        match rew.get(key) {
            None => {
                sink_level_source_mismatch = true;
                diagnostics.push(
                    Diagnostic::new(
                        Code::V006,
                        Site::Program,
                        None,
                        format!(
                            "rewrite removes observable sink {key}: original <{}>",
                            o.render()
                        ),
                    )
                    .hint("every memory writer and terminal queue must survive the rewrite"),
                );
            }
            Some(r) => {
                sinks_checked += 1;
                if o != r {
                    let (code, hint) = classify(o, r);
                    if code == Code::V003 {
                        sink_level_source_mismatch = true;
                    }
                    diagnostics.push(
                        Diagnostic::new(
                            code,
                            r.site,
                            None,
                            format!("sink {key} diverges after rewrite: {}", two_sided(o, r)),
                        )
                        .hint(hint),
                    );
                }
            }
        }
    }
    for (key, r) in &rew {
        if !orig.contains_key(key) {
            sink_level_source_mismatch = true;
            diagnostics.push(
                Diagnostic::new(
                    Code::V006,
                    r.site,
                    None,
                    format!(
                        "rewrite introduces observable sink {key}: rewritten <{}>",
                        r.render()
                    ),
                )
                .hint("a rewrite may not create new memory writers or terminal queues"),
            );
        }
    }

    // A changed set of core-input queues drops or duplicates a stream at
    // the program level even when every sink matched (e.g. an input that
    // only fed a prefetch). Sink-level V003/V006 findings already witness
    // the divergence when present.
    if !sink_level_source_mismatch {
        let a = input.original.core_input_queues();
        let b = input.rewritten.core_input_queues();
        if a != b {
            diagnostics.push(
                Diagnostic::new(
                    Code::V003,
                    Site::Program,
                    None,
                    format!(
                        "rewrite changes the core-input streams: original consumes {a:?}, \
                         rewritten consumes {b:?}"
                    ),
                )
                .hint("every core-fed stream must keep exactly one consumer chain"),
            );
        }
    }

    EquivReport {
        diagnostics: lint::sorted_for_render(&diagnostics),
        sinks_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{OperatorKind, PipelineBuilder, RangeInput};
    use crate::shape::RegionSchema;
    use spzip_mem::DataClass;

    fn range(base: u64, elem_bytes: u8) -> OperatorKind {
        OperatorKind::RangeFetch {
            base,
            idx_bytes: 8,
            elem_bytes,
            input: RangeInput::Pairs,
            marker: Some(0),
            class: DataClass::AdjacencyMatrix,
        }
    }

    fn indirect(base: u64) -> OperatorKind {
        OperatorKind::Indirect {
            base,
            elem_bytes: 8,
            pair: false,
            class: DataClass::DestinationVertex,
        }
    }

    /// `in -> compress(c) -> decompress(c) -> out`: the roundtrip chain.
    fn roundtrip(c1: CodecKind, c2: CodecKind) -> Pipeline {
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(32);
        let q1 = b.queue(32);
        let q2 = b.queue(32);
        b.operator(
            OperatorKind::Compress {
                codec: c1,
                elem_bytes: 8,
                sort_chunks: false,
            },
            q0,
            vec![q1],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: c2,
                elem_bytes: 8,
            },
            q1,
            vec![q2],
        );
        b.build().unwrap()
    }

    fn codes(r: &EquivReport) -> Vec<String> {
        r.diagnostics()
            .iter()
            .map(|d| d.code.as_str().to_string())
            .collect()
    }

    #[test]
    fn identity_is_clean() {
        let p = roundtrip(CodecKind::Delta, CodecKind::Delta);
        let r = validate(&EquivInput::new(&p, &p.clone()));
        assert!(r.is_clean());
        assert_eq!(r.sinks_checked, 1);
    }

    #[test]
    fn matched_codec_pair_swap_is_clean() {
        // Swapping BOTH sides of an internal pair keeps the roundtrip.
        let p = roundtrip(CodecKind::Delta, CodecKind::Delta);
        let q = roundtrip(CodecKind::Rle, CodecKind::Rle);
        assert!(validate(&EquivInput::new(&p, &q)).is_clean());
    }

    #[test]
    fn one_sided_codec_swap_is_v002() {
        let p = roundtrip(CodecKind::Delta, CodecKind::Delta);
        let q = roundtrip(CodecKind::Delta, CodecKind::Rle);
        let r = validate(&EquivInput::new(&p, &q));
        assert_eq!(codes(&r), vec!["V002"]);
        let d = &r.diagnostics()[0];
        assert!(d.message.contains("original <"), "{}", d.message);
        assert!(d.message.contains("noninverse(delta!=rle"), "{}", d.message);
    }

    #[test]
    fn width_changing_rewrite_is_v004() {
        let build = |w: u8| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let q1 = b.queue(64);
            b.operator(range(0x1000, w), q0, vec![q1]);
            b.build().unwrap()
        };
        let r = validate(&EquivInput::new(&build(8), &build(4)));
        assert_eq!(codes(&r), vec!["V004"]);
    }

    #[test]
    fn reordered_indirection_chain_is_v005() {
        let build = |first: u64, second: u64| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let q1 = b.queue(32);
            let q2 = b.queue(32);
            b.operator(indirect(first), q0, vec![q1]);
            b.operator(indirect(second), q1, vec![q2]);
            b.build().unwrap()
        };
        let r = validate(&EquivInput::new(
            &build(0x1000, 0x2000),
            &build(0x2000, 0x1000),
        ));
        assert_eq!(codes(&r), vec!["V005"]);
    }

    #[test]
    fn swapped_source_queue_is_v003() {
        let build = |cross: bool| {
            let mut b = PipelineBuilder::new();
            let in_a = b.queue(32);
            let in_b = b.queue(32);
            let out_a = b.queue(32);
            let out_b = b.queue(32);
            let (qa, qb) = if cross { (in_b, in_a) } else { (in_a, in_b) };
            b.operator(indirect(0x1000), qa, vec![out_a]);
            b.operator(indirect(0x1000), qb, vec![out_b]);
            b.build().unwrap()
        };
        let r = validate(&EquivInput::new(&build(false), &build(true)));
        assert_eq!(codes(&r), vec!["V003", "V003"]);
    }

    #[test]
    fn dropped_sink_is_v006() {
        let build = |fan: bool| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let out_a = b.queue(64);
            let out_b = b.queue(64);
            let outs = if fan { vec![out_a, out_b] } else { vec![out_a] };
            b.operator(range(0x1000, 8), q0, outs);
            if !fan {
                // Keep q2 declared so queue sets match; it dangles.
                let _ = out_b;
            }
            b.build().unwrap()
        };
        let r = validate(&EquivInput::new(&build(true), &build(false)));
        assert_eq!(codes(&r), vec!["V006"]);
    }

    #[test]
    fn dropped_encode_stage_is_v001() {
        let write = |compress: bool| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let mut q = q0;
            if compress {
                let q1 = b.queue(32);
                b.operator(
                    OperatorKind::Compress {
                        codec: CodecKind::Delta,
                        elem_bytes: 8,
                        sort_chunks: false,
                    },
                    q0,
                    vec![q1],
                );
                q = q1;
            }
            b.operator(
                OperatorKind::StreamWrite {
                    base: 0x9000,
                    class: DataClass::Updates,
                },
                q,
                vec![],
            );
            b.build().unwrap()
        };
        // Schema-free: the terminal encode is absorbed as a certified
        // framed store, so dropping it flips the sink's encoded flag.
        let r = validate(&EquivInput::new(&write(true), &write(false)));
        assert_eq!(codes(&r), vec!["V001"]);
    }

    #[test]
    fn schema_refutes_mismatched_decode_framing() {
        let decode_from = |codec: CodecKind| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let q1 = b.queue(64);
            let q2 = b.queue(64);
            b.operator(range(0x1000, 1), q0, vec![q1]);
            b.operator(
                OperatorKind::Decompress {
                    codec,
                    elem_bytes: 4,
                },
                q1,
                vec![q2],
            );
            b.build().unwrap()
        };
        let mut schema = MemorySchema::new();
        schema.add_region(RegionSchema::framed(
            "bins",
            0x1000,
            0x1000,
            CodecKind::Delta,
            4,
            None,
        ));
        let p = decode_from(CodecKind::Delta);
        let q = decode_from(CodecKind::Rle);
        // Same schema both sides: the rewrite did NOT re-frame storage.
        let r = validate(&EquivInput::with_schemas(&p, &q, &schema, &schema));
        assert_eq!(codes(&r), vec!["V002"]);

        // With the storage honestly re-framed, the same swap certifies.
        let mut reframed = MemorySchema::new();
        reframed.add_region(RegionSchema::framed(
            "bins",
            0x1000,
            0x1000,
            CodecKind::Rle,
            4,
            None,
        ));
        let r = validate(&EquivInput::with_schemas(&p, &q, &schema, &reframed));
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }

    #[test]
    fn sorted_roundtrip_residue_matches_only_sorted() {
        let rt = |sorted: bool| {
            let mut b = PipelineBuilder::new();
            let q0 = b.queue(32);
            let q1 = b.queue(32);
            let q2 = b.queue(32);
            b.operator(
                OperatorKind::Compress {
                    codec: CodecKind::Delta,
                    elem_bytes: 8,
                    sort_chunks: sorted,
                },
                q0,
                vec![q1],
            );
            b.operator(
                OperatorKind::Decompress {
                    codec: CodecKind::Delta,
                    elem_bytes: 8,
                },
                q1,
                vec![q2],
            );
            b.build().unwrap()
        };
        assert!(validate(&EquivInput::new(&rt(true), &rt(true))).is_clean());
        let r = validate(&EquivInput::new(&rt(false), &rt(true)));
        assert_eq!(codes(&r), vec!["V001"]);
    }

    #[test]
    fn validator_is_deterministic() {
        let p = roundtrip(CodecKind::Delta, CodecKind::Delta);
        let q = roundtrip(CodecKind::Delta, CodecKind::Rle);
        let a = validate(&EquivInput::new(&p, &q));
        let b = validate(&EquivInput::new(&p, &q));
        assert_eq!(a.diagnostics(), b.diagnostics());
        assert_eq!(a.sinks_checked, b.sinks_checked);
    }

    #[test]
    fn report_renders_rustc_style() {
        let p = roundtrip(CodecKind::Delta, CodecKind::Delta);
        let q = roundtrip(CodecKind::Delta, CodecKind::Rle);
        let r = validate(&EquivInput::new(&p, &q));
        let text = lint::render(&r.diagnostics());
        assert!(text.contains("error[V002]"), "{text}");
        assert!(text.contains("= help:"), "{text}");
    }
}
