//! Static codec auto-selection over DCL pipelines (A-codes).
//!
//! Where [`crate::perf`] answers "how will this pipeline perform?", this
//! module answers "which codec *should* each compressed queue use?" — the
//! Copernicus observation that format choice swings sparse-workload
//! performance by integer factors, turned into a static pass. For every
//! transform operator the pass:
//!
//! 1. enumerates candidate codecs — every [`CodecKind`], including
//!    `None` ("no compression"),
//! 2. prices each candidate with the [`crate::perf`] flow model: the
//!    pipeline is rewired ([`Pipeline::with_op_codec`]), the
//!    [`spzip_compress::model`] ratio profile predicts the candidate's
//!    footprint, and the [`RateTable`](spzip_compress::model::RateTable)
//!    — calibrated from measured kernel rates in `BENCH_codecs.json` —
//!    prices its transform service cost,
//! 3. validates the winning rewiring: the rewired program must lint
//!    error-clean, and, when a [`MemorySchema`] is declared, the shape
//!    verifier must accept the rewired pipeline against a schema whose
//!    region framing is re-declared to match (the plan re-encodes the
//!    region, so the framing moves with the codec).
//!
//! Findings are advisory diagnostics through the shared [`crate::lint`]
//! machinery — warning severity, never build- or CI-failing:
//!
//! * `A001` — a different codec is predicted at least
//!   [`SuggestInput::min_gain`] faster than the current one,
//! * `A002` — compression is predicted net-negative: `None` (identity)
//!   wins over the current real codec,
//! * `A003` — a faster candidate exists but the verifier rejects the
//!   rewired pipeline; the suggestion is suppressed and the plan falls
//!   back to the best candidate that validates.
//!
//! Alongside the diagnostics the pass emits a machine-readable rewiring
//! plan ([`PlanEntry`]); [`apply_plan`] and [`rewired_schema`] turn a
//! plan back into a validated pipeline + schema pair, and
//! [`apply_plan_certified`] additionally proves the pair observationally
//! equivalent to the original through the [`crate::equiv`] translation
//! validator — the only path the `auto_codecs` builder mode in
//! `spzip-apps` uses, so an uncertified plan is demoted to an `A003`
//! suppression ([`demote_uncertified`]) instead of ever being applied.

use crate::dcl::{OperatorKind, Pipeline};
use crate::lint::{Code, Diagnostic, Site};
use crate::perf::{analyze, PerfInput, PerfParams};
use crate::shape::{self, Framing, MemorySchema};
use crate::QueueId;
use spzip_compress::model::{codec_trajectory_name, StreamProfile};
use spzip_compress::CodecKind;
use std::collections::BTreeMap;

/// Default minimum predicted improvement (fractional) before a suggestion
/// is worth an advisory: re-encoding a region is not free, so near-ties
/// stay quiet.
pub const DEFAULT_MIN_GAIN: f64 = 0.05;

/// A pipeline plus everything the selection pass may assume: the perf
/// model's inputs (machine parameters with a codec [`RateTable`]
/// calibration, range sizes, stream profiles), an optional declared
/// memory layout for shape validation, and the advisory threshold.
///
/// [`RateTable`]: spzip_compress::model::RateTable
#[derive(Debug, Clone)]
pub struct SuggestInput<'a> {
    /// The validated program under analysis.
    pub pipeline: &'a Pipeline,
    /// Declared memory layout, when one exists (builtins). File-mode
    /// pipelines pass `None` and are validated by lint alone.
    pub schema: Option<&'a MemorySchema>,
    /// Machine parameters, including the codec rate calibration.
    pub params: PerfParams,
    /// Expected elements per range (see [`PerfInput::default_range_elems`]).
    pub default_range_elems: f64,
    /// Per-operator override of `default_range_elems`.
    pub range_elems: BTreeMap<usize, f64>,
    /// Per-operator value profiles for transform operators.
    pub profiles: BTreeMap<usize, StreamProfile>,
    /// Minimum fractional predicted improvement before advising a swap.
    pub min_gain: f64,
}

impl<'a> SuggestInput<'a> {
    /// Default assumptions for `pipeline`, no schema.
    pub fn new(pipeline: &'a Pipeline) -> Self {
        SuggestInput {
            pipeline,
            schema: None,
            params: PerfParams::default(),
            default_range_elems: 32.0,
            range_elems: BTreeMap::new(),
            profiles: BTreeMap::new(),
            min_gain: DEFAULT_MIN_GAIN,
        }
    }

    /// Default assumptions plus a declared memory layout: winning
    /// rewirings must additionally pass the shape verifier.
    pub fn with_schema(pipeline: &'a Pipeline, schema: &'a MemorySchema) -> Self {
        SuggestInput {
            schema: Some(schema),
            ..Self::new(pipeline)
        }
    }

    fn perf_input<'b>(&self, pipeline: &'b Pipeline) -> PerfInput<'b> {
        PerfInput {
            pipeline,
            params: self.params.clone(),
            default_range_elems: self.default_range_elems,
            range_elems: self.range_elems.clone(),
            profiles: self.profiles.clone(),
        }
    }
}

/// One rewiring the pass recommends: swap operator `op`'s codec. The
/// machine-readable half of the report — stable field names, rendered
/// into `dcl-perf --suggest --format json` verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Transform operator definition index.
    pub op: usize,
    /// The operator's input queue (the "compressed queue" being rewired).
    pub queue: QueueId,
    /// Current codec, as its `BENCH_codecs.json` trajectory name.
    pub current: String,
    /// Suggested codec, as its trajectory name.
    pub suggested: String,
    /// Predicted fractional improvement of the pipeline metric (0.12 =
    /// 12% fewer cycles per delivered element).
    pub gain: f64,
}

impl PlanEntry {
    /// Renders the entry as a single-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"op\":{},\"queue\":{},\"current\":\"{}\",\"suggested\":\"{}\",\"gain\":{:.4}}}",
            self.op, self.queue, self.current, self.suggested, self.gain
        )
    }
}

/// Everything the selection pass concludes about one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestReport {
    /// `A0xx` advisories, in operator order.
    pub diagnostics: Vec<Diagnostic>,
    /// The rewiring plan: one entry per operator whose best *validated*
    /// candidate beats the current codec by at least the threshold.
    pub plan: Vec<PlanEntry>,
    /// Transform operators examined.
    pub transforms: usize,
    /// Pipeline metric (cycles per delivered element, or cycles per unit
    /// for pipelines that deliver nothing) under the current codecs.
    pub baseline_metric: f64,
    /// The metric with the full plan applied (equals `baseline_metric`
    /// when the plan is empty).
    pub auto_metric: f64,
}

impl SuggestReport {
    /// No advisories and an empty plan: the current codecs are already
    /// predicted best (within the threshold).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.plan.is_empty()
    }

    /// Renders the plan as a JSON array (one entry per line).
    pub fn plan_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.plan.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push(']');
        out
    }
}

/// The codec and (for compressors) sort flag operator `op` carries, if it
/// is a transform.
fn op_codec(p: &Pipeline, op: usize) -> Option<(CodecKind, bool)> {
    match &p.operators()[op].kind {
        OperatorKind::Decompress { codec, .. } => Some((*codec, false)),
        OperatorKind::Compress {
            codec, sort_chunks, ..
        } => Some((*codec, *sort_chunks)),
        _ => None,
    }
}

/// The pipeline metric the pass minimizes: cycles per delivered element
/// for traversal-style pipelines, cycles per unit of core-side work for
/// write-only ones. Codec-swap invariant in its normalization (the unit
/// is the core's work, not the stream's encoding).
fn metric(input: &SuggestInput<'_>, pipeline: &Pipeline) -> f64 {
    let report = analyze(&input.perf_input(pipeline));
    if report.delivered_elems > 0.0 {
        report.cycles_per_unit() / report.delivered_elems
    } else {
        report.cycles_per_unit()
    }
}

/// Validates the rewiring of `op` to `codec`: the program must re-lint
/// error-clean, and under a schema the shape verifier must accept the
/// rewired pipeline against the matching re-framed schema. Returns the
/// first rejecting code on failure.
fn validate_swap(
    input: &SuggestInput<'_>,
    op: usize,
    codec: CodecKind,
) -> Result<Pipeline, &'static str> {
    let rewired = input
        .pipeline
        .with_op_codec(op, codec)
        .map_err(|e| e.first_error().code.as_str())?;
    if let Some(schema) = input.schema {
        let schema = reframe_for(schema, input.pipeline, op, codec);
        let report = shape::verify(&rewired, &schema);
        if !report.is_clean() {
            let code = report
                .diagnostics
                .first()
                .map_or("B001", |d| d.code.as_str());
            return Err(code);
        }
    }
    Ok(rewired)
}

/// Re-declares the framing of the region operator `op` transforms
/// against: the rewiring plan re-encodes the stored stream, so its
/// schema moves with the codec. The region is found through the memory
/// operator adjacent to the transform — the producer feeding a
/// decompressor, the writer consuming a compressor.
fn reframe_for(schema: &MemorySchema, p: &Pipeline, op: usize, codec: CodecKind) -> MemorySchema {
    let mut schema = schema.clone();
    let base = match &p.operators()[op].kind {
        // Decompressor: the fetch producing its input queue.
        OperatorKind::Decompress { .. } => {
            let in_q = p.operators()[op].input;
            p.operators().iter().find_map(|o| {
                o.outputs.contains(&in_q).then_some(())?;
                match &o.kind {
                    OperatorKind::RangeFetch { base, .. } | OperatorKind::Indirect { base, .. } => {
                        Some(*base)
                    }
                    _ => None,
                }
            })
        }
        // Compressor: the writer consuming any of its output queues.
        OperatorKind::Compress { .. } => {
            let outs = &p.operators()[op].outputs;
            p.operators().iter().find_map(|o| {
                outs.contains(&o.input).then_some(())?;
                match &o.kind {
                    OperatorKind::StreamWrite { base, .. } => Some(*base),
                    OperatorKind::MemQueue { data_base, .. } => Some(*data_base),
                    _ => None,
                }
            })
        }
        _ => None,
    };
    if let Some(base) = base {
        for r in &mut schema.regions {
            if base >= r.base && base < r.base + r.bytes {
                if let Framing::Frames { codec: c, .. } = &mut r.framing {
                    *c = codec;
                }
            }
        }
    }
    schema
}

/// Runs the codec-selection pass.
///
/// Deterministic: operators are visited in definition order, candidates
/// in [`CodecKind::all`] order, and pricing is pure arithmetic over the
/// input — identical inputs produce identical reports. The metric is
/// also invariant under uniform queue-capacity scaling
/// ([`Pipeline::scale_queues`] with factor ≥ 1): flows and service rates
/// do not depend on capacities.
pub fn suggest(input: &SuggestInput<'_>) -> SuggestReport {
    let p = input.pipeline;
    let baseline_metric = metric(input, p);
    let mut diagnostics = Vec::new();
    let mut plan = Vec::new();
    let mut transforms = 0;

    for (i, opspec) in p.operators().iter().enumerate() {
        let Some((current, sort)) = op_codec(p, i) else {
            continue;
        };
        transforms += 1;
        let line = p.operator_lines()[i];
        let queue = opspec.input;

        // Price every candidate (the current codec included, as the
        // baseline this operator must beat).
        let mut priced: Vec<(f64, CodecKind)> = CodecKind::all()
            .into_iter()
            .map(|cand| {
                let m = if cand == current {
                    baseline_metric
                } else {
                    match p.with_op_codec(i, cand) {
                        Ok(rewired) => metric(input, &rewired),
                        Err(_) => f64::INFINITY,
                    }
                };
                (m, cand)
            })
            .collect();
        priced.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Walk from the predicted-best candidate down: the first that
        // validates wins; better-but-rejected candidates surface as one
        // A003 advisory (best rejected only).
        let mut suppressed: Option<(CodecKind, f64, &'static str)> = None;
        let mut chosen: Option<(CodecKind, f64)> = None;
        for &(m, cand) in &priced {
            let gain = (baseline_metric - m) / baseline_metric.max(f64::MIN_POSITIVE);
            if cand == current || gain < input.min_gain {
                break; // nothing ahead beats the threshold either
            }
            match validate_swap(input, i, cand) {
                Ok(_) => {
                    chosen = Some((cand, gain));
                    break;
                }
                Err(code) => {
                    if suppressed.is_none() {
                        suppressed = Some((cand, gain, code));
                    }
                }
            }
        }

        let current_name = codec_trajectory_name(current, sort);
        if let Some((cand, gain, code)) = suppressed {
            let cand_name = codec_trajectory_name(cand, sort && cand == CodecKind::Delta);
            diagnostics.push(
                Diagnostic::new(
                    Code::A003,
                    Site::Operator(i),
                    line,
                    format!(
                        "{cand_name} is predicted {:.0}% faster than {current_name} on queue \
                         q{queue}, but the rewired pipeline fails {code}: suggestion suppressed",
                        gain * 100.0
                    ),
                )
                .hint("the rewiring plan falls back to the best candidate that verifies"),
            );
        }
        if let Some((cand, gain)) = chosen {
            let cand_name = codec_trajectory_name(cand, sort && cand == CodecKind::Delta);
            if cand == CodecKind::None {
                diagnostics.push(
                    Diagnostic::new(
                        Code::A002,
                        Site::Operator(i),
                        line,
                        format!(
                            "compression is predicted net-negative on queue q{queue}: \
                             storing raw (identity) beats {current_name} by {:.0}%",
                            gain * 100.0
                        ),
                    )
                    .hint("drop the codec on this queue: decode cost exceeds the traffic saved"),
                );
            } else {
                diagnostics.push(
                    Diagnostic::new(
                        Code::A001,
                        Site::Operator(i),
                        line,
                        format!(
                            "{cand_name} is predicted {:.0}% faster than {current_name} on \
                             queue q{queue}",
                            gain * 100.0
                        ),
                    )
                    .hint(
                        "re-encode the region with the suggested codec and rewire the \
                         transform (apply the machine-readable plan)",
                    ),
                );
            }
            plan.push(PlanEntry {
                op: i,
                queue,
                current: current_name.to_string(),
                suggested: cand_name.to_string(),
                gain,
            });
        }
    }

    // Price the full plan applied at once (entries are per-operator, so
    // application is order-independent).
    let auto_metric = if plan.is_empty() {
        baseline_metric
    } else {
        match apply_plan(p, &plan) {
            Ok(auto) => metric(input, &auto),
            Err(_) => baseline_metric,
        }
    };

    SuggestReport {
        diagnostics,
        plan,
        transforms,
        baseline_metric,
        auto_metric,
    }
}

/// Applies a rewiring plan, returning the re-validated pipeline.
///
/// # Errors
///
/// Returns a message naming the offending entry if a plan entry refers
/// to an unknown codec name or the rewired program fails validation —
/// both impossible for plans produced by [`suggest`] on the same
/// pipeline, but plans can arrive from JSON.
pub fn apply_plan(p: &Pipeline, plan: &[PlanEntry]) -> Result<Pipeline, String> {
    let mut current = p.clone();
    for e in plan {
        let (kind, _) = spzip_compress::model::codec_from_trajectory_name(&e.suggested)
            .ok_or_else(|| format!("plan entry op {}: unknown codec {:?}", e.op, e.suggested))?;
        current = current
            .with_op_codec(e.op, kind)
            .map_err(|err| format!("plan entry op {}: {}", e.op, err.first_error()))?;
    }
    Ok(current)
}

/// Re-declares every region framing a plan re-encodes: the schema that
/// matches [`apply_plan`]'s pipeline.
pub fn rewired_schema(schema: &MemorySchema, p: &Pipeline, plan: &[PlanEntry]) -> MemorySchema {
    let mut out = schema.clone();
    for e in plan {
        if let Some((kind, _)) = spzip_compress::model::codec_from_trajectory_name(&e.suggested) {
            out = reframe_for(&out, p, e.op, kind);
        }
    }
    out
}

/// Applies a rewiring plan *with end-to-end certification*: the rewired
/// pipeline (and, when a schema is declared, its re-framed schema) is
/// proven observationally equivalent to the original by the
/// [`crate::equiv`] translation validator before it is returned. This is
/// the only application path `auto_codecs` uses — a plan that cannot be
/// certified is never applied.
///
/// # Errors
///
/// Returns the refuting diagnostics: the `V0xx` witnesses from the
/// validator, or the rewiring's own validation errors when a plan entry
/// does not even apply (unknown codec name, lint/liveness rejection).
pub fn apply_plan_certified(
    p: &Pipeline,
    schema: Option<&MemorySchema>,
    plan: &[PlanEntry],
) -> Result<(Pipeline, Option<MemorySchema>), Vec<Diagnostic>> {
    let mut current = p.clone();
    for e in plan {
        let Some((kind, _)) = spzip_compress::model::codec_from_trajectory_name(&e.suggested)
        else {
            return Err(vec![Diagnostic::new(
                Code::V002,
                Site::Operator(e.op),
                None,
                format!(
                    "plan entry op {} names unknown codec {:?}: no inverse transform exists",
                    e.op, e.suggested
                ),
            )]);
        };
        current = current
            .with_op_codec(e.op, kind)
            .map_err(|err| err.diagnostics().to_vec())?;
    }
    let rewired = schema.map(|s| rewired_schema(s, p, plan));
    let report = match (schema, &rewired) {
        (Some(os), Some(rs)) => {
            crate::equiv::validate(&crate::equiv::EquivInput::with_schemas(p, &current, os, rs))
        }
        _ => crate::equiv::validate(&crate::equiv::EquivInput::new(p, &current)),
    };
    if !report.is_clean() {
        return Err(report.diagnostics());
    }
    Ok((current, rewired))
}

/// Demotes a report whose plan failed certification: the plan is cleared
/// (so it can never be applied), the predicted auto metric collapses to
/// the baseline, and an `A003` advisory citing the refuting code is
/// appended — the same suppressed-suggestion surface a per-candidate
/// rejection uses, so downstream tooling needs no new case.
pub fn demote_uncertified(report: &mut SuggestReport, rejection: &[Diagnostic]) {
    let code = rejection
        .iter()
        .find(|d| d.severity() == crate::lint::Severity::Error)
        .map_or("V001", |d| d.code.as_str());
    let entries = report.plan.len();
    report.plan.clear();
    report.auto_metric = report.baseline_metric;
    report.diagnostics.push(
        Diagnostic::new(
            Code::A003,
            Site::Program,
            None,
            format!(
                "auto-codec plan ({entries} entries) fails translation validation with {code}: \
                 plan suppressed, baseline pipeline kept",
            ),
        )
        .hint("an uncertified rewrite is never applied; re-frame storage or fix the plan"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{PipelineBuilder, RangeInput};
    use crate::shape::RegionSchema;
    use spzip_compress::model::{CodecRates, RateTable};
    use spzip_mem::DataClass;

    /// Compressed-adjacency traversal: byte fetch -> decompress -> core.
    fn decompress_pipeline(codec: CodecKind, elem: u8) -> Pipeline {
        let mut b = PipelineBuilder::new();
        let input = b.queue(16);
        let bytes = b.queue(32);
        let vals = b.queue(32);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0x1000,
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
                codec,
                elem_bytes: elem,
            },
            bytes,
            vec![vals],
        );
        b.build().unwrap()
    }

    /// Write-side compressor: core values -> compress -> streamwrite.
    fn compress_pipeline(codec: CodecKind) -> Pipeline {
        let mut b = PipelineBuilder::new();
        let vals = b.queue(32);
        let bytes = b.queue(32);
        b.operator(
            OperatorKind::Compress {
                codec,
                elem_bytes: 4,
                sort_chunks: false,
            },
            vals,
            vec![bytes],
        );
        b.operator(
            OperatorKind::StreamWrite {
                base: 0x8000,
                class: DataClass::Updates,
            },
            bytes,
            vec![],
        );
        b.build().unwrap()
    }

    fn schema_for(codec: CodecKind) -> MemorySchema {
        let mut s = MemorySchema::new();
        s.add_region(RegionSchema::framed("cadj", 0x1000, 0x4000, codec, 4, None));
        s.declare_input(
            0,
            shape::InputDomain::Ranges {
                region: "cadj".to_string(),
            },
        );
        s
    }

    #[test]
    fn suggestions_are_deterministic() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let input = SuggestInput::new(&p);
        let a = suggest(&input);
        let b = suggest(&input);
        assert_eq!(a, b);
    }

    #[test]
    fn a001_fires_when_a_faster_codec_exists() {
        // RLE on graph-typical ids is a poor fit (short runs); delta is
        // predicted far denser, so the advisory fires.
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let report = suggest(&SuggestInput::new(&p));
        assert_eq!(report.transforms, 1);
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::A001),
            "{:?}",
            report.diagnostics
        );
        assert_eq!(report.plan.len(), 1);
        assert_eq!(report.plan[0].current, "rle");
        assert!(report.auto_metric < report.baseline_metric);
    }

    #[test]
    fn well_chosen_codec_is_clean() {
        // A pipeline already carrying the predicted-best codec for its
        // profile has nothing to suggest: under the default 4-byte
        // profile the model prices bpc32 densest.
        let p = decompress_pipeline(CodecKind::Bpc32, 4);
        let report = suggest(&SuggestInput::new(&p));
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.auto_metric, report.baseline_metric);
    }

    #[test]
    fn a002_fires_when_identity_wins() {
        // An incompressible stream behind a severely rate-handicapped
        // codec: storing raw is predicted faster.
        let p = compress_pipeline(CodecKind::Delta);
        let mut input = SuggestInput::new(&p);
        input.profiles.insert(0, StreamProfile::incompressible(4));
        let mut rates = RateTable::nominal();
        rates.set(
            CodecKind::None,
            CodecRates {
                decode_gbps: 100.0,
                encode_gbps: 100.0,
            },
        );
        input.params.rates = rates;
        let report = suggest(&input);
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::A002),
            "{:?}",
            report.diagnostics
        );
        assert_eq!(report.plan[0].suggested, "identity");
    }

    #[test]
    fn a003_suppresses_shape_rejected_swaps() {
        // 8-byte stream where bpc64 would be priced best, but the schema
        // decodes 8-byte elements while bpc32 (say) mismatches widths.
        // Construct directly: current delta on an 8-byte stream with a
        // schema; bpc32's natural width (4) trips B006 if it prices
        // first, and the plan falls back to a codec that verifies.
        let p = decompress_pipeline(CodecKind::Rle, 8);
        let schema = {
            let mut s = MemorySchema::new();
            s.add_region(RegionSchema::framed(
                "cadj",
                0x1000,
                0x4000,
                CodecKind::Rle,
                8,
                None,
            ));
            s.declare_input(
                0,
                shape::InputDomain::Ranges {
                    region: "cadj".to_string(),
                },
            );
            s
        };
        let mut input = SuggestInput::with_schema(&p, &schema);
        // Handicap everything except bpc32 so the width-incompatible
        // candidate prices strictly best.
        let mut rates = RateTable::nominal();
        for k in [
            CodecKind::None,
            CodecKind::Delta,
            CodecKind::Bpc64,
            CodecKind::Rle,
        ] {
            rates.set(
                k,
                CodecRates {
                    decode_gbps: 0.05,
                    encode_gbps: 0.05,
                },
            );
        }
        rates.set(
            CodecKind::Bpc32,
            CodecRates {
                decode_gbps: 10.0,
                encode_gbps: 10.0,
            },
        );
        input.params.rates = rates;
        let report = suggest(&input);
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::A003),
            "{:?}",
            report.diagnostics
        );
        // Whatever the plan holds must verify end to end.
        if !report.plan.is_empty() {
            let auto = apply_plan(&p, &report.plan).unwrap();
            let auto_schema = rewired_schema(&schema, &p, &report.plan);
            assert!(shape::verify(&auto, &auto_schema).is_clean());
        }
    }

    #[test]
    fn plan_roundtrips_through_apply() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let schema = schema_for(CodecKind::Rle);
        let input = SuggestInput::with_schema(&p, &schema);
        let report = suggest(&input);
        assert!(!report.plan.is_empty());
        let auto = apply_plan(&p, &report.plan).unwrap();
        let auto_schema = rewired_schema(&schema, &p, &report.plan);
        assert!(shape::verify(&auto, &auto_schema).is_clean());
        // Re-suggesting on the rewired pipeline proposes nothing better.
        let re = suggest(&SuggestInput::with_schema(&auto, &auto_schema));
        assert!(re.plan.is_empty(), "{:?}", re.plan);
    }

    #[test]
    fn scale_invariance_under_capacity_scaling() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let base = suggest(&SuggestInput::new(&p));
        for factor in [1.0, 2.0, 4.0] {
            let scaled = p.scale_queues(factor).unwrap();
            let report = suggest(&SuggestInput::new(&scaled));
            assert_eq!(report.plan, base.plan, "factor {factor}");
            assert_eq!(report.diagnostics.len(), base.diagnostics.len());
        }
    }

    #[test]
    fn plan_json_is_machine_readable() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let report = suggest(&SuggestInput::new(&p));
        let json = report.plan_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"current\":\"rle\""), "{json}");
        assert!(json.contains("\"suggested\":"), "{json}");
        assert!(json.contains("\"gain\":"), "{json}");
    }

    #[test]
    fn advisories_are_warning_severity() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let report = suggest(&SuggestInput::new(&p));
        for d in &report.diagnostics {
            assert_eq!(d.severity(), crate::lint::Severity::Warning);
        }
    }
}
