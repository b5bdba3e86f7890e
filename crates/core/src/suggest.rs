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
//! 2. rewires the pipeline once per candidate
//!    ([`Pipeline::with_op_codec`], which re-lints, model-checks and
//!    certifies the swap) and prices the rewiring with the [`crate::perf`]
//!    flow model: the [`spzip_compress::model`] ratio profile predicts the
//!    candidate's footprint, and the
//!    [`RateTable`](spzip_compress::model::RateTable) — calibrated from
//!    measured kernel rates in `BENCH_codecs.json` — prices its transform
//!    service cost,
//! 3. walks the priced rewirings from the best down and keeps the first
//!    that validates: it must have rewired error-clean, and, when a
//!    [`MemorySchema`] is declared, the shape verifier must accept it
//!    against a schema whose region framing is re-declared to match (the
//!    plan re-encodes the region, so the framing moves with the codec).
//!
//! Findings are advisory diagnostics through the shared [`crate::lint`]
//! machinery — warning severity, never build- or CI-failing:
//!
//! * `A001` — a different codec is predicted at least
//!   [`DEFAULT_MIN_GAIN`] faster than the current one,
//! * `A002` — compression is predicted net-negative: `None` (identity)
//!   wins over the current real codec,
//! * `A003` — a faster candidate exists but the verifier rejects the
//!   rewired pipeline; the suggestion is suppressed and the plan falls
//!   back to the best candidate that validates.
//!
//! Alongside the diagnostics the pass emits a machine-readable rewiring
//! plan ([`PlanEntry`]). [`certify`] is the one way to apply a plan: it
//! rewires the pipeline, re-frames the schema, and returns the pair only
//! when it shape-checks clean and the [`crate::equiv`] translation
//! validator proves it observationally equivalent to the original;
//! otherwise it returns the refuting diagnostics. `dcl-lint --equiv`
//! certifies every builtin's plan this way.

use crate::dcl::{OperatorKind, Pipeline, ValidateError};
use crate::equiv::{self, EquivInput};
use crate::lint::{Code, Diagnostic, Site};
use crate::perf::{analyze, PerfInput};
use crate::shape::{self, Framing, MemorySchema};
use crate::QueueId;
use spzip_compress::model::codec_trajectory_name;
use spzip_compress::CodecKind;

/// Minimum predicted improvement (fractional) before a suggestion is
/// worth an advisory: re-encoding a region is not free, so near-ties stay
/// quiet.
pub const DEFAULT_MIN_GAIN: f64 = 0.05;

/// A pipeline plus everything the selection pass may assume: the perf
/// model's inputs (a codec [`RateTable`] calibration, range sizes, stream
/// profiles) and an optional declared
/// memory layout for shape validation.
///
/// [`RateTable`]: spzip_compress::model::RateTable
#[derive(Debug, Clone)]
pub struct SuggestInput<'a> {
    /// The program under analysis and the perf model's assumptions; each
    /// candidate rewiring is priced under the same assumptions.
    pub perf: PerfInput<'a>,
    /// Declared memory layout, when one exists (builtins). File-mode
    /// pipelines pass `None` and are validated by lint alone.
    pub schema: Option<&'a MemorySchema>,
}

impl<'a> SuggestInput<'a> {
    /// Default assumptions for `pipeline`, no schema.
    pub fn new(pipeline: &'a Pipeline) -> Self {
        SuggestInput {
            perf: PerfInput::new(pipeline),
            schema: None,
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
}

/// One rewiring the pass recommends: swap operator `op`'s codec. The
/// machine-readable half of the report, rendered into `dcl-perf --suggest
/// --format json` by [`PlanEntry::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Transform operator definition index.
    pub op: usize,
    /// The operator's input queue (the "compressed queue" being rewired).
    pub queue: QueueId,
    /// Current codec.
    pub current: CodecKind,
    /// Suggested codec.
    pub suggested: CodecKind,
    /// Whether the operator sorts chunks before encoding (selects the
    /// `delta_sorted` trajectory name).
    pub sort_chunks: bool,
    /// Predicted fractional improvement of the pipeline metric (0.12 =
    /// 12% fewer cycles per delivered element).
    pub gain: f64,
}

impl PlanEntry {
    /// Renders the entry as a single-line JSON object with stable field
    /// names, each codec as its `BENCH_codecs.json` trajectory name.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"op\":{},\"queue\":{},\"current\":\"{}\",\"suggested\":\"{}\",\"gain\":{:.4}}}",
            self.op,
            self.queue,
            codec_trajectory_name(self.current, self.sort_chunks),
            codec_trajectory_name(self.suggested, self.sort_chunks),
            self.gain
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
    let report = analyze(&PerfInput {
        pipeline,
        ..input.perf.clone()
    });
    if report.delivered_elems > 0.0 {
        report.cycles_per_unit() / report.delivered_elems
    } else {
        report.cycles_per_unit()
    }
}

/// Shape-checks `rewired`, the priced rewiring of `op` to `codec`: under
/// a declared schema the shape verifier must accept it against the
/// matching re-framed schema. Returns the first rejecting code.
fn shape_check(
    input: &SuggestInput<'_>,
    op: usize,
    codec: CodecKind,
    rewired: &Pipeline,
) -> Result<(), &'static str> {
    let Some(schema) = input.schema else {
        return Ok(());
    };
    let schema = reframe_for(schema.clone(), input.perf.pipeline, op, codec);
    match shape::verify(rewired, &schema).diagnostics.first() {
        Some(d) => Err(d.code.as_str()),
        None => Ok(()),
    }
}

/// Re-declares the framing of the region operator `op` transforms
/// against: the rewiring plan re-encodes the stored stream, so its
/// schema moves with the codec. The region is found through the memory
/// operator adjacent to the transform — the producer feeding a
/// decompressor, the writer consuming a compressor.
fn reframe_for(
    mut schema: MemorySchema,
    p: &Pipeline,
    op: usize,
    codec: CodecKind,
) -> MemorySchema {
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
    let p = input.perf.pipeline;
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

        // Rewire and price every candidate once (the current codec
        // included, as the baseline this operator must beat), keeping each
        // rewiring or the first code that rejected it.
        let mut priced: Vec<_> = CodecKind::all()
            .into_iter()
            .map(|cand| {
                if cand == current {
                    return (baseline_metric, cand, None);
                }
                match p.with_op_codec(i, cand) {
                    Ok(rewired) => (metric(input, &rewired), cand, Some(Ok(rewired))),
                    Err(e) => (
                        f64::INFINITY,
                        cand,
                        Some(Err(e.first_error().code.as_str())),
                    ),
                }
            })
            .collect();
        priced.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Walk from the predicted-best candidate down: the first that
        // validates wins; better-but-rejected candidates surface as one
        // A003 advisory (best rejected only).
        let mut suppressed: Option<(CodecKind, f64, &'static str)> = None;
        let mut chosen: Option<(CodecKind, f64)> = None;
        for (m, cand, rewired) in priced {
            let gain = (baseline_metric - m) / baseline_metric.max(f64::MIN_POSITIVE);
            let Some(rewired) = rewired else {
                break; // the current codec: nothing ahead beats it
            };
            if gain < DEFAULT_MIN_GAIN {
                break; // nothing ahead beats the threshold either
            }
            match rewired.and_then(|r| shape_check(input, i, cand, &r)) {
                Ok(()) => {
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
            let cand_name = codec_trajectory_name(cand, sort);
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
            let cand_name = codec_trajectory_name(cand, sort);
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
                current,
                suggested: cand,
                sort_chunks: sort,
                gain,
            });
        }
    }

    // Price the full plan applied at once (entries are per-operator, so
    // application is order-independent).
    let auto_metric = if plan.is_empty() {
        baseline_metric
    } else {
        apply(p, None, &plan).map_or(baseline_metric, |(auto, _)| metric(input, &auto))
    };

    SuggestReport {
        diagnostics,
        plan,
        transforms,
        baseline_metric,
        auto_metric,
    }
}

/// Applies `plan` to `p`: the [`Pipeline::with_op_codec`] chain, with the
/// schema's region framings re-declared to match each swap.
fn apply(
    p: &Pipeline,
    schema: Option<&MemorySchema>,
    plan: &[PlanEntry],
) -> Result<(Pipeline, Option<MemorySchema>), ValidateError> {
    let mut auto = p.clone();
    let mut auto_schema = schema.cloned();
    for e in plan {
        auto = auto.with_op_codec(e.op, e.suggested)?;
        auto_schema = auto_schema.map(|s| reframe_for(s, p, e.op, e.suggested));
    }
    Ok((auto, auto_schema))
}

/// Applies a rewiring plan, certified — the one way a plan is applied.
/// The rewired pipeline (with, when `schema` is declared, its re-framed
/// schema) is returned only if it passes the shape verifier and the
/// [`crate::equiv`] translation validator proves it observationally
/// equivalent to `p`, each side against its own schema.
///
/// # Errors
///
/// Returns the refuting diagnostics: a swap's own lint, liveness or
/// `V0xx` rejection from [`Pipeline::with_op_codec`], the rewired pair's
/// `B0xx` findings, or the validator's `V0xx` witnesses.
pub fn certify(
    p: &Pipeline,
    schema: Option<&MemorySchema>,
    plan: &[PlanEntry],
) -> Result<(Pipeline, Option<MemorySchema>), Vec<Diagnostic>> {
    let (auto, auto_schema) = apply(p, schema, plan).map_err(|e| e.diagnostics().to_vec())?;
    if let Some(s) = &auto_schema {
        let report = shape::verify(&auto, s);
        if !report.is_clean() {
            return Err(report.diagnostics);
        }
    }
    let verdict = equiv::validate(&EquivInput {
        original: p,
        rewritten: &auto,
        original_schema: schema,
        rewritten_schema: auto_schema.as_ref(),
    });
    if !verdict.is_clean() {
        return Err(verdict.diagnostics());
    }
    Ok((auto, auto_schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{PipelineBuilder, RangeInput};
    use crate::shape::RegionSchema;
    use spzip_compress::model::{CodecRates, RateTable, StreamProfile};
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
        assert_eq!(report.plan[0].current, CodecKind::Rle);
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
        input
            .perf
            .profiles
            .insert(0, StreamProfile::incompressible(4));
        let mut rates = RateTable::nominal();
        rates.set(
            CodecKind::None,
            CodecRates {
                decode_gbps: 100.0,
                encode_gbps: 100.0,
            },
        );
        input.perf.rates = rates;
        let report = suggest(&input);
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::A002),
            "{:?}",
            report.diagnostics
        );
        assert_eq!(report.plan[0].suggested, CodecKind::None);
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
        input.perf.rates = rates;
        let report = suggest(&input);
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::A003),
            "{:?}",
            report.diagnostics
        );
        // Whatever the plan holds must certify end to end.
        certify(&p, Some(&schema), &report.plan).unwrap();
    }

    #[test]
    fn plan_roundtrips_through_apply() {
        let p = decompress_pipeline(CodecKind::Rle, 4);
        let schema = schema_for(CodecKind::Rle);
        let input = SuggestInput::with_schema(&p, &schema);
        let report = suggest(&input);
        assert!(!report.plan.is_empty());
        let (auto, auto_schema) = certify(&p, Some(&schema), &report.plan).unwrap();
        let auto_schema = auto_schema.expect("a schema in yields a schema out");
        assert_ne!(auto, p);
        // Re-suggesting on the rewired pipeline proposes nothing better.
        let re = suggest(&SuggestInput::with_schema(&auto, &auto_schema));
        assert!(re.plan.is_empty(), "{:?}", re.plan);
    }

    #[test]
    fn certify_refuses_a_one_sided_pair_swap() {
        // An internal compress/decompress roundtrip: a plan swapping only
        // the compress side breaks the pair, so certification must refuse
        // it — there is no path by which the rewiring gets applied.
        let mut b = PipelineBuilder::new();
        let q0 = b.queue(32);
        let q1 = b.queue(32);
        let q2 = b.queue(32);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Delta,
                elem_bytes: 8,
                sort_chunks: false,
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
        let mut schema = MemorySchema::new();
        schema.add_region(RegionSchema::raw("scratch", 0x1000, 0x1000, 8));
        schema.declare_input(
            q0,
            shape::InputDomain::Values {
                elem_bytes: 8,
                max: None,
            },
        );
        let p = b.build().unwrap();
        let forged = [PlanEntry {
            op: 0,
            queue: q0,
            current: CodecKind::Delta,
            suggested: CodecKind::Rle,
            sort_chunks: false,
            gain: 0.5,
        }];
        let rejection = certify(&p, Some(&schema), &forged)
            .expect_err("a one-sided pair swap must not certify");
        assert!(
            rejection.iter().any(|d| d.code == Code::V002),
            "expected V002, got {rejection:?}"
        );
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
