//! Textual form of the Dataflow Configuration Language.
//!
//! The paper presents DCL programs as operator graphs (Figs. 2, 3, 5, 6,
//! 11, 13, 14); this module gives them a concrete, writable syntax so that
//! pipelines can be authored, printed, and round-tripped:
//!
//! ```text
//! # Fig. 2: CSR traversal
//! queue input 16
//! queue offs 32
//! queue rows 64
//! range input -> offs   base=offsets idx=8 elem=8 mode=pairs class=adj
//! range offs  -> rows   base=rows    idx=8 elem=4 mode=consecutive marker=0 class=adj
//! ```
//!
//! Base addresses are symbolic, resolved against a caller-provided symbol
//! table (or written as numeric literals). Output lists use `,` for
//! fan-out and `_` for none (prefetch-only operators).

use crate::dcl::{
    MemQueueMode, OperatorKind, Pipeline, PipelineBuilder, RangeInput, ValidateError,
};
use spzip_compress::CodecKind;
use spzip_mem::DataClass;
use std::collections::HashMap;
use std::fmt;

/// Parse failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line: usize,
    detail: String,
}

impl ParseError {
    fn new(line: usize, detail: impl Into<String>) -> Self {
        ParseError {
            line,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DCL parse error at line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for ParseError {}

impl From<ValidateError> for ParseError {
    fn from(e: ValidateError) -> Self {
        // Surface the first error with its source span; parse() records the
        // declaration line of every queue and operator in the builder.
        let first = e.first_error();
        ParseError::new(
            first.line.unwrap_or(0) as usize,
            format!("[{}] {}", first.code, first.message),
        )
    }
}

/// Parses a textual DCL program against `symbols` (name → address).
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, unknown symbols or queues, or
/// structural validation failures.
///
/// # Examples
///
/// ```
/// use spzip_core::parser::parse;
/// use std::collections::HashMap;
///
/// let mut syms = HashMap::new();
/// syms.insert("offsets".to_string(), 0x1000u64);
/// syms.insert("rows".to_string(), 0x2000u64);
/// let text = "
///     queue input 16
///     queue offs 32
///     queue rows 64
///     range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
///     range offs -> rows base=rows idx=8 elem=4 mode=consecutive marker=0 class=adj
/// ";
/// let p = parse(text, &syms).unwrap();
/// assert_eq!(p.operators().len(), 2);
/// ```
pub fn parse(text: &str, symbols: &HashMap<String, u64>) -> Result<Pipeline, ParseError> {
    let mut builder = PipelineBuilder::new();
    let mut queue_ids: HashMap<String, u8> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap();
        if head == "queue" {
            let name = tokens
                .next()
                .ok_or_else(|| ParseError::new(lineno, "queue needs a name"))?;
            let cap: u16 = tokens
                .next()
                .ok_or_else(|| ParseError::new(lineno, "queue needs a capacity"))?
                .parse()
                .map_err(|_| ParseError::new(lineno, "bad queue capacity"))?;
            if queue_ids.contains_key(name) {
                return Err(ParseError::new(lineno, format!("duplicate queue '{name}'")));
            }
            let id = builder.queue_at(cap, lineno as u32);
            queue_ids.insert(name.to_string(), id);
            continue;
        }
        // Operator line: <op> <in> -> <outs> k=v ...
        let input_name = tokens
            .next()
            .ok_or_else(|| ParseError::new(lineno, "operator needs an input queue"))?;
        let arrow = tokens.next();
        if arrow != Some("->") {
            return Err(ParseError::new(lineno, "expected '->' after input queue"));
        }
        let outs_tok = tokens
            .next()
            .ok_or_else(|| ParseError::new(lineno, "operator needs an output list (or _)"))?;
        let lookup = |name: &str| -> Result<u8, ParseError> {
            queue_ids
                .get(name)
                .copied()
                .ok_or_else(|| ParseError::new(lineno, format!("unknown queue '{name}'")))
        };
        let input = lookup(input_name)?;
        let outputs: Vec<u8> = if outs_tok == "_" {
            Vec::new()
        } else {
            outs_tok
                .split(',')
                .map(lookup)
                .collect::<Result<Vec<_>, _>>()?
        };
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for t in tokens {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| ParseError::new(lineno, format!("expected key=value, got '{t}'")))?;
            kv.insert(k, v);
        }
        let addr = |key: &str| -> Result<u64, ParseError> {
            let v = kv
                .get(key)
                .ok_or_else(|| ParseError::new(lineno, format!("{head} needs {key}=")))?;
            if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
                    .map_err(|_| ParseError::new(lineno, format!("bad address '{v}'")))
            } else if let Ok(n) = v.parse::<u64>() {
                Ok(n)
            } else {
                symbols
                    .get(*v)
                    .copied()
                    .ok_or_else(|| ParseError::new(lineno, format!("unknown symbol '{v}'")))
            }
        };
        let num = |key: &str, default: Option<u64>| -> Result<u64, ParseError> {
            match kv.get(key) {
                Some(v) => v
                    .parse::<u64>()
                    .map_err(|_| ParseError::new(lineno, format!("bad number for {key}"))),
                None => {
                    default.ok_or_else(|| ParseError::new(lineno, format!("{head} needs {key}=")))
                }
            }
        };
        // Narrowing fields are range-checked: truncating `elem=260` to 4
        // would accept a malformed program as a different one.
        let byte = |key: &str, default: Option<u64>| -> Result<u8, ParseError> {
            let v = num(key, default)?;
            u8::try_from(v)
                .map_err(|_| ParseError::new(lineno, format!("{key}={v} is out of range")))
        };
        let word = |key: &str, default: Option<u64>| -> Result<u32, ParseError> {
            let v = num(key, default)?;
            u32::try_from(v)
                .map_err(|_| ParseError::new(lineno, format!("{key}={v} is out of range")))
        };
        let class = match kv.get("class").copied().unwrap_or("other") {
            "adj" => DataClass::AdjacencyMatrix,
            "src" => DataClass::SourceVertex,
            "dst" => DataClass::DestinationVertex,
            "updates" => DataClass::Updates,
            "frontier" => DataClass::Frontier,
            "other" => DataClass::Other,
            other => return Err(ParseError::new(lineno, format!("unknown class '{other}'"))),
        };
        let codec = || -> Result<CodecKind, ParseError> {
            match kv.get("codec").copied().unwrap_or("delta") {
                "delta" => Ok(CodecKind::Delta),
                "bpc32" => Ok(CodecKind::Bpc32),
                "bpc64" => Ok(CodecKind::Bpc64),
                "rle" => Ok(CodecKind::Rle),
                "none" => Ok(CodecKind::None),
                other => Err(ParseError::new(lineno, format!("unknown codec '{other}'"))),
            }
        };
        let kind = match head {
            "range" => OperatorKind::RangeFetch {
                base: addr("base")?,
                idx_bytes: byte("idx", Some(8))?,
                elem_bytes: byte("elem", Some(4))?,
                input: match kv.get("mode").copied().unwrap_or("pairs") {
                    "pairs" => RangeInput::Pairs,
                    "consecutive" => RangeInput::Consecutive,
                    other => {
                        return Err(ParseError::new(lineno, format!("unknown mode '{other}'")))
                    }
                },
                marker: kv
                    .get("marker")
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| ParseError::new(lineno, "bad marker value"))
                    })
                    .transpose()?,
                class,
            },
            "indirect" => OperatorKind::Indirect {
                base: addr("base")?,
                elem_bytes: byte("elem", Some(8))?,
                pair: kv.get("pair").copied() == Some("true"),
                class,
            },
            "decompress" => OperatorKind::Decompress {
                codec: codec()?,
                elem_bytes: byte("elem", Some(4))?,
            },
            "compress" => OperatorKind::Compress {
                codec: codec()?,
                elem_bytes: byte("elem", Some(4))?,
                sort_chunks: kv.get("sort").copied() == Some("true"),
            },
            "streamwrite" => OperatorKind::StreamWrite {
                base: addr("base")?,
                class,
            },
            "memqueue" => OperatorKind::MemQueue {
                num_queues: word("queues", None)?,
                data_base: addr("base")?,
                stride: num("stride", None)?,
                meta_addr: addr("meta")?,
                chunk_elems: word("chunk", Some(32))?,
                elem_bytes: byte("elem", Some(8))?,
                mode: match kv.get("mq").copied().unwrap_or("buffer") {
                    "buffer" => MemQueueMode::Buffer,
                    "append" => MemQueueMode::Append,
                    other => {
                        return Err(ParseError::new(
                            lineno,
                            format!("unknown mq mode '{other}'"),
                        ))
                    }
                },
                class,
            },
            other => {
                return Err(ParseError::new(
                    lineno,
                    format!("unknown operator '{other}'"),
                ))
            }
        };
        builder.operator_at(kind, input, outputs, lineno as u32);
    }
    Ok(builder.build()?)
}

/// Pretty-prints a pipeline back to the textual form (addresses as hex
/// literals, queues named `q0..`).
pub fn to_text(pipeline: &Pipeline) -> String {
    let mut out = String::new();
    for (i, q) in pipeline.queues().iter().enumerate() {
        out.push_str(&format!("queue q{i} {}\n", q.capacity_words));
    }
    let class_str = |c: DataClass| match c {
        DataClass::AdjacencyMatrix => "adj",
        DataClass::SourceVertex => "src",
        DataClass::DestinationVertex => "dst",
        DataClass::Updates => "updates",
        DataClass::Frontier => "frontier",
        DataClass::Other => "other",
    };
    for op in pipeline.operators() {
        let outs = if op.outputs.is_empty() {
            "_".to_string()
        } else {
            op.outputs
                .iter()
                .map(|q| format!("q{q}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let head = format!("{} q{} -> {outs}", op.kind.name(), op.input);
        let rest = match &op.kind {
            OperatorKind::RangeFetch { base, idx_bytes, elem_bytes, input, marker, class } => {
                let mut s = format!(
                    "base=0x{base:x} idx={idx_bytes} elem={elem_bytes} mode={} class={}",
                    match input {
                        RangeInput::Pairs => "pairs",
                        RangeInput::Consecutive => "consecutive",
                    },
                    class_str(*class)
                );
                if let Some(m) = marker {
                    s.push_str(&format!(" marker={m}"));
                }
                s
            }
            OperatorKind::Indirect { base, elem_bytes, pair, class } => {
                format!("base=0x{base:x} elem={elem_bytes} pair={pair} class={}", class_str(*class))
            }
            OperatorKind::Decompress { codec, elem_bytes } => {
                format!("codec={codec} elem={elem_bytes}")
            }
            OperatorKind::Compress { codec, elem_bytes, sort_chunks } => {
                format!("codec={codec} elem={elem_bytes} sort={sort_chunks}")
            }
            OperatorKind::StreamWrite { base, class } => {
                format!("base=0x{base:x} class={}", class_str(*class))
            }
            OperatorKind::MemQueue {
                num_queues,
                data_base,
                stride,
                meta_addr,
                chunk_elems,
                elem_bytes,
                mode,
                class,
            } => format!(
                "queues={num_queues} base=0x{data_base:x} stride={stride} meta=0x{meta_addr:x} chunk={chunk_elems} elem={elem_bytes} mq={} class={}",
                match mode {
                    MemQueueMode::Buffer => "buffer",
                    MemQueueMode::Append => "append",
                },
                class_str(*class)
            ),
        };
        out.push_str(&format!("{head} {rest}\n"));
    }
    out
}

/// Renders a pipeline as a Graphviz `dot` digraph, in the visual style of
/// the paper's pipeline figures: one node per operator, one labeled edge
/// per queue, diamond nodes for the core-facing endpoints.
pub fn to_dot(pipeline: &Pipeline) -> String {
    to_dot_with(pipeline, &|q| format!("q{q}"))
}

/// [`to_dot`] with a caller-supplied edge label per queue — used by
/// [`shape::annotated_dot`](crate::shape::annotated_dot) to annotate each
/// edge with its inferred shape domain.
pub fn to_dot_with(pipeline: &Pipeline, edge_label: &dyn Fn(crate::QueueId) -> String) -> String {
    let mut out = String::from("digraph dcl {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, op) in pipeline.operators().iter().enumerate() {
        out.push_str(&format!("  op{i} [label=\"{}\"];\n", op.kind.name()));
    }
    for q in pipeline.core_input_queues() {
        out.push_str(&format!("  in{q} [label=\"core q{q}\", shape=diamond];\n"));
    }
    for q in pipeline.core_output_queues() {
        out.push_str(&format!("  out{q} [label=\"core q{q}\", shape=diamond];\n"));
    }
    let producer_of = |q: crate::QueueId| {
        pipeline
            .operators()
            .iter()
            .position(|op| op.outputs.contains(&q))
    };
    for (i, op) in pipeline.operators().iter().enumerate() {
        let label = edge_label(op.input);
        match producer_of(op.input) {
            Some(p) => out.push_str(&format!("  op{p} -> op{i} [label=\"{label}\"];\n")),
            None => out.push_str(&format!(
                "  in{0} -> op{i} [label=\"{label}\"];\n",
                op.input
            )),
        }
    }
    for q in pipeline.core_output_queues() {
        if let Some(p) = producer_of(q) {
            out.push_str(&format!(
                "  op{p} -> out{q} [label=\"{}\"];\n",
                edge_label(q)
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> HashMap<String, u64> {
        let mut m = HashMap::new();
        m.insert("offsets".to_string(), 0x1000);
        m.insert("rows".to_string(), 0x2000);
        m.insert("bins".to_string(), 0x8000);
        m.insert("meta".to_string(), 0x9000);
        m
    }

    #[test]
    fn parses_fig2() {
        let text = "
            # Fig. 2
            queue input 16
            queue offs 32
            queue rows 64
            range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
            range offs -> rows base=rows idx=8 elem=4 mode=consecutive marker=0 class=adj
        ";
        let p = parse(text, &syms()).unwrap();
        assert_eq!(p.operators().len(), 2);
        assert_eq!(p.core_output_queues(), vec![2]);
    }

    #[test]
    fn parses_every_operator_and_roundtrips() {
        let text = "
            queue a 8
            queue b 8
            queue c 8
            queue d 8
            queue e 8
            queue f 8
            queue g 8
            range a -> b base=0x1000 idx=8 elem=1 mode=pairs marker=3 class=adj
            decompress b -> c codec=delta elem=4
            indirect c -> d base=rows elem=8 class=dst
            compress d -> e codec=bpc64 elem=8 sort=true
            streamwrite e -> _ base=0x7000 class=updates
            memqueue f -> g queues=4 base=bins stride=4096 meta=meta chunk=32 elem=8 mq=buffer class=updates
        ";
        let p = parse(text, &syms()).unwrap();
        assert_eq!(p.operators().len(), 6);
        let printed = to_text(&p);
        let reparsed = parse(&printed, &HashMap::new()).unwrap();
        assert_eq!(p, reparsed, "round-trip through text");
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse("queue a 8\nbogus a -> a", &syms()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_queue_is_an_error() {
        let err = parse("queue a 8\nrange a -> zz base=0x0", &syms()).unwrap_err();
        assert!(err.to_string().contains("unknown queue"));
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let err = parse("queue a 8\nqueue b 8\nrange a -> b base=nope", &syms()).unwrap_err();
        assert!(err.to_string().contains("unknown symbol"));
    }

    #[test]
    fn structural_validation_propagates() {
        // Two consumers of queue a.
        let text = "
            queue a 8
            queue b 8
            queue c 8
            range a -> b base=0x0
            range a -> c base=0x0
        ";
        let err = parse(text, &syms()).unwrap_err();
        assert!(err.to_string().contains("consumers"));
    }

    #[test]
    fn undersized_queue_is_rejected_with_code_and_span() {
        // Queue b (4 words = 16 quarters) cannot hold one 32-quarter fetch
        // burst: the build must fail with E013 pointing at b's declaration
        // line instead of producing a program that wedges the engine.
        let text = "queue a 8\nqueue b 4\nrange a -> b base=0x0 elem=8";
        let err = parse(text, &syms()).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("[E013]"), "{s}");
        assert!(s.contains("line 2"), "{s}");
    }

    #[test]
    fn out_of_range_numbers_are_errors_naming_the_key() {
        // Each value would truncate to a valid one (elem=4, idx=8,
        // queues=1, chunk=32) and so parse as a different program.
        let cases = [
            ("range a -> b base=0x1000 elem=260", "elem"),
            ("range a -> b base=0x1000 idx=264", "idx"),
            (
                "memqueue a -> b queues=4294967297 base=bins stride=4096 meta=meta",
                "queues",
            ),
            (
                "memqueue a -> b queues=4 base=bins stride=4096 meta=meta chunk=4294967328",
                "chunk",
            ),
        ];
        for (op, key) in cases {
            let text = format!("queue a 8\nqueue b 16\n{op}");
            let err = parse(&text, &syms()).unwrap_err().to_string();
            assert!(err.contains("line 3"), "{op}: {err}");
            assert!(err.contains(&format!("{key}=")), "{op}: {err}");
            assert!(err.contains("out of range"), "{op}: {err}");
        }
    }

    #[test]
    fn duplicate_queue_is_an_error() {
        let err = parse("queue a 8\nqueue a 8", &syms()).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn dot_export_covers_operators_queues_and_endpoints() {
        let text = "
            queue input 16
            queue offs 32
            queue rows 64
            range input -> offs base=offsets idx=8 elem=8 mode=pairs class=adj
            range offs -> rows base=rows idx=8 elem=4 mode=consecutive marker=0 class=adj
        ";
        let p = parse(text, &syms()).unwrap();
        let dot = to_dot(&p);
        assert!(dot.starts_with("digraph dcl {"));
        assert!(dot.contains("op0 [label=\"range\"]"));
        assert!(dot.contains("in0 -> op0"));
        assert!(dot.contains("op0 -> op1 [label=\"q1\"]"));
        assert!(dot.contains("op1 -> out2"));
        assert_eq!(dot.matches("diamond").count(), 2);
    }

    #[test]
    fn defaults_apply() {
        let p = parse(
            "queue a 8\nqueue b 8\nrange a -> b base=0x40",
            &HashMap::new(),
        )
        .unwrap();
        match &p.operators()[0].kind {
            OperatorKind::RangeFetch {
                idx_bytes,
                elem_bytes,
                input,
                marker,
                ..
            } => {
                assert_eq!(*idx_bytes, 8);
                assert_eq!(*elem_bytes, 4);
                assert_eq!(*input, RangeInput::Pairs);
                assert_eq!(*marker, None);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
