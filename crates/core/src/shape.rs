//! Shape-and-bounds verification: abstract interpretation of DCL programs
//! against a declared memory layout.
//!
//! The [`lint`](crate::lint) pass checks a pipeline's *structure* (queue
//! wiring, burst sizes, marker discipline); it cannot know whether an
//! indirection chain stays inside the arrays it traverses or whether a
//! decompressor is paired with the codec that actually framed its input
//! region — those hazards corrupt traffic silently and, until now, were
//! only caught dynamically by the SimSanitizer. [`verify`] closes that gap
//! statically: callers declare a [`MemorySchema`] (per-region extent,
//! element width, codec framing, and value bounds, plus the shape of every
//! stream the core feeds in), and the verifier propagates an abstract
//! [`ShapeDomain`] along every queue in topological order, checking at
//! each operator that
//!
//! * every [`RangeFetch`](OperatorKind::RangeFetch) /
//!   [`Indirect`](OperatorKind::Indirect) index stream is provably
//!   in-bounds for the region its base resolves to (`B001`, `B002`,
//!   `B007`),
//! * element widths agree with the region's declared width and across
//!   every queue edge, including decompressed widths and MemQueue bin
//!   payloads (`B003`, `B006`),
//! * (de)compression operators see exactly the framing the producing
//!   region or upstream compressor declared — right codec, framed versus
//!   raw (`B004`, `B005`),
//! * MemQueue bin footprints (data and tail metadata) fit their regions
//!   (`B008`).
//!
//! Findings surface as the stable `B001`–`B008` diagnostic family through
//! the shared [`Diagnostic`] machinery, so `dcl-lint` renders and exports
//! them exactly like `E`/`W`/`P` codes. Like the `P` codes, `B` codes are
//! emitted only by this module — never by `lint()` — so
//! [`PipelineBuilder::build`](crate::dcl::PipelineBuilder::build) is
//! unaffected; unlike `P` codes they are error severity, because a shape
//! violation means the program reads or writes memory it does not own.
//!
//! The abstract domain per queue ([`ShapeDomain`]) tracks what flows on
//! the wire: raw elements (source region, width, an inclusive upper bound
//! on values when the region declares one), codec-framed bytes (codec,
//! decoded width, decoded bound), or `(bin, payload)` pairs feeding a
//! buffer-mode MemQueue. Index bounds use one convention throughout: a
//! stream's `max` is the largest *value* it can carry. Range endpoints are
//! exclusive, so a fetch driven by values `<= max` touches at most
//! `max * elem_bytes` bytes; an indirection reads the element *at* the
//! value, so it touches `(max + fetched_elems) * elem_bytes`.

use crate::dcl::{MemQueueMode, OperatorKind, Pipeline};
use crate::lint::{Code, Diagnostic, Site};
use crate::QueueId;
use spzip_compress::CodecKind;
use std::collections::BTreeMap;
use std::fmt;

/// How the bytes stored in a region are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Uncompressed elements of the region's declared width.
    Raw,
    /// Concatenated codec frames (the bin / compressed-slice layout).
    Frames {
        /// The codec that produced (and can decode) the frames.
        codec: CodecKind,
        /// Width of the elements a decode yields.
        decoded_elem_bytes: u8,
        /// Inclusive upper bound on decoded values, when known.
        decoded_max: Option<u64>,
    },
}

/// One region of the declared memory layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSchema {
    /// Region name (unique within a schema; mirrors the
    /// [`MemoryImage`](crate::memory::MemoryImage) region name).
    pub name: String,
    /// Base address.
    pub base: u64,
    /// Extent in bytes.
    pub bytes: u64,
    /// Element width as the fetcher sees it (1 for framed byte blobs).
    pub elem_bytes: u8,
    /// Inclusive upper bound on stored element values, when the layout
    /// guarantees one (e.g. an offsets array bounded by the edge count).
    /// Only meaningful for [`Framing::Raw`] regions.
    pub max_value: Option<u64>,
    /// How the stored bytes are encoded.
    pub framing: Framing,
}

impl RegionSchema {
    /// A raw region with no declared value bound.
    pub fn raw(name: &str, base: u64, bytes: u64, elem_bytes: u8) -> Self {
        RegionSchema {
            name: name.to_string(),
            base,
            bytes,
            elem_bytes,
            max_value: None,
            framing: Framing::Raw,
        }
    }

    /// A raw region whose element values are bounded by `max_value`
    /// (inclusive) — an index array.
    pub fn raw_bounded(name: &str, base: u64, bytes: u64, elem_bytes: u8, max_value: u64) -> Self {
        RegionSchema {
            max_value: Some(max_value),
            ..Self::raw(name, base, bytes, elem_bytes)
        }
    }

    /// A region holding concatenated `codec` frames (wire width 1).
    pub fn framed(
        name: &str,
        base: u64,
        bytes: u64,
        codec: CodecKind,
        decoded_elem_bytes: u8,
        decoded_max: Option<u64>,
    ) -> Self {
        RegionSchema {
            name: name.to_string(),
            base,
            bytes,
            elem_bytes: 1,
            max_value: None,
            framing: Framing::Frames {
                codec,
                decoded_elem_bytes,
                decoded_max,
            },
        }
    }

    /// Number of whole elements the region holds.
    pub fn elems(&self) -> u64 {
        if self.elem_bytes == 0 {
            0
        } else {
            self.bytes / self.elem_bytes as u64
        }
    }
}

/// The declared shape of a stream the core enqueues into one of the
/// pipeline's input queues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputDomain {
    /// Element-index range endpoints into the named region: `(start, end)`
    /// pairs (or consecutive boundaries) with `end <= region.elems()`.
    Ranges {
        /// Target region name.
        region: String,
    },
    /// Plain values the pipeline transforms but never uses as addresses.
    Values {
        /// Enqueued element width.
        elem_bytes: u8,
        /// Inclusive upper bound on the values, when known.
        max: Option<u64>,
    },
    /// Alternating `(bin id, payload)` items feeding a buffer-mode
    /// MemQueue; `Marker(bin)` closes a bin.
    BinPairs {
        /// Largest bin id the core will name (inclusive).
        max_bin: u32,
        /// Payload element width.
        elem_bytes: u8,
    },
}

/// The declared memory layout a pipeline runs against: regions plus the
/// shape of every core-fed input queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemorySchema {
    /// Declared regions, in any order.
    pub regions: Vec<RegionSchema>,
    /// Declared core-input stream shapes, by queue id.
    pub inputs: BTreeMap<QueueId, InputDomain>,
}

impl MemorySchema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a region.
    pub fn add_region(&mut self, region: RegionSchema) {
        self.regions.push(region);
    }

    /// Declares the shape of the stream the core feeds into queue `q`.
    pub fn declare_input(&mut self, q: QueueId, domain: InputDomain) {
        self.inputs.insert(q, domain);
    }

    /// Looks a region up by name.
    pub fn region_named(&self, name: &str) -> Option<&RegionSchema> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// The region containing `addr`, if any.
    pub fn region_containing(&self, addr: u64) -> Option<&RegionSchema> {
        self.regions
            .iter()
            .find(|r| addr >= r.base && addr < r.base + r.bytes)
    }
}

/// The abstract value the verifier tracks per queue: what flows on the
/// wire between two operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeDomain {
    /// Raw elements, optionally traced to a source region and bounded.
    Elements {
        /// Region the elements were loaded from (`None` for decompressed
        /// or core-synthesized values).
        region: Option<String>,
        /// Element width on the wire.
        elem_bytes: u8,
        /// Inclusive upper bound on values, when known.
        max: Option<u64>,
    },
    /// Codec-framed bytes (wire width 1).
    Bytes {
        /// Codec that framed the stream.
        codec: CodecKind,
        /// Width of the elements a decode yields.
        decoded_elem_bytes: u8,
        /// Inclusive upper bound on decoded values, when known.
        decoded_max: Option<u64>,
    },
    /// Alternating `(bin id, payload)` items for a buffer-mode MemQueue.
    BinPairs {
        /// Largest bin id (inclusive).
        max_bin: u32,
        /// Payload element width.
        elem_bytes: u8,
    },
    /// Undeclared core input: nothing is known (reported as `B007`).
    Unknown,
}

impl fmt::Display for ShapeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeDomain::Elements {
                region,
                elem_bytes,
                max,
            } => {
                write!(f, "raw w{elem_bytes}")?;
                if let Some(m) = max {
                    write!(f, " max={m}")?;
                }
                if let Some(r) = region {
                    write!(f, " @{r}")?;
                }
                Ok(())
            }
            ShapeDomain::Bytes {
                codec,
                decoded_elem_bytes,
                decoded_max,
            } => {
                write!(f, "frames({codec})->w{decoded_elem_bytes}")?;
                if let Some(m) = decoded_max {
                    write!(f, " max={m}")?;
                }
                Ok(())
            }
            ShapeDomain::BinPairs {
                max_bin,
                elem_bytes,
            } => write!(f, "binpairs<={max_bin} w{elem_bytes}"),
            ShapeDomain::Unknown => write!(f, "?"),
        }
    }
}

/// Outcome of one [`verify`] run.
#[derive(Debug, Clone, Default)]
pub struct ShapeReport {
    /// `B0xx` findings, in operator order.
    pub diagnostics: Vec<Diagnostic>,
    /// The inferred domain per queue id (`None` for queues no declared
    /// input or reachable producer feeds).
    pub queue_domains: Vec<Option<ShapeDomain>>,
}

impl ShapeReport {
    /// True when no `B` diagnostic was emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Short label for queue `q`'s inferred domain (dot annotation).
    pub fn domain_label(&self, q: QueueId) -> String {
        match self.queue_domains.get(q as usize) {
            Some(Some(d)) => d.to_string(),
            _ => "unfed".to_string(),
        }
    }
}

/// How many elements one firing of an [`Indirect`](OperatorKind::Indirect)
/// reads at its computed address.
fn indirect_elems(pair: bool) -> u64 {
    if pair {
        2
    } else {
        1
    }
}

/// The element width `codec` is defined over, when it is width-specific.
fn codec_elem_bytes(codec: CodecKind) -> Option<u8> {
    codec.natural_elem_bytes()
}

struct Verifier<'a> {
    schema: &'a MemorySchema,
    lines: &'a [Option<u32>],
    diags: Vec<Diagnostic>,
}

impl Verifier<'_> {
    fn emit(&mut self, code: Code, op: usize, message: String, hint: &str) {
        let d = Diagnostic::new(
            code,
            Site::Operator(op),
            self.lines.get(op).copied().flatten(),
            message,
        )
        .hint(hint);
        // One fault can surface through several outputs of the same
        // operator; keep one diagnostic per (code, site, message).
        if !self.diags.contains(&d) {
            self.diags.push(d);
        }
    }

    /// Resolves `base` to a region, reporting `B001` at `op` otherwise.
    fn resolve(&mut self, op: usize, what: &str, base: u64) -> Option<RegionSchema> {
        match self.schema.region_containing(base) {
            Some(r) => Some(r.clone()),
            None => {
                self.emit(
                    Code::B001,
                    op,
                    format!("{what} base {base:#x} lies outside every declared region"),
                    "point the operator at a declared region, or add the region to the schema",
                );
                None
            }
        }
    }

    /// Checks that index values `<= max` striding `elem_bytes` from `base`
    /// stay inside `r`; `extra_elems` accounts for elements read *at* the
    /// index (indirections) versus exclusive range endpoints (0).
    #[allow(clippy::too_many_arguments)]
    fn check_bounds(
        &mut self,
        op: usize,
        what: &str,
        r: &RegionSchema,
        base: u64,
        max: u64,
        elem_bytes: u8,
        extra_elems: u64,
    ) {
        let offset = base - r.base;
        let need = offset + (max + extra_elems) * elem_bytes as u64;
        if need > r.bytes {
            self.emit(
                Code::B002,
                op,
                format!(
                    "{what} can reach byte {need} of region '{}' ({} bytes): \
                     index values up to {max} stride {elem_bytes} B from offset {offset}",
                    r.name, r.bytes
                ),
                "shrink the index bound, fix the base, or grow the region",
            );
        }
    }

    /// Checks the fetched element width against the region's declaration.
    fn check_width(&mut self, op: usize, what: &str, r: &RegionSchema, elem_bytes: u8) {
        if elem_bytes != r.elem_bytes {
            self.emit(
                Code::B003,
                op,
                format!(
                    "{what} moves {elem_bytes}-byte elements but region '{}' declares \
                     {}-byte elements",
                    r.name, r.elem_bytes
                ),
                "match the operator's elem width to the region's declared width",
            );
        }
    }

    /// The domain a fetch from `r` at width `elem_bytes` produces.
    fn fetched_domain(&self, r: &RegionSchema, elem_bytes: u8) -> ShapeDomain {
        match r.framing {
            Framing::Frames {
                codec,
                decoded_elem_bytes,
                decoded_max,
            } => ShapeDomain::Bytes {
                codec,
                decoded_elem_bytes,
                decoded_max,
            },
            Framing::Raw => ShapeDomain::Elements {
                region: Some(r.name.clone()),
                elem_bytes,
                max: r.max_value,
            },
        }
    }

    /// Requires an index-capable input: raw values with a provable bound.
    /// Returns the bound, or `None` when further checks are impossible.
    fn index_bound(&mut self, op: usize, what: &str, d: &ShapeDomain) -> Option<u64> {
        match d {
            ShapeDomain::Elements { max: Some(m), .. } => Some(*m),
            ShapeDomain::Elements { max: None, .. } => {
                self.emit(
                    Code::B007,
                    op,
                    format!("{what} is driven by an index stream with no provable bound"),
                    "declare a max on the feeding region or input domain",
                );
                None
            }
            ShapeDomain::Bytes { codec, .. } => {
                self.emit(
                    Code::B005,
                    op,
                    format!("{what} consumes {codec}-framed bytes as index values"),
                    "decompress the stream before using it as indices",
                );
                None
            }
            ShapeDomain::BinPairs { .. } => {
                self.emit(
                    Code::B005,
                    op,
                    format!("{what} consumes a (bin, payload) pair stream as index values"),
                    "feed the pair stream to a buffer-mode MemQueue instead",
                );
                None
            }
            ShapeDomain::Unknown => None,
        }
    }

    /// Interprets one operator under input domain `d`, returning the
    /// domain of its outputs.
    fn transfer(&mut self, op: usize, kind: &OperatorKind, d: &ShapeDomain) -> ShapeDomain {
        match kind {
            OperatorKind::RangeFetch {
                base, elem_bytes, ..
            } => {
                let bound = self.index_bound(op, "range fetch", d);
                let Some(r) = self.resolve(op, "range fetch", *base) else {
                    return ShapeDomain::Elements {
                        region: None,
                        elem_bytes: *elem_bytes,
                        max: None,
                    };
                };
                self.check_width(op, "range fetch", &r, *elem_bytes);
                if let Some(m) = bound {
                    // Endpoints are exclusive: values <= m read [s, e) with
                    // e <= m, touching at most m * elem bytes.
                    self.check_bounds(op, "range fetch", &r, *base, m, *elem_bytes, 0);
                }
                self.fetched_domain(&r, *elem_bytes)
            }
            OperatorKind::Indirect {
                base,
                elem_bytes,
                pair,
                ..
            } => {
                let bound = self.index_bound(op, "indirection", d);
                let Some(r) = self.resolve(op, "indirection", *base) else {
                    return ShapeDomain::Elements {
                        region: None,
                        elem_bytes: *elem_bytes,
                        max: None,
                    };
                };
                self.check_width(op, "indirection", &r, *elem_bytes);
                if let Some(m) = bound {
                    self.check_bounds(
                        op,
                        "indirection",
                        &r,
                        *base,
                        m,
                        *elem_bytes,
                        indirect_elems(*pair),
                    );
                }
                self.fetched_domain(&r, *elem_bytes)
            }
            OperatorKind::Decompress { codec, elem_bytes } => {
                let decoded_max = match d {
                    ShapeDomain::Bytes {
                        codec: framed,
                        decoded_elem_bytes,
                        decoded_max,
                    } => {
                        if framed != codec {
                            self.emit(
                                Code::B004,
                                op,
                                format!(
                                    "decompressor expects {codec} frames but the stream was \
                                     framed by {framed}"
                                ),
                                "match the decompressor codec to the producing region",
                            );
                        }
                        if decoded_elem_bytes != elem_bytes {
                            self.emit(
                                Code::B006,
                                op,
                                format!(
                                    "decompressor emits {elem_bytes}-byte elements but the \
                                     frames decode to {decoded_elem_bytes}-byte elements"
                                ),
                                "match the decompressor elem width to the framed data",
                            );
                        }
                        *decoded_max
                    }
                    ShapeDomain::Unknown => None,
                    other => {
                        self.emit(
                            Code::B005,
                            op,
                            format!("decompressor fed an unframed stream ({other})"),
                            "fetch from a framed region (or drop the decompressor)",
                        );
                        None
                    }
                };
                if let Some(w) = codec_elem_bytes(*codec) {
                    if w != *elem_bytes {
                        self.emit(
                            Code::B006,
                            op,
                            format!("{codec} decodes {w}-byte elements, not {elem_bytes}-byte"),
                            "use the codec's element width",
                        );
                    }
                }
                ShapeDomain::Elements {
                    region: None,
                    elem_bytes: *elem_bytes,
                    max: decoded_max,
                }
            }
            OperatorKind::Compress {
                codec, elem_bytes, ..
            } => {
                let max = match d {
                    ShapeDomain::Elements {
                        elem_bytes: w, max, ..
                    } => {
                        if w != elem_bytes {
                            self.emit(
                                Code::B006,
                                op,
                                format!(
                                    "compressor chunks {elem_bytes}-byte elements but its input \
                                     stream carries {w}-byte elements"
                                ),
                                "match the compressor elem width to its input",
                            );
                        }
                        *max
                    }
                    ShapeDomain::Unknown => None,
                    other => {
                        self.emit(
                            Code::B005,
                            op,
                            format!("compressor fed an already-framed stream ({other})"),
                            "compress raw values only",
                        );
                        None
                    }
                };
                if let Some(w) = codec_elem_bytes(*codec) {
                    if w != *elem_bytes {
                        self.emit(
                            Code::B006,
                            op,
                            format!("{codec} encodes {w}-byte elements, not {elem_bytes}-byte"),
                            "use the codec's element width",
                        );
                    }
                }
                ShapeDomain::Bytes {
                    codec: *codec,
                    decoded_elem_bytes: *elem_bytes,
                    decoded_max: max,
                }
            }
            OperatorKind::StreamWrite { base, .. } => {
                if let Some(r) = self.resolve(op, "stream write", *base) {
                    self.check_write(op, "stream write", &r, d);
                }
                ShapeDomain::Unknown
            }
            OperatorKind::MemQueue {
                num_queues,
                data_base,
                stride,
                meta_addr,
                elem_bytes,
                mode,
                ..
            } => {
                if let Some(r) = self.resolve(op, "MemQueue data", *data_base) {
                    let need = (*data_base - r.base) + *num_queues as u64 * stride;
                    if need > r.bytes {
                        self.emit(
                            Code::B008,
                            op,
                            format!(
                                "MemQueue spans {num_queues} bins x {stride} B from offset {} — \
                                 {need} bytes, but region '{}' holds {}",
                                *data_base - r.base,
                                r.name,
                                r.bytes
                            ),
                            "shrink the bin count/stride or grow the region",
                        );
                    }
                    match mode {
                        MemQueueMode::Buffer => match d {
                            ShapeDomain::BinPairs {
                                max_bin,
                                elem_bytes: w,
                            } => {
                                if *max_bin >= *num_queues {
                                    self.emit(
                                        Code::B002,
                                        op,
                                        format!(
                                            "bin ids reach {max_bin} but the MemQueue declares \
                                             only {num_queues} bins"
                                        ),
                                        "raise num_queues or bound the core's bin ids",
                                    );
                                }
                                if w != elem_bytes {
                                    self.emit(
                                        Code::B006,
                                        op,
                                        format!(
                                            "MemQueue buffers {elem_bytes}-byte payloads but the \
                                             pair stream carries {w}-byte payloads"
                                        ),
                                        "match the MemQueue elem width to the payload",
                                    );
                                }
                            }
                            ShapeDomain::Unknown => {}
                            other => {
                                self.emit(
                                    Code::B005,
                                    op,
                                    format!(
                                        "buffer-mode MemQueue needs a (bin, payload) pair \
                                         stream, got {other}"
                                    ),
                                    "declare the input as bin pairs",
                                );
                            }
                        },
                        MemQueueMode::Append => self.check_write(op, "append MemQueue", &r, d),
                    }
                }
                if let Some(rm) = self.resolve(op, "MemQueue meta", *meta_addr) {
                    let need = (*meta_addr - rm.base) + *num_queues as u64 * 8;
                    if need > rm.bytes {
                        self.emit(
                            Code::B008,
                            op,
                            format!(
                                "MemQueue tail pointers need {need} bytes of region '{}' \
                                 ({} bytes)",
                                rm.name, rm.bytes
                            ),
                            "grow the metadata region or shrink the bin count",
                        );
                    }
                }
                match (mode, self.schema.region_containing(*data_base)) {
                    // Buffer-mode MQUs re-emit the buffered elements.
                    (MemQueueMode::Buffer, Some(r)) => ShapeDomain::Elements {
                        region: Some(r.name.clone()),
                        elem_bytes: *elem_bytes,
                        max: r.max_value,
                    },
                    _ => ShapeDomain::Unknown,
                }
            }
        }
    }

    /// Checks a stream written into region `r` (stream writers and
    /// append-mode MemQueues) against the region's declared framing.
    fn check_write(&mut self, op: usize, what: &str, r: &RegionSchema, d: &ShapeDomain) {
        match (d, &r.framing) {
            (
                ShapeDomain::Bytes {
                    codec,
                    decoded_elem_bytes,
                    ..
                },
                Framing::Frames {
                    codec: declared,
                    decoded_elem_bytes: declared_w,
                    ..
                },
            ) => {
                if codec != declared {
                    self.emit(
                        Code::B004,
                        op,
                        format!(
                            "{what} stores {codec} frames into region '{}' declared to hold \
                             {declared} frames",
                            r.name
                        ),
                        "match the compressor codec to the region's declared codec",
                    );
                }
                if decoded_elem_bytes != declared_w {
                    self.emit(
                        Code::B006,
                        op,
                        format!(
                            "{what} stores frames decoding to {decoded_elem_bytes}-byte \
                             elements into region '{}' declared as {declared_w}-byte",
                            r.name
                        ),
                        "match the compressed element width to the region declaration",
                    );
                }
            }
            (ShapeDomain::Bytes { codec, .. }, Framing::Raw) => {
                self.emit(
                    Code::B005,
                    op,
                    format!("{what} stores {codec} frames into raw region '{}'", r.name),
                    "declare the region framed, or drop the compressor",
                );
            }
            (ShapeDomain::Elements { elem_bytes, .. }, Framing::Frames { codec, .. }) => {
                self.emit(
                    Code::B005,
                    op,
                    format!(
                        "{what} stores raw {elem_bytes}-byte elements into region '{}' \
                         declared to hold {codec} frames",
                        r.name
                    ),
                    "compress the stream before writing, or declare the region raw",
                );
            }
            (ShapeDomain::Elements { elem_bytes, .. }, Framing::Raw) => {
                self.check_width(op, what, r, *elem_bytes);
            }
            (ShapeDomain::BinPairs { .. }, _) => {
                self.emit(
                    Code::B005,
                    op,
                    format!(
                        "{what} stores a (bin, payload) pair stream into '{}'",
                        r.name
                    ),
                    "route pair streams through a buffer-mode MemQueue",
                );
            }
            (ShapeDomain::Unknown, _) => {}
        }
    }
}

/// The domain a declared [`InputDomain`] seeds its queue with.
fn input_domain_value(
    schema: &MemorySchema,
    q: QueueId,
    d: &InputDomain,
    diags: &mut Vec<Diagnostic>,
) -> ShapeDomain {
    match d {
        InputDomain::Ranges { region } => match schema.region_named(region) {
            Some(r) => ShapeDomain::Elements {
                region: Some(r.name.clone()),
                elem_bytes: 8, // the core enqueues endpoints as u64s
                max: Some(r.elems()),
            },
            None => {
                diags.push(
                    Diagnostic::new(
                        Code::B007,
                        Site::Queue(q),
                        None,
                        format!("input declares ranges into unknown region '{region}'"),
                    )
                    .hint("declare the region in the schema"),
                );
                ShapeDomain::Unknown
            }
        },
        InputDomain::Values { elem_bytes, max } => ShapeDomain::Elements {
            region: None,
            elem_bytes: *elem_bytes,
            max: *max,
        },
        InputDomain::BinPairs {
            max_bin,
            elem_bytes,
        } => ShapeDomain::BinPairs {
            max_bin: *max_bin,
            elem_bytes: *elem_bytes,
        },
    }
}

/// Verifies `p` against `schema`, returning `B001`–`B008` diagnostics and
/// the inferred per-queue shape domains.
///
/// # Examples
///
/// ```
/// use spzip_core::dcl::{OperatorKind, PipelineBuilder, RangeInput};
/// use spzip_core::shape::{self, InputDomain, MemorySchema, RegionSchema};
/// use spzip_mem::DataClass;
///
/// // offsets[v], offsets[v+1] for vertex ids v <= 9 needs 11 elements.
/// let mut b = PipelineBuilder::new();
/// let ids = b.queue(8);
/// let offs = b.queue(24);
/// b.operator(
///     OperatorKind::Indirect { base: 0x1000, elem_bytes: 8, pair: true, class: DataClass::AdjacencyMatrix },
///     ids,
///     vec![offs],
/// );
/// let p = b.build().unwrap();
///
/// let mut schema = MemorySchema::new();
/// schema.add_region(RegionSchema::raw_bounded("offsets", 0x1000, 11 * 8, 8, 200));
/// schema.declare_input(ids, InputDomain::Values { elem_bytes: 4, max: Some(9) });
/// assert!(shape::verify(&p, &schema).is_clean());
///
/// // One vertex more and the pair fetch runs off the end: B002.
/// schema.declare_input(ids, InputDomain::Values { elem_bytes: 4, max: Some(10) });
/// let report = shape::verify(&p, &schema);
/// assert_eq!(report.diagnostics[0].code.as_str(), "B002");
/// ```
pub fn verify(p: &Pipeline, schema: &MemorySchema) -> ShapeReport {
    let ops = p.operators();
    let mut diags = Vec::new();
    let mut domains: Vec<Option<ShapeDomain>> = vec![None; p.queues().len()];

    for q in p.core_input_queues() {
        domains[q as usize] = Some(match schema.inputs.get(&q) {
            Some(d) => input_domain_value(schema, q, d, &mut diags),
            None => {
                diags.push(
                    Diagnostic::new(
                        Code::B007,
                        Site::Queue(q),
                        p.queue_lines().get(q as usize).copied().flatten(),
                        format!("core input queue q{q} has no declared shape"),
                    )
                    .hint("declare the input domain in the schema"),
                );
                ShapeDomain::Unknown
            }
        });
    }

    let mut v = Verifier {
        schema,
        lines: p.operator_lines(),
        diags,
    };

    // Topological sweep: an operator fires once its input queue's domain
    // is known. Valid pipelines are acyclic with a single producer per
    // queue, so this converges in <= |ops| passes; queues nothing feeds
    // (already a lint warning) simply stay unknown.
    let mut done = vec![false; ops.len()];
    loop {
        let mut progressed = false;
        for (i, op) in ops.iter().enumerate() {
            if done[i] {
                continue;
            }
            let Some(d) = domains[op.input as usize].clone() else {
                continue;
            };
            done[i] = true;
            progressed = true;
            let out = v.transfer(i, &op.kind, &d);
            for &oq in &op.outputs {
                domains[oq as usize] = Some(out.clone());
            }
        }
        if !progressed {
            break;
        }
    }

    ShapeReport {
        diagnostics: v.diags,
        queue_domains: domains,
    }
}

/// Renders `p` as Graphviz dot with every queue edge annotated by its
/// inferred shape domain — region, width, framing — so a miswiring is
/// visible in the rendered graph (`dcl-lint --dot`).
pub fn annotated_dot(p: &Pipeline, report: &ShapeReport) -> String {
    crate::parser::to_dot_with(p, &|q| format!("q{q}: {}", report.domain_label(q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcl::{PipelineBuilder, RangeInput};
    use spzip_mem::DataClass;

    fn codes(r: &ShapeReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    /// A two-region schema: a bounded index array feeding a data array.
    fn schema() -> MemorySchema {
        let mut s = MemorySchema::new();
        // 17 offsets (16 rows + sentinel), values bounded by 100 edges.
        s.add_region(RegionSchema::raw_bounded("offsets", 0x1000, 17 * 8, 8, 100));
        s.add_region(RegionSchema::raw_bounded(
            "neighbors",
            0x4000,
            100 * 4,
            4,
            15,
        ));
        s.add_region(RegionSchema::raw("dst", 0x8000, 16 * 4, 4));
        s.add_region(RegionSchema::framed(
            "cbytes",
            0xc000,
            256,
            CodecKind::Delta,
            4,
            Some(15),
        ));
        s
    }

    fn fig2(offs_base: u64, neigh_base: u64, neigh_elem: u8) -> (Pipeline, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let offs_q = b.queue(24);
        let rows_q = b.queue(48);
        b.operator(
            OperatorKind::RangeFetch {
                base: offs_base,
                idx_bytes: 8,
                elem_bytes: 8,
                input: RangeInput::Pairs,
                marker: None,
                class: DataClass::AdjacencyMatrix,
            },
            in_q,
            vec![offs_q],
        );
        b.operator(
            OperatorKind::RangeFetch {
                base: neigh_base,
                idx_bytes: 8,
                elem_bytes: neigh_elem,
                input: RangeInput::Consecutive,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            offs_q,
            vec![rows_q],
        );
        (b.build().unwrap(), in_q)
    }

    #[test]
    fn clean_traversal_verifies() {
        let (p, in_q) = fig2(0x1000, 0x4000, 4);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "offsets".into(),
            },
        );
        let r = verify(&p, &s);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        // The inferred domains trace the chain: endpoints -> offsets
        // elements -> neighbor elements.
        assert_eq!(
            r.queue_domains[1],
            Some(ShapeDomain::Elements {
                region: Some("offsets".into()),
                elem_bytes: 8,
                max: Some(100),
            })
        );
        assert_eq!(
            r.queue_domains[2],
            Some(ShapeDomain::Elements {
                region: Some("neighbors".into()),
                elem_bytes: 4,
                max: Some(15),
            })
        );
    }

    #[test]
    fn b001_unmapped_base() {
        let (p, in_q) = fig2(0x1000, 0x999000, 4);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "offsets".into(),
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B001"]);
    }

    #[test]
    fn b002_index_stream_exceeds_extent() {
        // Neighbors region shrunk below the offsets bound: 100 * 4 > 80.
        let (p, in_q) = fig2(0x1000, 0x4000, 4);
        let mut s = schema();
        s.regions[1].bytes = 80;
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "offsets".into(),
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B002"]);
    }

    #[test]
    fn b003_wrong_element_width() {
        let (p, in_q) = fig2(0x1000, 0x4000, 8);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "offsets".into(),
            },
        );
        let r = verify(&p, &s);
        // The doubled width also doubles the reach: B002 rides along.
        assert!(codes(&r).contains(&"B003"), "{:?}", r.diagnostics);
    }

    fn byte_fetch_decompress(codec: CodecKind, elem: u8) -> (Pipeline, QueueId) {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let bytes_q = b.queue(32);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0xc000,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::AdjacencyMatrix,
            },
            in_q,
            vec![bytes_q],
        );
        b.operator(
            OperatorKind::Decompress {
                codec,
                elem_bytes: elem,
            },
            bytes_q,
            vec![out_q],
        );
        (b.build().unwrap(), in_q)
    }

    #[test]
    fn b004_wrong_codec() {
        let (p, in_q) = byte_fetch_decompress(CodecKind::Rle, 4);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "cbytes".into(),
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B004"]);
    }

    #[test]
    fn b005_decompress_raw_stream() {
        // A byte fetch from a *raw* region (not framed) feeding a
        // decompressor: structurally legal (widths agree), but the bytes
        // were never codec frames.
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(8);
        let bytes_q = b.queue(32);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::RangeFetch {
                base: 0x10000,
                idx_bytes: 8,
                elem_bytes: 1,
                input: RangeInput::Pairs,
                marker: Some(0),
                class: DataClass::DestinationVertex,
            },
            in_q,
            vec![bytes_q],
        );
        b.operator(
            OperatorKind::Decompress {
                codec: CodecKind::Delta,
                elem_bytes: 4,
            },
            bytes_q,
            vec![out_q],
        );
        let p = b.build().unwrap();
        let mut s = schema();
        s.add_region(RegionSchema::raw("blob", 0x10000, 64, 1));
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "blob".into(),
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B005"]);
    }

    #[test]
    fn b006_decoded_width_mismatch() {
        let (p, in_q) = byte_fetch_decompress(CodecKind::Delta, 8);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "cbytes".into(),
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B006"]);
    }

    #[test]
    fn b006_codec_natural_width() {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(64);
        let bytes_q = b.queue(48);
        b.operator(
            OperatorKind::Compress {
                codec: CodecKind::Bpc32,
                elem_bytes: 8,
                sort_chunks: false,
            },
            in_q,
            vec![bytes_q],
        );
        let p = b.build().unwrap();
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Values {
                elem_bytes: 8,
                max: None,
            },
        );
        assert_eq!(codes(&verify(&p, &s)), vec!["B006"]);
    }

    #[test]
    fn b007_undeclared_core_input() {
        let (p, _) = fig2(0x1000, 0x4000, 4);
        let r = verify(&p, &schema());
        assert_eq!(codes(&r), vec!["B007"]);
        assert_eq!(r.queue_domains[0], Some(ShapeDomain::Unknown));
        // Nothing downstream is double-reported.
        assert_eq!(r.diagnostics.len(), 1);
    }

    #[test]
    fn b008_memqueue_overflows_region() {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(64);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 4,
                data_base: 0x8000,
                stride: 4096,
                meta_addr: 0x1000,
                chunk_elems: 32,
                elem_bytes: 8,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            in_q,
            vec![out_q],
        );
        let p = b.build().unwrap();
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::BinPairs {
                max_bin: 3,
                elem_bytes: 8,
            },
        );
        // 4 bins x 4096 B into dst's 64 bytes.
        assert!(codes(&verify(&p, &s)).contains(&"B008"));
    }

    #[test]
    fn bin_id_overflow_is_b002() {
        let mut b = PipelineBuilder::new();
        let in_q = b.queue(64);
        let out_q = b.queue(48);
        b.operator(
            OperatorKind::MemQueue {
                num_queues: 2,
                data_base: 0x4000,
                stride: 128,
                meta_addr: 0x1000,
                chunk_elems: 8,
                elem_bytes: 8,
                mode: MemQueueMode::Buffer,
                class: DataClass::Updates,
            },
            in_q,
            vec![out_q],
        );
        let p = b.build().unwrap();
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::BinPairs {
                max_bin: 2,
                elem_bytes: 8,
            },
        );
        let r = verify(&p, &s);
        assert!(codes(&r).contains(&"B002"), "{:?}", r.diagnostics);
    }

    #[test]
    fn b_codes_are_errors_and_registered() {
        use crate::lint::Severity;
        for c in [
            Code::B001,
            Code::B002,
            Code::B003,
            Code::B004,
            Code::B005,
            Code::B006,
            Code::B007,
            Code::B008,
        ] {
            assert_eq!(c.severity(), Severity::Error);
            assert!(Code::all().contains(&c));
        }
    }

    #[test]
    fn annotated_dot_labels_edges_with_domains() {
        let (p, in_q) = fig2(0x1000, 0x4000, 4);
        let mut s = schema();
        s.declare_input(
            in_q,
            InputDomain::Ranges {
                region: "offsets".into(),
            },
        );
        let r = verify(&p, &s);
        let dot = annotated_dot(&p, &r);
        assert!(dot.contains("raw w8 max=100 @offsets"), "{dot}");
        assert!(dot.contains("raw w4 max=15 @neighbors"), "{dot}");
    }

    #[test]
    fn domain_display_is_compact() {
        let d = ShapeDomain::Bytes {
            codec: CodecKind::Delta,
            decoded_elem_bytes: 4,
            decoded_max: Some(9),
        };
        assert_eq!(d.to_string(), "frames(delta)->w4 max=9");
        assert_eq!(ShapeDomain::Unknown.to_string(), "?");
    }
}
