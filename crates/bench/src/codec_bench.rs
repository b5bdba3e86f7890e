//! The codec throughput harness behind `codec-bench` and
//! `BENCH_codecs.json` — the repo's first persistent perf trajectory.
//!
//! Measures encode/decode throughput (GB/s of *uncompressed* stream bytes)
//! for every stream codec in two arms: the batch `kernel` implementation
//! the codecs now run on, and the retained scalar `reference` oracle. The
//! kernel/reference *speedup ratio* is the regression currency: absolute
//! GB/s varies with the machine, but the ratio is stable enough to gate on
//! in CI (`codec-bench --check`), which fails when
//!
//! * the trajectory file does not parse against the
//!   [`SCHEMA`] shared with [`spzip_compress::stats::CodecPerfRecord`],
//! * the checked-in `codec_version` disagrees with the built crate (the
//!   trajectory must be regenerated alongside any wire-format change),
//! * a codec's fresh decode speedup falls more than 20% below the
//!   checked-in trajectory, or
//! * the checked-in trajectory itself is below a codec's
//!   [`SPEEDUP_FLOORS`] entry (≥10× for BPC, ≥5× for delta).
//!
//! Schema v2 promotes the encode side: encode speedups are reported in
//! every `--check` summary line and queryable via
//! [`BenchReport::encode_speedup`], but carry no floors yet — the encode
//! kernels are younger and their trajectory needs a few quiet runs before
//! a floor is honest. v2 also feeds the static codec-selection pass: the
//! kernel arms' absolute GB/s calibrate a
//! [`RateTable`](spzip_compress::model::RateTable) of *relative* codec
//! costs ([`BenchReport::rate_table`]) consumed by `dcl-perf --suggest`.

use spzip_compress::reference::ReferenceCodec;
use spzip_compress::stats::{geometric_mean, CodecPerfRecord, ThroughputStats};
use spzip_compress::{
    bpc::BpcCodec, delta::DeltaCodec, rle::RleCodec, sorted::SortedChunks, Codec, CodecKind,
    ElemWidth, CODEC_VERSION,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Schema tag written into (and required of) `BENCH_codecs.json`. v2 =
/// encode throughput is load-bearing (reported speedups, rate-table
/// calibration), not merely recorded.
pub const SCHEMA: &str = "spzip-codec-bench/v2";

/// Codecs every trajectory must cover (one kernel + one reference arm each).
pub const REQUIRED_CODECS: [&str; 6] =
    ["delta", "bpc32", "bpc64", "rle", "delta_sorted", "identity"];

/// Decode-speedup floors the *checked-in* trajectory must clear, per
/// codec. BPC holds the kernel refactor's 10× target. Delta is floored at
/// 5×: its wire format interleaves control bytes with payload, so decode
/// carries a serial control-byte → payload-length → next-position chain
/// (~10 cycles per four-element group) that bounds the gmean over mixed
/// streams below 10× on the reference machine (see DESIGN.md). Floors are
/// checked against the trajectory (committed deliberately from a quiet
/// run), not the fresh CI measurement, which only has to clear the
/// [`REGRESSION_FLOOR`] ratio — CI runners are too noisy for absolute
/// floors.
pub const SPEEDUP_FLOORS: [(&str, f64); 3] = [("delta", 5.0), ("bpc32", 10.0), ("bpc64", 10.0)];

/// Decode speedup may drop to this fraction of the checked-in trajectory
/// before `--check` fails (the >20%-regression gate).
pub const REGRESSION_FLOOR: f64 = 0.8;

/// The builtin streams: the data shapes the engines actually see.
/// Shared with the `codec-sweep` matrix so both report on identical inputs.
pub fn builtin_streams() -> Vec<(&'static str, Vec<u64>)> {
    // Clustered neighbor ids (preprocessed adjacency).
    let clustered: Vec<u64> = (0..4096u64).map(|i| 1_000_000 + (i * 7) % 512).collect();
    // Scattered neighbor ids (randomized adjacency).
    let scattered: Vec<u64> = (0..4096u64)
        .map(|i| {
            let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            h % (1 << 17)
        })
        .collect();
    // Update tuples (dst << 32 | payload) within one bin slice.
    let updates: Vec<u64> = (0..4096u64)
        .map(|i| {
            let dst = (i.wrapping_mul(2654435761) >> 7) % 8192;
            (dst << 32) | (i & 0xFFFF)
        })
        .collect();
    // Small integers (degree counts).
    let counts: Vec<u64> = (0..4096u64).map(|i| (i * i) % 40).collect();
    vec![
        ("clustered_ids", clustered),
        ("scattered_ids", scattered),
        ("update_tuples", updates),
        ("degree_counts", counts),
    ]
}

/// The benchmark arms: `(codec, implementation, instance)` for every
/// required codec, kernel and reference side by side.
pub fn arms() -> Vec<(&'static str, &'static str, Box<dyn Codec>)> {
    vec![
        ("delta", "kernel", Box::new(DeltaCodec::new())),
        (
            "delta",
            "reference",
            Box::new(ReferenceCodec::new(CodecKind::Delta)),
        ),
        ("bpc32", "kernel", Box::new(BpcCodec::new(ElemWidth::W32))),
        (
            "bpc32",
            "reference",
            Box::new(ReferenceCodec::new(CodecKind::Bpc32)),
        ),
        ("bpc64", "kernel", Box::new(BpcCodec::new(ElemWidth::W64))),
        (
            "bpc64",
            "reference",
            Box::new(ReferenceCodec::new(CodecKind::Bpc64)),
        ),
        ("rle", "kernel", Box::new(RleCodec::new())),
        (
            "rle",
            "reference",
            Box::new(ReferenceCodec::new(CodecKind::Rle)),
        ),
        (
            "delta_sorted",
            "kernel",
            Box::new(SortedChunks::new(DeltaCodec::new())),
        ),
        (
            "delta_sorted",
            "reference",
            Box::new(SortedChunks::new(ReferenceCodec::new(CodecKind::Delta))),
        ),
        (
            "identity",
            "kernel",
            CodecKind::None.build() as Box<dyn Codec>,
        ),
        (
            "identity",
            "reference",
            Box::new(ReferenceCodec::new(CodecKind::None)),
        ),
    ]
}

/// Times `routine` over a wall-clock window and reports GB/s for
/// `bytes_per_iter` of work per call. A quarter of the window warms up.
fn time_gbps(bytes_per_iter: u64, measure_ms: u64, mut routine: impl FnMut()) -> f64 {
    let warm = Duration::from_millis((measure_ms / 4).max(1));
    let start = Instant::now();
    while start.elapsed() < warm {
        routine();
    }
    let window = Duration::from_millis(measure_ms.max(1));
    let mut tp = ThroughputStats::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        routine();
        tp.record(bytes_per_iter, t0.elapsed().as_nanos());
        if start.elapsed() >= window {
            break;
        }
    }
    tp.gbps()
}

/// Measures every codec × implementation × builtin-stream cell with a
/// `measure_ms` wall-clock window per encode/decode measurement.
pub fn measure_all(measure_ms: u64) -> Vec<CodecPerfRecord> {
    let mut records = Vec::new();
    for (stream, data) in builtin_streams() {
        let raw_bytes = data.len() as u64 * 8;
        for (codec_name, implementation, codec) in arms() {
            let mut compressed = Vec::new();
            codec.compress(&data, &mut compressed);
            let ratio = raw_bytes as f64 / compressed.len().max(1) as f64;
            let mut enc_out: Vec<u8> = Vec::with_capacity(compressed.len());
            let encode_gbps = time_gbps(raw_bytes, measure_ms, || {
                enc_out.clear();
                codec.compress(black_box(&data), &mut enc_out);
            });
            let mut dec_out: Vec<u64> = Vec::with_capacity(data.len());
            let decode_gbps = time_gbps(raw_bytes, measure_ms, || {
                dec_out.clear();
                codec
                    .decompress(black_box(&compressed), &mut dec_out)
                    .expect("benchmark stream decodes");
            });
            records.push(CodecPerfRecord {
                codec: codec_name.to_string(),
                implementation: implementation.to_string(),
                stream: stream.to_string(),
                ratio,
                encode_gbps,
                decode_gbps,
            });
        }
    }
    records
}

/// The `BENCH_codecs.json` envelope: schema, codec version, measurement
/// window, and the per-cell records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `CODEC_VERSION` the records were measured against.
    pub codec_version: u32,
    /// Wall-clock measurement window per cell, in milliseconds.
    pub measure_ms: u64,
    /// One record per codec × implementation × stream.
    pub records: Vec<CodecPerfRecord>,
}

impl BenchReport {
    /// Measures a fresh report with the current crate's codecs.
    pub fn measure(measure_ms: u64) -> BenchReport {
        BenchReport {
            codec_version: CODEC_VERSION,
            measure_ms,
            records: measure_all(measure_ms),
        }
    }

    /// Renders the report as the `BENCH_codecs.json` document (one record
    /// per line, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"codec_version\":{},\"measure_ms\":{},\"records\":[",
            self.codec_version, self.measure_ms
        );
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&rec.to_json());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a `BENCH_codecs.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation: wrong or
    /// missing schema tag, malformed envelope fields, or an unparsable
    /// record.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let schema = json_str(text, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
        }
        let codec_version = json_num(text, "codec_version")? as u32;
        let measure_ms = json_num(text, "measure_ms")? as u64;
        let arr_start = text
            .find("\"records\":[")
            .ok_or("missing field \"records\"")?
            + "\"records\":[".len();
        let arr_end = text.rfind(']').ok_or("unterminated records array")?;
        if arr_end < arr_start {
            return Err("malformed records array".to_string());
        }
        let mut records = Vec::new();
        for obj in split_objects(&text[arr_start..arr_end]) {
            records.push(CodecPerfRecord::from_json(obj)?);
        }
        Ok(BenchReport {
            codec_version,
            measure_ms,
            records,
        })
    }

    /// Validates completeness: every required codec must appear with both
    /// implementation arms on at least one common stream, and the codec
    /// version must match the built crate.
    ///
    /// # Errors
    ///
    /// Returns every violation found (empty only on `Ok`).
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if self.codec_version != CODEC_VERSION {
            errors.push(format!(
                "trajectory codec_version {} != built crate {} — regenerate BENCH_codecs.json",
                self.codec_version, CODEC_VERSION
            ));
        }
        for codec in REQUIRED_CODECS {
            for arm in ["kernel", "reference"] {
                if !self
                    .records
                    .iter()
                    .any(|r| r.codec == codec && r.implementation == arm)
                {
                    errors.push(format!("missing {arm} records for codec {codec}"));
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Geometric-mean decode speedup (kernel over reference) across all
    /// streams both arms measured, per codec. `None` if a codec lacks a
    /// comparable pair.
    pub fn decode_speedup(&self, codec: &str) -> Option<f64> {
        self.speedup(codec, |r| r.decode_gbps)
    }

    /// Geometric-mean encode speedup (kernel over reference), the v2
    /// counterpart of [`BenchReport::decode_speedup`]. Reported, not
    /// floored (yet).
    pub fn encode_speedup(&self, codec: &str) -> Option<f64> {
        self.speedup(codec, |r| r.encode_gbps)
    }

    fn speedup(&self, codec: &str, gbps: impl Fn(&CodecPerfRecord) -> f64) -> Option<f64> {
        let mut ratios = Vec::new();
        for k in self
            .records
            .iter()
            .filter(|r| r.codec == codec && r.implementation == "kernel")
        {
            if let Some(r) = self.records.iter().find(|r| {
                r.codec == codec && r.stream == k.stream && r.implementation == "reference"
            }) {
                if gbps(r) > 0.0 {
                    ratios.push(gbps(k) / gbps(r));
                }
            }
        }
        if ratios.is_empty() {
            None
        } else {
            Some(geometric_mean(&ratios))
        }
    }

    /// Builds the codec rate calibration for the static selection pass:
    /// per codec, the geometric mean of the *kernel* arm's absolute GB/s
    /// across streams. Only relative magnitudes survive into the table
    /// (see [`RateTable`](spzip_compress::model::RateTable)), which is
    /// what makes software-kernel rates an honest calibration for a
    /// hardware transform-unit model. Codecs without kernel records keep
    /// their nominal rate. The `delta` trajectory (not `delta_sorted`,
    /// whose chunk sort is charged to the producer) calibrates
    /// [`CodecKind::Delta`].
    pub fn rate_table(&self) -> spzip_compress::model::RateTable {
        use spzip_compress::model::{codec_trajectory_name, CodecRates, RateTable};
        let mut table = RateTable::nominal();
        for kind in CodecKind::all() {
            let name = codec_trajectory_name(kind, false);
            let mut dec = Vec::new();
            let mut enc = Vec::new();
            for r in self
                .records
                .iter()
                .filter(|r| r.codec == name && r.implementation == "kernel")
            {
                if r.decode_gbps > 0.0 && r.encode_gbps > 0.0 {
                    dec.push(r.decode_gbps);
                    enc.push(r.encode_gbps);
                }
            }
            if !dec.is_empty() {
                table.set(
                    kind,
                    CodecRates {
                        decode_gbps: geometric_mean(&dec),
                        encode_gbps: geometric_mean(&enc),
                    },
                );
            }
        }
        table
    }
}

/// Gates a freshly measured report against the checked-in trajectory.
/// Speedup ratios, not absolute GB/s, are compared, so the gate is
/// machine-portable.
///
/// On success returns human-readable summary lines (one per codec).
///
/// # Errors
///
/// Returns every violated gate: schema/completeness problems in either
/// report, a fresh decode speedup below [`REGRESSION_FLOOR`] of the
/// checked-in value, or a checked-in trajectory below its
/// [`SPEEDUP_FLOORS`] entry.
pub fn check_against(
    fresh: &BenchReport,
    checked_in: &BenchReport,
) -> Result<Vec<String>, Vec<String>> {
    let mut errors = Vec::new();
    if let Err(mut e) = fresh.validate() {
        errors.append(&mut e);
    }
    if let Err(e) = checked_in.validate() {
        errors.extend(e.into_iter().map(|m| format!("checked-in trajectory: {m}")));
    }
    let mut summary = Vec::new();
    for codec in REQUIRED_CODECS {
        let (Some(now), Some(then)) = (
            fresh.decode_speedup(codec),
            checked_in.decode_speedup(codec),
        ) else {
            continue; // completeness errors already recorded above
        };
        // Encode speedups ride along in the summary (v2) but are not
        // gated: no floors, no regression band yet.
        let enc = match (
            fresh.encode_speedup(codec),
            checked_in.encode_speedup(codec),
        ) {
            (Some(e_now), Some(e_then)) => {
                format!(", encode {e_now:.2}x (trajectory {e_then:.2}x)")
            }
            _ => String::new(),
        };
        summary.push(format!(
            "{codec}: decode speedup {now:.2}x (trajectory {then:.2}x){enc}"
        ));
        if now < then * REGRESSION_FLOOR {
            errors.push(format!(
                "{codec}: decode speedup {now:.2}x regressed >20% below trajectory {then:.2}x"
            ));
        }
        if let Some((_, floor)) = SPEEDUP_FLOORS.iter().find(|(c, _)| *c == codec) {
            if then < *floor {
                errors.push(format!(
                    "{codec}: checked-in decode speedup {then:.2}x is below the {floor}x floor \
                     — regenerate BENCH_codecs.json from a quiet run"
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

/// Extracts a string field from the envelope (writer-subset JSON).
/// Shared with `sanitize_bench`, whose trajectory file uses the same
/// hand-rolled envelope style.
pub(crate) fn json_str(text: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or(format!("missing field {key:?}"))? + pat.len();
    let rest = text[start..].trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or(format!("field {key:?} is not a string"))?;
    let end = rest.find('"').ok_or(format!("unterminated {key:?}"))?;
    Ok(rest[..end].to_string())
}

/// Extracts a numeric field from the envelope.
pub(crate) fn json_num(text: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or(format!("missing field {key:?}"))? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find([',', '}', '\n'])
        .ok_or(format!("unterminated {key:?}"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// Splits a flat JSON array body into its top-level `{...}` objects
/// (records contain no nested braces).
pub(crate) fn split_objects(body: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' if start.is_none() => start = Some(i),
            '}' => {
                if let Some(s) = start.take() {
                    objects.push(&body[s..=i]);
                }
            }
            _ => {}
        }
    }
    objects
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(decode_kernel: f64, decode_reference: f64) -> BenchReport {
        let mut records = Vec::new();
        for (stream, _) in builtin_streams() {
            for codec in REQUIRED_CODECS {
                for (implementation, gbps) in
                    [("kernel", decode_kernel), ("reference", decode_reference)]
                {
                    records.push(CodecPerfRecord {
                        codec: codec.to_string(),
                        implementation: implementation.to_string(),
                        stream: stream.to_string(),
                        ratio: 4.0,
                        encode_gbps: gbps / 2.0,
                        decode_gbps: gbps,
                    });
                }
            }
        }
        BenchReport {
            codec_version: spzip_compress::CODEC_VERSION,
            measure_ms: 1,
            records,
        }
    }

    #[test]
    fn report_json_roundtrip() {
        let report = synthetic(12.0, 1.0);
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut report = synthetic(12.0, 1.0).to_json();
        report = report.replace(SCHEMA, "other-schema/v9");
        assert!(BenchReport::from_json(&report).is_err());
        assert!(BenchReport::from_json("not json at all").is_err());
    }

    #[test]
    fn validate_requires_all_arms() {
        let mut report = synthetic(12.0, 1.0);
        assert!(report.validate().is_ok());
        report
            .records
            .retain(|r| !(r.codec == "bpc32" && r.implementation == "reference"));
        let errors = report.validate().unwrap_err();
        assert!(errors.iter().any(|e| e.contains("bpc32")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_version_mismatch() {
        let mut report = synthetic(12.0, 1.0);
        report.codec_version += 1;
        assert!(report.validate().is_err());
    }

    #[test]
    fn check_passes_matching_reports() {
        let now = synthetic(12.0, 1.0);
        let baseline = synthetic(12.0, 1.0);
        let summary = check_against(&now, &baseline).unwrap();
        assert_eq!(summary.len(), REQUIRED_CODECS.len());
        // v2: every summary line reports the encode side too.
        for line in &summary {
            assert!(line.contains("encode"), "{line}");
        }
    }

    #[test]
    fn encode_speedup_mirrors_decode() {
        // synthetic() gives every arm encode = decode/2, so the ratios
        // are identical.
        let report = synthetic(12.0, 1.0);
        for codec in REQUIRED_CODECS {
            let dec = report.decode_speedup(codec).unwrap();
            let enc = report.encode_speedup(codec).unwrap();
            assert!((dec - enc).abs() < 1e-9, "{codec}: {dec} vs {enc}");
        }
    }

    #[test]
    fn encode_regressions_are_not_gated() {
        // Encode collapses 6x -> 0.5x while decode holds: v2 reports it
        // in the summary but deliberately does not fail (no floors yet).
        let mut now = synthetic(12.0, 1.0);
        for r in now
            .records
            .iter_mut()
            .filter(|r| r.implementation == "kernel")
        {
            r.encode_gbps = 0.5;
        }
        let baseline = synthetic(12.0, 1.0);
        assert!(check_against(&now, &baseline).is_ok());
    }

    #[test]
    fn rate_table_is_relative_to_fastest_codec() {
        use spzip_compress::model::MIN_RATE_SCALE;
        use spzip_compress::CodecKind;
        // All codecs measure identically in synthetic(), so every scale
        // is 1.0 — the calibration of equal rates is the nominal table.
        let report = synthetic(12.0, 1.0);
        let table = report.rate_table();
        for kind in CodecKind::all() {
            assert_eq!(table.decode_scale(kind), 1.0, "{kind:?}");
        }
        // Handicap one codec's kernel records 16x: its scale drops to
        // 1/16 while the rest stay at 1.0.
        let mut skewed = synthetic(12.0, 1.0);
        for r in skewed
            .records
            .iter_mut()
            .filter(|r| r.codec == "bpc64" && r.implementation == "kernel")
        {
            r.decode_gbps /= 16.0;
            r.encode_gbps /= 64.0; // clamps at MIN_RATE_SCALE
        }
        let table = skewed.rate_table();
        assert!((table.decode_scale(CodecKind::Bpc64) - 1.0 / 16.0).abs() < 1e-9);
        assert_eq!(table.encode_scale(CodecKind::Bpc64), MIN_RATE_SCALE);
        assert_eq!(table.decode_scale(CodecKind::Delta), 1.0);
    }

    #[test]
    fn check_flags_decode_regression() {
        // 12x -> 5x on every codec is a >20% regression.
        let now = synthetic(5.0, 1.0);
        let baseline = synthetic(12.0, 1.0);
        let errors = check_against(&now, &baseline).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("regressed")), "{errors:?}");
    }

    #[test]
    fn check_flags_trajectory_below_floor() {
        // A trajectory committed at 4x violates every SPEEDUP_FLOORS entry
        // (delta's 5x included), even when the fresh run matches it.
        let now = synthetic(4.0, 1.0);
        let baseline = synthetic(4.0, 1.0);
        let errors = check_against(&now, &baseline).unwrap_err();
        for (codec, _) in SPEEDUP_FLOORS {
            assert!(
                errors
                    .iter()
                    .any(|e| e.starts_with(codec) && e.contains("floor")),
                "{codec}: {errors:?}"
            );
        }
    }

    #[test]
    fn check_tolerates_small_jitter() {
        // 10.5x fresh against an 11x trajectory is within the 20% band,
        // and the floors judge the trajectory, not the jittery fresh run.
        let now = synthetic(10.5, 1.0);
        let baseline = synthetic(11.0, 1.0);
        assert!(check_against(&now, &baseline).is_ok());
        // Even a fresh run below a codec's floor passes while it stays
        // within the regression band of a healthy trajectory.
        let now = synthetic(9.0, 1.0);
        assert!(check_against(&now, &baseline).is_ok());
    }

    #[test]
    fn measured_report_is_complete_and_parses() {
        // A 1 ms window keeps this test fast; completeness and schema are
        // what's under test, not the numbers.
        let report = BenchReport::measure(1);
        report.validate().unwrap();
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.records.len(), report.records.len());
        for codec in REQUIRED_CODECS {
            assert!(report.decode_speedup(codec).is_some(), "{codec}");
        }
    }
}
