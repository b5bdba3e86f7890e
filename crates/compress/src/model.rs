//! Analytical codec ratio models: predict compressed bytes per element
//! from first-order stream statistics, without running a codec.
//!
//! The static performance analyzer (`spzip_core::perf`) needs to reason
//! about a pipeline's memory footprint *before* any data flows: "will this
//! [`CodecKind`] shrink or inflate this stream?". The
//! key observation (shared with Copernicus-style format models) is that
//! every format in this crate has a closed-form size once a handful of
//! distribution statistics are known:
//!
//! * **Delta byte-code**: size-class shares of the zigzag deltas determine
//!   the payload exactly; the control byte adds a fixed 1/4 byte/element.
//! * **BPC**: the number of significant delta bits bounds the non-zero DBX
//!   planes; zero planes collapse into run tokens.
//! * **RLE**: mean run length and mean varint width of the values.
//! * **Identity**: the stored width plus the chunk header.
//!
//! [`StreamProfile::from_values`] measures those statistics in one cheap
//! pass (no encoder state, no output buffer); [`predicted_bytes_per_elem`]
//! turns a profile plus a codec kind into a bytes-per-element estimate.
//! The unit tests pin each estimate against the real codec's
//! [`compressed_len`](crate::Codec::compressed_len) on representative
//! streams, so model drift fails loudly.

use crate::CodecKind;

/// Byte sizes selected by the delta codec's two-bit length classes.
const DELTA_CLASS_BYTES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Expected encoded bytes per *non-zero* DBX plane. Calibrated against
/// [`BpcCodec`](crate::bpc::BpcCodec): structured planes cost 1–2 bytes
/// (all-ones / single-one tokens), noisy low planes cost the full 5-byte
/// raw token; real mixes land in between.
const BPC_PLANE_BYTES: f64 = 3.4;

/// Expected bytes of zero-run tokens per BPC chunk (zero planes collapse
/// into a couple of 2-byte run tokens).
const BPC_ZERO_RUN_BYTES: f64 = 4.0;

/// Length in bytes of `value` as an LEB128 varint.
pub fn varint_len(value: u64) -> usize {
    ((64 - value.max(1).leading_zeros()) as usize).div_ceil(7)
}

/// First-order statistics of a value stream, sufficient to predict each
/// codec's compressed size analytically.
///
/// Profiles are measured per *compression chunk* — the unit one
/// `compress` call sees (a neighbor group, an update bin chunk, a vertex
/// slice) — because every codec resets its predictor state per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamProfile {
    /// Nominal raw element width in bytes (what the stream occupies
    /// uncompressed; 4 or 8 in this codebase).
    pub elem_bytes: u8,
    /// Elements per `compress` call (chunk). Headers amortize over this.
    pub chunk_elems: f64,
    /// Fraction of zigzag deltas falling in the delta codec's four size
    /// classes (1, 2, 4, 8 encoded bytes). Sums to 1 for non-empty streams.
    pub delta_class_shares: [f64; 4],
    /// Mean significant bits of the per-element deltas — the driver of
    /// BPC's non-zero DBX plane count.
    pub avg_delta_bits: f64,
    /// Mean run length of equal consecutive values (>= 1).
    pub avg_run_len: f64,
    /// Mean LEB128 length of the raw values, in bytes (RLE stores values
    /// as varints).
    pub avg_value_bytes: f64,
}

impl StreamProfile {
    /// Measures a profile from `values`, treating every `chunk_elems`
    /// window as one compression call (predictor state resets at chunk
    /// boundaries, exactly like the codecs). When `sort_chunks` is set,
    /// each chunk is sorted first — the profile for order-insensitive
    /// data compressed behind [`sorted`](crate::sorted) wrappers.
    pub fn from_values(
        values: &[u64],
        elem_bytes: u8,
        chunk_elems: usize,
        sort_chunks: bool,
    ) -> StreamProfile {
        let chunk_elems = chunk_elems.max(1);
        let mut class_counts = [0u64; 4];
        let mut delta_bits_sum = 0.0f64;
        let mut deltas = 0u64;
        let mut runs = 0u64;
        let mut value_bytes_sum = 0u64;
        let mut sorted_buf: Vec<u64> = Vec::new();
        for chunk in values.chunks(chunk_elems) {
            let chunk: &[u64] = if sort_chunks {
                sorted_buf.clear();
                sorted_buf.extend_from_slice(chunk);
                sorted_buf.sort_unstable();
                &sorted_buf
            } else {
                chunk
            };
            let mut prev = 0u64;
            let mut run_val = None;
            for &v in chunk {
                let zz = crate::varint::zigzag(v.wrapping_sub(prev) as i64);
                let class = match zz {
                    z if z < 1 << 8 => 0,
                    z if z < 1 << 16 => 1,
                    z if z < 1 << 32 => 2,
                    _ => 3,
                };
                class_counts[class] += 1;
                delta_bits_sum += (64 - zz.leading_zeros()) as f64;
                deltas += 1;
                prev = v;
                if run_val != Some(v) {
                    runs += 1;
                    run_val = Some(v);
                }
                value_bytes_sum += varint_len(v) as u64;
            }
        }
        let n = values.len().max(1) as f64;
        let mut shares = [0.0; 4];
        for (s, &c) in shares.iter_mut().zip(&class_counts) {
            *s = c as f64 / deltas.max(1) as f64;
        }
        StreamProfile {
            elem_bytes,
            chunk_elems: values.len().clamp(1, chunk_elems) as f64,
            delta_class_shares: shares,
            avg_delta_bits: delta_bits_sum / deltas.max(1) as f64,
            avg_run_len: n / runs.max(1) as f64,
            avg_value_bytes: value_bytes_sum as f64 / n,
        }
    }

    /// A conservative default for unknown data: deltas spread around the
    /// 2-byte class, few repeats — typical of reordered graph neighbor
    /// streams and mixed vertex data. Used by the analyzer when no
    /// measured profile is supplied.
    pub fn default_for(elem_bytes: u8) -> StreamProfile {
        StreamProfile {
            elem_bytes,
            chunk_elems: 32.0,
            delta_class_shares: [0.55, 0.30, 0.15, 0.0],
            avg_delta_bits: 9.0,
            avg_run_len: 1.1,
            avg_value_bytes: 3.0,
        }
    }

    /// The incompressible worst case: every delta needs the full element
    /// width, no runs. Predictions under this profile show whether a
    /// codec *inflates* hostile data.
    pub fn incompressible(elem_bytes: u8) -> StreamProfile {
        let shares = if elem_bytes <= 4 {
            [0.0, 0.0, 1.0, 0.0]
        } else {
            [0.0, 0.0, 0.0, 1.0]
        };
        StreamProfile {
            elem_bytes,
            chunk_elems: 32.0,
            delta_class_shares: shares,
            avg_delta_bits: elem_bytes as f64 * 8.0,
            avg_run_len: 1.0,
            avg_value_bytes: (elem_bytes as f64 * 8.0 / 7.0).ceil(),
        }
    }
}

/// Predicted compressed bytes per element for `kind` over a stream shaped
/// like `profile`. Deterministic and pure — the analyzer's only coupling
/// to codec internals.
pub fn predicted_bytes_per_elem(kind: CodecKind, profile: &StreamProfile) -> f64 {
    let n = profile.chunk_elems.max(1.0);
    let header = varint_len(n as u64) as f64;
    match kind {
        // Identity stores 8-byte words regardless of the logical element
        // width (`CodecKind::None` builds a W64 identity codec).
        CodecKind::None => (header + n * 8.0) / n,
        CodecKind::Delta => {
            let payload: f64 = profile
                .delta_class_shares
                .iter()
                .zip(&DELTA_CLASS_BYTES)
                .map(|(s, b)| s * b)
                .sum();
            (header + n * (0.25 + payload)) / n
        }
        CodecKind::Bpc32 | CodecKind::Bpc64 => {
            let (base_bytes, planes) = if kind == CodecKind::Bpc32 {
                (4.0, 33.0)
            } else {
                (8.0, 65.0)
            };
            // Elements are BPC-chunked in 32s inside each compress call.
            let bpc_chunks = (n / 32.0).max(1.0);
            let nonzero = (profile.avg_delta_bits + 1.0).min(planes);
            let per_chunk = base_bytes + BPC_ZERO_RUN_BYTES + nonzero * BPC_PLANE_BYTES;
            (header + bpc_chunks * per_chunk) / n
        }
        CodecKind::Rle => {
            let runs = (n / profile.avg_run_len.max(1.0)).max(1.0);
            let run_len_bytes = varint_len(profile.avg_run_len as u64) as f64;
            (header + runs * (profile.avg_value_bytes + run_len_bytes)) / n
        }
    }
}

/// The trajectory name `codec-bench` measures this kind under in
/// `BENCH_codecs.json` (`sort_chunks` selects the `delta_sorted` arm).
pub fn codec_trajectory_name(kind: CodecKind, sort_chunks: bool) -> &'static str {
    match kind {
        CodecKind::None => "identity",
        CodecKind::Delta if sort_chunks => "delta_sorted",
        CodecKind::Delta => "delta",
        CodecKind::Bpc32 => "bpc32",
        CodecKind::Bpc64 => "bpc64",
        CodecKind::Rle => "rle",
    }
}

/// Measured throughput of one codec, in GB/s of *uncompressed* stream
/// bytes (the unit `codec-bench` records on both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecRates {
    /// Decode throughput (GB/s of decoded output).
    pub decode_gbps: f64,
    /// Encode throughput (GB/s of raw input).
    pub encode_gbps: f64,
}

/// Transform service rates may not be scaled below this fraction of the
/// fastest codec's rate: measured software kernels differ by orders of
/// magnitude, but the hardware transform units they calibrate share one
/// datapath, so relative cost is bounded.
pub const MIN_RATE_SCALE: f64 = 1.0 / 32.0;

/// Per-[`CodecKind`] throughput calibration for the static analyzers.
///
/// The perf flow model charges every (de)compression firing one engine
/// cycle at a *nominal* rate; a `RateTable` rescales that service cost by
/// each codec's measured throughput **relative to the fastest codec in
/// the table**. Relative — not absolute — because the measurements are
/// software-kernel GB/s while the model prices a hardware transform unit:
/// what the trajectory can honestly tell the model is how much more one
/// codec costs per byte than another, never the wall-clock rate of either.
///
/// [`RateTable::nominal`] gives every codec the same rate, so all scales
/// are 1.0 and a default-parameterized analysis is byte-identical to one
/// with no table at all. Calibration (feeding measured kernel rates from
/// `BENCH_codecs.json`) is what `dcl-perf --suggest` does.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTable {
    rates: [CodecRates; 5],
}

/// Index of `kind` in [`RateTable`]'s backing array ([`CodecKind::all`]
/// order).
fn rate_index(kind: CodecKind) -> usize {
    match kind {
        CodecKind::None => 0,
        CodecKind::Delta => 1,
        CodecKind::Bpc32 => 2,
        CodecKind::Bpc64 => 3,
        CodecKind::Rle => 4,
    }
}

impl Default for RateTable {
    fn default() -> Self {
        RateTable::nominal()
    }
}

impl RateTable {
    /// The uncalibrated table: every codec at the same rate, so every
    /// scale is exactly 1.0.
    pub fn nominal() -> RateTable {
        RateTable {
            rates: [CodecRates {
                decode_gbps: 1.0,
                encode_gbps: 1.0,
            }; 5],
        }
    }

    /// Records measured rates for `kind`. Non-positive rates are ignored
    /// (the nominal entry stands).
    pub fn set(&mut self, kind: CodecKind, rates: CodecRates) {
        if rates.decode_gbps > 0.0 && rates.encode_gbps > 0.0 {
            self.rates[rate_index(kind)] = rates;
        }
    }

    /// The recorded rates for `kind`.
    pub fn get(&self, kind: CodecKind) -> CodecRates {
        self.rates[rate_index(kind)]
    }

    /// Decode service scale for `kind`: its decode rate relative to the
    /// fastest decode rate in the table, clamped to
    /// [[`MIN_RATE_SCALE`], 1.0]. A transform firing costs `1 / scale`
    /// nominal firings.
    pub fn decode_scale(&self, kind: CodecKind) -> f64 {
        let best = self
            .rates
            .iter()
            .map(|r| r.decode_gbps)
            .fold(f64::MIN_POSITIVE, f64::max);
        (self.get(kind).decode_gbps / best).clamp(MIN_RATE_SCALE, 1.0)
    }

    /// Encode service scale for `kind`; see [`RateTable::decode_scale`].
    pub fn encode_scale(&self, kind: CodecKind) -> f64 {
        let best = self
            .rates
            .iter()
            .map(|r| r.encode_gbps)
            .fold(f64::MIN_POSITIVE, f64::max);
        (self.get(kind).encode_gbps / best).clamp(MIN_RATE_SCALE, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts model vs measured within `tol` relative error, per chunk.
    fn check(kind: CodecKind, values: &[u64], elem_bytes: u8, chunk: usize, tol: f64) {
        let codec = kind.build();
        let mut actual = 0usize;
        for c in values.chunks(chunk) {
            actual += codec.compressed_len(c);
        }
        let profile = StreamProfile::from_values(values, elem_bytes, chunk, false);
        let predicted = predicted_bytes_per_elem(kind, &profile) * values.len() as f64;
        let rel = (predicted - actual as f64).abs() / actual as f64;
        assert!(
            rel <= tol,
            "{kind}: predicted {predicted:.0} vs actual {actual} ({:.0}% off)",
            rel * 100.0
        );
    }

    fn neighbor_like() -> Vec<u64> {
        // Clustered ascending ids with occasional jumps, like a reordered
        // graph's neighbor groups.
        (0..4096u64)
            .map(|i| 100_000 + i * 3 + (i % 7) * 40 + if i % 61 == 0 { 90_000 } else { 0 })
            .collect()
    }

    #[test]
    fn delta_model_is_tight_on_clustered_ids() {
        check(CodecKind::Delta, &neighbor_like(), 4, 32, 0.05);
    }

    #[test]
    fn delta_model_exact_on_uniform_class() {
        // All deltas in one size class: model should be near-exact.
        let data: Vec<u64> = (0..1024u64).map(|i| i * 100).collect();
        check(CodecKind::Delta, &data, 4, 64, 0.02);
    }

    #[test]
    fn bpc_models_track_reality() {
        let slow: Vec<u64> = (0..2048u64).map(|i| 10_000 + i / 3).collect();
        check(CodecKind::Bpc32, &slow, 4, 256, 0.35);
        check(CodecKind::Bpc64, &slow, 8, 256, 0.35);
        check(CodecKind::Bpc64, &neighbor_like(), 8, 256, 0.35);
    }

    #[test]
    fn rle_model_tracks_repetitive_streams() {
        let data: Vec<u64> = (0..4096u64).map(|i| (i / 37) % 5).collect();
        check(CodecKind::Rle, &data, 8, 512, 0.25);
    }

    #[test]
    fn identity_model_is_exact() {
        let data: Vec<u64> = (0..500u64).collect();
        check(CodecKind::None, &data, 8, 100, 0.001);
    }

    #[test]
    fn incompressible_profile_predicts_inflation() {
        // Hostile 4-byte data: delta needs > 4 B/elem, identity needs 8.
        let p = StreamProfile::incompressible(4);
        assert!(predicted_bytes_per_elem(CodecKind::Delta, &p) > 4.0);
        assert!(predicted_bytes_per_elem(CodecKind::None, &p) > 4.0);
        // Friendly data: delta comfortably compresses.
        let good = StreamProfile::default_for(4);
        assert!(predicted_bytes_per_elem(CodecKind::Delta, &good) < 4.0 / 1.5);
    }

    #[test]
    fn sorted_profile_improves_prediction() {
        // Shuffled ids (index striding by a coprime): sorting shrinks the
        // deltas from scattered to unit-sized.
        let data: Vec<u64> = (0..256u64).map(|i| 1000 + (i * 101) % 256).collect();
        let unsorted = StreamProfile::from_values(&data, 4, 32, false);
        let sorted = StreamProfile::from_values(&data, 4, 32, true);
        assert!(
            predicted_bytes_per_elem(CodecKind::Delta, &sorted)
                < predicted_bytes_per_elem(CodecKind::Delta, &unsorted)
        );
    }

    #[test]
    fn nominal_rate_table_scales_to_one() {
        let t = RateTable::nominal();
        for kind in CodecKind::all() {
            assert_eq!(t.decode_scale(kind), 1.0, "{kind}");
            assert_eq!(t.encode_scale(kind), 1.0, "{kind}");
        }
    }

    #[test]
    fn calibrated_rate_table_is_relative_and_clamped() {
        let mut t = RateTable::nominal();
        t.set(
            CodecKind::None,
            CodecRates {
                decode_gbps: 16.0,
                encode_gbps: 16.0,
            },
        );
        t.set(
            CodecKind::Delta,
            CodecRates {
                decode_gbps: 8.0,
                encode_gbps: 4.0,
            },
        );
        t.set(
            CodecKind::Bpc64,
            CodecRates {
                decode_gbps: 0.01,
                encode_gbps: 0.01,
            },
        );
        assert_eq!(t.decode_scale(CodecKind::None), 1.0);
        assert!((t.decode_scale(CodecKind::Delta) - 0.5).abs() < 1e-12);
        assert!((t.encode_scale(CodecKind::Delta) - 0.25).abs() < 1e-12);
        // Far-below-floor measurements clamp instead of exploding costs.
        assert_eq!(t.decode_scale(CodecKind::Bpc64), MIN_RATE_SCALE);
        // Non-positive rates are rejected; entry stays nominal (1.0 GB/s).
        t.set(
            CodecKind::Rle,
            CodecRates {
                decode_gbps: 0.0,
                encode_gbps: 5.0,
            },
        );
        assert_eq!(t.get(CodecKind::Rle).decode_gbps, 1.0);
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            crate::varint::write_u64(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "value {v}");
        }
    }
}
