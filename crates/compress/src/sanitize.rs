//! Byte-conservation checking for codecs: the compression half of
//! SimSanitizer.
//!
//! A codec is *conservative* when every element that enters `compress`
//! leaves `decompress` again (identity, or per-chunk multiset equality for
//! the order-insensitive optimization of Sec. III-C) and when the framed
//! encoding accounts for every byte: decoding the frames of a region
//! consumes exactly the bytes the compressor claims to have written,
//! nothing more, nothing less. These are the dynamic invariants behind
//! SimSanitizer's S008 (round-trip identity) and S009 (framed-length
//! accounting) checks; the sanitizer layer in `spzip-sim` turns the
//! [`ConservationError`] values returned here into rendered diagnostics.
//!
//! This module has no hot-path hooks: the application layer calls it only
//! during a sanitized run.

use crate::{Codec, DecodeError};
use std::fmt;

/// A violated conservation invariant, found by [`check_region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConservationError {
    /// A frame failed to decode (S009: the framed bytes are not
    /// self-describing at the claimed length).
    Decode {
        /// Byte offset of the frame that failed.
        at: usize,
        /// The decoder's error.
        err: DecodeError,
    },
    /// Decoding the frames consumed a different number of bytes than the
    /// region claims to hold (S009).
    Length {
        /// Bytes the region claims (the framed length).
        framed: usize,
        /// Bytes the decoder actually consumed.
        consumed: usize,
    },
    /// The decoded stream has the wrong number of elements (S008).
    Count {
        /// Elements that entered the compressor.
        expected: usize,
        /// Elements that came back out.
        got: usize,
    },
    /// A decoded element differs from its source (S008). For
    /// order-insensitive chunks the comparison is between sorted copies,
    /// so `index` refers to the sorted order.
    Element {
        /// Index of the first differing element.
        index: usize,
        /// The element that entered the compressor.
        expected: u64,
        /// The element that came back out.
        got: u64,
    },
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConservationError::Decode { at, err } => {
                write!(f, "frame at byte {at} failed to decode: {err}")
            }
            ConservationError::Length { framed, consumed } => write!(
                f,
                "framed length claims {framed} byte(s) but decoding consumed {consumed}"
            ),
            ConservationError::Count { expected, got } => {
                write!(f, "{expected} element(s) compressed but {got} decompressed")
            }
            ConservationError::Element {
                index,
                expected,
                got,
            } => write!(
                f,
                "element {index} went in as {expected:#x} and came out as {got:#x}"
            ),
        }
    }
}

impl std::error::Error for ConservationError {}

/// Checks byte conservation of `region[..framed]` against `source`.
///
/// Decodes the concatenated frames in `region[..framed]` and verifies
/// that (a) decoding consumes exactly `framed` bytes and (b) the decoded
/// elements equal `source` — elementwise, or as sorted sequences when
/// `order_insensitive` is set (chunk sorting reorders elements but must
/// still conserve the multiset).
///
/// # Errors
///
/// Returns the first [`ConservationError`] encountered.
pub fn check_region(
    codec: &dyn Codec,
    region: &[u8],
    framed: usize,
    source: &[u64],
    order_insensitive: bool,
) -> Result<(), ConservationError> {
    let framed = framed.min(region.len());
    let bytes = &region[..framed];
    let mut decoded = Vec::with_capacity(source.len());
    let mut pos = 0;
    while pos < framed {
        let at = pos;
        codec
            .decode_frame(bytes, &mut pos, &mut decoded)
            .map_err(|err| ConservationError::Decode { at, err })?;
    }
    if pos != framed {
        return Err(ConservationError::Length {
            framed,
            consumed: pos,
        });
    }
    if decoded.len() != source.len() {
        return Err(ConservationError::Count {
            expected: source.len(),
            got: decoded.len(),
        });
    }
    let (expected, got) = if order_insensitive {
        let mut e = source.to_vec();
        let mut g = decoded;
        e.sort_unstable();
        g.sort_unstable();
        (e, g)
    } else {
        (source.to_vec(), decoded)
    };
    for (index, (&e, &g)) in expected.iter().zip(got.iter()).enumerate() {
        if e != g {
            return Err(ConservationError::Element {
                index,
                expected: e,
                got: g,
            });
        }
    }
    Ok(())
}

/// Compresses `input` with `codec` and checks the result conserves it —
/// the self-test form of [`check_region`].
///
/// # Errors
///
/// Returns the [`ConservationError`] of the round trip, if any.
pub fn check_roundtrip(
    codec: &dyn Codec,
    input: &[u64],
    order_insensitive: bool,
) -> Result<(), ConservationError> {
    let mut buf = Vec::new();
    codec.compress(input, &mut buf);
    check_region(codec, &buf, buf.len(), input, order_insensitive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::SortedChunks;
    use crate::{CodecKind, ElemWidth, IdentityCodec};

    #[test]
    fn every_codec_roundtrip_conserves() {
        let data: Vec<u64> = (0..97).map(|i| (i * 131 + 7) % 4096).collect();
        for kind in CodecKind::all() {
            let codec = kind.build();
            check_roundtrip(codec.as_ref(), &data, false).unwrap();
        }
    }

    #[test]
    fn sorted_chunks_need_order_insensitive_compare() {
        let codec = SortedChunks::new(crate::delta::DeltaCodec::new());
        let data: Vec<u64> = (0..64).map(|i| 4096 - i * 3).collect();
        // The multiset survives even though the order does not.
        check_roundtrip(&codec, &data, true).unwrap();
        assert!(matches!(
            check_roundtrip(&codec, &data, false),
            Err(ConservationError::Element { .. })
        ));
    }

    #[test]
    fn concatenated_frames_check_as_one_region() {
        let codec = IdentityCodec::new(ElemWidth::W32);
        let mut region = Vec::new();
        codec.compress(&[1, 2, 3], &mut region);
        codec.compress(&[4, 5], &mut region);
        check_region(&codec, &region, region.len(), &[1, 2, 3, 4, 5], false).unwrap();
    }

    #[test]
    fn truncated_region_is_a_length_or_decode_error() {
        let codec = IdentityCodec::new(ElemWidth::W64);
        let mut region = Vec::new();
        codec.compress(&[9, 8, 7], &mut region);
        let err = check_region(&codec, &region, region.len() - 1, &[9, 8, 7], false).unwrap_err();
        assert!(
            matches!(
                err,
                ConservationError::Decode { .. } | ConservationError::Length { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn corrupted_element_is_reported_with_index() {
        let codec = IdentityCodec::new(ElemWidth::W64);
        let mut region = Vec::new();
        codec.compress(&[10, 20, 30], &mut region);
        let n = region.len();
        region[n - 1] ^= 0x40; // flip a bit in the last element
        let err = check_region(&codec, &region, n, &[10, 20, 30], false).unwrap_err();
        match err {
            ConservationError::Element {
                index, expected, ..
            } => {
                assert_eq!((index, expected), (2, 30));
            }
            other => panic!("expected element mismatch, got {other}"),
        }
    }

    #[test]
    fn errors_render_human_readable() {
        let e = ConservationError::Length {
            framed: 10,
            consumed: 8,
        };
        assert!(e.to_string().contains("10"));
        let e = ConservationError::Count {
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("4 element(s)"));
    }
}
