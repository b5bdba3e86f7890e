//! Property-based tests on the compressed trace layer: for arbitrary
//! event sequences, the columnar codec roundtrip is lossless, chunk
//! payloads are a pure function of content, and where the chunk
//! boundaries fall never changes what the sanitizer reports.

use proptest::prelude::*;
use spzip_core::QueueId;
use spzip_mem::sanitize::{Actor, MemRecord};
use spzip_mem::{DataClass, MemOp};
use spzip_sim::ctrace::{CTrace, CHUNK_EVENTS};
use spzip_sim::sanitize::{analyze, render, RunContext, TraceEvent};

const CORES: usize = 4;

fn arb_actor() -> impl Strategy<Value = Actor> {
    (0..CORES, 0u8..3).prop_map(|(i, kind)| match kind {
        0 => Actor::Core(i),
        1 => Actor::Fetcher(i),
        _ => Actor::Compressor(i),
    })
}

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        Just(MemOp::Load),
        Just(MemOp::Store),
        Just(MemOp::StreamStore),
        Just(MemOp::Atomic),
    ]
}

fn arb_class() -> impl Strategy<Value = DataClass> {
    prop_oneof![Just(DataClass::Frontier), Just(DataClass::Updates)]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    // Addresses cluster on a few words so unordered accesses actually
    // collide; cycles are unconstrained (the wire format must carry any
    // stamp, monotonic or not).
    prop_oneof![
        (
            arb_actor(),
            0u64..64,
            1u32..16,
            arb_op(),
            arb_class(),
            any::<u64>()
        )
            .prop_map(|(actor, word, bytes, op, class, cycle)| {
                TraceEvent::Mem(MemRecord {
                    actor,
                    addr: 0x1000 + word * 4,
                    bytes,
                    op,
                    class,
                    cycle,
                })
            }),
        (arb_actor(), arb_actor(), 0u8..4, 1u32..9, any::<u64>()).prop_map(
            |(actor, engine, q, quarters, cycle)| TraceEvent::Push {
                actor,
                engine,
                q: q as QueueId,
                quarters,
                cycle,
            }
        ),
        (arb_actor(), arb_actor(), 0u8..4, 1u32..9, any::<u64>()).prop_map(
            |(actor, engine, q, quarters, cycle)| TraceEvent::Pop {
                actor,
                engine,
                q: q as QueueId,
                quarters,
                cycle,
            }
        ),
        (arb_actor(), arb_actor(), any::<u64>()).prop_map(|(actor, engine, cycle)| {
            TraceEvent::Drain {
                actor,
                engine,
                cycle,
            }
        }),
        any::<u64>().prop_map(|cycle| TraceEvent::Barrier { cycle }),
    ]
}

fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    // Spans zero, partial, and multiple chunks.
    proptest::collection::vec(arb_event(), 0..3 * CHUNK_EVENTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compressed_roundtrip_is_lossless(events in arb_events()) {
        let t = CTrace::from_events(CORES, &events);
        prop_assert_eq!(t.len(), events.len());
        prop_assert_eq!(t.decode_all().expect("decodes"), events);
    }

    #[test]
    fn chunk_payloads_are_content_deterministic(events in arb_events()) {
        let a = CTrace::from_events(CORES, &events);
        let b = CTrace::from_events(CORES, &events);
        prop_assert_eq!(a.chunks(), b.chunks());
        prop_assert_eq!(a.compressed_bytes(), b.compressed_bytes());
    }

    #[test]
    fn analysis_is_invariant_under_chunk_boundaries(
        events in arb_events(),
        split in any::<u64>(),
    ) {
        // Recording the same events with one extra seal at an arbitrary
        // point moves every later chunk boundary.
        let ctx = RunContext::empty(CORES);
        let whole = analyze(&CTrace::from_events(CORES, &events), &ctx);
        let at = (split % (events.len() as u64 + 1)) as usize;
        let mut resealed = CTrace::new(CORES);
        resealed.record_all(events[..at].iter().copied());
        resealed.seal();
        resealed.record_all(events[at..].iter().copied());
        prop_assert_eq!(render(&analyze(&resealed, &ctx)), render(&whole));
    }
}
