//! The event protocol between instrumented applications and the machine.
//!
//! Applications emit one [`Event`] stream per core; the machine replays
//! them with timing. Queue events reference the core's own fetcher or
//! compressor and block on occupancy, which is how decoupled execution and
//! backpressure reach the core's timeline.

use spzip_core::QueueId;
use spzip_mem::Access;

/// One timed action of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Busy the core for `n` cycles (straight-line instructions).
    Compute(u32),
    /// Issue a memory access through the core port; completion occupies a
    /// slot in the core's outstanding-miss window.
    Mem(Access),
    /// Push `quarters` quarter-words into fetcher input queue `q`; blocks
    /// while the queue is full.
    FetcherEnqueue {
        /// Target queue.
        q: QueueId,
        /// Payload size in quarter-words.
        quarters: u16,
    },
    /// Pop `quarters` quarter-words from fetcher output queue `q`; blocks
    /// while the queue holds less.
    FetcherDequeue {
        /// Source queue.
        q: QueueId,
        /// Payload size in quarter-words.
        quarters: u16,
    },
    /// Push `quarters` quarter-words into compressor input queue `q`;
    /// blocks while the queue is full.
    CompressorEnqueue {
        /// Target queue.
        q: QueueId,
        /// Payload size in quarter-words.
        quarters: u16,
    },
    /// Block until this core's compressor has drained all in-flight work
    /// (`spzip_comp_drain()` in Listing 5).
    CompressorDrain,
}

impl Event {
    /// A convenience load event.
    pub fn load(addr: u64, bytes: u32, class: spzip_mem::DataClass) -> Event {
        Event::Mem(Access::new(addr, bytes, spzip_mem::MemOp::Load, class))
    }

    /// A convenience store event.
    pub fn store(addr: u64, bytes: u32, class: spzip_mem::DataClass) -> Event {
        Event::Mem(Access::new(addr, bytes, spzip_mem::MemOp::Store, class))
    }

    /// A convenience atomic read-modify-write event.
    pub fn atomic(addr: u64, bytes: u32, class: spzip_mem::DataClass) -> Event {
        Event::Mem(Access::new(addr, bytes, spzip_mem::MemOp::Atomic, class))
    }

    /// A convenience streaming (full-line, no-RFO) store event.
    pub fn stream_store(addr: u64, bytes: u32, class: spzip_mem::DataClass) -> Event {
        Event::Mem(Access::new(
            addr,
            bytes,
            spzip_mem::MemOp::StreamStore,
            class,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spzip_mem::{DataClass, MemOp};

    #[test]
    fn convenience_constructors() {
        let e = Event::load(64, 4, DataClass::SourceVertex);
        match e {
            Event::Mem(a) => {
                assert_eq!(a.op, MemOp::Load);
                assert_eq!(a.addr, 64);
            }
            _ => panic!("wrong event"),
        }
        assert!(
            matches!(Event::atomic(0, 8, DataClass::Other), Event::Mem(a) if a.op == MemOp::Atomic)
        );
        assert!(
            matches!(Event::store(0, 8, DataClass::Other), Event::Mem(a) if a.op == MemOp::Store)
        );
        assert!(
            matches!(Event::stream_store(0, 64, DataClass::Updates), Event::Mem(a) if a.op == MemOp::StreamStore)
        );
    }
}
