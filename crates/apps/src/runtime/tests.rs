//! Exact event sequences of the runtime's shared core-side emitters.

use super::*;

const Q: QueueId = 3;

fn val() -> (QueueItem, u8) {
    (QueueItem::Value(9), 4)
}

/// Markers cost 1 quarter here, so a dequeue of the wrong width shows.
fn marker() -> (QueueItem, u8) {
    (QueueItem::Marker(0), 1)
}

fn deq(quarters: u16) -> Event {
    Event::FetcherDequeue { q: Q, quarters }
}

/// What a hook call with `n` leaves in the stream.
fn hook(n: u16) -> Event {
    Event::Compute(100 + n as u32)
}

/// Runs the dequeue walk with a hook that records each call.
fn walk(items: Vec<(QueueItem, u8)>) -> Vec<Event> {
    let mut ev = Vec::new();
    dequeue_paired(&mut ev, Q, items, |ev, n| ev.push(hook(n)));
    ev
}

fn store(addr: u64, bytes: u32) -> Event {
    Event::stream_store(addr, bytes, DataClass::DestinationVertex)
}

fn stage(items: Vec<(QueueItem, u8)>) -> Vec<Event> {
    let mut ev = Vec::new();
    stage_slice(&mut ev, Q, items, 0x1000);
    ev
}

#[test]
fn walk_dequeues_an_odd_run_alone_before_its_marker() {
    let items = vec![val(), val(), val(), marker(), val()];
    let expect = vec![
        deq(8),
        hook(2),
        deq(4),
        hook(1),
        hook(0),
        deq(1),
        deq(4),
        hook(1),
        hook(0),
    ];
    assert_eq!(walk(items), expect);
}

#[test]
fn walk_of_markers_only_dequeues_each_marker() {
    let expect = vec![hook(0), deq(1), hook(0), deq(1), hook(0)];
    assert_eq!(walk(vec![marker(), marker()]), expect);
    assert_eq!(walk(Vec::new()), vec![hook(0)]);
}

#[test]
fn walk_dequeues_an_odd_tail_at_the_end() {
    let expect = vec![deq(8), hook(2), deq(4), hook(1), hook(0)];
    assert_eq!(walk(vec![val(); 3]), expect);
}

#[test]
fn staging_flushes_once_per_16_values() {
    let mut expect = vec![deq(8); 8];
    expect.push(store(0x1000, 64));
    assert_eq!(stage(vec![val(); 16]), expect);
    expect.extend([deq(4), store(0x1000 + 64, 4)]);
    assert_eq!(stage(vec![val(); 17]), expect);
}

#[test]
fn staging_flushes_before_each_marker() {
    let items = vec![val(), val(), val(), marker(), val(), val()];
    let expect = vec![
        deq(8),
        deq(4),
        store(0x1000, 12),
        deq(1),
        deq(8),
        store(0x1000 + 12, 8),
    ];
    assert_eq!(stage(items), expect);
}

#[test]
fn burst_stores_split_at_line_size() {
    let bursts = |len| {
        let mut ev = Vec::new();
        burst_stores(&mut ev, 0x40, len, DataClass::DestinationVertex);
        ev
    };
    assert_eq!(bursts(0), vec![]);
    assert_eq!(bursts(64), vec![store(0x40, 64)]);
    assert_eq!(bursts(65), vec![store(0x40, 64), store(0x80, 1)]);
}

#[test]
fn chunk_ranges_cover_n_in_chunk_sized_steps() {
    let ranges = |n| chunk_ranges(n).collect::<Vec<_>>();
    let c = CHUNK_VERTICES;
    assert_eq!(ranges(0), vec![]);
    assert_eq!(ranges(c), vec![(0, c)]);
    assert_eq!(ranges(c + 1), vec![(0, c), (c, c + 1)]);
}
