//! `corpus::run` keeps a corpus's expected panics quiet without ever
//! leaving the process panic hook silenced. Two runs overlap as "A
//! enters, B enters, A leaves, B leaves": a hook that each run swapped out
//! and restored would end with B restoring the silent hook A installed.
//! Its own test binary, so no other test touches the process hook.

use spzip_bench::corpus::{run, GateRow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Panics the counting hook has seen.
static SEEN: AtomicUsize = AtomicUsize::new(0);

/// How far the interleaving has got: 1 = A entered, 2 = B entered,
/// 3 = A left.
static STEP: Mutex<u32> = Mutex::new(0);
static STEPPED: Condvar = Condvar::new();

fn advance_to(step: u32) {
    *STEP.lock().unwrap() = step;
    STEPPED.notify_all();
}

fn wait_for(step: u32) {
    let guard = STEP.lock().unwrap();
    drop(STEPPED.wait_while(guard, |s| *s < step).unwrap());
}

/// Corpus A: an expected panic, which must stay quiet, then hold the run
/// open until B has entered.
fn rows_a(_: bool) -> Vec<GateRow> {
    assert!(std::panic::catch_unwind(|| panic!("expected inside corpus A")).is_err());
    advance_to(1);
    wait_for(2);
    Vec::new()
}

/// Corpus B: enters after A and stays inside until A has left.
fn rows_b(_: bool) -> Vec<GateRow> {
    advance_to(2);
    wait_for(3);
    Vec::new()
}

#[test]
fn overlapping_runs_leave_the_installed_hook_in_place() {
    std::panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::SeqCst);
    }));
    std::thread::scope(|s| {
        s.spawn(|| {
            run(rows_a, false);
            advance_to(3);
        });
        s.spawn(|| {
            wait_for(1);
            run(rows_b, false);
        });
    });
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        0,
        "a corpus panic was not quiet"
    );
    assert!(std::panic::catch_unwind(|| panic!("after both runs")).is_err());
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        1,
        "a panic after both corpus runs must reach the hook installed before them"
    );
}
