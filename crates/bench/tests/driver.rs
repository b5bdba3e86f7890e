//! Driver contract tests: determinism across thread counts, cache
//! round-trips, fingerprint-keyed invalidation, and never memoizing a
//! wedged cell.

use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_bench::driver::{Driver, DriverOptions, Memo};
use spzip_graph::datasets::Scale;
use spzip_graph::reorder::Preprocessing;
use std::fs;
use std::path::PathBuf;

fn specs() -> Vec<RunSpec> {
    [Scheme::Push, Scheme::PushSpzip, Scheme::Ub]
        .iter()
        .map(|&s| {
            RunSpec::new(
                AppName::Dc,
                "arb",
                s.config(),
                Preprocessing::None,
                Scale::Tiny,
            )
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spzip-driver-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(jobs: usize, cache_dir: Option<PathBuf>) -> DriverOptions {
    DriverOptions {
        jobs,
        fresh: false,
        sanitize: false,
        cache_dir,
        quiet: true,
    }
}

fn serialized(memo: &Memo, specs: &[RunSpec]) -> Vec<String> {
    specs
        .iter()
        .map(|s| memo.get(s).to_kv(&s.fingerprint()))
        .collect()
}

#[test]
fn identical_results_for_one_and_eight_workers() {
    let specs = specs();
    let serial = Driver::new(opts(1, None)).execute(&specs);
    let parallel = Driver::new(opts(8, None)).execute(&specs);
    assert_eq!(
        serialized(&serial, &specs),
        serialized(&parallel, &specs),
        "serialized RunReports must be byte-identical under --jobs 1 and --jobs 8"
    );
}

#[test]
fn cache_roundtrip_means_zero_resimulations() {
    let dir = temp_dir("roundtrip");
    let specs = specs();

    let first = Driver::new(opts(4, Some(dir.clone())));
    let memo1 = first.execute(&specs);
    let s1 = first.stats();
    assert_eq!(s1.unique, specs.len());
    assert_eq!(
        s1.simulated,
        specs.len(),
        "cold cache simulates every unique cell"
    );
    assert_eq!(s1.cache_hits, 0);

    let second = Driver::new(opts(4, Some(dir.clone())));
    let memo2 = second.execute(&specs);
    let s2 = second.stats();
    assert_eq!(s2.simulated, 0, "warm cache must not re-simulate");
    assert_eq!(s2.cache_hits, specs.len());
    assert_eq!(
        serialized(&memo1, &specs),
        serialized(&memo2, &specs),
        "cached outcomes round-trip exactly"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_cells_simulate_once() {
    let mut doubled = specs();
    doubled.extend(specs());
    let driver = Driver::new(opts(8, None));
    let memo = driver.execute(&doubled);
    let stats = driver.stats();
    assert_eq!(stats.requested, doubled.len());
    assert_eq!(stats.unique, doubled.len() / 2);
    assert_eq!(
        stats.simulated,
        doubled.len() / 2,
        "dedup: unique cells run exactly once"
    );
    assert_eq!(memo.len(), doubled.len() / 2);
}

#[test]
fn changed_fingerprint_forces_resimulation() {
    let dir = temp_dir("invalidate");
    let base = RunSpec::new(
        AppName::Dc,
        "arb",
        Scheme::Push.config(),
        Preprocessing::None,
        Scale::Tiny,
    );
    let first = Driver::new(opts(1, Some(dir.clone())));
    first.execute(std::slice::from_ref(&base));
    assert_eq!(first.stats().simulated, 1);

    // Any machine-parameter change alters the fingerprint, so the cached
    // entry (keyed and verified by fingerprint) must not be reused.
    let mut changed = base.clone();
    changed.machine.config.core_mlp += 1;
    assert_ne!(base.cache_key(), changed.cache_key());
    let second = Driver::new(opts(1, Some(dir.clone())));
    second.execute(std::slice::from_ref(&changed));
    let s = second.stats();
    assert_eq!(s.cache_hits, 0, "changed fingerprint must miss");
    assert_eq!(s.simulated, 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_resimulated() {
    let dir = temp_dir("corrupt");
    let base = RunSpec::new(
        AppName::Dc,
        "arb",
        Scheme::Push.config(),
        Preprocessing::None,
        Scale::Tiny,
    );
    let first = Driver::new(opts(1, Some(dir.clone())));
    let memo1 = first.execute(std::slice::from_ref(&base));
    let path = dir.join(format!("{}.run", base.cache_key()));
    assert!(path.exists(), "outcome memoized to <fingerprint>.run");
    fs::write(&path, "spzip-outcome-v1\ngarbage\n").unwrap();

    let second = Driver::new(opts(1, Some(dir.clone())));
    let memo2 = second.execute(std::slice::from_ref(&base));
    let s = second.stats();
    assert_eq!(s.cache_hits, 0);
    assert_eq!(
        s.simulated, 1,
        "unparseable entry re-simulates instead of erroring"
    );
    assert_eq!(
        memo1.get(&base).to_kv(&base.fingerprint()),
        memo2.get(&base).to_kv(&base.fingerprint())
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wedged_cells_are_never_memoized() {
    let dir = temp_dir("wedged");
    let healthy = RunSpec::new(
        AppName::Dc,
        "arb",
        Scheme::Push.config(),
        Preprocessing::None,
        Scale::Tiny,
    );
    // A watchdog shorter than any memory access trips on the first stall.
    let mut wedged = healthy.clone();
    wedged.machine.config.deadlock_cycles = 1;
    let driver = Driver::new(opts(2, Some(dir.clone())));
    let memo = driver.execute(&[healthy.clone(), wedged.clone()]);
    assert!(
        memo.get(&wedged).deadlock.is_some(),
        "the 1-cycle watchdog must trip"
    );
    assert!(memo.get(&healthy).deadlock.is_none());
    let run_file = |s: &RunSpec| dir.join(format!("{}.run", s.cache_key()));
    assert!(
        !run_file(&wedged).exists(),
        "a wedged cell must never reach the cache"
    );
    assert!(
        run_file(&healthy).exists(),
        "a healthy cell is still memoized"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[cfg(feature = "sanitize")]
#[test]
fn sanitized_runs_bypass_the_cache_and_come_back_clean() {
    let dir = temp_dir("sanitize");
    let specs = specs();
    // Prime the cache with unsanitized outcomes.
    Driver::new(opts(2, Some(dir.clone()))).execute(&specs);

    let mut san_opts = opts(2, Some(dir.clone()));
    san_opts.sanitize = true;
    let driver = Driver::new(san_opts);
    driver.execute(&specs);
    let s = driver.stats();
    assert_eq!(s.cache_hits, 0, "--sanitize must not read the cache");
    assert_eq!(s.simulated, specs.len());
    assert_eq!(s.sanitized, specs.len());
    assert!(
        driver.sanitize_findings().is_empty(),
        "built-in cells must sanitize clean:\n{}",
        driver
            .sanitize_findings()
            .iter()
            .map(|f| f.rendered.clone())
            .collect::<String>()
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fresh_flag_ignores_cache() {
    let dir = temp_dir("fresh");
    let specs = specs();
    Driver::new(opts(2, Some(dir.clone()))).execute(&specs);

    let mut fresh_opts = opts(2, Some(dir.clone()));
    fresh_opts.fresh = true;
    let driver = Driver::new(fresh_opts);
    driver.execute(&specs);
    let s = driver.stats();
    assert_eq!(s.cache_hits, 0, "--fresh bypasses the cache");
    assert_eq!(s.simulated, specs.len());

    let _ = fs::remove_dir_all(&dir);
}
