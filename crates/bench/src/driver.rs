//! The experiment driver: deduplicate, execute in parallel, memoize.
//!
//! Figures declare *what* to run as [`RunSpec`] cells; the driver decides
//! *whether* and *where*. [`Driver::execute`] takes the union of all
//! requested cells, deduplicates them by [`RunSpec::cache_key`], loads
//! previously memoized outcomes from `results/cache/<key>.run`, and
//! simulates only the misses on a `std::thread::scope` worker pool that
//! shares one [`Arc<Csr>`] per (input, preprocessing, scale) through a
//! thread-safe [`InputCache`]. Every simulated outcome is serialized back
//! to the cache directory, so re-running any figure — or `bench_all` —
//! is free until a spec's fingerprint changes.
//!
//! With [`DriverOptions::sanitize`] set (the `--sanitize` flag, `sanitize`
//! feature), every cell instead runs under the SimSanitizer: the cache is
//! bypassed in both directions (the verdict is the product, and a cached
//! outcome has no trace to check), and each dirty run's rendered report is
//! collected for [`Driver::sanitize_findings`].

use crate::RANDOMIZE_SEED;
use spzip_apps::{RunOutcome, RunSpec};
use spzip_graph::datasets::{self, Scale};
use spzip_graph::reorder::Preprocessing;
use spzip_graph::Csr;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Generates one benchmark input: the named dataset at `scale`, vertex
/// ids randomized (the paper's convention for "no preprocessing"), then
/// reordered by `prep`.
pub fn build_input(name: &str, prep: Preprocessing, scale: Scale) -> Csr {
    let spec = datasets::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let g = spec.generate(scale);
    let randomized = spzip_graph::reorder::randomize(&g, RANDOMIZE_SEED);
    match prep {
        Preprocessing::None => randomized,
        other => other.apply(&randomized, 0),
    }
}

/// Thread-safe cache of generated inputs, shared as `Arc<Csr>` handles so
/// concurrent runs of the same (input, prep, scale) never deep-clone the
/// graph.
type InputKey = (String, Preprocessing, Scale);
type InputSlot = Arc<OnceLock<Arc<Csr>>>;

#[derive(Default)]
pub struct InputCache {
    graphs: Mutex<HashMap<InputKey, InputSlot>>,
}

impl InputCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input for `(name, prep, scale)`, generated on first use.
    ///
    /// Only the first caller generates; concurrent callers for the same
    /// key block on its `OnceLock` while other keys proceed in parallel.
    pub fn get(&self, name: &str, prep: Preprocessing, scale: Scale) -> Arc<Csr> {
        let slot = {
            let mut graphs = self.graphs.lock().unwrap();
            graphs
                .entry((name.to_string(), prep, scale))
                .or_default()
                .clone()
        };
        slot.get_or_init(|| Arc::new(build_input(name, prep, scale)))
            .clone()
    }
}

/// How the driver executes and memoizes.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Worker threads for cache misses (`--jobs N`).
    pub jobs: usize,
    /// Ignore existing cache entries and re-simulate (`--fresh`).
    pub fresh: bool,
    /// Run every cell under the SimSanitizer (`--sanitize`). Requires the
    /// `sanitize` feature; sanitized runs never read or write the cache.
    pub sanitize: bool,
    /// Where memoized outcomes live; `None` disables disk memoization.
    pub cache_dir: Option<PathBuf>,
    /// Suppress per-run progress lines on stderr.
    pub quiet: bool,
}

impl DriverOptions {
    /// Default options: all cores, memoizing under `results/cache`.
    pub fn new() -> Self {
        DriverOptions {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fresh: false,
            sanitize: false,
            cache_dir: Some(PathBuf::from("results/cache")),
            quiet: false,
        }
    }

    /// Options for tests: no disk cache, no progress chatter.
    pub fn in_memory() -> Self {
        DriverOptions {
            cache_dir: None,
            quiet: true,
            ..Self::new()
        }
    }
}

impl Default for DriverOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Memoized outcomes keyed by [`RunSpec::cache_key`], as returned by
/// [`Driver::execute`].
#[derive(Default)]
pub struct Memo {
    by_key: HashMap<String, RunOutcome>,
}

impl Memo {
    /// The outcome for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` was not in the executed cell list — a figure
    /// rendering a cell it never declared.
    pub fn get(&self, spec: &RunSpec) -> &RunOutcome {
        self.by_key
            .get(&spec.cache_key())
            .unwrap_or_else(|| panic!("cell was never executed: {}", spec.fingerprint()))
    }

    /// Number of memoized outcomes.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// Execution counters accumulated across [`Driver::execute`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverStats {
    /// Cells requested (before deduplication).
    pub requested: usize,
    /// Unique cells after deduplication.
    pub unique: usize,
    /// Cells actually simulated.
    pub simulated: usize,
    /// Cells served from the disk cache.
    pub cache_hits: usize,
    /// Cells run under the SimSanitizer.
    pub sanitized: usize,
}

/// The verdict of one dirty sanitized run.
#[derive(Debug, Clone)]
pub struct SanitizeFinding {
    /// Which cell ([`RunSpec::label`]).
    pub label: String,
    /// Number of violations the sanitizer reported.
    pub violations: usize,
    /// The rendered rustc-style report.
    pub rendered: String,
}

/// The parallel cached experiment driver.
pub struct Driver {
    opts: DriverOptions,
    inputs: InputCache,
    requested: AtomicUsize,
    unique: AtomicUsize,
    simulated: AtomicUsize,
    cache_hits: AtomicUsize,
    sanitized: AtomicUsize,
    findings: Mutex<Vec<SanitizeFinding>>,
}

impl Driver {
    /// A driver with the given options and an empty input cache.
    pub fn new(opts: DriverOptions) -> Self {
        Driver {
            opts,
            inputs: InputCache::new(),
            requested: AtomicUsize::new(0),
            unique: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            sanitized: AtomicUsize::new(0),
            findings: Mutex::new(Vec::new()),
        }
    }

    /// The shared input cache (figures that need raw graphs reuse it).
    pub fn inputs(&self) -> &InputCache {
        &self.inputs
    }

    /// Counters so far.
    pub fn stats(&self) -> DriverStats {
        DriverStats {
            requested: self.requested.load(Ordering::Relaxed),
            unique: self.unique.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            sanitized: self.sanitized.load(Ordering::Relaxed),
        }
    }

    /// Reports from dirty sanitized runs so far, in completion order.
    /// Empty means every sanitized run was clean.
    pub fn sanitize_findings(&self) -> Vec<SanitizeFinding> {
        self.findings.lock().unwrap().clone()
    }

    /// Simulates one cell, under the sanitizer when so configured.
    fn run_spec(&self, spec: &RunSpec, g: &Arc<Csr>) -> RunOutcome {
        if self.opts.sanitize {
            #[cfg(feature = "sanitize")]
            {
                let (out, san) = spec.run_sanitized(g);
                self.sanitized.fetch_add(1, Ordering::Relaxed);
                if !san.clean() {
                    self.findings.lock().unwrap().push(SanitizeFinding {
                        label: spec.label(),
                        violations: san.violations.len(),
                        rendered: san.render(),
                    });
                }
                return out;
            }
            #[cfg(not(feature = "sanitize"))]
            panic!("DriverOptions::sanitize requires a build with the `sanitize` feature");
        }
        spec.run(g)
    }

    /// Executes `specs`: dedup, load memoized outcomes, simulate misses
    /// in parallel, memoize, and return every outcome.
    pub fn execute(&self, specs: &[RunSpec]) -> Memo {
        self.requested.fetch_add(specs.len(), Ordering::Relaxed);
        let mut seen = HashSet::new();
        let mut pending: Vec<(String, &RunSpec)> = Vec::new();
        for spec in specs {
            let key = spec.cache_key();
            if seen.insert(key.clone()) {
                pending.push((key, spec));
            }
        }
        self.unique.fetch_add(pending.len(), Ordering::Relaxed);

        let mut memo = Memo::default();
        let mut misses: Vec<(String, &RunSpec)> = Vec::new();
        for (key, spec) in pending {
            match self.load_cached(&key, spec) {
                Some(out) => {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    memo.by_key.insert(key, out);
                }
                None => misses.push((key, spec)),
            }
        }
        if misses.is_empty() {
            return memo;
        }

        let jobs = self.opts.jobs.clamp(1, misses.len());
        let next = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let done: Mutex<Vec<(String, RunOutcome)>> = Mutex::new(Vec::with_capacity(misses.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((key, spec)) = misses.get(i) else {
                        break;
                    };
                    let g = self.inputs.get(&spec.input, spec.prep, spec.scale);
                    let out = self.run_spec(spec, &g);
                    self.simulated.fetch_add(1, Ordering::Relaxed);
                    self.store_cached(key, spec, &out);
                    let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                    if !self.opts.quiet {
                        eprintln!(
                            "  [{n}/{}] {} ({} cycles)",
                            misses.len(),
                            spec.label(),
                            out.report.cycles
                        );
                    }
                    done.lock().unwrap().push((key.clone(), out));
                });
            }
        });
        for (key, out) in done.into_inner().unwrap() {
            memo.by_key.insert(key, out);
        }
        memo
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.opts
            .cache_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.run")))
    }

    fn load_cached(&self, key: &str, spec: &RunSpec) -> Option<RunOutcome> {
        if self.opts.fresh || self.opts.sanitize {
            return None;
        }
        let path = self.cache_path(key)?;
        let text = fs::read_to_string(&path).ok()?;
        match RunOutcome::from_kv(&text, Some(&spec.fingerprint())) {
            Ok(out) => Some(out),
            Err(err) => {
                if !self.opts.quiet {
                    eprintln!(
                        "  stale cache entry {} ({err}); re-simulating",
                        path.display()
                    );
                }
                None
            }
        }
    }

    fn store_cached(&self, key: &str, spec: &RunSpec, out: &RunOutcome) {
        // A sanitized outcome is deliberately never memoized: the verdict,
        // not the numbers, is the product of a `--sanitize` run. Nor is a
        // wedged or unvalidated one: its numbers are meaningless, and the
        // cache format has no field for the deadlock.
        if self.opts.sanitize || out.deadlock.is_some() || !out.validated {
            return;
        }
        let Some(path) = self.cache_path(key) else {
            return;
        };
        let dir = path.parent().expect("cache path has a parent");
        // Write-to-temp + rename so a crash never leaves a torn entry;
        // the key is unique to this worker, so the temp name is too.
        let tmp = path.with_extension("run.tmp");
        let write = fs::create_dir_all(dir)
            .and_then(|()| fs::write(&tmp, out.to_kv(&spec.fingerprint())))
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(err) = write {
            if !self.opts.quiet {
                eprintln!("  warning: could not memoize {} ({err})", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spzip_apps::{AppName, Scheme};

    fn spec(scheme: Scheme) -> RunSpec {
        RunSpec::new(
            AppName::Dc,
            "arb",
            scheme.config(),
            Preprocessing::None,
            Scale::Tiny,
        )
    }

    #[test]
    fn dedups_and_counts() {
        let driver = Driver::new(DriverOptions::in_memory());
        let specs = vec![spec(Scheme::Push), spec(Scheme::Push), spec(Scheme::Ub)];
        let memo = driver.execute(&specs);
        assert_eq!(memo.len(), 2);
        let stats = driver.stats();
        assert_eq!(stats.requested, 3);
        assert_eq!(stats.unique, 2);
        assert_eq!(stats.simulated, 2);
        assert_eq!(stats.cache_hits, 0);
        assert!(memo.get(&spec(Scheme::Push)).validated);
    }

    #[test]
    #[should_panic(expected = "cell was never executed")]
    fn memo_panics_on_undeclared_cell() {
        let memo = Memo::default();
        let _ = memo.get(&spec(Scheme::Push));
    }
}
