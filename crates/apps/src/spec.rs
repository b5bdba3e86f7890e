//! Keyed run specifications: one value names one experiment cell.
//!
//! The evaluation harness sweeps (application × input × scheme ×
//! preprocessing × scale × machine) cells. A [`RunSpec`] captures every
//! knob that influences a simulated run, executes it ([`RunSpec::run`]),
//! and fingerprints it ([`RunSpec::fingerprint`], [`RunSpec::cache_key`])
//! so drivers can deduplicate identical cells across figures and memoize
//! their [`RunOutcome`]s on disk.

use crate::run::{run_app_full, AppName, RunOutcome};
use crate::runtime::AlgoRunStats;
use crate::scheme::SchemeConfig;
use spzip_graph::datasets::Scale;
use spzip_graph::reorder::Preprocessing;
use spzip_graph::Csr;
use spzip_sim::{MachineConfig, RunReport, REPORT_FORMAT};
use std::sync::Arc;

/// Header line of a serialized [`RunOutcome`]; bump on field changes so
/// stale cache entries are rejected, not misread.
pub const OUTCOME_FORMAT: &str = "spzip-outcome-v1";

/// The keys [`RunOutcome::to_kv`] writes ahead of the embedded report.
const OUTCOME_KEYS: [&str; 9] = [
    "spec",
    "validated",
    "adjacency_ratio",
    "stats.iterations",
    "stats.edges",
    "stats.phi_coalesced",
    "stats.phi_spilled",
    "stats.bin_raw_bytes",
    "stats.bin_stored_bytes",
];

/// The simulated machine plus the per-figure hardware knobs layered on
/// top of it (Fig. 21's fetcher scratchpad sweep, Fig. 22's compressed
/// memory hierarchy).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Base machine parameters.
    pub config: MachineConfig,
    /// Fetcher scratchpad override in bytes (Fig. 21), if any.
    pub fetcher_scratchpad: Option<u32>,
    /// Run on the compressed-memory-hierarchy baseline (Fig. 22).
    pub cmh: bool,
}

impl MachineSpec {
    /// The standard scaled Table II machine with no overrides.
    pub fn paper_scaled() -> Self {
        MachineSpec {
            config: MachineConfig::paper_scaled(),
            fetcher_scratchpad: None,
            cmh: false,
        }
    }

    /// Sets the fetcher scratchpad size, normalizing "override equal to
    /// the machine default" to no override so such cells share one
    /// fingerprint (and one cached run) with the un-overridden sweeps.
    pub fn with_fetcher_scratchpad(mut self, bytes: u32) -> Self {
        self.fetcher_scratchpad = if bytes == self.config.fetcher.scratchpad_bytes {
            None
        } else {
            Some(bytes)
        };
        self
    }

    /// The Fig. 22 compressed-memory-hierarchy baseline.
    pub fn with_cmh(mut self) -> Self {
        self.cmh = true;
        self
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::paper_scaled()
    }
}

/// One fully-specified experiment cell.
///
/// Equality/hashing go through [`RunSpec::fingerprint`], the canonical
/// text encoding of every field (machine parameters included), so two
/// specs compare equal exactly when they would simulate identically.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Application.
    pub app: AppName,
    /// Dataset short name (resolved through `spzip_graph::datasets`).
    pub input: String,
    /// Full scheme configuration (named schemes and ablation variants).
    pub scheme: SchemeConfig,
    /// Preprocessing applied to the input.
    pub prep: Preprocessing,
    /// Input generation scale.
    pub scale: Scale,
    /// The machine (plus hardware overrides) the cell runs on.
    pub machine: MachineSpec,
}

impl RunSpec {
    /// A cell on the standard machine.
    pub fn new(
        app: AppName,
        input: &str,
        scheme: SchemeConfig,
        prep: Preprocessing,
        scale: Scale,
    ) -> Self {
        RunSpec {
            app,
            input: input.to_string(),
            scheme,
            prep,
            scale,
            machine: MachineSpec::paper_scaled(),
        }
    }

    /// The canonical one-line text encoding of every field.
    ///
    /// Uses derived `Debug` for the scheme/machine structs: it prints
    /// every field, so any parameter change (including the silent kind —
    /// a new knob, a retuned constant) changes the fingerprint and
    /// invalidates stale cached results. `CODEC_VERSION` is folded in for
    /// the same reason: a codec bitstream change alters simulated traffic
    /// without touching any spec field.
    pub fn fingerprint(&self) -> String {
        format!(
            "v1;codec={};app={};input={};prep={:?};scale={:?};scheme={:?};machine={:?}",
            spzip_compress::CODEC_VERSION,
            self.app,
            self.input,
            self.prep,
            self.scale,
            self.scheme,
            self.machine
        )
    }

    /// A short, filename-safe stable key: 128 bits of FNV-1a over
    /// [`RunSpec::fingerprint`], as 32 hex digits.
    pub fn cache_key(&self) -> String {
        let text = self.fingerprint();
        format!(
            "{:016x}{:016x}",
            fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325),
            fnv1a(text.as_bytes(), 0x8422_2325_cbf2_9ce4)
        )
    }

    /// A short human-readable label for progress lines and sanitizer
    /// findings: app, input, preprocessing, the scheme
    /// ([`SchemeConfig::label`]), and the machine overrides (`sp=<bytes>`
    /// for a fetcher scratchpad, `cmh`). It names one cell of a
    /// `bench_all` sweep; scale and base machine are left out.
    pub fn label(&self) -> String {
        let (app, input, prep) = (self.app, &self.input, self.prep);
        let sp = self
            .machine
            .fetcher_scratchpad
            .map_or(String::new(), |b| format!("/sp={b}"));
        let cmh = if self.machine.cmh { "/cmh" } else { "" };
        format!("{app}/{input}/{prep:?}/{}{sp}{cmh}", self.scheme.label())
    }

    /// Executes this cell on (a shared handle to) its generated input.
    ///
    /// The caller provides the graph so a process-wide input cache can
    /// share one `Arc<Csr>` across all concurrent runs of the same
    /// (input, prep, scale).
    pub fn run(&self, g: &Arc<Csr>) -> RunOutcome {
        run_app_full(
            self.app,
            g,
            &self.scheme,
            self.machine.config,
            self.machine.fetcher_scratchpad,
            self.machine.cmh,
        )
    }

    /// Executes this cell with the SimSanitizer enabled. Sanitized runs
    /// are never cached (the verdict, not the numbers, is the product).
    pub fn run_sanitized(&self, g: &Arc<Csr>) -> (RunOutcome, spzip_sim::sanitize::SanitizeReport) {
        crate::run::run_app_sanitized(
            self.app,
            g,
            &self.scheme,
            self.machine.config,
            self.machine.fetcher_scratchpad,
            self.machine.cmh,
        )
    }
}

impl PartialEq for RunSpec {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint() == other.fingerprint()
    }
}

impl Eq for RunSpec {}

impl std::hash::Hash for RunSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.fingerprint().hash(state);
    }
}

fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl RunOutcome {
    /// Serializes to `key value` lines headed by [`OUTCOME_FORMAT`],
    /// embedding the [`RunReport`]'s own kv block, with the producing
    /// spec's fingerprint recorded for verification on load.
    pub fn to_kv(&self, spec_fingerprint: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(OUTCOME_FORMAT);
        out.push('\n');
        out.push_str("spec ");
        out.push_str(spec_fingerprint);
        out.push('\n');
        out.push_str(&format!("validated {}\n", u8::from(self.validated)));
        match self.adjacency_ratio {
            Some(r) => out.push_str(&format!("adjacency_ratio {r:?}\n")),
            None => out.push_str("adjacency_ratio -\n"),
        }
        out.push_str(&format!("stats.iterations {}\n", self.stats.iterations));
        out.push_str(&format!("stats.edges {}\n", self.stats.edges));
        out.push_str(&format!(
            "stats.phi_coalesced {}\n",
            self.stats.phi_coalesced
        ));
        out.push_str(&format!("stats.phi_spilled {}\n", self.stats.phi_spilled));
        out.push_str(&format!(
            "stats.bin_raw_bytes {}\n",
            self.stats.bin_raw_bytes
        ));
        out.push_str(&format!(
            "stats.bin_stored_bytes {}\n",
            self.stats.bin_stored_bytes
        ));
        out.push_str(&self.report.to_kv());
        out
    }

    /// Parses [`RunOutcome::to_kv`] output. Strict: every key `to_kv`
    /// writes is required exactly once, so a truncated file is an error
    /// rather than a run with zeroed statistics. When
    /// `expected_fingerprint` is given, a mismatching `spec` line is an
    /// error — the caller is looking at a stale or colliding cache entry.
    pub fn from_kv(text: &str, expected_fingerprint: Option<&str>) -> Result<RunOutcome, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty outcome")?;
        if header != OUTCOME_FORMAT {
            return Err(format!(
                "bad header {header:?}, expected {OUTCOME_FORMAT:?}"
            ));
        }
        let mut validated = false;
        let mut adjacency_ratio = None;
        let mut stats = AlgoRunStats::default();
        let mut seen = std::collections::BTreeSet::new();
        let mut report_text = String::new();
        let mut in_report = false;
        for line in lines {
            if in_report {
                report_text.push_str(line);
                report_text.push('\n');
                continue;
            }
            if line == REPORT_FORMAT {
                in_report = true;
                report_text.push_str(line);
                report_text.push('\n');
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            if !seen.insert(key) {
                return Err(format!("duplicate key {key:?}"));
            }
            match key {
                "spec" => {
                    if let Some(expect) = expected_fingerprint {
                        if value != expect {
                            return Err(format!(
                                "spec mismatch: cached {value:?} vs requested {expect:?}"
                            ));
                        }
                    }
                }
                "validated" => validated = value == "1",
                "adjacency_ratio" => {
                    adjacency_ratio = if value == "-" {
                        None
                    } else {
                        Some(value.parse::<f64>().map_err(|e| format!("{key}: {e}"))?)
                    }
                }
                "stats.iterations" => {
                    stats.iterations = value.parse().map_err(|e| format!("{key}: {e}"))?
                }
                "stats.edges" => stats.edges = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "stats.phi_coalesced" => {
                    stats.phi_coalesced = value.parse().map_err(|e| format!("{key}: {e}"))?
                }
                "stats.phi_spilled" => {
                    stats.phi_spilled = value.parse().map_err(|e| format!("{key}: {e}"))?
                }
                "stats.bin_raw_bytes" => {
                    stats.bin_raw_bytes = value.parse().map_err(|e| format!("{key}: {e}"))?
                }
                "stats.bin_stored_bytes" => {
                    stats.bin_stored_bytes = value.parse().map_err(|e| format!("{key}: {e}"))?
                }
                _ => return Err(format!("unknown key {key:?}")),
            }
        }
        if let Some(k) = OUTCOME_KEYS.iter().find(|k| !seen.contains(*k)) {
            return Err(format!("missing key {k:?}"));
        }
        let report = RunReport::from_kv(&report_text)?;
        Ok(RunOutcome {
            report,
            stats,
            validated,
            adjacency_ratio,
            // `to_kv` drops the deadlock report, so the driver never
            // memoizes a wedged run: a cache hit is always deadlock-free.
            deadlock: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use spzip_graph::gen::{community, CommunityParams};

    fn spec() -> RunSpec {
        RunSpec::new(
            AppName::Dc,
            "arb",
            Scheme::Push.config(),
            Preprocessing::None,
            Scale::Tiny,
        )
    }

    #[test]
    fn fingerprint_covers_every_knob() {
        let base = spec();
        let mut other = base.clone();
        assert_eq!(base, other);
        assert_eq!(base.cache_key(), other.cache_key());

        other.machine.fetcher_scratchpad = Some(256);
        assert_ne!(base.fingerprint(), other.fingerprint());

        let mut cmh = base.clone();
        cmh.machine.cmh = true;
        assert_ne!(base.cache_key(), cmh.cache_key());

        let mut scheme = base.clone();
        scheme.scheme.sort_chunks = !scheme.scheme.sort_chunks;
        assert_ne!(base.cache_key(), scheme.cache_key());

        let mut machine = base.clone();
        machine.machine.config.core_mlp += 1;
        assert_ne!(base.cache_key(), machine.cache_key());

        // A codec bitstream change must invalidate every cached outcome.
        let fp = base.fingerprint();
        let codec = format!("codec={}", spzip_compress::CODEC_VERSION);
        assert!(fp.contains(&codec), "{fp} missing {codec}");
    }

    #[test]
    fn scratchpad_override_normalizes_to_default() {
        let m = MachineSpec::paper_scaled();
        let default_bytes = m.config.fetcher.scratchpad_bytes;
        assert_eq!(
            m.clone()
                .with_fetcher_scratchpad(default_bytes)
                .fetcher_scratchpad,
            None
        );
        assert_eq!(m.with_fetcher_scratchpad(256).fetcher_scratchpad, Some(256));
    }

    #[test]
    fn cache_key_is_filename_safe_and_stable() {
        let key = spec().cache_key();
        assert_eq!(key.len(), 32);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(key, spec().cache_key());
    }

    #[test]
    fn outcome_kv_roundtrips() {
        let g = Arc::new(community(&CommunityParams::web_crawl(256, 5), 9));
        let s = spec();
        let out = s.run(&g);
        let text = out.to_kv(&s.fingerprint());
        let back = RunOutcome::from_kv(&text, Some(&s.fingerprint())).unwrap();
        assert_eq!(back.to_kv(&s.fingerprint()), text);
        assert_eq!(back.report.cycles, out.report.cycles);
        assert_eq!(back.validated, out.validated);
        assert_eq!(back.stats.edges, out.stats.edges);
    }

    #[test]
    fn outcome_kv_rejects_wrong_spec() {
        let g = Arc::new(community(&CommunityParams::web_crawl(256, 5), 9));
        let s = spec();
        let text = s.run(&g).to_kv(&s.fingerprint());
        let mut other = s.clone();
        other.app = AppName::Cc;
        assert!(RunOutcome::from_kv(&text, Some(&other.fingerprint())).is_err());
    }

    #[test]
    fn outcome_kv_rejects_truncated_and_gapped_files() {
        let g = Arc::new(community(&CommunityParams::web_crawl(256, 5), 9));
        let mut s = spec();
        s.app = AppName::Pr;
        s.scheme = Scheme::UbSpzip.config();
        let fp = s.fingerprint();
        let text = s.run(&g).to_kv(&fp);
        let lines: Vec<&str> = text.lines().collect();
        let unlines = |ls: &[&str]| -> String { ls.iter().map(|l| format!("{l}\n")).collect() };
        for n in 0..lines.len() {
            assert!(
                RunOutcome::from_kv(&unlines(&lines[..n]), Some(&fp)).is_err(),
                "accepted a file cut after {n} lines"
            );
        }
        for i in 0..lines.len() {
            let mut gapped = lines.clone();
            gapped.remove(i);
            assert!(
                RunOutcome::from_kv(&unlines(&gapped), Some(&fp)).is_err(),
                "accepted a file without {:?}",
                lines[i]
            );
        }
        // A cut inside the last number can still parse; no cut may panic.
        for n in 0..text.len() {
            let _ = RunOutcome::from_kv(&text[..n], Some(&fp));
        }
    }

    #[test]
    fn run_path_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunSpec>();
        assert_send::<RunOutcome>();
        assert_send::<Arc<Csr>>();
        assert_send::<crate::layout::Workload>();
    }
}
