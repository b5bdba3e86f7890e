//! The sanitizer-trace harness behind `sanitize-bench` and
//! `BENCH_sanitize.json` — the compressed-trace counterpart of the codec
//! throughput trajectory in [`crate::codec_bench`].
//!
//! Every cell runs one app x scheme pair under the SimSanitizer and
//! records what the chunked, codec-compressed trace layer
//! (`spzip_sim::ctrace`) achieved on it:
//!
//! * **compression** — raw `Vec<TraceEvent>` footprint vs compressed
//!   payload bytes, and the *peak residency* of the compressed
//!   representation (payloads plus the bounded staging/scratch buffers),
//!   which is what actually replaces the raw footprint in memory;
//! * **chunks** — how many sealed chunks the trace holds;
//! * **analysis wall-clock** — mean `spzip_sim::sanitize::analyze` time
//!   per cell (reported for trend-watching, never gated: CI runners are
//!   noisy).
//!
//! The simulator is deterministic, so events/bytes/ratios are exactly
//! reproducible and `--check` can gate tightly:
//!
//! * both reports must parse, carry the built crate's
//!   `SANITIZE_TRACE_VERSION`/`CODEC_VERSION`, and cover every builtin
//!   cell;
//! * a fresh cell's compression ratio may not fall below
//!   [`RATIO_REGRESSION_FLOOR`] of the checked-in trajectory;
//! * on the largest cell (by raw trace bytes), the *residency* ratio —
//!   raw footprint over peak compressed residency — must clear
//!   [`RESIDENCY_RATIO_FLOOR`] in both the trajectory and the fresh run.

use crate::codec_bench::{json_num, json_str, trajectory_records};
use spzip_apps::run::run_app_sanitized;
use spzip_apps::{AppName, Scheme};
use spzip_compress::CODEC_VERSION;
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::ctrace::SANITIZE_TRACE_VERSION;
use spzip_sim::sanitize::analyze;
use spzip_sim::MachineConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag written into (and required of) `BENCH_sanitize.json`.
pub const SCHEMA: &str = "spzip-sanitize-bench/v2";

/// A fresh cell's compression ratio may drop to this fraction of the
/// checked-in trajectory before `--check` fails.
pub const RATIO_REGRESSION_FLOOR: f64 = 0.8;

/// The raw-footprint-over-peak-residency ratio the largest builtin cell
/// must clear — the "compressed traces actually fit where raw ones did
/// not" contract.
pub const RESIDENCY_RATIO_FLOOR: f64 = 4.0;

/// The builtin cells: `(app, scheme)` paper abbreviations. Three apps
/// with distinct trace shapes (Push-heavy PageRank, frontier-driven BFS,
/// matrix-input SpMV) under the software baseline and both SpZip
/// offloads.
pub const BUILTIN_CELLS: [(&str, &str); 9] = [
    ("Pr", "Push"),
    ("Pr", "UbSpzip"),
    ("Pr", "PhiSpzip"),
    ("Bfs", "Push"),
    ("Bfs", "UbSpzip"),
    ("Bfs", "PhiSpzip"),
    ("Sp", "Push"),
    ("Sp", "UbSpzip"),
    ("Sp", "PhiSpzip"),
];

/// One measured cell of the sanitizer trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeCell {
    /// Application paper abbreviation.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Trace events recorded.
    pub events: u64,
    /// Footprint of a raw `Vec<TraceEvent>` for this trace.
    pub raw_bytes: u64,
    /// Compressed chunk payload bytes.
    pub compressed_bytes: u64,
    /// Peak residency of the compressed representation (payloads +
    /// bounded staging and column scratch).
    pub peak_residency_bytes: u64,
    /// `raw_bytes / compressed_bytes`.
    pub ratio: f64,
    /// `raw_bytes / peak_residency_bytes` — the gated footprint win.
    pub residency_ratio: f64,
    /// Sealed chunks in the trace.
    pub chunks: u64,
    /// Mean `analyze` wall-clock, milliseconds (not gated).
    pub analyze_ms: f64,
}

impl SanitizeCell {
    fn to_json(&self) -> String {
        format!(
            "{{\"app\":\"{}\",\"scheme\":\"{}\",\"events\":{},\"raw_bytes\":{},\
             \"compressed_bytes\":{},\"peak_residency_bytes\":{},\"ratio\":{:.4},\
             \"residency_ratio\":{:.4},\"chunks\":{},\"analyze_ms\":{:.3}}}",
            self.app,
            self.scheme,
            self.events,
            self.raw_bytes,
            self.compressed_bytes,
            self.peak_residency_bytes,
            self.ratio,
            self.residency_ratio,
            self.chunks,
            self.analyze_ms,
        )
    }

    fn from_json(obj: &str) -> Result<SanitizeCell, String> {
        Ok(SanitizeCell {
            app: json_str(obj, "app")?,
            scheme: json_str(obj, "scheme")?,
            events: json_num(obj, "events")? as u64,
            raw_bytes: json_num(obj, "raw_bytes")? as u64,
            compressed_bytes: json_num(obj, "compressed_bytes")? as u64,
            peak_residency_bytes: json_num(obj, "peak_residency_bytes")? as u64,
            ratio: json_num(obj, "ratio")?,
            residency_ratio: json_num(obj, "residency_ratio")?,
            chunks: json_num(obj, "chunks")? as u64,
            analyze_ms: json_num(obj, "analyze_ms")?,
        })
    }
}

/// The `BENCH_sanitize.json` envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeBenchReport {
    /// `SANITIZE_TRACE_VERSION` the cells were measured against.
    pub trace_version: u32,
    /// `CODEC_VERSION` (the trace wire format rides on the codecs).
    pub codec_version: u32,
    /// One record per builtin cell.
    pub records: Vec<SanitizeCell>,
}

impl SanitizeBenchReport {
    /// Renders the report as the `BENCH_sanitize.json` document (one
    /// record per line, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"trace_version\":{},\"codec_version\":{},\"records\":[",
            self.trace_version, self.codec_version
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

    /// Parses a `BENCH_sanitize.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(text: &str) -> Result<SanitizeBenchReport, String> {
        let records = trajectory_records(text, SCHEMA)?;
        Ok(SanitizeBenchReport {
            trace_version: json_num(text, "trace_version")? as u32,
            codec_version: json_num(text, "codec_version")? as u32,
            records: records
                .into_iter()
                .map(SanitizeCell::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Validates completeness: version match against the built crate and
    /// every builtin cell present.
    ///
    /// # Errors
    ///
    /// Returns every violation found.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if self.trace_version != SANITIZE_TRACE_VERSION {
            errors.push(format!(
                "trajectory trace_version {} != built crate {SANITIZE_TRACE_VERSION} \
                 — regenerate BENCH_sanitize.json",
                self.trace_version
            ));
        }
        if self.codec_version != CODEC_VERSION {
            errors.push(format!(
                "trajectory codec_version {} != built crate {CODEC_VERSION} \
                 — regenerate BENCH_sanitize.json",
                self.codec_version
            ));
        }
        for (app, scheme) in BUILTIN_CELLS {
            if self.cell(app, scheme).is_none() {
                errors.push(format!("missing cell {app}/{scheme}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Looks up one cell.
    pub fn cell(&self, app: &str, scheme: &str) -> Option<&SanitizeCell> {
        self.records
            .iter()
            .find(|r| r.app == app && r.scheme == scheme)
    }

    /// The largest builtin cell by raw trace footprint — the one the
    /// residency floor judges.
    pub fn largest_cell(&self) -> Option<&SanitizeCell> {
        self.records.iter().max_by_key(|r| r.raw_bytes)
    }
}

/// Measures every builtin cell. Each app runs on its canonical tiny
/// input (the sanitized-matrix graph/matrix) on a 4-core machine; the
/// analysis wall-clock is averaged over a `measure_ms` window.
pub fn measure(measure_ms: u64) -> SanitizeBenchReport {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    let g = Arc::new(community(&CommunityParams::web_crawl(512, 6), 23));
    let m = Arc::new(grid3d(6, 1, 3));

    let mut records = Vec::new();
    for (app_name, scheme_name) in BUILTIN_CELLS {
        let app = AppName::all()
            .into_iter()
            .find(|a| format!("{a:?}") == app_name)
            .expect("builtin cell app exists");
        let scheme = Scheme::all()
            .into_iter()
            .find(|s| format!("{s:?}") == scheme_name)
            .expect("builtin cell scheme exists");
        let input = if app.is_matrix() { &m } else { &g };
        let (_, san) = run_app_sanitized(app, input, &scheme.config(), cfg, None, false);

        let window = Duration::from_millis(measure_ms.max(1));
        let start = Instant::now();
        let mut iters = 0u32;
        while start.elapsed() < window {
            let _ = std::hint::black_box(analyze(&san.trace, &san.context));
            iters += 1;
        }
        let analyze_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(iters.max(1));

        let raw = san.trace.raw_bytes() as u64;
        let compressed = san.trace.compressed_bytes() as u64;
        let residency = san.trace.peak_residency_bytes() as u64;
        records.push(SanitizeCell {
            app: app_name.to_string(),
            scheme: scheme_name.to_string(),
            events: san.trace.len() as u64,
            raw_bytes: raw,
            compressed_bytes: compressed,
            peak_residency_bytes: residency,
            ratio: raw as f64 / compressed.max(1) as f64,
            residency_ratio: raw as f64 / residency.max(1) as f64,
            chunks: san.trace.chunks().len() as u64,
            analyze_ms,
        });
    }
    SanitizeBenchReport {
        trace_version: SANITIZE_TRACE_VERSION,
        codec_version: CODEC_VERSION,
        records,
    }
}

/// Gates a freshly measured report against the checked-in trajectory.
///
/// On success returns human-readable summary lines (one per cell).
///
/// # Errors
///
/// Returns every violated gate: schema/completeness problems in either
/// report, a fresh compression ratio below [`RATIO_REGRESSION_FLOOR`] of
/// the trajectory, or a largest-cell residency ratio (in either report)
/// below [`RESIDENCY_RATIO_FLOOR`].
pub fn check_against(
    fresh: &SanitizeBenchReport,
    checked_in: &SanitizeBenchReport,
) -> Result<Vec<String>, Vec<String>> {
    let mut errors = Vec::new();
    if let Err(mut e) = fresh.validate() {
        errors.append(&mut e);
    }
    if let Err(e) = checked_in.validate() {
        errors.extend(e.into_iter().map(|m| format!("checked-in trajectory: {m}")));
    }
    let mut summary = Vec::new();
    for (app, scheme) in BUILTIN_CELLS {
        let (Some(now), Some(then)) = (fresh.cell(app, scheme), checked_in.cell(app, scheme))
        else {
            continue; // completeness errors already recorded above
        };
        summary.push(format!(
            "{app}/{scheme}: ratio {:.2}x (trajectory {:.2}x), residency {:.2}x, \
             {} chunks, analyze {:.2} ms",
            now.ratio, then.ratio, now.residency_ratio, now.chunks, now.analyze_ms,
        ));
        if now.ratio < then.ratio * RATIO_REGRESSION_FLOOR {
            errors.push(format!(
                "{app}/{scheme}: compression ratio {:.2}x regressed >20% below \
                 trajectory {:.2}x",
                now.ratio, then.ratio
            ));
        }
    }
    // The footprint contract is judged on the biggest trace, where it
    // matters: both the committed trajectory and the fresh run must show
    // the compressed representation at least 4x under the raw footprint.
    for (who, report) in [("checked-in", checked_in), ("fresh", fresh)] {
        if let Some(cell) = report.largest_cell() {
            if cell.residency_ratio < RESIDENCY_RATIO_FLOOR {
                errors.push(format!(
                    "{who} largest cell {}/{}: residency ratio {:.2}x is below the \
                     {RESIDENCY_RATIO_FLOOR}x floor",
                    cell.app, cell.scheme, cell.residency_ratio
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

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(ratio: f64, residency_ratio: f64) -> SanitizeBenchReport {
        let records = BUILTIN_CELLS
            .iter()
            .enumerate()
            .map(|(i, (app, scheme))| {
                let raw = 1_000_000 + i as u64; // distinct sizes; last cell largest
                SanitizeCell {
                    app: app.to_string(),
                    scheme: scheme.to_string(),
                    events: raw / 48,
                    raw_bytes: raw,
                    compressed_bytes: (raw as f64 / ratio) as u64,
                    peak_residency_bytes: (raw as f64 / residency_ratio) as u64,
                    ratio,
                    residency_ratio,
                    chunks: 10,
                    analyze_ms: 1.5,
                }
            })
            .collect();
        SanitizeBenchReport {
            trace_version: SANITIZE_TRACE_VERSION,
            codec_version: CODEC_VERSION,
            records,
        }
    }

    #[test]
    fn report_json_roundtrip() {
        let report = synthetic(8.0, 6.0);
        let back = SanitizeBenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let text = synthetic(8.0, 6.0).to_json().replace(SCHEMA, "other/v9");
        assert!(SanitizeBenchReport::from_json(&text).is_err());
        assert!(SanitizeBenchReport::from_json("not json").is_err());
    }

    #[test]
    fn validate_requires_every_cell_and_matching_versions() {
        let mut report = synthetic(8.0, 6.0);
        assert!(report.validate().is_ok());
        report.records.retain(|r| r.app != "Bfs");
        let errors = report.validate().unwrap_err();
        assert!(errors.iter().any(|e| e.contains("Bfs")), "{errors:?}");

        let mut stale = synthetic(8.0, 6.0);
        stale.trace_version += 1;
        assert!(stale.validate().is_err());
        let mut stale = synthetic(8.0, 6.0);
        stale.codec_version += 1;
        assert!(stale.validate().is_err());
    }

    #[test]
    fn check_passes_matching_reports() {
        let summary = check_against(&synthetic(8.0, 6.0), &synthetic(8.0, 6.0)).unwrap();
        assert_eq!(summary.len(), BUILTIN_CELLS.len());
        for line in &summary {
            assert!(line.contains("ratio"), "{line}");
        }
    }

    #[test]
    fn check_flags_ratio_regression() {
        // 8x -> 5x is a >20% regression on every cell.
        let errors = check_against(&synthetic(5.0, 6.0), &synthetic(8.0, 6.0)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("regressed")), "{errors:?}");
    }

    #[test]
    fn check_flags_residency_below_floor() {
        // Both reports agree, but the largest cell only shrinks 3x.
        let errors = check_against(&synthetic(8.0, 3.0), &synthetic(8.0, 3.0)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("residency ratio")),
            "{errors:?}"
        );
        // Both directions are judged.
        assert!(errors.iter().any(|e| e.starts_with("checked-in")));
        assert!(errors.iter().any(|e| e.starts_with("fresh")));
    }

    #[test]
    fn check_tolerates_small_jitter() {
        assert!(check_against(&synthetic(7.0, 6.0), &synthetic(8.0, 6.0)).is_ok());
    }

    #[test]
    fn measured_report_is_complete_and_parses() {
        // A 1 ms window keeps this fast; completeness, determinism of the
        // byte counts, schema and the `--check` verdict against the
        // checked-in trajectory are what's under test.
        let mut report = measure(1);
        report.validate().unwrap();
        let back = SanitizeBenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.records.len(), report.records.len());
        for cell in &report.records {
            assert!(
                cell.events > 0,
                "{}/{} recorded no trace",
                cell.app,
                cell.scheme
            );
            assert!(cell.ratio > 1.0, "{}/{}", cell.app, cell.scheme);
        }
        let largest = report.largest_cell().unwrap();
        assert!(
            largest.residency_ratio >= RESIDENCY_RATIO_FLOOR,
            "largest cell {}/{} residency {:.2}x under the {RESIDENCY_RATIO_FLOOR}x floor",
            largest.app,
            largest.scheme,
            largest.residency_ratio
        );

        // The trajectory gate passes the fresh report and catches the same
        // report with its footprint wins cut to 0.4x.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sanitize.json");
        let text = std::fs::read_to_string(path).expect("checked-in trajectory");
        let checked_in = SanitizeBenchReport::from_json(&text).unwrap();
        check_against(&report, &checked_in).expect("the honest report passes the gate");
        for cell in &mut report.records {
            cell.ratio *= 0.4;
            cell.residency_ratio *= 0.4;
        }
        assert!(
            check_against(&report, &checked_in).is_err(),
            "the gate must catch a 0.4x footprint-ratio regression"
        );
    }
}
