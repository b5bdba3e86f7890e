//! Run reports: the quantities the paper's figures plot.

use spzip_mem::cache::CacheStats;
use spzip_mem::stats::TrafficStats;
use spzip_mem::DataClass;
use std::fmt;

/// Results of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// DRAM-boundary traffic by data class.
    pub traffic: TrafficStats,
    /// LLC hit/miss counters.
    pub llc: CacheStats,
    /// Fraction of DRAM channel-cycles busy.
    pub dram_utilization: f64,
    /// Total fetcher firings across cores.
    pub fetcher_fired: u64,
    /// Total compressor firings across cores.
    pub compressor_fired: u64,
    /// Cycles cores spent blocked (queue waits + window-full waits).
    pub core_stall_cycles: u64,
    /// Events retired across cores.
    pub retired_events: u64,
}

/// The leading line of every serialized report; bumped whenever the field
/// set changes so stale cache entries are rejected instead of misparsed.
pub const REPORT_FORMAT: &str = "spzip-report-v1";

/// Sentinel returned by [`RunReport::speedup_over`] and
/// [`RunReport::traffic_vs`] when the baseline contributes a zero
/// denominator (zero cycles, zero traffic): the ratio is undefined, and
/// NaN poisons any downstream arithmetic instead of a clamped division
/// silently producing a plausible-looking number. The scheme tables of
/// Figs. 7, 8, 15, 16 and 22 take their ratios from these two methods and
/// print it as `NaN`.
pub const UNDEFINED_RATIO: f64 = f64::NAN;

impl RunReport {
    /// A report with every counter zero (what `from_kv` fills in).
    fn new_empty() -> Self {
        RunReport {
            cycles: 0,
            traffic: TrafficStats::new(),
            llc: CacheStats::default(),
            dram_utilization: 0.0,
            fetcher_fired: 0,
            compressor_fired: 0,
            core_stall_cycles: 0,
            retired_events: 0,
        }
    }

    /// Speedup of this run over `baseline` (ratio of cycle counts).
    ///
    /// Returns [`UNDEFINED_RATIO`] when `baseline` simulated zero
    /// cycles — a ratio over an empty baseline is meaningless. Warns on
    /// stderr when `baseline` retired zero events, since its cycle count
    /// is then an artifact of an empty run even when nonzero.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if baseline.retired_events == 0 {
            eprintln!(
                "warning: speedup_over: baseline retired zero events \
                 ({} cycles); the reported speedup is not meaningful",
                baseline.cycles
            );
        }
        if baseline.cycles == 0 {
            return UNDEFINED_RATIO;
        }
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// This run's traffic as a fraction of `baseline`'s.
    ///
    /// Returns [`UNDEFINED_RATIO`] when `baseline` moved zero bytes —
    /// the denominator is zero and the ratio undefined. Warns on stderr
    /// when `baseline` retired zero events (see
    /// [`RunReport::speedup_over`]).
    pub fn traffic_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.retired_events == 0 {
            eprintln!(
                "warning: traffic_vs: baseline retired zero events \
                 ({} B of traffic); the reported ratio is not meaningful",
                baseline.traffic.total_bytes()
            );
        }
        let base_bytes = baseline.traffic.total_bytes();
        if base_bytes == 0 {
            return UNDEFINED_RATIO;
        }
        self.traffic.total_bytes() as f64 / base_bytes as f64
    }

    /// Per-class traffic normalized to `denominator` bytes.
    pub fn breakdown(&self, denominator: u64) -> [f64; 6] {
        self.traffic.breakdown_normalized(denominator)
    }

    /// Serializes to `key value` lines (one per field, stable order),
    /// headed by [`REPORT_FORMAT`]. Floats are rendered with `{:?}`,
    /// whose shortest-roundtrip output parses back bit-exactly, so
    /// serialization is lossless and byte-stable across runs.
    pub fn to_kv(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(REPORT_FORMAT);
        out.push('\n');
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line("cycles", self.cycles.to_string());
        line("dram_utilization", format!("{:?}", self.dram_utilization));
        line("fetcher_fired", self.fetcher_fired.to_string());
        line("compressor_fired", self.compressor_fired.to_string());
        line("core_stall_cycles", self.core_stall_cycles.to_string());
        line("retired_events", self.retired_events.to_string());
        line("llc.hits", self.llc.hits.to_string());
        line("llc.misses", self.llc.misses.to_string());
        line("llc.evictions", self.llc.evictions.to_string());
        line(
            "traffic.invalidations",
            self.traffic.invalidations.to_string(),
        );
        line("traffic.atomics", self.traffic.atomics.to_string());
        for c in DataClass::all() {
            line(
                &format!("traffic.read.{c}"),
                self.traffic.read_bytes(c).to_string(),
            );
            line(
                &format!("traffic.write.{c}"),
                self.traffic.write_bytes(c).to_string(),
            );
        }
        out
    }

    /// Parses the [`RunReport::to_kv`] format. Strict: a wrong header,
    /// an unknown key, a duplicate, or a missing field is an error, so
    /// format drift invalidates cached reports instead of misreading them.
    pub fn from_kv(text: &str) -> Result<RunReport, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty report")?;
        if header != REPORT_FORMAT {
            return Err(format!("bad header {header:?}, expected {REPORT_FORMAT:?}"));
        }
        let mut report = RunReport::new_empty();
        let mut seen = std::collections::BTreeSet::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            if !seen.insert(key.to_string()) {
                return Err(format!("duplicate key {key:?}"));
            }
            let int = || value.parse::<u64>().map_err(|e| format!("{key}: {e}"));
            match key {
                "cycles" => report.cycles = int()?,
                "dram_utilization" => {
                    report.dram_utilization =
                        value.parse::<f64>().map_err(|e| format!("{key}: {e}"))?
                }
                "fetcher_fired" => report.fetcher_fired = int()?,
                "compressor_fired" => report.compressor_fired = int()?,
                "core_stall_cycles" => report.core_stall_cycles = int()?,
                "retired_events" => report.retired_events = int()?,
                "llc.hits" => report.llc.hits = int()?,
                "llc.misses" => report.llc.misses = int()?,
                "llc.evictions" => report.llc.evictions = int()?,
                "traffic.invalidations" => report.traffic.invalidations = int()?,
                "traffic.atomics" => report.traffic.atomics = int()?,
                _ => {
                    let class_key = key
                        .strip_prefix("traffic.read.")
                        .or_else(|| key.strip_prefix("traffic.write."));
                    let Some(class_key) = class_key else {
                        return Err(format!("unknown key {key:?}"));
                    };
                    let class = DataClass::all()
                        .into_iter()
                        .find(|c| c.to_string() == class_key)
                        .ok_or_else(|| format!("unknown data class {class_key:?}"))?;
                    if key.starts_with("traffic.read.") {
                        report.traffic.record_read(class, int()?);
                    } else {
                        report.traffic.record_write(class, int()?);
                    }
                }
            }
        }
        // Every key `to_kv` writes is required: a truncated file must not
        // read as a healthy run with zeroed counters.
        let written = RunReport::new_empty().to_kv();
        for k in written.lines().skip(1).filter_map(|l| l.split(' ').next()) {
            if !seen.contains(k) {
                return Err(format!("missing key {k:?}"));
            }
        }
        Ok(report)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles {}  traffic {} B  dram-util {:.0}%  llc miss {:.1}%",
            self.cycles,
            self.traffic.total_bytes(),
            self.dram_utilization * 100.0,
            self.llc.miss_ratio() * 100.0,
        )?;
        for c in DataClass::all() {
            let b = self.traffic.class_bytes(c);
            if b > 0 {
                writeln!(f, "  {c:<18} {b:>12} B")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, bytes: u64) -> RunReport {
        let mut traffic = TrafficStats::new();
        traffic.record_read(DataClass::Updates, bytes);
        RunReport {
            cycles,
            traffic,
            llc: CacheStats::default(),
            dram_utilization: 0.5,
            fetcher_fired: 0,
            compressor_fired: 0,
            core_stall_cycles: 0,
            retired_events: 0,
        }
    }

    #[test]
    fn speedup_and_traffic_ratios() {
        let base = report(1000, 4000);
        let fast = report(250, 2000);
        assert_eq!(fast.speedup_over(&base), 4.0);
        assert_eq!(fast.traffic_vs(&base), 0.5);
    }

    #[test]
    fn zero_denominator_baselines_yield_undefined_ratio() {
        let empty = report(0, 0);
        let run = report(250, 2000);
        assert!(run.speedup_over(&empty).is_nan(), "zero-cycle baseline");
        assert!(run.traffic_vs(&empty).is_nan(), "zero-byte baseline");
        assert!(UNDEFINED_RATIO.is_nan());
        // A zero-cycle *numerator* is still a defined (clamped) ratio.
        assert_eq!(empty.speedup_over(&run), 250.0);
    }

    #[test]
    fn display_contains_cycles_and_classes() {
        let r = report(123, 64);
        let s = r.to_string();
        assert!(s.contains("cycles 123"));
        assert!(s.contains("Updates"));
    }

    #[test]
    fn kv_roundtrips_exactly() {
        let mut r = report(987_654_321, 4096);
        r.dram_utilization = 0.123_456_789_012_345_6;
        r.traffic.record_write(DataClass::Frontier, 192);
        r.traffic.invalidations = 7;
        r.traffic.atomics = 9;
        r.llc.hits = 11;
        r.llc.misses = 13;
        r.llc.evictions = 17;
        r.fetcher_fired = 19;
        r.compressor_fired = 23;
        r.core_stall_cycles = 29;
        r.retired_events = 31;
        let text = r.to_kv();
        let back = RunReport::from_kv(&text).unwrap();
        // Bit-exact: re-serializing produces identical bytes.
        assert_eq!(back.to_kv(), text);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(
            back.dram_utilization.to_bits(),
            r.dram_utilization.to_bits()
        );
        assert_eq!(back.traffic.total_bytes(), r.traffic.total_bytes());
        assert_eq!(back.llc.misses, r.llc.misses);
    }

    #[test]
    fn kv_parse_rejects_drift() {
        let r = report(1, 64);
        let good = r.to_kv();
        assert!(
            RunReport::from_kv("spzip-report-v0\ncycles 1\n").is_err(),
            "bad header"
        );
        assert!(
            RunReport::from_kv(&format!("{good}bogus_key 3\n")).is_err(),
            "unknown key"
        );
        assert!(
            RunReport::from_kv(&format!("{good}cycles 2\n")).is_err(),
            "duplicate"
        );
        let missing: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(RunReport::from_kv(&missing).is_err(), "missing fields");
    }

    #[test]
    fn run_path_types_are_send() {
        // The driver executes runs on worker threads; everything a run
        // produces or consumes must cross thread boundaries.
        fn assert_send<T: Send>() {}
        assert_send::<RunReport>();
        assert_send::<crate::Machine>();
        assert_send::<crate::MachineConfig>();
        assert_send::<crate::CoreWork>();
    }
}
