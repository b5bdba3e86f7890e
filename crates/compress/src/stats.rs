//! Throughput accounting for the codec benchmark, and the means the
//! figure renderers summarize with.

/// Accumulates bytes moved and time spent, reporting throughput in GB/s.
///
/// # Examples
///
/// ```
/// use spzip_compress::stats::ThroughputStats;
///
/// let mut t = ThroughputStats::new();
/// t.record(4_000, 1_000); // 4000 bytes in 1000 ns = 4 GB/s
/// assert_eq!(t.gbps(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThroughputStats {
    bytes: u64,
    nanos: u128,
}

impl ThroughputStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` processed in `nanos` nanoseconds.
    pub fn record(&mut self, bytes: u64, nanos: u128) {
        self.bytes += bytes;
        self.nanos += nanos;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total nanoseconds recorded.
    pub fn nanos(&self) -> u128 {
        self.nanos
    }

    /// Throughput in GB/s (bytes per nanosecond); 0.0 when nothing has
    /// been timed.
    pub fn gbps(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nanos as f64
        }
    }
}

/// Geometric mean of a slice of positive ratios; 1.0 for an empty slice.
///
/// Used for the paper's "gmean" speedup summaries.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice. Used for traffic summaries
/// ("averages are geometric means for speedups and arithmetic means for
/// traffic").
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_gbps() {
        assert_eq!(ThroughputStats::new().gbps(), 0.0);
        let mut t = ThroughputStats::new();
        t.record(1_000, 500);
        t.record(1_000, 500);
        assert_eq!(t.bytes(), 2_000);
        assert_eq!(t.nanos(), 1_000);
        assert_eq!(t.gbps(), 2.0);
    }

    #[test]
    fn gmean_and_amean() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert!((arithmetic_mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
