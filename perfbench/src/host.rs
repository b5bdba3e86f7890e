//! Host-side measurement helpers: process CPU time and peak RSS from
//! `/proc`, medians, guarded ratios, and run digests.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line.
fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may hold spaces; fields resume after the
    // last ')'. There, index 0 is field 3 (state), so utime (field 14) is
    // index 11 and stime (field 15) index 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `num / den`, or `None` — an explicit undefined value — when the
/// denominator is zero or either side is not finite.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0 && num.is_finite() && den.is_finite()).then(|| num / den)
}

/// The median of `xs` (mean of the middle two for an even count), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// FNV-1a (64-bit) of `text`, as 16 lowercase hex digits: the digest
/// recorded per cell for `RunReport::to_kv`.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_command() {
        let stat = "42 (my (odd) cmd) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("42 (cmd) R 1 2").is_err());
        assert!(parse_cpu_seconds("garbage").is_err());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
