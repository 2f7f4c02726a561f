//! Small numeric helpers shared by the workloads: medians,
//! nearest-rank percentiles, report digests and the host calibration
//! loop.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `xs` for `q` in `[0, 1]`; `0.0` for an
/// empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a hash: the digest printed for every report, so that two
/// runs can be compared without diffing the reports themselves.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Iterations of the calibration loop.
const CALIB_ITERS: u64 = 20_000_000;

/// Host calibration: wall time in ns of a fixed integer loop (an
/// xorshift chain the optimiser cannot fold), median of three. Recorded
/// beside every run so throughput can be normalised across machines;
/// no gate reads it.
pub fn calibrate_ns() -> f64 {
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for _ in 0..black_box(CALIB_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
