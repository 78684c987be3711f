//! Order statistics for latency samples.
//!
//! Every latency is reported as its median plus the highest tail
//! percentile the sample supports: the highest of [`TAIL_LADDER`] that
//! leaves at least [`MIN_BEYOND`] samples above it. A p99 therefore needs
//! at least 1000 samples; with 300 the tail reported is the p95. The
//! ladder stops at p99, the tail the `p99_*` metrics are named for.

/// Tail percentiles tried, highest first.
pub const TAIL_LADDER: [f64; 3] = [0.99, 0.95, 0.90];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and supported tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported, as a fraction (0.99 for p99); 0.5
    /// when the sample is too small for any ladder entry.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl LatencySummary {
    /// Summarise `samples` (sorted in place). `None` for an empty sample.
    pub fn of(samples: &mut [f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let tail_q = supported_tail(samples.len()).unwrap_or(0.5);
        Some(LatencySummary {
            n: samples.len(),
            p50: quantile_sorted(samples, 0.5),
            tail_q,
            tail: quantile_sorted(samples, tail_q),
        })
    }

    /// `p99`, `p95`, … for the reported tail.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).round())
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its nearest rank.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n - nearest_rank(n, q) >= MIN_BEYOND)
}

/// 1-based nearest rank of quantile `q` in a sample of `n` (n ≥ 1). The
/// epsilon keeps `0.99 × 1000`, which rounds up in binary, at rank 990.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending, non-empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median of a sample (sorted in place); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(quantile_sorted(samples, 0.5))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 above rank 990.
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(100_000), Some(0.99));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(1), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = LatencySummary::of(&mut xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), MIN_BEYOND);

        let mut small: Vec<f64> = (1..=300).map(f64::from).collect();
        let s = LatencySummary::of(&mut small).unwrap();
        assert_eq!((s.tail_q, s.tail), (0.95, 285.0));
        assert_eq!(s.tail_label(), "p95");

        let mut tiny = vec![3.0, 1.0, 2.0];
        let s = LatencySummary::of(&mut tiny).unwrap();
        assert_eq!((s.p50, s.tail_q, s.tail), (2.0, 0.5, 2.0));
        assert!(LatencySummary::of(&mut []).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
