//! Order statistics used by every metric: nearest-rank percentiles that
//! refuse to extrapolate, plain medians, and the run-length drift ratio.

use std::fmt;

/// Fewest samples that must lie above a reported percentile. A p99 over
/// 200 samples is really the 2nd-largest value, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Percentile asked for, in basis points (p99 = 9900).
    pub pct_bp: u32,
    /// Samples available.
    pub have: usize,
    /// Samples needed for `MIN_BEYOND` of them to lie beyond the percentile.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({} beyond it), have {}",
            self.pct_bp as f64 / 100.0,
            self.need,
            MIN_BEYOND,
            self.have
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// 1-based nearest rank of percentile `pct_bp` (basis points) among `n`
/// samples: `ceil(pct × n)`, in integer arithmetic so p90 of 100 samples
/// is exactly rank 90.
fn nearest_rank(pct_bp: u32, n: usize) -> usize {
    let r = (pct_bp as usize * n).div_ceil(10_000);
    r.max(1)
}

/// Smallest sample count for which `pct_bp` has `MIN_BEYOND` samples
/// beyond its nearest rank.
pub fn samples_needed(pct_bp: u32) -> usize {
    (1..).find(|&n| n - nearest_rank(pct_bp, n) >= MIN_BEYOND).expect("finite for pct < 100%")
}

/// Nearest-rank percentile of `samples` (any order). `pct_bp` is in
/// basis points: 5000 = p50, 9000 = p90, 9900 = p99.
pub fn percentile(samples: &[f64], pct_bp: u32) -> Result<f64, TooFewSamples> {
    assert!(pct_bp < 10_000, "percentile must be below p100");
    let n = samples.len();
    let rank = nearest_rank(pct_bp, n);
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(TooFewSamples { pct_bp, have: n, need: samples_needed(pct_bp) });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Conventional median (mean of the two middle values for even counts);
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Run-length drift of a per-step cost series (ordered by step): the
/// median of the last tenth of the steps divided by the median of the
/// first tenth, after dropping `warmup` leading steps. 1.0 means the
/// cost of a step does not depend on how long the run has been going.
/// Refused (`None`) when a tenth would hold fewer than `MIN_BEYOND`
/// samples.
pub fn drift(series: &[f64], warmup: usize) -> Option<f64> {
    let body = series.get(warmup..)?;
    let tenth = body.len() / 10;
    if tenth < MIN_BEYOND {
        return None;
    }
    let first = median(&body[..tenth])?;
    let last = median(&body[body.len() - tenth..])?;
    (first > 0.0).then(|| last / first)
}

/// Steps dropped from the front of a series before computing drift:
/// 5% of the run, at least 10 steps (first-touch allocation, connection
/// set-up and the uncached first handshake land there).
pub fn warmup_steps(steps: usize) -> usize {
    (steps / 20).max(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 needs 1000 samples, p90 needs 100, p50 needs 20.
        assert_eq!(samples_needed(9900), 1000);
        assert_eq!(samples_needed(9000), 100);
        assert_eq!(samples_needed(5000), 20);
        assert!(percentile(&ramp(999), 9900).is_err());
        assert_eq!(percentile(&ramp(1000), 9900), Ok(990.0));
        assert!(percentile(&ramp(99), 9000).is_err());
        assert_eq!(percentile(&ramp(100), 9000), Ok(90.0));
        assert!(percentile(&ramp(19), 5000).is_err());
        assert_eq!(percentile(&ramp(20), 5000), Ok(10.0));
        let err = percentile(&[], 5000).unwrap_err();
        assert_eq!((err.have, err.need), (0, 20));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 5000), Ok(100.0));
        assert_eq!(percentile(&v, 9000), Ok(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn drift_is_one_for_a_flat_series() {
        let flat = vec![2.0; 500];
        assert_eq!(drift(&flat, warmup_steps(500)), Some(1.0));
    }

    #[test]
    fn drift_compares_last_tenth_with_first_tenth_after_warmup() {
        // 10 warm-up steps that cost 100, then a linear ramp 1..=200.
        let mut series = vec![100.0; 10];
        series.extend(ramp(200));
        // First tenth = 1..=20 (median 10.5), last tenth = 181..=200
        // (median 190.5); the warm-up outliers are excluded.
        let d = drift(&series, 10).unwrap();
        assert!((d - 190.5 / 10.5).abs() < 1e-12, "{d}");
    }

    #[test]
    fn drift_refuses_short_series() {
        assert_eq!(drift(&ramp(99), 0), None);
        assert!(drift(&ramp(100), 0).is_some());
        assert_eq!(drift(&ramp(50), 60), None);
    }
}
