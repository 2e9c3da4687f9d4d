//! Order statistics and failure accounting.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n=…)` with its
//! default `exclusive` method, so a median or quartile printed here is
//! the same number a reader recomputes from the raw samples.

/// `n - 1` cut points dividing `data` into `n` groups of equal
/// probability (Python `statistics.quantiles`, `method='exclusive'`).
///
/// # Panics
///
/// Panics if `data` is empty or `n < 1` (a harness bug: every summary
/// has at least one sample).
pub fn quantiles(data: &[f64], n: usize) -> Vec<f64> {
    assert!(!data.is_empty(), "quantiles of nothing");
    assert!(n >= 1, "need at least one group");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return vec![sorted[0]; n - 1];
    }
    let m = len + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, len - 1);
            // Exact integer offset; negative below the first sample, as in
            // Python, which extrapolates for tiny samples.
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// The median (Python `statistics.median`).
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn median(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "median of nothing");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Percentiles that may be reported, highest last.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest reportable percentile for `n` samples: the highest one
/// with at least ten samples beyond it. `None` below twenty samples,
/// where not even the median has ten on each side.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The 90th percentile of `data`, refused when fewer than ten samples lie
/// beyond it (below 100 samples): a tail read off too few samples is
/// noise, and reporting it as a latency would mislead.
///
/// # Errors
///
/// Names the sample count when the percentile is not reportable.
pub fn p90(data: &[f64]) -> Result<f64, String> {
    match tail_percentile(data.len()) {
        Some(p) if p >= 90.0 => Ok(quantiles(data, 10)[8]),
        _ => Err(format!(
            "p90 needs at least 100 samples (10 beyond it), got {}",
            data.len()
        )),
    }
}

/// Median and quartiles of a metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the summary.
    pub n: usize,
}

impl Summary {
    /// Summarizes samples.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn of(data: &[f64]) -> Summary {
        let q = quantiles(data, 4);
        Summary {
            median: median(data),
            q1: q[0],
            q3: q[2],
            n: data.len(),
        }
    }

    /// A value measured once (a rate over the whole run, a peak).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Operations attempted and failed. A failure is an operation that
/// errored, was refused, or produced output that differs from its
/// reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio of nothing, e.g. applied
/// switches when no switch was decided).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&data, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[1.0, 2.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles(range(1, 101), n=10)[8] == 90.9
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantiles(&hundred, 10)[8] - 90.9).abs() < 1e-9);
        assert_eq!(quantiles(&[4.0], 4), vec![4.0; 3]);
    }

    #[test]
    fn median_is_order_free_and_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.n), (2.5, 4));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert_eq!(Summary::single(7.0).q3, 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(240), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        let err = p90(&few).expect_err("99 samples leave fewer than 10 beyond p90");
        assert!(err.contains("99"), "{err}");
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((p90(&enough).expect("100 samples suffice") - 90.9).abs() < 1e-9);
    }

    #[test]
    fn tally_counts_every_kind_of_failure_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        // Two matching reports, one mismatched report.
        t.record(true);
        t.record(true);
        t.record(false);
        // A refused session and a diverged session.
        t.record(false);
        t.record(false);
        // A failed experiment.
        t.record(false);
        assert_eq!((t.attempted, t.failed), (6, 4));
        assert!((t.error_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
