//! Order statistics over timing samples.
//!
//! Quartiles use the same "exclusive" method as Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here and
//! one computed from the printed values by that function agree.

/// Median, quartiles and sample count of one timing metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v)?;
        let (q1, q3) = quartiles_sorted(&v).unwrap_or((median, median));
        Some(Summary {
            n: v.len(),
            q1,
            median,
            q3,
        })
    }
}

/// The median of a sorted sample: the middle element, or the mean of
/// the two middle elements for an even length.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let mid = n / 2;
    Some(if n.is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// First and third quartiles of a sorted sample by the exclusive
/// method (`statistics.quantiles(data, n=4)`); needs two samples.
pub fn quartiles_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The nearest-rank `p`-th percentile (0 < p < 100) of a sorted sample,
/// reported only when at least ten samples lie above its rank — below
/// that, the "percentile" is a single outlier, not a tail.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_length_averages_the_middle_pair() {
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median_sorted(&[4.0, 8.0]), Some(6.0));
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median_sorted(&[]), None);
        // Unsorted input through `Summary::of`.
        let s = Summary::of(&[10.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quartiles_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            Some((1.5, 4.5))
        );
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles_sorted(&[3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles_sorted(&[3.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: rank 990, ten above it.
        assert_eq!(percentile_sorted(&sample(1_000), 99.0), Some(990.0));
        // 999 samples: rank 990, only nine above it.
        assert_eq!(percentile_sorted(&sample(999), 99.0), None);
        // The median of a short sample is fine.
        assert_eq!(percentile_sorted(&sample(21), 50.0), Some(11.0));
        assert_eq!(percentile_sorted(&sample(20), 50.0), Some(10.0));
        assert_eq!(percentile_sorted(&sample(19), 50.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }
}
