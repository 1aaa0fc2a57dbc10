//! Order statistics used by every reported number.

/// Nearest-rank percentile of an already sorted slice (`p` in `0..=100`).
/// Empty input yields 0 so that a metric that has no samples on a workload
/// still prints.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count, so that the
/// median of two repeats is not simply the smaller one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentile actually reported under a "p99"-style name: a tail
/// percentile is only meaningful with at least ten samples beyond it, so
/// with `n` samples the rank is capped at `100·(1 − 10/n)` and never drops
/// below the median. Returns the percentile used.
pub fn tail_rank(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return wanted;
    }
    let cap = 100.0 * (1.0 - 10.0 / n as f64);
    wanted.min(cap).max(50.0)
}

/// A set of samples of one quantity, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> f64 {
        percentile_sorted(&self.sorted, 50.0)
    }

    /// The tail value under the ten-samples-beyond rule (see [`tail_rank`]).
    pub fn tail(&self, wanted: f64) -> f64 {
        percentile_sorted(&self.sorted, tail_rank(self.sorted.len(), wanted))
    }
}

/// One reported value: the median across repeats with the extremes and the
/// sample count printed next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Median, min and max of per-repeat values.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A single value backed by `n` underlying samples (counts, replayed
    /// medians).
    pub fn single(value: f64, n: usize) -> Self {
        Summary {
            median: value,
            min: value,
            max: value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(tail_rank(1000, 99.0), 99.0);
        // 200 samples: ten beyond means p95.
        assert_eq!(tail_rank(200, 99.0), 95.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_rank(15, 99.0), 50.0);
        let s = Samples::new((1..=200).map(f64::from).collect());
        assert_eq!(s.tail(99.0), 190.0);
        assert_eq!(s.p50(), 100.0);
    }

    #[test]
    fn summary_reports_extremes() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
    }
}
