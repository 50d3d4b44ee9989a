//! Exact percentiles over raw samples and medians over slices.
//!
//! A run is cut into slices; every metric is computed once per slice and
//! reported as the median of the per-slice values, with the minimum and
//! maximum beside it. Latency percentiles are exact (nearest rank over
//! the sorted raw nanosecond samples), never bucketed.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// sample such that at least `q` of all samples are ≤ it. `q` in `(0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of values (mean of the middle two for an even count).
/// Returns 0 for an empty set.
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

/// One reported number: the median of its per-slice values, their range,
/// and how many raw samples stand behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median of the per-slice values.
    pub value: f64,
    /// Smallest per-slice value.
    pub min: f64,
    /// Largest per-slice value.
    pub max: f64,
    /// Raw samples (operations, calls) behind all slices together.
    pub samples: u64,
}

impl Stat {
    /// Fold per-slice values into a [`Stat`].
    pub fn of_slices(per_slice: &[f64], samples: u64) -> Stat {
        Stat {
            value: median(per_slice),
            min: per_slice.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples,
        }
    }

    /// A number that was measured once (a count, a whole-run ratio).
    pub fn single(value: f64, samples: u64) -> Stat {
        Stat {
            value,
            min: value,
            max: value,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.001), 1);
        // 0.5 of 5 samples → rank ceil(2.5) = 3.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
        // p99 of 1000 samples leaves exactly ten beyond it.
        let t: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&t, 0.99), 989);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2], 0.0), 1);
    }

    #[test]
    fn percentile_never_interpolates() {
        let s = [1, 1000];
        assert_eq!(percentile(&s, 0.5), 1);
        assert_eq!(percentile(&s, 0.51), 1000);
    }

    #[test]
    fn median_of_slices() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        // Four slices: mean of the two middle values, order-independent.
        assert_eq!(median(&[10.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stat_keeps_range_and_sample_count() {
        let s = Stat::of_slices(&[5.0, 1.0, 9.0, 3.0], 1234);
        assert_eq!(s.value, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.samples, 1234);
        let one = Stat::single(2.0, 1);
        assert_eq!((one.value, one.min, one.max), (2.0, 2.0, 2.0));
    }
}
