//! Percentiles and medians.

/// A p99 is reported only from at least this many samples in one run.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Index of the nearest-rank `q` quantile among `n` sorted samples;
/// `None` when there are none.
pub fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n) - 1)
}

/// Nearest-rank quantile of sorted samples; `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    rank(sorted.len(), q).map(|i| sorted[i])
}

/// The p99 of sorted samples, or `None` below [`P99_MIN_SAMPLES`].
pub fn p99(sorted: &[u64]) -> Option<u64> {
    if sorted.len() < P99_MIN_SAMPLES {
        None
    } else {
        quantile(sorted, 0.99)
    }
}

/// Sorts a copy of the samples.
pub fn sorted(samples: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.into_iter().collect();
    v.sort_unstable();
    v
}

/// The median of a non-empty list (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few = sorted(1..=999);
        assert_eq!(p99(&few), None);
        assert_eq!(quantile(&few, 0.99), Some(990));
        let enough = sorted(1..=1000);
        assert_eq!(p99(&enough), Some(990));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = sorted([5, 1, 4, 2, 3]);
        assert_eq!(quantile(&v, 0.5), Some(3));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&v, 1.0), Some(5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
