//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here, computed on
//! the raw values, never from `tfgc_obs::Histogram` (whose log₂ buckets
//! cannot tell 65 µs from 131 µs).

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between the two closest ranks (the "inclusive" method of Python's
/// `statistics.quantiles`). Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0) — the spread the benchmark's bounds
/// are checked against.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // Interpolates between ranks: 1..=4 has its median at 2.5.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // p99 of 1..=100: rank 98.01 → 99.01.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&h, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn raw_samples_resolve_what_log2_buckets_cannot() {
        // 65 µs and 131 µs land in neighbouring log₂ buckets; raw
        // samples keep them apart.
        let v = [65.0, 66.0, 67.0, 131.0];
        assert_eq!(median(&v), 66.5);
    }

    #[test]
    fn spread_matches_python_inclusive_quartiles() {
        // statistics.quantiles([10, 20, 30, 40, 50], n=4,
        // method='inclusive') == [20, 30, 40]; (40 - 20) / 30.
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert!((quartile_spread(&v) - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
    }
}
