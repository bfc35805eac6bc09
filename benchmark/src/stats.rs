//! Order statistics over timing samples.

/// Sorted copy; NaNs (never produced by a timer) would sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-th percentile (`0.0..=1.0`): the sample at rank `p * (n - 1)`,
/// the higher of the two where the rank falls between two samples, so the
/// result is always a value that was measured (the median of an even count
/// is the high median). `0.0` for an empty sample, so a metric that a
/// workload does not exercise reads zero.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            // Not thrown to the next rank by the rounding of `p * (n - 1)`.
            v[((rank - 1e-9).ceil().max(0.0) as usize).min(n - 1)]
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the contract's spread is defined on. A single value is
/// its own three quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..=3usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// The median of several runs' values as the driver takes it: the second
/// quartile above, the mean of the two middle values of an even count.
pub fn median_of_runs(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[_, q2, _]| q2)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_the_higher_one_between_two_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 96.0);
        assert_eq!(percentile(&hundred, 0.5), 51.0);
        // Six query kinds in a pass: the fourth and the slowest.
        let pass = [68.0, 69.0, 68.5, 89.0, 95.0, 160.0];
        assert_eq!(percentile(&pass, 0.5), 89.0);
        assert_eq!(percentile(&pass, 0.9), 160.0);
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[3.0]), Some([3.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median_of_runs(&ten), 5.5);
        assert_eq!(median_of_runs(&[]), 0.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }
}
