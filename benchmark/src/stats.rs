//! Order statistics: per-epoch percentiles, the median and the better
//! quartile over epochs, and the two noise gauges (spread and quartile
//! distance).

/// Sort ascending; the samples are finite times and counts.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Percentile `q` in `[0, 1]` of an ascending slice, linearly
/// interpolated between the two nearest ranks.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// The quartile on the good side of unsorted per-epoch values: the
/// first where lower is better, the third where higher is. Whatever
/// else runs on a shared host only ever makes an epoch slower, so this
/// stays put until three epochs in four are disturbed, where the median
/// gives way at two in four.
pub fn better_quartile(xs: &[f64], higher_is_better: bool) -> f64 {
    let q = if higher_is_better { 0.75 } else { 0.25 };
    percentile(&sorted(xs.to_vec()), q)
}

/// `(max − min) / median` in percent: how far the epochs of one run
/// disagree. Zero for a single value.
pub fn spread_pct(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let mid = percentile(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / mid * 100.0
}

/// Largest pairwise disagreement `(max − min) / min` in percent.
pub fn disagreement_pct(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    if s[0] == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / s[0] * 100.0
}

/// Distance between the first and third quartile as a share of the
/// median, in percent, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the driver's acceptance
/// rule). Needs at least two values.
pub fn iqr_share_pct(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let m = s.len();
    assert!(m >= 2, "quartiles need two values");
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let mid = quartile(2);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        // Interpolated between ranks: 4 samples, q=0.5 sits between 2 and 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_epochs_ignores_one_bad_epoch() {
        // Seven epoch p50s, one of them hit by a placement outlier.
        let epochs = [10.1, 10.0, 10.2, 21.7, 10.1, 9.9, 10.0];
        assert_eq!(median(&epochs), 10.1);
        assert!((spread_pct(&epochs) - (21.7 - 9.9) / 10.1 * 100.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[4.2]), 0.0);
    }

    #[test]
    fn the_better_quartile_outlasts_a_disturbed_half() {
        // Nine epoch times; five of them ran beside a noisy neighbour.
        let times = [10.0, 10.1, 13.9, 14.2, 9.9, 14.0, 10.2, 13.8, 14.1];
        assert_eq!(median(&times), 13.8);
        assert_eq!(better_quartile(&times, false), 10.1);
        // Bandwidths of the same epochs: the good side is the high one.
        let rates = times.map(|t| 1000.0 / t);
        assert_eq!(better_quartile(&rates, true), 1000.0 / 10.1);
        assert_eq!(better_quartile(&[4.2], true), 4.2);
    }

    #[test]
    fn disagreement_is_relative_to_the_smaller() {
        assert!((disagreement_pct(&[100.0, 104.0, 102.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartile_share_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share_pct(&v) - (8.25 - 2.75) / 5.5 * 100.0).abs() < 1e-9);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share_pct(&[4.0, 1.0, 2.0]) - 150.0).abs() < 1e-9);
    }
}
