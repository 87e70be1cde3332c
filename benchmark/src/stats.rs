//! Order statistics used by every workload and by `compare`.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
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

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Per column, the median over the rows: with one row per pass and one
/// column per separately timed part (the same operation in every pass),
/// each part's median time. Rows shorter than the first are ignored.
pub fn column_medians(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map_or(0, Vec::len);
    (0..width)
        .map(|c| {
            median(
                &rows
                    .iter()
                    .filter_map(|r| r.get(c).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// `min / median / max` of `values`, for notes.
pub fn min_median_max(values: &[f64]) -> String {
    let max = values.iter().copied().reduce(f64::max).unwrap_or(0.0);
    format!(
        "min {:.4} / median {:.4} / max {:.4} s",
        min(values),
        median(values),
        max
    )
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p / 100.0).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of the `n` samples beyond it; the median when `n` is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| {
            // Integer arithmetic in tenths of a percent, so that 1000
            // samples at p99 count exactly ten beyond it.
            let beyond_permille = 1000 - (p * 10.0).round() as usize;
            n * beyond_permille / 1000 >= 10
        })
        .unwrap_or(50.0)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so `compare` and the driver agree on a spread. Needs at
/// least two values; a single value is returned three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may exceed 4 or be negative once `j` is clamped;
        // Python extrapolates there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance of `values` as a share of their median — the
/// run-to-run spread the driver compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn column_medians_take_each_parts_median_over_the_passes() {
        let rows = vec![vec![3.0, 9.0, 5.0], vec![4.0, 7.0, 6.0], vec![2.0, 8.0]];
        assert_eq!(column_medians(&rows), [3.0, 8.0, 5.5]);
        assert_eq!(column_medians(&[]), Vec::<f64>::new());
        assert_eq!(min(&[]), 0.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(
            min_median_max(&[3.0, 1.0, 2.0]),
            "min 1.0000 / median 2.0000 / max 3.0000 s"
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99, only one beyond p99.9.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        // 200 samples (serve_miss_full sized): ten beyond p95.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
