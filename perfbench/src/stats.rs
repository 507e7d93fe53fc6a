//! Order statistics and the attribution arithmetic.

/// Sorts a sample in place (times are never NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// Median (mean of the middle pair for an even count). 0 on empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// sample at or below it. 0 on empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in `n` samples. The epsilon
/// keeps `0.9 * 100` at rank 90 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Share of an end-to-end time that the per-layer self times along its
/// blocking path leave unexplained: `(end_to_end - Σ layers) /
/// end_to_end`. Negative when the layers, timed alone, sum to more than
/// the end-to-end time they sit in.
pub fn unattributed_frac(end_to_end: f64, layer_self_times: &[f64]) -> f64 {
    assert!(end_to_end > 0.0, "end-to-end time must be positive");
    (end_to_end - layer_self_times.iter().sum::<f64>()) / end_to_end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }

    #[test]
    fn attribution_arithmetic() {
        // 10 ms end to end, layers explain 9.5 ms: 5 % unexplained.
        let f = unattributed_frac(10.0, &[2.0, 7.0, 0.5]);
        assert!((f - 0.05).abs() < 1e-12);
        // Layers that explain everything leave nothing.
        assert_eq!(unattributed_frac(4.0, &[1.0, 3.0]), 0.0);
        // Over-attribution reads negative rather than being clamped.
        assert!((unattributed_frac(4.0, &[5.0]) + 0.25).abs() < 1e-12);
        // No layers: the whole time is unexplained.
        assert_eq!(unattributed_frac(3.0, &[]), 1.0);
    }
}
