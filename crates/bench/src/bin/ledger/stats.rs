//! Order statistics: medians, quartiles, and the tail-percentile rule.

/// Percentile ladder the tail rule picks from, lowest first, in per mille
/// so the sample arithmetic stays exact.
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples strictly above the rank of the `pm`-per-mille percentile.
fn beyond(n: usize, pm: usize) -> usize {
    n - (n * pm).div_ceil(1000)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it in a set of `n` — the median when even p75 is too thin.
pub fn tail_percentile(n: usize) -> f64 {
    let pm = LADDER_PER_MILLE
        .iter()
        .rev()
        .copied()
        .find(|&pm| beyond(n, pm) >= TAIL_MIN_BEYOND)
        .unwrap_or(LADDER_PER_MILLE[0]);
    pm as f64 / 10.0
}

/// `wanted` if `n` samples support it under the tail rule, else the highest
/// percentile they do support.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    wanted.min(tail_percentile(n))
}

/// First and third quartile, exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its outer two cut points.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; 0 for fewer than two
/// values or a zero median.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1).abs() / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 12 runs: not even p75 has ten samples above it.
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(5000, 99.0), 99.0);
        assert_eq!(supported_percentile(500, 99.0), 95.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
