//! Order statistics over raw samples. Every latency figure the benchmark
//! prints comes from here, over the generator's own per-operation samples
//! (never from a service-side histogram).

/// Percentiles a tail may be reported at, highest first.
const TAIL_GRID: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// `xs` sorted ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0..=100) of ascending `s`; 0 when empty.
pub fn percentile(s: &[f64], p: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// Number of samples of ascending `s` strictly above percentile `p`.
pub fn beyond(s: &[f64], p: f64) -> usize {
    let v = percentile(s, p);
    s.len() - s.partition_point(|x| *x <= v)
}

/// The highest grid percentile of `n` samples with at least
/// [`TAIL_BEYOND`] samples beyond it (50 when there are too few samples).
pub fn tail_pct_for(n: usize) -> f64 {
    TAIL_GRID
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND as f64)
        .unwrap_or(50.0)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_has_ten_samples_beyond() {
        assert_eq!(tail_pct_for(1000), 99.0);
        assert_eq!(tail_pct_for(999), 98.0);
        assert_eq!(tail_pct_for(250), 95.0);
        assert_eq!(tail_pct_for(5), 50.0);
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(beyond(&s, tail_pct_for(s.len())) >= TAIL_BEYOND);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
