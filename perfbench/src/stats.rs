//! The benchmark's one quantile helper and the timing summary built on it.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `p · n` samples at or below it. `p` is clamped to `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// The tail percentiles a timing may report, highest first. The reported
/// tail is the highest one with at least [`MIN_BEYOND`] samples above it.
const TAILS: [(&str, f64); 2] = [("p99", 0.99), ("p90", 0.90)];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// A timing as reported: median, tail and sample count.
#[derive(Clone, Debug)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// The tail value (see [`Dist::tail_label`]).
    pub tail: f64,
    /// Which percentile `tail` is: the highest of p99/p90 with at least
    /// ten samples beyond it, or `max` when the sample is too small for
    /// either.
    pub tail_label: &'static str,
}

impl Dist {
    /// Summarizes an unsorted, non-empty sample.
    pub fn of(xs: &[f64]) -> Dist {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (p50, p90) = (nearest_rank(&v, 0.5), nearest_rank(&v, 0.9));
        for (label, p) in TAILS {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            if n - rank >= MIN_BEYOND {
                return Dist { n, p50, p90, tail: v[rank - 1], tail_label: label };
            }
        }
        Dist { n, p50, p90, tail: v[n - 1], tail_label: "max" }
    }

    /// `"p50=… p99=… n=…"` for the info lines.
    pub fn describe(&self, unit: &str) -> String {
        format!("p50={:.3}{unit} {}={:.3}{unit} n={}", self.p50, self.tail_label, self.tail, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!((d.tail_label, d.tail, d.n), ("p99", 990.0, 1000));
        let d = Dist::of(&v[..999]);
        assert_eq!((d.tail_label, d.tail), ("p90", 900.0));
        let d = Dist::of(&v[..100]);
        assert_eq!((d.tail_label, d.tail), ("p90", 90.0));
        let d = Dist::of(&v[..99]);
        assert_eq!((d.tail_label, d.tail), ("max", 99.0));
    }
}
