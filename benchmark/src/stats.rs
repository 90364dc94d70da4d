//! Order statistics over unit samples.
//!
//! Wall-clock noise on a shared host only ever adds time, so as
//! measured a time-like metric is reported as the lower quartile over
//! its units and a rate as the upper quartile; the median, IQR, extremes
//! and sample count are printed beside it. (`BENCHMARK.json` gets the
//! median over units held against the host-speed probe; see `probe`.)

/// The `p`-quantile (`p` in `[0, 1]`) of `sorted` by linear
/// interpolation between closest ranks; never leaves `[min, max]`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The `p`-quantile of unsorted `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile(&sorted(samples), p)
}

/// Quartiles, extremes and count of one metric's unit samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub lower: f64,
    pub median: f64,
    pub upper: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            lower: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            upper: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    pub fn iqr(&self) -> f64 {
        self.upper - self.lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_arrays() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.n, s.min, s.lower, s.median, s.upper, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.iqr(), 2.0);
        // Even count: quartiles fall between ranks.
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.lower, s.median, s.upper), (1.75, 2.5, 3.25));
        // One sample is every quantile of itself.
        let s = Summary::of(&[7.0]);
        assert_eq!(
            (s.min, s.lower, s.median, s.upper, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn percentiles_interpolate_and_stay_in_range() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(percentile(&[10.0, 20.0], 7.0), 20.0);
    }
}
