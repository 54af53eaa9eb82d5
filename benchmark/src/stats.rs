//! Median and quartiles of a sample.

/// Summary of one timing: the median is the reported value, the
/// quartiles its dispersion. No tail percentile is claimed: with n ≤ 30
/// none has ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so numbers recomputed from the raw samples by
/// any later tool agree with the ones printed here.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return Summary {
            n,
            q1: s[0],
            median: s[0],
            q3: s[0],
        };
    }
    let quantile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
