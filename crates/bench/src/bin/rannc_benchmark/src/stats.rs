//! Order statistics for latency samples and for run-to-run spreads.

/// A percentile needs at least this many samples ranked above it, or it
/// reads the tail of too few requests to repeat from run to run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// The rank is `ceil(p/100 · n)`. Refuses a percentile with fewer than
/// [`MIN_BEYOND`] samples above that rank: with 40 samples p75 is the
/// highest percentile allowed, with 20 samples only p50 is.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} sample(s) has {} beyond it; it needs {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median, averaging the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(data, n=4)`), so spreads printed here match the
/// ones an external checker computes from the same values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // negative when the clamp raised j (two samples)
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(20.0));
        assert_eq!(percentile(&xs, 75.0), Ok(30.0));
        let ys: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&ys, 50.0), Ok(10.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        // rank 30 of 39 leaves 9 samples beyond p75
        let err = percentile(&xs, 75.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&xs, 50.0).is_ok());
        let ys: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&ys, 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
