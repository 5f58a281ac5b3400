//! Order statistics over the harness's own samples.

/// Seconds since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median and quartiles of one metric's samples, as printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample,
/// so an empty one is a harness bug.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of zero samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Fewer than [`MIN_BEYOND`] samples lie beyond the requested percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    pub percentile: f64,
    pub samples: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has fewer than {MIN_BEYOND} samples beyond it",
            self.percentile, self.samples
        )
    }
}

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of an ascending slice, refused
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let beyond = (sorted.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            percentile: p,
            samples: sorted.len(),
        });
    }
    Ok(sorted[sorted.len() - 1 - beyond])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_inclusive_method() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // p99 of 1000 samples has exactly ten beyond it: allowed.
        assert_eq!(percentile(&v, 99.0), Ok(989.0));
        // p99.9 would rest on one sample; p99 of 999 on nine.
        assert!(percentile(&v, 99.9).is_err());
        assert_eq!(
            percentile(&v[..999], 99.0),
            Err(TooFewSamples {
                percentile: 99.0,
                samples: 999
            })
        );
        // The median of twenty samples is fine, of nineteen it is not.
        assert!(percentile(&v[..20], 50.0).is_ok());
        assert!(percentile(&v[..19], 50.0).is_err());
    }
}
