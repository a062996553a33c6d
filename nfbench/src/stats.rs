//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `sorted`, or `NaN` when
/// there are no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` (ascending, NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// How many samples lie strictly above the nearest-rank `q` percentile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.iter().filter(|&&x| x > p).count()
}

/// `num / den`, or 0 over an empty base (ratios are printed beside their
/// base counts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50/p99 summary of one latency distribution, in milliseconds.
#[derive(Clone, Debug)]
pub struct Latency {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub beyond_p99: usize,
}

impl Latency {
    pub fn of_ms(samples_ms: &[f64]) -> Latency {
        let s = sorted(samples_ms);
        Latency {
            p50_ms: percentile(&s, 0.5),
            p99_ms: percentile(&s, 0.99),
            samples: s.len(),
            beyond_p99: beyond(&s, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(beyond(&s, 0.99), 1);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
