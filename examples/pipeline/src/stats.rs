//! Order statistics over the samples a run collects.

/// The `q`-quantile (0..=1) of `sorted`, by linear interpolation between
/// the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median, first and third quartile, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        n: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Quantile of integer nanosecond samples, in nanoseconds.
pub fn quantile_ns(samples: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}
