//! Exact-sample statistics: percentiles, the "ten samples beyond" rule,
//! medians of repetitions, and the quartile spread the acceptance rule
//! uses.
//!
//! Percentiles come from the full sorted sample, never from
//! `anydb_common::metrics::Histogram`: its power-of-two buckets cannot
//! resolve a 10% regression bound.

/// The percentile ladder reports climb: a timing is reported as its median
/// plus the highest rung that still has [`MIN_BEYOND`] samples beyond it.
pub const LADDER: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer and it is one scheduler hiccup, not a property.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of one timing.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of raw observations and sorts them.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True without observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of quantile `q`: the smallest rank covering at
    /// least `q` of the sample. The epsilon keeps a product that is an
    /// integer in exact arithmetic (0.99 × 1000) from rounding up a rank.
    fn rank(&self, q: f64) -> usize {
        let exact = q * self.len() as f64 - 1e-9;
        (exact.ceil().max(1.0) as usize).min(self.len().max(1))
    }

    /// Nearest-rank quantile: always an observed value, never an
    /// interpolation between two modes. `0.0` for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(q) - 1]
    }

    /// Observations strictly beyond the quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.len().saturating_sub(self.rank(q))
    }

    /// True when `q` has at least [`MIN_BEYOND`] observations beyond it.
    pub fn supports(&self, q: f64) -> bool {
        !self.is_empty() && self.beyond(q) >= MIN_BEYOND
    }

    /// The highest rung of [`LADDER`] the sample supports, as
    /// `(quantile, value)`; the median when even p90 is unsupported.
    pub fn tail(&self) -> (f64, f64) {
        let q = LADDER
            .iter()
            .copied()
            .rev()
            .find(|&q| self.supports(q))
            .unwrap_or(0.5);
        (q, self.quantile(q))
    }

    /// Share of observations above `limit` (a latency limit's miss rate).
    pub fn frac_above(&self, limit: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let over = self.len() - self.sorted.partition_point(|&v| v <= limit);
        over as f64 / self.len() as f64
    }
}

/// Median of repetitions (mean of the middle two for an even count);
/// `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so a local
/// spread check agrees with the acceptance rule digit for digit. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median
/// — the run-to-run spread the acceptance rule bounds.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let s = ramp(100);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }

    #[test]
    fn ten_beyond_rule_sits_exactly_at_the_boundary() {
        // 1000 samples: p99 is rank 990, ten beyond — supported.
        let s = ramp(1000);
        assert_eq!(s.beyond(0.99), 10);
        assert!(s.supports(0.99));
        assert!(!s.supports(0.999));
        assert_eq!(s.tail(), (0.99, 990.0));
        // One fewer sample and p99 has nine beyond: fall back to p95.
        let s = ramp(999);
        assert_eq!(s.beyond(0.99), 9);
        assert_eq!(s.tail().0, 0.95);
    }

    #[test]
    fn tiny_samples_report_only_the_median() {
        let s = ramp(12);
        assert_eq!(s.tail(), (0.5, 6.0));
        // 20 samples: exactly ten beyond the median, nothing higher.
        assert_eq!(ramp(20).tail().0, 0.5);
    }

    #[test]
    fn large_samples_climb_the_ladder() {
        assert_eq!(ramp(100_000).tail().0, 0.9999);
        assert_eq!(ramp(60_000).tail().0, 0.999);
    }

    #[test]
    fn bimodal_remote_sample_is_split_by_kind_not_pooled() {
        // olap_remote alternates a selective (~1.6 ms) and an open-ended
        // (~3.1 ms) query. The pooled median is the top of the fast mode:
        // it moves with that mode's *tail*, so it is not reported. Per
        // kind, the medians recover the two modes.
        let jitter = |i: usize| (i % 7) as f64 * 0.01;
        let sel: Vec<f64> = (0..500).map(|i| 1.6 + jitter(i)).collect();
        let open: Vec<f64> = (0..500).map(|i| 3.1 + jitter(i)).collect();
        let pooled = Samples::new(sel.iter().chain(&open).copied().collect());
        let fast_max = sel.iter().copied().fold(0.0, f64::max);
        assert_eq!(pooled.quantile(0.5), fast_max, "pooled p50 = fast-mode max");
        // One slow selective outlier drags the pooled median across the gap...
        let mut skewed: Vec<f64> = sel.iter().chain(&open).copied().collect();
        skewed[0] = 9.0;
        assert!(Samples::new(skewed).quantile(0.5) >= 3.1);
        // ...while the per-kind medians do not notice it.
        let mut sel_out = sel.clone();
        sel_out[0] = 9.0;
        assert!((Samples::new(sel_out).quantile(0.5) - 1.63).abs() < 1e-9);
        assert!((Samples::new(open).quantile(0.5) - 3.13).abs() < 1e-9);
    }

    #[test]
    fn frac_above_counts_limit_misses() {
        let s = ramp(100);
        assert_eq!(s.frac_above(90.0), 0.10);
        assert_eq!(s.frac_above(1000.0), 0.0);
    }

    #[test]
    fn median_of_reps() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // Two values: the clamp keeps the lookups in range.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_spread(&v), 1.0);
    }
}
