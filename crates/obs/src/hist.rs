//! Fixed-bucket histograms. Bucket bounds are chosen at construction
//! (typically log-spaced); recording is a linear scan over a handful of
//! buckets and never allocates.

use asgov_util::Json;

/// A histogram with fixed, ascending bucket upper bounds plus an
/// implicit overflow bucket. Tracks count, sum, min and max alongside
/// the buckets so means survive even when the bucketing is coarse.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending inclusive upper bounds; values above the last bound
    /// land in the overflow bucket.
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Log-spaced bounds from `lo` to `hi` with `per_decade` buckets
    /// per decade (e.g. `logarithmic(1e2, 1e9, 2)` → 100 ns … 1 s in
    /// half-decade steps when the unit is ns).
    pub fn logarithmic(lo: f64, hi: f64, per_decade: u32) -> Self {
        let per_decade = per_decade.max(1);
        let step = 10f64.powf(1.0 / per_decade as f64);
        let mut bounds = Vec::new();
        let mut b = lo;
        while b < hi * (1.0 + 1e-9) {
            bounds.push(b);
            b *= step;
        }
        Self::new(bounds)
    }

    /// Buckets suited to nanosecond timings: 100 ns to 1 s in
    /// half-decade steps.
    pub fn time_ns() -> Self {
        Self::logarithmic(1e2, 1e9, 2)
    }

    /// Buckets suited to Kalman-innovation magnitudes (GIPS):
    /// 10⁻⁶ to 10² in decade steps.
    pub fn magnitude() -> Self {
        Self::logarithmic(1e-6, 1e2, 1)
    }

    /// Record one sample. Non-finite samples count toward `count` but
    /// land in the overflow bucket and are excluded from sum/min/max.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let idx = if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.bounds
                .iter()
                .position(|b| v <= *b)
                .unwrap_or(self.bounds.len())
        } else {
            self.bounds.len()
        };
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the finite samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest finite sample seen, if any.
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite sample seen, if any.
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1),
    /// clamped to the finite samples' `[min, max]` — exact to bucket
    /// granularity and never outside the observed range. `None` when no
    /// finite sample was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (min, max) = (self.min()?, self.max()?);
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                return Some(edge.max(min).min(max));
            }
        }
        None
    }

    /// The non-empty buckets as `(upper_bound, count)`; the overflow
    /// bucket reports `f64::INFINITY` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .filter(|(_, c)| *c > 0)
    }

    /// JSON summary: count, mean, min/max, p50/p95/p99 (clamped bucket
    /// bounds) and the non-empty buckets.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("count", self.count as f64);
        o.set("mean", self.mean());
        o.set("min", if self.min.is_finite() { self.min } else { 0.0 });
        o.set("max", if self.max.is_finite() { self.max } else { 0.0 });
        for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            o.set(key, self.quantile(q).unwrap_or(0.0));
        }
        let buckets: Vec<Json> = self
            .buckets()
            .map(|(b, c)| {
                let mut e = Json::object();
                e.set("le", b);
                e.set("n", c as f64);
                e
            })
            .collect();
        o.set("buckets", buckets);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        let mut h = Histogram::new(vec![10.0, 100.0, 1000.0]);
        for v in [1.0, 10.0, 11.0, 500.0, 5000.0] {
            h.record(v);
        }
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(
            buckets,
            vec![(10.0, 2), (100.0, 1), (1000.0, 1), (f64::INFINITY, 1)]
        );
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5000.0));
    }

    #[test]
    fn quantile_is_bucket_exact() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for _ in 0..90 {
            h.record(0.5);
        }
        for _ in 0..10 {
            h.record(3.0);
        }
        assert_eq!(h.quantile(0.5), Some(1.0));
        // The bucket edge (4.0) lies above the largest sample.
        assert_eq!(h.quantile(0.95), Some(3.0));
    }

    #[test]
    fn non_finite_lands_in_overflow() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(f64::NAN);
        h.record(0.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), 0.25, "NaN excluded from the sum, not count");
        let overflow = h.buckets().find(|(b, _)| b.is_infinite()).unwrap();
        assert_eq!(overflow.1, 1);
    }

    #[test]
    fn log_bounds_cover_the_requested_span() {
        let h = Histogram::time_ns();
        assert!(h.bounds.first().copied().unwrap() <= 1e2 * 1.001);
        assert!(h.bounds.last().copied().unwrap() >= 1e9 * 0.999);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::magnitude();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }
}
