//! Log-bucketed latency histogram with integer-deterministic bounds.
//!
//! Quantiles are reported as the **upper bound of the bucket** holding
//! the target rank, so two runs observing the same multiset of
//! latencies report byte-identical quantiles regardless of arrival
//! order — the property that makes two soaks comparable without
//! storing every sample.

/// Latencies above this saturate into the overflow bucket (120 s, µs).
const MAX_TRACKED_US: u64 = 120_000_000;

/// Deterministic bucket upper bounds: from 1 µs, each bound grows by
/// 25% (at least 1 µs) until [`MAX_TRACKED_US`] is covered — ~83
/// buckets, ≤ 25% relative quantile error by construction.
fn bucket_bounds() -> Vec<u64> {
    let mut bounds = Vec::with_capacity(96);
    let mut b = 1u64;
    while b < MAX_TRACKED_US {
        bounds.push(b);
        b = (b + 1).max(b + b / 4);
    }
    bounds.push(MAX_TRACKED_US);
    bounds
}

/// A mergeable log-bucketed histogram of request latencies in µs.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bucket upper bounds, ascending; `counts` has one extra overflow
    /// slot at the end.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        let bounds = bucket_bounds();
        let counts = vec![0; bounds.len() + 1];
        LatencyHistogram {
            bounds,
            counts,
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one observation.
    pub fn record_us(&mut self, us: u64) {
        let idx = match self.bounds.binary_search(&us) {
            Ok(i) => i,
            Err(i) => i, // first bound >= us; len() = overflow slot
        };
        let slot = idx.min(self.counts.len() - 1);
        self.counts[slot] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation, µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean observation, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket holding rank `ceil(q × count)` — deterministic for a
    /// given observation multiset. Returns 0 when empty; the overflow
    /// bucket reports the exact maximum.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max_us.max(1)),
                    None => self.max_us, // overflow bucket
                };
            }
        }
        self.max_us
    }

    /// Folds another histogram in (same bounds by construction).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Renders the histogram as a Prometheus text-format family
    /// (`<name>_bucket{le="…"}` cumulative counts plus `_sum`/`_count`),
    /// the `rsls_load_*` counterpart of the server's
    /// `rsls_serve_request_duration_seconds` family. Only non-empty
    /// buckets emit a line (the full ~83-bucket spread would dwarf the
    /// payload it describes).
    pub fn render_prometheus(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# HELP {name} Client-observed request latency, µs.");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if n == 0 {
                continue;
            }
            if let Some(&bound) = self.bounds.get(i) {
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum_us);
        let _ = writeln!(out, "{name}_count {}", self.count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_the_range() {
        let bounds = bucket_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds.first(), Some(&1));
        assert_eq!(bounds.last(), Some(&MAX_TRACKED_US));
        assert!(bounds.len() < 128, "ring stays small: {}", bounds.len());
    }

    #[test]
    fn quantiles_are_order_independent() {
        let samples = [3u64, 700, 700, 15_000, 90, 90, 90, 2, 1_000_000, 45];
        let mut fwd = LatencyHistogram::new();
        let mut rev = LatencyHistogram::new();
        for &s in &samples {
            fwd.record_us(s);
        }
        for &s in samples.iter().rev() {
            rev.record_us(s);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(fwd.quantile_us(q), rev.quantile_us(q));
        }
        assert_eq!(fwd.max_us(), 1_000_000);
        assert_eq!(fwd.count(), samples.len() as u64);
    }

    #[test]
    fn quantile_brackets_the_true_value_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.5);
        // True median 500; the bucket bound is within 25% above it.
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        let p999 = h.quantile_us(0.999);
        assert!((999..=1250).contains(&p999), "p999 = {p999}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500u64 {
            let us = (i * 37 + 11) % 100_000;
            if i % 2 == 0 {
                a.record_us(us);
            } else {
                b.record_us(us);
            }
            all.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean_us(), all.mean_us());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile_us(q), all.quantile_us(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros_and_overflow_reports_max() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
        let mut h = LatencyHistogram::new();
        h.record_us(MAX_TRACKED_US * 2);
        assert_eq!(h.quantile_us(0.5), MAX_TRACKED_US * 2, "overflow = max");
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let mut h = LatencyHistogram::new();
        h.record_us(10);
        h.record_us(10);
        h.record_us(50_000);
        let text = h.render_prometheus("rsls_load_request_latency_us");
        assert!(text.contains("# TYPE rsls_load_request_latency_us histogram"));
        assert!(text.contains("rsls_load_request_latency_us_bucket{le=\"10\"} 2"));
        assert!(text.contains("rsls_load_request_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rsls_load_request_latency_us_count 3"));
    }
}
