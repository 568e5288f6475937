//! Log-bucket latency histogram and the tail-percentile rule.
//!
//! Samples are nanoseconds. Values below 128 ns get a bucket each;
//! above that every power of two splits into 64 equal buckets, so a
//! bucket is at most 1.6 % wide. A quantile interpolates linearly
//! inside its bucket, which keeps reported latencies continuous: a
//! bucket-edge quantile would read identically on every run.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Buckets: 2·SUB linear ones, then SUB per octave up to 2⁶⁴ ns.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A mergeable histogram of latencies in nanoseconds.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    max_ns: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < (2 * SUB) as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS + 1
    let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    (exp - SUB_BITS) as usize * SUB + SUB + sub
}

/// The half-open value range `[low, high)` of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < 2 * SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let octave = (idx - SUB) / SUB; // = exp - SUB_BITS
    let sub = (idx - SUB) % SUB;
    let width = (1u128 << octave) as f64;
    let low = ((SUB + sub) as u128 * (1u128 << octave)) as f64;
    (low, low + width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            max_ns: 0,
        }
    }

    /// Records one sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile in nanoseconds (0 when empty): the value at
    /// rank `q·count`, interpolated inside the bucket that holds it and
    /// never above the largest sample.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(0.5);
        let mut before = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (before + n) as f64 >= rank {
                let (low, high) = bucket_range(idx);
                let inside = (rank - before as f64) / n as f64;
                return (low + inside * (high - low)).min(self.max_ns as f64);
            }
            before += n;
        }
        self.max_ns as f64
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        beyond(self.count, q)
    }
}

/// Of `samples` sorted values, how many lie beyond rank `⌈q·samples⌉`.
/// The small slack keeps `0.999 × 10 000` from rounding up a rank.
fn beyond(samples: u64, q: f64) -> u64 {
    let rank = (q * samples as f64 - 1e-6).ceil().max(0.0) as u64;
    samples.saturating_sub(rank)
}

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` below 20 samples.
pub fn supported_tail(samples: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|q| beyond(samples, *q) >= TAIL_MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for an even count; 0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_axis_without_gaps() {
        let mut expected_low = 0.0;
        for idx in 0..(20 * SUB) {
            let (low, high) = bucket_range(idx);
            assert_eq!(low, expected_low, "bucket {idx}");
            assert!(high > low);
            expected_low = high;
        }
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            1000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX,
        ] {
            let (low, high) = bucket_range(bucket_of(ns));
            assert!(low <= ns as f64 && (ns as f64) < high || ns == u64::MAX);
        }
    }

    #[test]
    fn quantiles_track_exact_ranks_within_bucket_width() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record_ns(i * 100);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.02, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.quantile_ns(1.0), 1_000_000.0);
        assert_eq!(h.samples_beyond(0.99), 100);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..1000u64 {
            let v = i * i + 5;
            if i % 2 == 0 {
                a.record_ns(v)
            } else {
                b.record_ns(v)
            }
            all.record_ns(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile_ns(0.9), all.quantile_ns(0.9));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(60), Some(0.75));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
