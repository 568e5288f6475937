//! The reference clock: time in units of core clock, not of wall clock.
//!
//! The host this benchmark must repeat on moves its core clock between
//! about 1.0× and 1.25× for tens of seconds at a time, so the same code
//! reads 15–20 % apart from one ten-second run to the next. A sampler
//! thread therefore times a short dependent multiply–add chain — work
//! whose speed is the core clock and nothing else — every 20 ms, and
//! every end-to-end time is multiplied by the chain's speed at that
//! moment over [`REFERENCE_RATE`]. A reported second is a second of a
//! core that runs the chain at that rate: cycles, in effect. Memory or
//! scheduler contention is not corrected, only the clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::median;

/// Chain iterations per second that count as factor 1.0: this host's
/// unboosted state. Only ratios between runs matter.
pub const REFERENCE_RATE: f64 = 4.25e8;
/// Iterations per sample (about 0.15 ms).
const CHAIN: u64 = 100_000;
/// Pause between samples.
const PERIOD: Duration = Duration::from_millis(20);
/// Samples the published factor is the median of (about 0.2 s): one
/// preempted sample cannot move it.
const SMOOTH: usize = 9;

/// Iterations per second of the dependent chain, right now.
fn chain_rate() -> f64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for i in 0..CHAIN {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    CHAIN as f64 / t0.elapsed().as_secs_f64()
}

#[derive(Debug)]
struct Shared {
    origin: Instant,
    /// Bits of the current smoothed factor.
    now: AtomicU64,
    /// `(ns since origin, smoothed factor)`, in time order.
    series: Mutex<Vec<(u64, f64)>>,
    stop: AtomicBool,
}

impl Shared {
    fn sample(&self, recent: &mut Vec<f64>) {
        recent.push(chain_rate() / REFERENCE_RATE);
        if recent.len() > SMOOTH {
            recent.remove(0);
        }
        let factor = median(recent);
        self.now.store(factor.to_bits(), Ordering::Relaxed);
        self.series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.origin.elapsed().as_nanos() as u64, factor));
    }
}

/// A running reference clock.
#[derive(Debug)]
pub struct RefClock {
    shared: Arc<Shared>,
    sampler: Option<JoinHandle<()>>,
}

impl RefClock {
    /// Takes a first few samples at once, so a factor exists from the
    /// start, then samples in the background until dropped.
    pub fn start() -> RefClock {
        let shared = Arc::new(Shared {
            origin: Instant::now(),
            now: AtomicU64::new(1f64.to_bits()),
            series: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let mut recent = Vec::new();
        for _ in 0..SMOOTH {
            shared.sample(&mut recent);
        }
        let background = Arc::clone(&shared);
        let sampler = std::thread::spawn(move || {
            let mut recent = recent;
            while !background.stop.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                background.sample(&mut recent);
            }
        });
        RefClock {
            shared,
            sampler: Some(sampler),
        }
    }

    /// The clock factor now: reference seconds per wall second.
    pub fn factor(&self) -> f64 {
        f64::from_bits(self.shared.now.load(Ordering::Relaxed))
    }

    /// Reference seconds between two instants: the factor integrated
    /// over the interval (each sample holds until the next).
    pub fn reference_seconds(&self, from: Instant, to: Instant) -> f64 {
        let origin = self.shared.origin;
        let a = from.saturating_duration_since(origin).as_nanos() as u64;
        let b = to.saturating_duration_since(origin).as_nanos() as u64;
        let series = self
            .shared
            .series
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        integrate(&series, a, b)
    }

    /// Mean factor over an interval (1.0 for an empty one).
    pub fn mean_factor(&self, from: Instant, to: Instant) -> f64 {
        let wall = to.saturating_duration_since(from).as_secs_f64();
        if wall <= 0.0 {
            return self.factor();
        }
        self.reference_seconds(from, to) / wall
    }

    /// `(lowest, median, highest)` factor seen so far.
    pub fn range(&self) -> (f64, f64, f64) {
        let series = self
            .shared
            .series
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let factors: Vec<f64> = series.iter().map(|(_, f)| *f).collect();
        let low = factors.iter().copied().fold(f64::INFINITY, f64::min);
        let high = factors.iter().copied().fold(0.0, f64::max);
        (low, median(&factors), high)
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

/// ∫ factor dt over `[a, b)` nanoseconds, in seconds, for a
/// piecewise-constant series: a sample's factor holds from its time to
/// the next sample's, the first also before it, the last also after.
fn integrate(series: &[(u64, f64)], a: u64, b: u64) -> f64 {
    if b <= a {
        return 0.0;
    }
    let Some(&(_, first)) = series.first() else {
        return (b - a) as f64 / 1e9;
    };
    let mut total = 0.0;
    let mut cursor = a;
    let mut factor = first;
    for &(t, f) in series {
        if t <= cursor {
            factor = f;
            continue;
        }
        let end = t.min(b);
        total += (end - cursor) as f64 * factor;
        cursor = end;
        factor = f;
        if cursor >= b {
            break;
        }
    }
    if cursor < b {
        total += (b - cursor) as f64 * factor;
    }
    total / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integration_holds_each_sample_until_the_next() {
        let series = [(100, 1.0), (200, 2.0), (300, 0.5)];
        let ns = |a, b| integrate(&series, a, b) * 1e9;
        assert_eq!(ns(100, 200), 100.0);
        assert_eq!(ns(150, 250), 50.0 + 100.0);
        assert_eq!(ns(0, 100), 100.0); // before the first sample: its factor
        assert_eq!(ns(300, 500), 100.0); // after the last: its factor
        assert_eq!(ns(0, 400), 100.0 + 100.0 + 200.0 + 50.0);
        assert_eq!(ns(250, 250), 0.0);
        assert_eq!(integrate(&[], 0, 1_000_000_000), 1.0);
    }

    #[test]
    fn a_running_clock_reports_a_plausible_factor() {
        let clock = RefClock::start();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(70));
        let t1 = Instant::now();
        let factor = clock.factor();
        assert!(factor > 0.05 && factor < 20.0, "factor {factor}");
        let mean = clock.mean_factor(t0, t1);
        assert!(mean > 0.05 && mean < 20.0, "mean {mean}");
        let wall = (t1 - t0).as_secs_f64();
        assert!((clock.reference_seconds(t0, t1) - mean * wall).abs() < 1e-9);
        let (low, mid, high) = clock.range();
        assert!(low <= mid && mid <= high);
    }
}
