//! R1 wall-clock: reading a clock fires; holding an `Instant` does not.

use std::time::{Duration, Instant, SystemTime};

/// Times itself.
pub fn elapsed() -> f64 {
    let start = Instant::now(); // line 7: `Instant::now`
    start.elapsed().as_secs_f64() // line 8: `Instant::elapsed`
}

/// Reads the system clock.
pub fn wall() -> Duration {
    let now = SystemTime::now(); // line 13: `SystemTime::now`
    now.elapsed().unwrap_or_default() // line 14: `SystemTime::elapsed`
}

/// Near-miss: instants injected from the edge are data, not clock reads.
pub fn between(start: Instant, end: Instant) -> Duration {
    end.duration_since(start)
}
