//! What the harness reads about its own process and the machine.

use std::fs;

/// CPU seconds (user + system, every thread) this process has used.
pub fn process_cpu_s() -> f64 {
    // /proc/self/stat: the command name may hold spaces, so count
    // fields from the closing parenthesis. utime and stime are fields
    // 14 and 15, in clock ticks; Linux fixes the tick at 100 Hz for
    // this file.
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Facts printed with every run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Processors the scheduler offers this process.
    pub nproc: usize,
    /// Threads the vendored `rayon` will actually use.
    pub effective_threads: usize,
    /// `(level, type, bytes)` of each cache of cpu0.
    pub caches: Vec<(u32, String, u64)>,
    /// Sum of the last-level cache sizes visible on cpu0.
    pub llc_bytes: u64,
    /// Physical memory, bytes.
    pub ram_bytes: u64,
}

fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1024),
        'M' => (&t[..t.len() - 1], 1024 * 1024),
        'G' => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

impl HostFacts {
    /// Reads the facts from `/proc` and `/sys`.
    pub fn gather() -> HostFacts {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut caches = Vec::new();
        for idx in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |leaf: &str| fs::read_to_string(format!("{dir}/{leaf}")).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(&size)) {
                caches.push((level, kind.trim().to_string(), bytes));
            }
        }
        let top = caches.iter().map(|c| c.0).max().unwrap_or(0);
        let llc_bytes = caches.iter().filter(|c| c.0 == top).map(|c| c.2).sum();
        let ram_bytes = fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|m| {
                let line = m.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
                line.split_whitespace().nth(1)?.parse::<u64>().ok()
            })
            .map_or(0, |kb| kb * 1024);
        HostFacts {
            nproc,
            effective_threads: rayon::effective_num_threads(),
            caches,
            llc_bytes,
            ram_bytes,
        }
    }

    /// One line for the run log.
    pub fn describe(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(level, kind, bytes)| {
                format!("L{level}{}={}K", &kind[..1].to_lowercase(), bytes / 1024)
            })
            .collect();
        format!(
            "host: nproc={} effective_threads={} caches[{}] llc={}K ram={}M",
            self.nproc,
            self.effective_threads,
            caches.join(" "),
            self.llc_bytes / 1024,
            self.ram_bytes / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_size("32K\n"), Some(32 * 1024));
        assert_eq!(parse_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn the_process_reports_its_own_cpu_and_memory() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(31).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= before + 0.03);
        assert!(peak_rss_mb() > 1.0);
        assert!(HostFacts::gather().nproc >= 1);
    }
}
