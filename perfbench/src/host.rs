//! Host-side gauges: a monotonic clock with its own read cost, and the
//! process's resident-set figures from `/proc`.

use std::time::Instant;

/// A monotonic nanosecond clock anchored at a fixed epoch, so spans are
/// plain `u64` offsets that compare and subtract cheaply.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The clock reading of an earlier instant (0 if before the epoch).
    pub fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Host nanoseconds one [`Clock::now`] read costs: the median over
    /// several batches of back-to-back reads. Every timed span contains
    /// about one read's worth of clock overhead, which the per-layer
    /// figures subtract.
    pub fn read_cost_ns(&self) -> f64 {
        const READS: u32 = 20_000;
        let mut batches: Vec<f64> = (0..9)
            .map(|_| {
                let start = self.now();
                let mut sink = 0u64;
                for _ in 0..READS {
                    sink = sink.wrapping_add(self.now());
                }
                std::hint::black_box(sink);
                (self.now() - start) as f64 / f64::from(READS)
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        batches[batches.len() / 2]
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// Nanoseconds elapsed since `start`.
pub fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Reads one `kB` field (e.g. `VmHWM`) of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kib * 1024)
    })
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM")
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    status_bytes("VmRSS")
}

/// Bytes to mebibytes.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
