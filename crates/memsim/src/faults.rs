//! Seeded, deterministic fault injection for the DRAM device model.
//!
//! [`FaultyDevice`] wraps [`Dram`] with the same access API and attaches
//! *faults* to data-carrying reads: transient single-bit flips in the
//! returned payload (meaningful for LLT/LEAD metadata — data lines are
//! assumed to carry their own in-DRAM ECC), dropped responses, delayed
//! responses, and a whole-channel outage window during which the device is
//! unreachable (modeling a stacked-DRAM channel brown-out).
//!
//! Faults are drawn from a [SplitMix64](FaultRng) stream seeded at arm
//! time, so a given `(seed, access sequence)` produces the same fault
//! sequence on every run — experiments stay reproducible and failures
//! bisectable. An *unarmed* or rate-zero device draws nothing from the
//! stream and delegates straight through, so its timing is bit-identical
//! to a bare [`Dram`].
//!
//! The wrapper only *attaches* faults; interpreting them (ECC correction,
//! retry, scrub, degradation) is the recovery policy's job in the `cameo`
//! core crate. After every data-carrying read the latest fault — or the
//! absence of one — replaces whatever was pending, and the caller consumes
//! it with [`FaultyDevice::take_fault`]; stale faults can never be
//! misattributed to a later read.

use cameo_types::Cycle;

use crate::{Dram, DramConfig, DramStats};

/// One fault attached to a device read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceFault {
    /// A single bit of the returned payload arrived flipped. `bit` is a raw
    /// bit index the consumer maps onto its metadata encoding.
    BitFlip {
        /// Index of the flipped bit within the returned payload word.
        bit: u8,
    },
    /// The response never arrived; the returned completion cycle is when it
    /// *would* have completed. The consumer must time out and retry.
    Dropped,
    /// The response arrived late; the returned completion cycle already
    /// includes the extra delay.
    Delayed {
        /// Extra cycles the response spent in flight.
        extra: Cycle,
    },
    /// The access landed inside a whole-channel outage window; the returned
    /// completion cycle was deferred past the end of the window.
    Outage,
}

/// Fault rates (per million data-carrying reads) and the optional outage
/// window. `FaultConfig::default()` is fully inert.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultConfig {
    /// Single-bit flips per million reads.
    pub flip_ppm: u32,
    /// Dropped responses per million reads.
    pub drop_ppm: u32,
    /// Delayed responses per million reads.
    pub delay_ppm: u32,
    /// Extra latency of one delayed response, in CPU cycles.
    pub delay_cycles: u64,
    /// Half-open `[start, end)` cycle window during which the whole device
    /// is unreachable and every access defers to `end`.
    pub outage: Option<(u64, u64)>,
}

impl FaultConfig {
    /// Whether any fault mechanism is enabled.
    pub fn is_active(&self) -> bool {
        self.flip_ppm > 0 || self.drop_ppm > 0 || self.delay_ppm > 0 || self.outage.is_some()
    }

    /// A copy with the payload-corrupting and availability faults removed,
    /// keeping only drops/delays — the arming used for devices that hold no
    /// location metadata (e.g. off-chip DRAM, whose data lines are ECC
    /// protected end to end).
    pub fn transport_only(&self) -> Self {
        Self {
            flip_ppm: 0,
            outage: None,
            ..*self
        }
    }
}

/// Counters of injected faults since the device was armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Bit flips attached to reads.
    pub flips: u64,
    /// Responses dropped.
    pub drops: u64,
    /// Responses delayed.
    pub delays: u64,
    /// Accesses deferred past an outage window.
    pub outage_deferrals: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.flips + self.drops + self.delays + self.outage_deferrals
    }
}

/// The fault sampler's pseudo-random stream: the workspace-wide seeded
/// [`SplitMix64`](cameo_types::SplitMix64) (tiny, fast, and statistically
/// strong enough for fault sampling; chosen over the vendored `rand` to
/// keep this crate dependency-free beyond `cameo-types`). The alias
/// preserves this module's original API — fault streams produced from a
/// given seed are bit-identical to those of the former private
/// implementation, which was moved to `cameo-types` verbatim so the sweep
/// harness can derive retry jitter from the same stream definition.
pub type FaultRng = cameo_types::SplitMix64;

/// A [`Dram`] with a deterministic fault layer in front of it.
///
/// Mirrors the full `Dram` access API so the controller can swap one for
/// the other behind a type alias. Construction is inert; faults start only
/// after [`FaultyDevice::arm`].
///
/// # Examples
///
/// ```
/// use cameo_memsim::faults::{FaultConfig, FaultyDevice};
/// use cameo_memsim::DramConfig;
/// use cameo_types::{ByteSize, Cycle};
///
/// let mut dev = FaultyDevice::new(DramConfig::stacked(ByteSize::from_mib(1)));
/// dev.arm(
///     FaultConfig {
///         flip_ppm: 1_000_000, // every read
///         ..FaultConfig::default()
///     },
///     42,
/// );
/// dev.read_line(Cycle::ZERO, 0);
/// assert!(dev.take_fault().is_some());
/// assert!(dev.take_fault().is_none()); // consumed
/// ```
#[derive(Clone, Debug)]
pub struct FaultyDevice {
    inner: Dram,
    cfg: FaultConfig,
    rng: FaultRng,
    pending: Option<DeviceFault>,
    fault_stats: FaultStats,
}

impl FaultyDevice {
    /// Creates an *inert* wrapper: timing-identical to `Dram::new(config)`.
    pub fn new(config: DramConfig) -> Self {
        Self {
            inner: Dram::new(config),
            cfg: FaultConfig::default(),
            rng: FaultRng::new(0),
            pending: None,
            fault_stats: FaultStats::default(),
        }
    }

    /// Arms (or re-arms) the fault layer with rates and a fresh seed.
    pub fn arm(&mut self, cfg: FaultConfig, seed: u64) {
        self.cfg = cfg;
        self.rng = FaultRng::new(seed);
        self.pending = None;
        self.fault_stats = FaultStats::default();
    }

    /// Counters of faults injected since arming.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Consumes the fault attached to the most recent data-carrying read,
    /// if any. Every such read overwrites the slot (with `None` when it was
    /// clean), so a fault can never outlive the read it was drawn for.
    pub fn take_fault(&mut self) -> Option<DeviceFault> {
        self.pending.take()
    }

    /// Defers `now` past the outage window when the access lands inside it.
    fn outage_gate(&mut self, now: Cycle) -> (Cycle, bool) {
        if let Some((start, end)) = self.cfg.outage {
            if now.raw() >= start && now.raw() < end {
                self.fault_stats.outage_deferrals += 1;
                return (Cycle::new(end), true);
            }
        }
        (now, false)
    }

    /// Draws at most one fault for a data-carrying read.
    fn draw_fault(&mut self) -> Option<DeviceFault> {
        let flip = u64::from(self.cfg.flip_ppm);
        let drop = u64::from(self.cfg.drop_ppm);
        let delay = u64::from(self.cfg.delay_ppm);
        if flip + drop + delay == 0 {
            return None;
        }
        let r = self.rng.below(1_000_000);
        if r < flip {
            self.fault_stats.flips += 1;
            Some(DeviceFault::BitFlip {
                bit: self.rng.below(32) as u8,
            })
        } else if r < flip + drop {
            self.fault_stats.drops += 1;
            Some(DeviceFault::Dropped)
        } else if r < flip + drop + delay {
            self.fault_stats.delays += 1;
            Some(DeviceFault::Delayed {
                extra: Cycle::new(self.cfg.delay_cycles),
            })
        } else {
            None
        }
    }

    /// Performs a demand read of one line; may attach a fault.
    pub fn read_line(&mut self, now: Cycle, line: u64) -> Cycle {
        self.access(now, line, false, cameo_types::LINE_BYTES as u32)
    }

    /// Performs a write of one line. Writes are posted and never faulted
    /// (a lost posted write is indistinguishable from a scheduling choice
    /// in this model); they are still gated by an outage window.
    pub fn write_line(&mut self, now: Cycle, line: u64) -> Cycle {
        self.access(now, line, true, cameo_types::LINE_BYTES as u32)
    }

    /// Performs an access with an explicit transfer size, applying the
    /// outage gate to everything and drawing a fault for reads.
    ///
    /// For a read the attached fault (or `None`) replaces any pending one;
    /// a [`DeviceFault::Delayed`] verdict is already reflected in the
    /// returned completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero (same contract as [`Dram::access`]).
    pub fn access(&mut self, now: Cycle, line: u64, is_write: bool, bytes: u32) -> Cycle {
        let (now, deferred) = self.outage_gate(now);
        let done = self.inner.access(now, line, is_write, bytes);
        if is_write {
            return done;
        }
        // A drawn fault wins; an otherwise-clean read that crossed the
        // outage window still reports the deferral.
        let fault = match (self.draw_fault(), deferred) {
            (Some(f), _) => Some(f),
            (None, true) => Some(DeviceFault::Outage),
            (None, false) => None,
        };
        self.pending = fault;
        match fault {
            Some(DeviceFault::Delayed { extra }) => done + extra,
            _ => done,
        }
    }

    /// A squashed speculative read: bus accounting only, data discarded, so
    /// no fault is drawn and the pending slot is left untouched.
    pub fn read_squashed(&mut self, now: Cycle, line: u64) -> Cycle {
        let (now, _) = self.outage_gate(now);
        self.inner.read_squashed(now, line)
    }

    /// The wrapped device's configuration.
    #[inline]
    pub fn config(&self) -> &DramConfig {
        self.inner.config()
    }

    /// The wrapped device's activity counters.
    #[inline]
    pub fn stats(&self) -> &DramStats {
        self.inner.stats()
    }

    /// Resets the wrapped device's activity counters (fault counters and
    /// the RNG stream are kept: warmup faults are still faults).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Uncontended latency of an isolated row-buffer-miss read.
    pub fn isolated_read_latency(&self) -> Cycle {
        self.inner.isolated_read_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::ByteSize;

    fn device() -> FaultyDevice {
        FaultyDevice::new(DramConfig::stacked(ByteSize::from_mib(1)))
    }

    #[test]
    fn inert_wrapper_matches_bare_dram() {
        let mut bare = Dram::new(DramConfig::stacked(ByteSize::from_mib(1)));
        let mut wrapped = device();
        let mut now = Cycle::ZERO;
        for i in 0..200u64 {
            let a = bare.read_line(now, i % 77);
            let b = wrapped.read_line(now, i % 77);
            assert_eq!(a, b, "diverged at access {i}");
            assert_eq!(wrapped.take_fault(), None);
            now = a;
        }
        assert_eq!(bare.stats(), wrapped.stats());
    }

    #[test]
    fn rate_zero_armed_device_is_still_inert() {
        let mut bare = Dram::new(DramConfig::stacked(ByteSize::from_mib(1)));
        let mut wrapped = device();
        wrapped.arm(FaultConfig::default(), 12345);
        for i in 0..100u64 {
            assert_eq!(
                bare.read_line(Cycle::ZERO, i),
                wrapped.read_line(Cycle::ZERO, i)
            );
            assert_eq!(wrapped.take_fault(), None);
        }
    }

    #[test]
    fn fault_sequence_is_seed_deterministic() {
        let cfg = FaultConfig {
            flip_ppm: 100_000,
            drop_ppm: 100_000,
            delay_ppm: 100_000,
            delay_cycles: 7,
            outage: None,
        };
        let run = |seed| {
            let mut d = device();
            d.arm(cfg, seed);
            (0..500u64)
                .map(|i| {
                    d.read_line(Cycle::ZERO, i % 50);
                    d.take_fault()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds should differ");
        assert!(run(1).iter().any(Option::is_some), "rates high enough");
    }

    #[test]
    fn flip_rate_approximates_ppm() {
        let mut d = device();
        d.arm(
            FaultConfig {
                flip_ppm: 250_000, // one in four
                ..FaultConfig::default()
            },
            9,
        );
        for i in 0..4000u64 {
            d.read_line(Cycle::ZERO, i % 64);
        }
        let flips = d.fault_stats().flips;
        assert!((800..1200).contains(&flips), "got {flips} flips");
    }

    #[test]
    fn every_read_overwrites_pending() {
        let mut d = device();
        d.arm(
            FaultConfig {
                flip_ppm: 1_000_000,
                ..FaultConfig::default()
            },
            3,
        );
        d.read_line(Cycle::ZERO, 0); // attaches a flip...
        d.arm(FaultConfig::default(), 3); // ...rate back to zero
        d.read_line(Cycle::ZERO, 1);
        // arm() cleared it, and the clean read left None.
        assert_eq!(d.take_fault(), None);
    }

    #[test]
    fn clean_read_clears_stale_fault() {
        let mut d = device();
        d.arm(
            FaultConfig {
                flip_ppm: 1_000_000,
                ..FaultConfig::default()
            },
            3,
        );
        d.read_line(Cycle::ZERO, 0);
        assert!(matches!(d.pending, Some(DeviceFault::BitFlip { .. })));
        d.cfg.flip_ppm = 0; // subsequent reads are clean
        d.read_line(Cycle::ZERO, 1);
        assert_eq!(
            d.take_fault(),
            None,
            "a clean read must overwrite the stale fault"
        );
    }

    #[test]
    fn delay_extends_completion() {
        let mut clean = device();
        let mut d = device();
        d.arm(
            FaultConfig {
                delay_ppm: 1_000_000,
                delay_cycles: 123,
                ..FaultConfig::default()
            },
            5,
        );
        let base = clean.read_line(Cycle::ZERO, 0);
        let delayed = d.read_line(Cycle::ZERO, 0);
        assert_eq!(delayed, base + Cycle::new(123));
        assert!(matches!(d.take_fault(), Some(DeviceFault::Delayed { .. })));
    }

    #[test]
    fn outage_defers_reads_and_writes() {
        let mut d = device();
        d.arm(
            FaultConfig {
                outage: Some((100, 5000)),
                ..FaultConfig::default()
            },
            7,
        );
        // Before the window: unaffected.
        assert!(d.read_line(Cycle::ZERO, 0) < Cycle::new(100));
        assert_eq!(d.take_fault(), None);
        // Inside the window: deferred past its end and flagged.
        let r = d.read_line(Cycle::new(200), 1);
        assert!(r >= Cycle::new(5000), "read at {r:?}");
        assert_eq!(d.take_fault(), Some(DeviceFault::Outage));
        let w = d.write_line(Cycle::new(300), 2);
        assert!(w >= Cycle::new(5000), "write at {w:?}");
        assert_eq!(d.take_fault(), None, "writes never attach faults");
        // After the window: unaffected again.
        let late = d.read_line(Cycle::new(6000), 3);
        assert!(late < Cycle::new(7000));
        assert_eq!(d.fault_stats().outage_deferrals, 2);
    }

    #[test]
    fn squashed_reads_never_fault() {
        let mut d = device();
        d.arm(
            FaultConfig {
                flip_ppm: 1_000_000,
                ..FaultConfig::default()
            },
            11,
        );
        d.read_squashed(Cycle::ZERO, 0);
        assert_eq!(d.take_fault(), None);
        assert_eq!(d.fault_stats().flips, 0);
    }

    #[test]
    fn transport_only_strips_flips_and_outage() {
        let cfg = FaultConfig {
            flip_ppm: 10,
            drop_ppm: 20,
            delay_ppm: 30,
            delay_cycles: 9,
            outage: Some((0, 10)),
        };
        let t = cfg.transport_only();
        assert_eq!(t.flip_ppm, 0);
        assert_eq!(t.outage, None);
        assert_eq!(t.drop_ppm, 20);
        assert_eq!(t.delay_ppm, 30);
        assert!(t.is_active());
        assert!(!FaultConfig::default().is_active());
    }

    #[test]
    fn rng_below_is_in_range() {
        let mut rng = FaultRng::new(99);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
