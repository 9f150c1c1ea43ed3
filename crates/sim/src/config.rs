//! System configuration (paper Table I, with a capacity scale factor).

use cameo_types::ByteSize;

/// A degenerate [`SystemConfig`] value, reported instead of panicking so
/// batch harnesses can surface the problem and keep sweeping.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ConfigError {
    /// `scale` was zero.
    ZeroScale,
    /// `scale` was not a power of two, or above [`SystemConfig::MAX_SCALE`]
    /// (the carried value).
    InvalidScale(u64),
    /// `cores` was zero.
    ZeroCores,
    /// `instructions_per_core` was zero.
    ZeroInstructions,
    /// `warmup_fraction` was outside `[0, 0.9]` (the carried value).
    WarmupOutOfRange(f64),
    /// `mlp` was zero.
    ZeroMlp,
    /// `mlp` was above [`SystemConfig::MAX_MLP`] (the carried value).
    MlpTooLarge(usize),
    /// `ipc` was not a positive finite number (the carried value).
    InvalidIpc(f64),
    /// `llp_entries` was not a power of two (the carried value).
    LlpEntriesNotPowerOfTwo(usize),
    /// `freq_epoch` was zero.
    ZeroFreqEpoch,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroScale => f.write_str("scale must be positive"),
            ConfigError::InvalidScale(v) => write!(
                f,
                "scale {v} must be a power of two no larger than {}",
                SystemConfig::MAX_SCALE
            ),
            ConfigError::ZeroCores => f.write_str("need at least one core"),
            ConfigError::ZeroInstructions => f.write_str("need instructions"),
            ConfigError::WarmupOutOfRange(v) => {
                write!(f, "warmup fraction {v} outside [0, 0.9]")
            }
            ConfigError::ZeroMlp => f.write_str("MLP must be positive"),
            ConfigError::MlpTooLarge(v) => {
                write!(f, "MLP {v} is above the largest, {}", SystemConfig::MAX_MLP)
            }
            ConfigError::InvalidIpc(v) => write!(f, "IPC {v} must be positive and finite"),
            ConfigError::LlpEntriesNotPowerOfTwo(v) => {
                write!(f, "LLP table size {v} must be a power of two")
            }
            ConfigError::ZeroFreqEpoch => f.write_str("freq epoch must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The simulated system: the paper's Table I machine with all capacities
/// (memories, L3, workload footprints) divided by [`SystemConfig::scale`].
///
/// The 1:3 stacked:off-chip ratio, line/page sizes and all timing
/// parameters are scale-invariant, so workload classifications and the
/// relative behaviour of the designs are preserved (see DESIGN.md).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SystemConfig {
    /// Capacity scale factor (64 ⇒ 64 MiB stacked + 192 MiB off-chip).
    pub scale: u64,
    /// Simulated cores running rate-mode copies (paper: 32).
    pub cores: u16,
    /// Instructions each core retires in the measured region.
    pub instructions_per_core: u64,
    /// Fraction of per-core instructions used to warm caches, the LLT and
    /// the page tables before measurement starts.
    pub warmup_fraction: f64,
    /// Maximum overlapped memory requests per core (memory-level
    /// parallelism of the 2-wide out-of-order cores).
    pub mlp: usize,
    /// Base IPC when not stalled on memory.
    pub ipc: f64,
    /// Deterministic seed for workloads and OS placement.
    pub seed: u64,
    /// LLP table entries per core.
    pub llp_entries: usize,
    /// TLM-Freq rebalance epoch, in memory accesses.
    pub freq_epoch: u64,
}

impl SystemConfig {
    /// Full-scale stacked capacity (4 GiB).
    pub const FULL_STACKED: ByteSize = ByteSize::from_gib(4);
    /// Full-scale off-chip capacity (12 GiB).
    pub const FULL_OFF_CHIP: ByteSize = ByteSize::from_gib(12);
    /// The largest scale every organization builds at: 2^18 leaves 16 KiB
    /// stacked (four pages) and 48 KiB off-chip. Above it a MemCache
    /// split's memory region rounds to zero pages, and at 2^22 the
    /// baseline's frame pool is empty.
    pub const MAX_SCALE: u64 = 1 << 18;
    /// The largest `mlp`: every core allocates a window of `mlp`
    /// completion times, 8 KiB per core at the cap, where an unbounded
    /// value asked for more memory than exists. The paper's cores overlap
    /// 4 requests (the default).
    pub const MAX_MLP: usize = 1024;

    /// Scaled stacked-DRAM capacity.
    pub fn stacked(&self) -> ByteSize {
        Self::FULL_STACKED.scale_down(self.scale)
    }

    /// Scaled off-chip capacity.
    pub fn off_chip(&self) -> ByteSize {
        Self::FULL_OFF_CHIP.scale_down(self.scale)
    }

    /// Scaled total memory.
    pub fn total_memory(&self) -> ByteSize {
        self.stacked() + self.off_chip()
    }

    /// Events (post-L3 misses) a core is expected to generate, for sizing
    /// warmup.
    pub fn expected_events_per_core(&self, mpki: f64) -> u64 {
        (self.instructions_per_core as f64 * mpki / 1000.0) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first degenerate value found (zero
    /// scale/cores/instructions, a scale that is not a power of two or is
    /// above [`SystemConfig::MAX_SCALE`], warmup outside `[0, 0.9]`, an
    /// `mlp` of zero or above [`SystemConfig::MAX_MLP`], non-power-of-two
    /// LLP table, ...) as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.scale == 0 {
            return Err(ConfigError::ZeroScale);
        }
        // Capacities divide by the scale: a power of two keeps every
        // scaled capacity a whole number of lines (CAMEO needs off-chip
        // to be a whole multiple of stacked), and past the cap some
        // organization's smallest region is empty.
        if !self.scale.is_power_of_two() || self.scale > Self::MAX_SCALE {
            return Err(ConfigError::InvalidScale(self.scale));
        }
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.instructions_per_core == 0 {
            return Err(ConfigError::ZeroInstructions);
        }
        if !(0.0..=0.9).contains(&self.warmup_fraction) {
            return Err(ConfigError::WarmupOutOfRange(self.warmup_fraction));
        }
        if self.mlp == 0 {
            return Err(ConfigError::ZeroMlp);
        }
        if self.mlp > Self::MAX_MLP {
            return Err(ConfigError::MlpTooLarge(self.mlp));
        }
        // Written so that NaN fails too: every comparison with NaN is false.
        if !(self.ipc > 0.0 && self.ipc.is_finite()) {
            return Err(ConfigError::InvalidIpc(self.ipc));
        }
        if !self.llp_entries.is_power_of_two() {
            return Err(ConfigError::LlpEntriesNotPowerOfTwo(self.llp_entries));
        }
        if self.freq_epoch == 0 {
            return Err(ConfigError::ZeroFreqEpoch);
        }
        Ok(())
    }
}

impl SystemConfig {
    /// The paper's full-scale configuration: scale 1 (4 GiB + 12 GiB),
    /// 32 cores, 20 B instructions per core. **Orders of magnitude more
    /// expensive to simulate** than the scaled default — provided for
    /// completeness and for cluster-scale runs, not for laptops.
    pub fn paper() -> Self {
        Self {
            scale: 1,
            cores: 32,
            instructions_per_core: 20_000_000_000 / 32,
            ..Self::default()
        }
    }
}

impl Default for SystemConfig {
    /// The default experiment configuration: 1/128 capacity scale, 16
    /// rate-mode cores at IPC 2 (the paper's 2-wide cores), 12 M
    /// instructions per core (30% warmup). Scale and slice length are
    /// calibrated together so the measured region sweeps streaming
    /// footprints at least once, preserving the paper's touches-per-line
    /// reuse ratio; core count and IPC set the baseline's memory-boundness
    /// (see DESIGN.md and EXPERIMENTS.md).
    fn default() -> Self {
        Self {
            scale: 128,
            cores: 16,
            instructions_per_core: 12_000_000,
            warmup_fraction: 0.3,
            mlp: 4,
            ipc: 2.0,
            seed: 42,
            llp_entries: 256,
            freq_epoch: 50_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_scaled() {
        let c = SystemConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.stacked(), ByteSize::from_mib(32));
        assert_eq!(c.off_chip(), ByteSize::from_mib(96));
        assert_eq!(c.total_memory() / c.stacked(), 4);
    }

    #[test]
    fn expected_events() {
        let c = SystemConfig {
            instructions_per_core: 1_000_000,
            ..Default::default()
        };
        assert_eq!(c.expected_events_per_core(20.0), 20_000);
    }

    #[test]
    fn paper_preset_is_full_scale() {
        let c = SystemConfig::paper();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.stacked(), ByteSize::from_gib(4));
        assert_eq!(c.off_chip(), ByteSize::from_gib(12));
        assert_eq!(c.cores, 32);
        // 20 B instructions split over 32 cores.
        assert_eq!(c.instructions_per_core * u64::from(c.cores), 20_000_000_000);
    }

    #[test]
    fn scales_are_powers_of_two_up_to_the_cap() {
        for scale in [1, 2, 128, 8192, SystemConfig::MAX_SCALE] {
            let c = SystemConfig {
                scale,
                ..Default::default()
            };
            assert_eq!(c.validate(), Ok(()), "scale {scale}");
        }
    }

    #[test]
    fn degenerate_values_rejected() {
        let base = SystemConfig::default();
        let at_cap = SystemConfig {
            mlp: SystemConfig::MAX_MLP,
            ..base
        };
        assert_eq!(at_cap.validate(), Ok(()));
        let cases = [
            (SystemConfig { scale: 0, ..base }, ConfigError::ZeroScale),
            (
                SystemConfig { scale: 3, ..base },
                ConfigError::InvalidScale(3),
            ),
            (
                SystemConfig { scale: 96, ..base },
                ConfigError::InvalidScale(96),
            ),
            (
                SystemConfig {
                    scale: 1 << 19,
                    ..base
                },
                ConfigError::InvalidScale(1 << 19),
            ),
            (
                SystemConfig {
                    scale: 1 << 22,
                    ..base
                },
                ConfigError::InvalidScale(1 << 22),
            ),
            (SystemConfig { cores: 0, ..base }, ConfigError::ZeroCores),
            (
                SystemConfig {
                    instructions_per_core: 0,
                    ..base
                },
                ConfigError::ZeroInstructions,
            ),
            (
                SystemConfig {
                    warmup_fraction: 0.95,
                    ..base
                },
                ConfigError::WarmupOutOfRange(0.95),
            ),
            (SystemConfig { mlp: 0, ..base }, ConfigError::ZeroMlp),
            (
                SystemConfig {
                    mlp: SystemConfig::MAX_MLP + 1,
                    ..base
                },
                ConfigError::MlpTooLarge(SystemConfig::MAX_MLP + 1),
            ),
            (
                SystemConfig {
                    mlp: 1 << 60,
                    ..base
                },
                ConfigError::MlpTooLarge(1 << 60),
            ),
            (
                SystemConfig { ipc: 0.0, ..base },
                ConfigError::InvalidIpc(0.0),
            ),
            (
                SystemConfig {
                    ipc: f64::NAN,
                    ..base
                },
                ConfigError::InvalidIpc(f64::NAN),
            ),
            (
                SystemConfig {
                    ipc: f64::INFINITY,
                    ..base
                },
                ConfigError::InvalidIpc(f64::INFINITY),
            ),
            (
                SystemConfig {
                    llp_entries: 48,
                    ..base
                },
                ConfigError::LlpEntriesNotPowerOfTwo(48),
            ),
            (
                SystemConfig {
                    freq_epoch: 0,
                    ..base
                },
                ConfigError::ZeroFreqEpoch,
            ),
        ];
        for (cfg, want) in cases {
            // Compared as text: a NaN payload is never equal to itself.
            assert_eq!(
                format!("{:?}", cfg.validate()),
                format!("{:?}", Err::<(), _>(want))
            );
            assert!(!want.to_string().is_empty());
        }
    }
}
