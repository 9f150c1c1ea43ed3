//! One-call experiment entry points used by the bench binaries and the
//! examples.

use cameo::{LltDesign, PredictorKind};
use cameo_memsim::DramConfig;
use cameo_types::{ByteSize, DetHashMap, DeviceKind, NopSink, PageAddr, TraceSink};
use cameo_vmem::tlm::{DynamicMigrator, FreqMigrator, OracleProfile};
use cameo_workloads::{BenchSpec, TraceGenerator};

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::org::{
    AlloyCacheOrg, BaselineOrg, CameoOrg, DoubleUseOrg, LohHillCacheOrg, MemCacheOrg,
    MemoryOrganization, TlmOrg, TlmPolicy,
};
use crate::runner::{trace_configs, Runner};
use crate::stats::RunStats;
use crate::trace::SharedSink;

pub use crate::stats::gmean;

/// Every design point the paper's figures compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrgKind {
    /// Off-chip memory only.
    Baseline,
    /// Stacked DRAM as an Alloy cache.
    AlloyCache,
    /// Stacked DRAM as a Loh-Hill set-associative DRAM cache with MissMap.
    LhCache,
    /// TLM with random static placement.
    TlmStatic,
    /// TLM with swap-on-touch migration.
    TlmDynamic,
    /// TLM with epoch-based frequency placement.
    TlmFreq,
    /// TLM with profiled oracle placement.
    TlmOracle,
    /// CAMEO with a chosen LLT design and predictor.
    Cameo {
        /// LLT hardware design.
        llt: LltDesign,
        /// Location-prediction scheme.
        predictor: PredictorKind,
    },
    /// The MemCache hybrid: stacked DRAM part OS-visible memory, part
    /// hardware cache, split at a configurable percentage.
    MemCache {
        /// Percentage of stacked capacity that is OS-visible memory.
        split_percent: u8,
    },
    /// The idealistic cache-plus-extra-capacity upper bound.
    DoubleUse,
}

impl OrgKind {
    /// The paper's headline CAMEO configuration: Co-Located LLT + LLP.
    pub fn cameo_default() -> Self {
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::Llp,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::Baseline => "Baseline",
            OrgKind::AlloyCache => "Cache",
            OrgKind::LhCache => "Cache(LH)",
            OrgKind::TlmStatic => "TLM-Static",
            OrgKind::TlmDynamic => "TLM-Dynamic",
            OrgKind::TlmFreq => "TLM-Freq",
            OrgKind::TlmOracle => "TLM-Oracle",
            OrgKind::Cameo {
                llt: LltDesign::Ideal,
                ..
            } => "CAMEO(Ideal-LLT)",
            OrgKind::Cameo {
                llt: LltDesign::Sram,
                ..
            } => "CAMEO(SRAM-LLT)",
            OrgKind::Cameo {
                llt: LltDesign::Embedded,
                ..
            } => "CAMEO(Embedded-LLT)",
            OrgKind::Cameo {
                llt: LltDesign::CoLocated,
                predictor: PredictorKind::SerialAccess,
            } => "CAMEO(SAM)",
            OrgKind::Cameo {
                llt: LltDesign::CoLocated,
                predictor: PredictorKind::Llp,
            } => "CAMEO",
            OrgKind::Cameo {
                llt: LltDesign::CoLocated,
                predictor: PredictorKind::Perfect,
            } => "CAMEO(Perfect)",
            OrgKind::MemCache { split_percent: 25 } => "MemCache@25",
            OrgKind::MemCache { split_percent: 50 } => "MemCache@50",
            OrgKind::MemCache { split_percent: 75 } => "MemCache@75",
            // Ad-hoc splits share one label; only the sweep's three
            // canonical splits are addressable by name.
            OrgKind::MemCache { .. } => "MemCache",
            OrgKind::DoubleUse => "DoubleUse",
        }
    }
}

/// Counts per-page accesses of the exact trace the timed run will replay —
/// the profiling pass TLM-Oracle assumes (paper Section VI-D).
pub fn page_profile(bench: &BenchSpec, config: &SystemConfig) -> Vec<(PageAddr, u64)> {
    let mut counts: DetHashMap<PageAddr, u64> = DetHashMap::default();
    let events_per_core = config.expected_events_per_core(bench.mpki);
    for tc in trace_configs(bench, config) {
        let mut generator = TraceGenerator::new(*bench, tc);
        for _ in 0..events_per_core {
            let e = generator.next_event();
            *counts.entry(e.line.page()).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// The (stacked, off-chip) device models of one point on the device axis.
///
/// `TlDram` tiers the stacked die ([`DramConfig::stacked_tiered`]); the
/// off-chip DDR device stays flat on both axes.
pub fn device_configs(
    device: DeviceKind,
    stacked: ByteSize,
    off_chip: ByteSize,
) -> (DramConfig, DramConfig) {
    let stacked_dev = match device {
        DeviceKind::Flat => DramConfig::stacked(stacked),
        DeviceKind::TlDram => DramConfig::stacked_tiered(stacked),
    };
    (stacked_dev, DramConfig::off_chip(off_chip))
}

/// Builds a fresh organization of `kind` for one benchmark run, on the
/// paper's flat Table I devices.
pub fn build_org(
    bench: &BenchSpec,
    kind: OrgKind,
    config: &SystemConfig,
) -> Box<dyn MemoryOrganization> {
    build_org_on(bench, kind, DeviceKind::Flat, config)
}

/// Builds a fresh organization of `kind` on the chosen device axis.
///
/// [`DeviceKind::Flat`] constructs exactly what [`build_org`] does. The
/// baseline has no stacked device, and the LH cache and DoubleUse sit
/// outside the design-comparison sweep, so those three always use the
/// flat devices regardless of `device`.
pub fn build_org_on(
    bench: &BenchSpec,
    kind: OrgKind,
    device: DeviceKind,
    config: &SystemConfig,
) -> Box<dyn MemoryOrganization> {
    build_with_sink(bench, kind, device, config, NopSink)
}

/// Builds a fresh organization of `kind` with the armed `sink` receiving
/// its trace events.
///
/// The kinds the tracing subsystem instruments — CAMEO (controller events),
/// Alloy (hit-predictor and service events) and the TLM policies (migration
/// and service events) — are constructed around `sink`; the remaining kinds
/// (Baseline, LH cache, DoubleUse) have no emission sites and build exactly
/// as [`build_org`] does, so their armed runs record an empty trace.
pub fn build_org_traced(
    bench: &BenchSpec,
    kind: OrgKind,
    config: &SystemConfig,
    sink: SharedSink,
) -> Box<dyn MemoryOrganization> {
    build_org_traced_on(bench, kind, DeviceKind::Flat, config, sink)
}

/// Builds a fresh traced organization of `kind` on the chosen device
/// axis; the same fallback rules as [`build_org_on`] and
/// [`build_org_traced`] apply.
pub fn build_org_traced_on(
    bench: &BenchSpec,
    kind: OrgKind,
    device: DeviceKind,
    config: &SystemConfig,
    sink: SharedSink,
) -> Box<dyn MemoryOrganization> {
    build_with_sink(bench, kind, device, config, sink)
}

/// The one organization constructor behind the public builders: `sink`
/// is [`NopSink`] for untraced runs (emission compiles away) or an armed
/// [`SharedSink`]. Baseline, LH cache and DoubleUse have no emission
/// sites and drop it.
fn build_with_sink<S: TraceSink + 'static>(
    bench: &BenchSpec,
    kind: OrgKind,
    device: DeviceKind,
    config: &SystemConfig,
    sink: S,
) -> Box<dyn MemoryOrganization> {
    let stacked = config.stacked();
    let off_chip = config.off_chip();
    let (stacked_dev, off_chip_dev) = device_configs(device, stacked, off_chip);
    let seed = config.seed ^ 0xBEEF;
    match kind {
        OrgKind::Baseline => Box::new(BaselineOrg::new(off_chip, seed)),
        OrgKind::AlloyCache => Box::new(AlloyCacheOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            config.cores,
            seed,
            sink,
        )),
        OrgKind::LhCache => Box::new(LohHillCacheOrg::new(stacked, off_chip, seed)),
        OrgKind::TlmStatic => Box::new(TlmOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            TlmPolicy::Static,
            seed,
            sink,
        )),
        OrgKind::TlmDynamic => Box::new(TlmOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            TlmPolicy::Dynamic(DynamicMigrator::new()),
            seed,
            sink,
        )),
        OrgKind::TlmFreq => Box::new(TlmOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            TlmPolicy::Freq(FreqMigrator::new(config.freq_epoch)),
            seed,
            sink,
        )),
        OrgKind::TlmOracle => {
            let profile = OracleProfile::from_counts(page_profile(bench, config), stacked.pages());
            Box::new(TlmOrg::with_sink_on(
                stacked_dev,
                off_chip_dev,
                TlmPolicy::Oracle(profile),
                seed,
                sink,
            ))
        }
        OrgKind::Cameo { llt, predictor } => Box::new(CameoOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            llt,
            predictor,
            config.cores,
            config.llp_entries,
            seed,
            sink,
        )),
        OrgKind::MemCache { split_percent } => Box::new(MemCacheOrg::with_sink_on(
            stacked_dev,
            off_chip_dev,
            split_percent,
            config.cores,
            seed,
            sink,
        )),
        OrgKind::DoubleUse => Box::new(DoubleUseOrg::new(stacked, off_chip, config.cores, seed)),
    }
}

/// Runs one benchmark under one organization and returns its statistics.
///
/// # Panics
///
/// Panics if `config` is invalid; batch code should prefer
/// [`try_run_benchmark`], which reports the problem as a [`SimError`].
pub fn run_benchmark(bench: &BenchSpec, kind: OrgKind, config: &SystemConfig) -> RunStats {
    try_run_benchmark(bench, kind, config, None)
        .expect("configuration must be valid; use try_run_benchmark to handle errors")
}

/// Fallible variant of [`run_benchmark`], with an optional cycle-budget
/// watchdog (see [`Runner::try_run`]).
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid configuration or
/// [`SimError::WatchdogExpired`] when the budget trips.
pub fn try_run_benchmark(
    bench: &BenchSpec,
    kind: OrgKind,
    config: &SystemConfig,
    budget_cycles: Option<u64>,
) -> Result<RunStats, SimError> {
    // Validate before building: an organization may divide by (or size a
    // table from) a field only `Runner::new` checks.
    let runner = Runner::new(*bench, config)?;
    let mut org = build_org(bench, kind, config);
    runner.try_run(org.as_mut(), budget_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SystemConfig {
        SystemConfig {
            scale: 4096,
            cores: 2,
            instructions_per_core: 40_000,
            warmup_fraction: 0.25,
            ..Default::default()
        }
    }

    #[test]
    fn all_orgs_run_astar() {
        let cfg = quick();
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        let kinds = [
            OrgKind::Baseline,
            OrgKind::AlloyCache,
            OrgKind::TlmStatic,
            OrgKind::TlmDynamic,
            OrgKind::TlmFreq,
            OrgKind::TlmOracle,
            OrgKind::cameo_default(),
            OrgKind::MemCache { split_percent: 50 },
            OrgKind::DoubleUse,
        ];
        for kind in kinds {
            let stats = run_benchmark(&bench, kind, &cfg);
            assert!(stats.instructions > 0, "{}", kind.label());
            assert!(stats.execution_cycles > 0, "{}", kind.label());
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error_for_every_org() {
        use crate::checkpoint::PointRecord;
        use crate::config::ConfigError;
        use crate::harness::{run_sweep, SweepOptions, SweepPoint};

        // Each field reaches some organization's constructor as a divisor
        // or a table size, so the config must be validated before any
        // organization is built, on the direct path and in a sweep.
        let kinds = [
            OrgKind::Baseline,
            OrgKind::AlloyCache,
            OrgKind::LhCache,
            OrgKind::TlmStatic,
            OrgKind::TlmDynamic,
            OrgKind::TlmFreq,
            OrgKind::TlmOracle,
            OrgKind::cameo_default(),
            OrgKind::MemCache { split_percent: 50 },
            OrgKind::DoubleUse,
        ];
        let with = |edit: fn(&mut SystemConfig)| {
            let mut config = quick();
            edit(&mut config);
            config
        };
        let cases = [
            (with(|c| c.scale = 0), ConfigError::ZeroScale),
            (with(|c| c.cores = 0), ConfigError::ZeroCores),
            (
                with(|c| c.llp_entries = 3),
                ConfigError::LlpEntriesNotPowerOfTwo(3),
            ),
            (with(|c| c.freq_epoch = 0), ConfigError::ZeroFreqEpoch),
        ];
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        let points: Vec<SweepPoint> = kinds
            .iter()
            .map(|&kind| SweepPoint::new("astar", kind))
            .collect();
        for (config, error) in cases {
            let expected = SimError::Config(error);
            for kind in kinds {
                let direct = try_run_benchmark(&bench, kind, &config, None);
                assert_eq!(direct.err(), Some(expected.clone()), "{}", kind.label());
            }
            let opts = SweepOptions {
                config,
                ..SweepOptions::default()
            };
            let report = run_sweep(&points, &opts, None).expect("no checkpoint to fail");
            for outcome in &report.outcomes {
                let typed = PointRecord::Failed {
                    attempts: 1,
                    error: expected.to_string(),
                };
                assert_eq!(outcome.record, typed, "{}", outcome.point.key);
            }
        }
    }

    #[test]
    fn device_axis_builds_every_swept_org() {
        let cfg = quick();
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        for device in DeviceKind::all() {
            for kind in [
                OrgKind::AlloyCache,
                OrgKind::TlmDynamic,
                OrgKind::cameo_default(),
                OrgKind::MemCache { split_percent: 25 },
                OrgKind::MemCache { split_percent: 75 },
            ] {
                let mut org = build_org_on(&bench, kind, device, &cfg);
                let stats = Runner::new(bench, &cfg)
                    .expect("valid config")
                    .try_run(org.as_mut(), None)
                    .expect("run completes");
                assert!(
                    stats.demand_reads > 0,
                    "{}@{}",
                    kind.label(),
                    device.label()
                );
            }
        }
    }

    #[test]
    fn flat_device_axis_is_identical_to_plain_build() {
        // The device-axis builder with DeviceKind::Flat must construct
        // byte-identical systems to build_org: golden suites depend on it.
        let cfg = quick();
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        for kind in [
            OrgKind::cameo_default(),
            OrgKind::AlloyCache,
            OrgKind::MemCache { split_percent: 50 },
        ] {
            let run = |mut org: Box<dyn MemoryOrganization>| {
                Runner::new(bench, &cfg)
                    .expect("valid config")
                    .try_run(org.as_mut(), None)
                    .expect("run completes")
            };
            let plain = run(build_org(&bench, kind, &cfg));
            let on_flat = run(build_org_on(&bench, kind, DeviceKind::Flat, &cfg));
            assert_eq!(plain, on_flat, "{}", kind.label());
        }
    }

    #[test]
    fn stacked_designs_beat_baseline_on_latency_workload() {
        let cfg = SystemConfig {
            scale: 4096,
            cores: 2,
            instructions_per_core: 200_000,
            ..Default::default()
        };
        let bench = cameo_workloads::require("sphinx3").expect("suite benchmark");
        let baseline = run_benchmark(&bench, OrgKind::Baseline, &cfg);
        for kind in [
            OrgKind::AlloyCache,
            OrgKind::cameo_default(),
            OrgKind::DoubleUse,
        ] {
            let s = run_benchmark(&bench, kind, &cfg);
            let speedup = s.speedup_over(&baseline);
            assert!(
                speedup > 1.0,
                "{} speedup {:.3} not > 1",
                kind.label(),
                speedup
            );
        }
    }

    #[test]
    fn page_profile_covers_trace() {
        let cfg = quick();
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        let profile = page_profile(&bench, &cfg);
        assert!(!profile.is_empty());
        let total: u64 = profile.iter().map(|(_, c)| *c).sum();
        let expected = cfg.expected_events_per_core(bench.mpki) * u64::from(cfg.cores);
        assert_eq!(total, expected);
    }

    #[test]
    fn traced_build_matches_untraced_results() {
        use crate::trace::{SharedSink, TraceOptions};
        let cfg = quick();
        let bench = cameo_workloads::require("astar").expect("suite benchmark");
        for kind in [
            OrgKind::cameo_default(),
            OrgKind::AlloyCache,
            OrgKind::TlmDynamic,
        ] {
            let plain = run_benchmark(&bench, kind, &cfg);
            let sink = SharedSink::new(TraceOptions::default());
            let mut org = build_org_traced(&bench, kind, &cfg, sink.clone());
            let traced = Runner::new(bench, &cfg)
                .expect("valid config")
                .try_run(org.as_mut(), None)
                .expect("run completes");
            assert_eq!(
                plain,
                traced,
                "{}: tracing must not perturb results",
                kind.label()
            );
            let totals = sink.take().totals();
            assert!(totals.serviced() > 0, "{}: no service events", kind.label());
            // The epoch counters agree with the end-of-run aggregates for
            // the post-warmup measured region... plus warmup (events are
            // emitted from cycle zero; stats are reset at the boundary).
            assert!(
                totals.stacked_serviced + totals.off_chip_serviced
                    >= traced.serviced_stacked + traced.serviced_off_chip,
                "{}: event counts below reported aggregates",
                kind.label()
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OrgKind::cameo_default().label(), "CAMEO");
        assert_eq!(OrgKind::AlloyCache.label(), "Cache");
    }
}
