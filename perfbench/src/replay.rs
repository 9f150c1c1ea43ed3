//! Layer replays. The layers inside an organization (`vmem`, `core`,
//! `memsim`) have no boundary the runner calls through, so they are timed
//! by replay: the stream an organization sees is captured at its boundary
//! and fed, in bounded batches, through standalone layer instances built
//! with their public constructors. A replay must reproduce its
//! organization's `OrgResult` sequence exactly; that shows it does the
//! same work the organization did.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cameo::{Cameo, CameoConfig, LltDesign, PredictionCaseCounts, PredictorKind};
use cameo_memsim::{Dram, DramConfig};
use cameo_sim::experiments::{build_org, device_configs, OrgKind};
use cameo_sim::harness::SweepPoint;
use cameo_sim::runner::{trace_configs, RunSession, SessionStatus};
use cameo_sim::{BandwidthReport, MemoryOrganization, OrgResult, RunStats, SimError, SystemConfig};
use cameo_types::{
    Access, ByteSize, Cycle, DeviceKind, LineAddr, MemKind, NopSink, PageAddr, ServiceLocation,
    PAGE_BYTES,
};
use cameo_vmem::{Placement, Vmm, VmmConfig, PAGE_FAULT_CYCLES};
use cameo_workloads::TraceGenerator;

use crate::drive::watchdog_cycles;
use crate::host::Clock;
use crate::workload::CAMEO;

/// Accesses captured per batch before the replay catches up.
const BATCH: u64 = 1 << 16;

/// The seed `build_org` gives an organization's OS and devices.
fn org_seed(cfg: &SystemConfig) -> u64 {
    cfg.seed ^ 0xBEEF
}

/// Host time of one layer call site: total nanoseconds over `calls`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Acc {
    /// Summed raw span time.
    pub ns: u64,
    /// Calls (or items, for batched calls) timed.
    pub calls: u64,
}

impl Acc {
    /// Mean nanoseconds per call, less one clock read's overhead per
    /// span (`per_span` is the overhead divided over a span's items).
    pub fn mean_ns(&self, per_span: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.ns as f64 / self.calls as f64 - per_span).max(0.0)
    }

    /// Folds in another site's time.
    pub fn add(&mut self, other: &Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Replayed layer time in the measured region (prefill aside).
#[derive(Clone, Copy, Default, Debug)]
pub struct ReplayTimes {
    /// `Vmm::translate`.
    pub translate: Acc,
    /// `Vmm::translate_batch` during prefill; calls count pages.
    pub translate_batch: Acc,
    /// `Dram` calls: demand reads and writes plus fault page transfers.
    pub dram: Acc,
    /// `Cameo::access`.
    pub cameo: Acc,
}

/// Runs `f`, adding its span to `acc` when `on`.
#[inline]
fn timed<T>(clock: &Clock, acc: &mut Acc, on: bool, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = clock.now();
    let out = f();
    acc.ns += clock.now() - start;
    acc.calls += 1;
    out
}

/// Standalone layers replaying one organization.
trait Layers {
    fn prefill(&mut self, pages: &[PageAddr]);
    fn access(
        &mut self,
        now: Cycle,
        access: &Access,
        clock: &Clock,
        times: &mut ReplayTimes,
        on: bool,
    ) -> OrgResult;
    fn reset(&mut self);
    fn bandwidth(&self) -> BandwidthReport;
}

/// The Baseline's layers: `Vmm` plus the off-chip `Dram`, with the page
/// fault service of `sim::org::paging`.
struct BaselineLayers {
    vmm: Vmm,
    dram: Dram,
}

impl BaselineLayers {
    fn new(cfg: &SystemConfig) -> Self {
        let off_chip = cfg.off_chip();
        Self {
            vmm: Vmm::new(VmmConfig {
                stacked: ByteSize::ZERO,
                off_chip,
                placement: Placement::Random,
                seed: org_seed(cfg),
            }),
            dram: Dram::new(DramConfig::off_chip(off_chip)),
        }
    }
}

impl Layers for BaselineLayers {
    fn prefill(&mut self, pages: &[PageAddr]) {
        self.vmm.translate_batch(pages, false);
    }

    fn access(
        &mut self,
        now: Cycle,
        access: &Access,
        clock: &Clock,
        times: &mut ReplayTimes,
        on: bool,
    ) -> OrgResult {
        let is_write = access.kind.is_write();
        let t = timed(clock, &mut times.translate, on, || {
            self.vmm.translate(access.line.page(), is_write)
        });
        let dram = &mut self.dram;
        if let Some(fault) = t.fault {
            // A 4 KiB page-in, preceded by the read-out of a dirty victim;
            // the SSD latency dominates the overlapped DRAM transfers.
            let first = t.phys.first_line().raw();
            let page = PAGE_BYTES as u32;
            if fault.evicted.is_some_and(|(_, dirty)| dirty) {
                timed(clock, &mut times.dram, on, || {
                    dram.access(now, first, false, page)
                });
            }
            let done = timed(clock, &mut times.dram, on, || {
                dram.access(now, first, true, page)
            });
            return OrgResult {
                completion: (now + Cycle::new(PAGE_FAULT_CYCLES)).later(done),
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }
        let line = t.phys.line(access.line.offset_in_page()).raw();
        let completion = timed(clock, &mut times.dram, on, || {
            if is_write {
                dram.write_line(now, line)
            } else {
                dram.read_line(now, line)
            }
        });
        OrgResult {
            completion,
            serviced_by: ServiceLocation::OffChip,
            faulted: false,
        }
    }

    fn reset(&mut self) {
        self.dram.reset_stats();
        self.vmm.reset_stats();
    }

    fn bandwidth(&self) -> BandwidthReport {
        BandwidthReport {
            stacked_bytes: 0,
            off_chip_bytes: self.dram.stats().bytes_total(),
            storage_bytes: self.vmm.stats().storage_bytes(),
        }
    }
}

/// CAMEO's layers: the OS's `Vmm` over the visible capacity, plus the
/// `Cameo` controller (which owns its two devices).
struct CameoLayers {
    vmm: Vmm,
    cameo: Cameo,
}

impl CameoLayers {
    fn new(cfg: &SystemConfig) -> Self {
        let (stacked_dev, off_chip_dev) =
            device_configs(DeviceKind::Flat, cfg.stacked(), cfg.off_chip());
        let cameo = Cameo::with_sink_on(
            CameoConfig {
                stacked: stacked_dev.capacity,
                off_chip: off_chip_dev.capacity,
                llt: LltDesign::CoLocated,
                predictor: PredictorKind::Llp,
                cores: cfg.cores,
                llp_entries: cfg.llp_entries,
            },
            stacked_dev,
            off_chip_dev,
            NopSink,
        );
        let vmm = Vmm::new(VmmConfig {
            stacked: ByteSize::ZERO,
            off_chip: cameo.visible_capacity(),
            placement: Placement::Random,
            seed: org_seed(cfg),
        });
        Self { vmm, cameo }
    }
}

impl Layers for CameoLayers {
    fn prefill(&mut self, pages: &[PageAddr]) {
        self.vmm.translate_batch(pages, false);
    }

    fn access(
        &mut self,
        now: Cycle,
        access: &Access,
        clock: &Clock,
        times: &mut ReplayTimes,
        on: bool,
    ) -> OrgResult {
        let t = timed(clock, &mut times.translate, on, || {
            self.vmm
                .translate(access.line.page(), access.kind.is_write())
        });
        let cameo = &mut self.cameo;
        if let Some(fault) = t.fault {
            let first = LineAddr::new(t.phys.first_line().raw());
            if fault.evicted.is_some_and(|(_, dirty)| dirty) {
                cameo.bulk_page_read(now, first);
            }
            cameo.bulk_page_write(now, first);
            return OrgResult {
                completion: now + Cycle::new(PAGE_FAULT_CYCLES),
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }
        let phys = Access {
            line: LineAddr::new(t.phys.line(access.line.offset_in_page()).raw()),
            ..*access
        };
        let r = timed(clock, &mut times.cameo, on, || cameo.access(now, &phys));
        OrgResult {
            completion: r.completion,
            serviced_by: match r.serviced_by {
                MemKind::Stacked => ServiceLocation::Stacked,
                MemKind::OffChip => ServiceLocation::OffChip,
            },
            faulted: false,
        }
    }

    fn reset(&mut self) {
        self.cameo.reset_stats();
        self.vmm.reset_stats();
    }

    fn bandwidth(&self) -> BandwidthReport {
        BandwidthReport {
            stacked_bytes: self.cameo.stacked().stats().bytes_total(),
            off_chip_bytes: self.cameo.off_chip().stats().bytes_total(),
            storage_bytes: self.vmm.stats().storage_bytes(),
        }
    }
}

/// One event seen at the organization boundary.
enum Event {
    Access {
        now: Cycle,
        access: Access,
        result: OrgResult,
    },
    Reset,
}

/// Passes every call through to the organization and records what the
/// replay needs: the prefill pages, each access with its result, and the
/// warmup boundary.
struct Capture {
    inner: Box<dyn MemoryOrganization>,
    prefill: Vec<PageAddr>,
    events: Vec<Event>,
}

impl MemoryOrganization for Capture {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let result = self.inner.access(now, access);
        self.events.push(Event::Access {
            now,
            access: *access,
            result,
        });
        result
    }

    fn visible_capacity(&self) -> ByteSize {
        self.inner.visible_capacity()
    }

    fn bandwidth(&self) -> BandwidthReport {
        self.inner.bandwidth()
    }

    fn faults(&self) -> u64 {
        self.inner.faults()
    }

    fn service_counts(&self) -> (u64, u64) {
        self.inner.service_counts()
    }

    fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
        self.inner.prediction_cases()
    }

    fn migrated_pages(&self) -> u64 {
        self.inner.migrated_pages()
    }

    fn prefill(&mut self, page: PageAddr) {
        self.inner.prefill(page);
        self.prefill.push(page);
    }

    fn prefill_batch(&mut self, pages: &[PageAddr]) {
        self.inner.prefill_batch(pages);
        self.prefill.extend_from_slice(pages);
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.events.push(Event::Reset);
    }
}

/// What replaying one point showed.
#[derive(Debug)]
pub struct Replay {
    /// Accesses replayed (warmup and measured).
    pub accesses: u64,
    /// Accesses whose replayed `OrgResult` differed.
    pub mismatches: u64,
    /// The first difference, for the report.
    pub first_mismatch: Option<String>,
    /// Whether the replay's bus traffic equals the organization's.
    pub bandwidth_matches: bool,
    /// The organization's statistics from the capturing run.
    pub stats: RunStats,
    /// Layer host times.
    pub times: ReplayTimes,
}

impl Replay {
    /// Whether the replay reproduced the organization exactly.
    pub fn matches(&self) -> bool {
        self.mismatches == 0 && self.bandwidth_matches && self.accesses > 0
    }
}

/// Whether `kind` has a replay (Baseline and CAMEO do).
pub fn replayable(kind: OrgKind) -> bool {
    kind == OrgKind::Baseline || kind == CAMEO
}

/// Replays one Baseline or CAMEO point.
///
/// # Errors
///
/// Returns why the capturing run failed (error or panic).
pub fn replay_point(
    point: &SweepPoint,
    cfg: &SystemConfig,
    clock: &Clock,
) -> Result<Replay, String> {
    let run = catch_unwind(AssertUnwindSafe(|| replay_inner(point, cfg, clock)));
    match run {
        Ok(Ok(replay)) => Ok(replay),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err(format!("replay of {} panicked", point.key)),
    }
}

fn replay_inner(point: &SweepPoint, cfg: &SystemConfig, clock: &Clock) -> Result<Replay, SimError> {
    let mut layers: Box<dyn Layers> = if point.kind == OrgKind::Baseline {
        Box::new(BaselineLayers::new(cfg))
    } else {
        Box::new(CameoLayers::new(cfg))
    };
    let bench = cameo_workloads::require(&point.bench)?;
    let mut capture = Capture {
        inner: build_org(&bench, point.kind, cfg),
        prefill: Vec::new(),
        events: Vec::with_capacity(BATCH as usize + 1),
    };
    let streams: Vec<TraceGenerator> = trace_configs(&bench, cfg)
        .into_iter()
        .map(|tc| TraceGenerator::new(bench, tc))
        .collect();
    let mut session = RunSession::new(&bench, cfg, &mut capture, streams)?;

    let mut times = ReplayTimes::default();
    let pages = std::mem::take(&mut capture.prefill);
    timed(clock, &mut times.translate_batch, true, || {
        layers.prefill(&pages)
    });
    times.translate_batch.calls = pages.len() as u64;
    drop(pages);

    let mut measuring = false;
    let mut accesses = 0u64;
    let mut mismatches = 0u64;
    let mut first_mismatch = None;
    let stats = loop {
        let status = session.step(&mut capture, Some(watchdog_cycles(cfg)), BATCH)?;
        for event in capture.events.drain(..) {
            match event {
                Event::Reset => {
                    layers.reset();
                    measuring = true;
                }
                Event::Access {
                    now,
                    access,
                    result,
                } => {
                    let replayed = layers.access(now, &access, clock, &mut times, measuring);
                    if replayed != result {
                        mismatches += 1;
                        first_mismatch.get_or_insert_with(|| {
                            format!("access {accesses}: org {result:?}, replay {replayed:?}")
                        });
                    }
                    accesses += 1;
                }
            }
        }
        if let SessionStatus::Complete(stats) = status {
            break *stats;
        }
    };
    Ok(Replay {
        accesses,
        mismatches,
        first_mismatch,
        bandwidth_matches: layers.bandwidth() == stats.bandwidth,
        stats,
        times,
    })
}
