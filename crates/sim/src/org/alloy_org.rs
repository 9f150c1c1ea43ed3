//! Stacked DRAM as a hardware cache: the Alloy Cache organization
//! (paper Section II-A, baseline "Cache" bars).

use cameo_cachesim::alloy::{AlloyDirectory, HitPredictor, PredictedRoute, TAD_BYTES};
use cameo_memsim::{Dram, DramConfig};
use cameo_types::{
    Access, ByteSize, Cycle, LineAddr, NopSink, ServiceLocation, TraceEvent, TraceSink,
    LINES_PER_PAGE,
};
use cameo_vmem::{Placement, Vmm, VmmConfig};

use crate::org::paging::service_fault;
use crate::org::{MemoryOrganization, OrgResult};
use crate::stats::BandwidthReport;

/// Stacked DRAM organized as a direct-mapped, line-granularity Alloy cache
/// in front of off-chip memory. The stacked capacity is *not* part of the
/// OS address space — that is exactly the deficiency CAMEO fixes.
#[derive(Clone, Debug)]
pub struct AlloyCacheOrg<S: TraceSink = NopSink> {
    vmm: Vmm,
    stacked: Dram,
    off_chip: Dram,
    directory: AlloyDirectory,
    predictor: HitPredictor,
    hits: u64,
    misses: u64,
    sink: S,
}

impl AlloyCacheOrg {
    /// Creates the organization: `stacked` bytes of cache over `off_chip`
    /// bytes of visible memory, tracing disabled.
    pub fn new(stacked: ByteSize, off_chip: ByteSize, cores: u16, seed: u64) -> Self {
        Self::with_sink(stacked, off_chip, cores, seed, NopSink)
    }

    /// Builds with an existing VMM (used by DoubleUse, whose visible memory
    /// is enlarged).
    pub(crate) fn with_vmm(
        vmm: Vmm,
        stacked: ByteSize,
        off_chip_capacity: ByteSize,
        cores: u16,
    ) -> Self {
        Self {
            vmm,
            stacked: Dram::new(DramConfig::stacked(stacked)),
            off_chip: Dram::new(DramConfig::off_chip(off_chip_capacity)),
            directory: AlloyDirectory::new(stacked.lines(), off_chip_capacity.lines()),
            predictor: HitPredictor::new(cores, 256),
            hits: 0,
            misses: 0,
            sink: NopSink,
        }
    }
}

impl<S: TraceSink> AlloyCacheOrg<S> {
    /// Creates the organization with trace events emitted into `sink`.
    pub fn with_sink(
        stacked: ByteSize,
        off_chip: ByteSize,
        cores: u16,
        seed: u64,
        sink: S,
    ) -> Self {
        Self::with_sink_on(
            DramConfig::stacked(stacked),
            DramConfig::off_chip(off_chip),
            cores,
            seed,
            sink,
        )
    }

    /// Creates the organization on explicit device models (e.g. a
    /// tiered-latency TL-DRAM stacked die); capacities are taken from the
    /// configs.
    pub fn with_sink_on(
        stacked_dev: DramConfig,
        off_chip_dev: DramConfig,
        cores: u16,
        seed: u64,
        sink: S,
    ) -> Self {
        let stacked = stacked_dev.capacity;
        let off_chip = off_chip_dev.capacity;
        Self {
            vmm: Vmm::new(VmmConfig {
                stacked: ByteSize::ZERO,
                off_chip,
                placement: Placement::Random,
                seed,
            }),
            stacked: Dram::new(stacked_dev),
            off_chip: Dram::new(off_chip_dev),
            directory: AlloyDirectory::new(stacked.lines(), off_chip.lines()),
            predictor: HitPredictor::new(cores, 256),
            hits: 0,
            misses: 0,
            sink,
        }
    }

    /// Hit rate of the DRAM cache, `None` before any demand read.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// On a page fault, the frame's previous contents are invalid: drop any
    /// cached lines of the recycled physical frame. Their dirty data needs
    /// no writeback — the page they belonged to just went to storage.
    fn invalidate_frame(&mut self, frame_first_line: u64) {
        for i in 0..LINES_PER_PAGE as u64 {
            self.directory
                .invalidate(LineAddr::new(frame_first_line + i));
        }
    }

    fn read(&mut self, now: Cycle, access: &Access, phys: LineAddr) -> (Cycle, ServiceLocation) {
        let route = self.predictor.predict(access.core, access.pc);
        // The TAD probe always happens (tag is in the cache row).
        let set = self.directory.set_of(phys);
        let probe_done = self.stacked.access(now, set, false, TAD_BYTES);
        let hit = self.directory.probe(phys);
        self.predictor
            .train_traced(access.core, access.pc, hit, now, &mut self.sink);
        if hit {
            self.hits += 1;
            if route == PredictedRoute::Memory {
                // Wasted parallel fetch.
                self.off_chip.read_line(now, phys.raw());
            }
            return (probe_done, ServiceLocation::Stacked);
        }
        self.misses += 1;
        let fetch_done = match route {
            PredictedRoute::Memory => {
                let parallel = self.off_chip.read_line(now, phys.raw());
                probe_done.later(parallel)
            }
            PredictedRoute::Cache => self.off_chip.read_line(probe_done, phys.raw()),
        };
        // Fill the line; write back the displaced dirty victim.
        if let Some(victim) = self.directory.fill(phys, false) {
            if victim.dirty {
                self.off_chip.write_line(now, victim.line.raw());
            }
        }
        self.stacked.access(now, set, true, TAD_BYTES);
        (fetch_done, ServiceLocation::OffChip)
    }

    fn write(&mut self, now: Cycle, phys: LineAddr) -> (Cycle, ServiceLocation) {
        let set = self.directory.set_of(phys);
        let probe_done = self.stacked.access(now, set, false, TAD_BYTES);
        if self.directory.probe(phys) {
            self.directory.mark_dirty(phys);
            let done = self.stacked.access(probe_done, set, true, TAD_BYTES);
            (done, ServiceLocation::Stacked)
        } else {
            // Write-no-allocate: update memory directly.
            let done = self.off_chip.write_line(probe_done, phys.raw());
            (done, ServiceLocation::OffChip)
        }
    }
}

impl<S: TraceSink> MemoryOrganization for AlloyCacheOrg<S> {
    fn name(&self) -> &'static str {
        "Cache(Alloy)"
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let t = self
            .vmm
            .translate(access.line.page(), access.kind.is_write());
        if let Some(fault) = t.fault {
            // The line arrives with the page-in; recycled-frame tags are
            // dropped and no demand access reaches the cache or memory.
            let done = service_fault(&mut self.off_chip, now, t.phys.first_line().raw(), &fault);
            self.invalidate_frame(t.phys.first_line().raw());
            return OrgResult {
                completion: done,
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }
        let phys = LineAddr::new(t.phys.line(access.line.offset_in_page()).raw());
        let (completion, serviced_by) = if access.kind.is_write() {
            self.write(now, phys)
        } else {
            self.read(now, access, phys)
        };
        if S::ENABLED && !access.kind.is_write() {
            self.sink.emit(
                now,
                TraceEvent::Service {
                    stacked: serviced_by == ServiceLocation::Stacked,
                },
            );
        }
        OrgResult {
            completion,
            serviced_by,
            faulted: false,
        }
    }

    fn visible_capacity(&self) -> ByteSize {
        self.vmm.config().off_chip
    }

    fn bandwidth(&self) -> BandwidthReport {
        BandwidthReport {
            stacked_bytes: self.stacked.stats().bytes_total(),
            off_chip_bytes: self.off_chip.stats().bytes_total(),
            storage_bytes: self.vmm.stats().storage_bytes(),
        }
    }

    fn faults(&self) -> u64 {
        self.vmm.stats().faults
    }

    fn service_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn prefill(&mut self, page: cameo_types::PageAddr) {
        self.vmm.translate(page, false);
    }

    fn prefill_batch(&mut self, pages: &[cameo_types::PageAddr]) {
        self.vmm.translate_batch(pages, false);
    }

    fn reset_stats(&mut self) {
        self.stacked.reset_stats();
        self.off_chip.reset_stats();
        self.vmm.reset_stats();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::CoreId;

    fn org() -> AlloyCacheOrg {
        AlloyCacheOrg::new(ByteSize::from_mib(1), ByteSize::from_mib(3), 2, 5)
    }

    #[test]
    fn second_access_hits_cache() {
        let mut o = org();
        let a = Access::read(CoreId(0), LineAddr::new(500), 0x40);
        let r1 = o.access(Cycle::ZERO, &a);
        assert!(r1.faulted); // page-in; the cache is not touched
        let r2 = o.access(r1.completion, &a);
        assert_eq!(r2.serviced_by, ServiceLocation::OffChip); // cold miss fills
        let r3 = o.access(r2.completion, &a);
        assert_eq!(r3.serviced_by, ServiceLocation::Stacked);
        assert_eq!(o.hit_rate(), Some(0.5));
    }

    #[test]
    fn cache_hit_is_faster_than_miss() {
        let mut o = org();
        let a = Access::read(CoreId(0), LineAddr::new(500), 0x40);
        let r1 = o.access(Cycle::ZERO, &a); // page fault (no fill)
        let t0 = r1.completion;
        let miss = o.access(t0, &a).completion - t0; // cold miss, fills
        let t1 = t0 + miss;
        let hit = o.access(t1, &a).completion - t1;
        assert!(hit < miss);
    }

    #[test]
    fn visible_capacity_excludes_stacked() {
        assert_eq!(org().visible_capacity(), ByteSize::from_mib(3));
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut o = org();
        let w = Access::write(CoreId(0), LineAddr::new(128), 0x44);
        let r1 = o.access(Cycle::ZERO, &w);
        let r2 = o.access(r1.completion, &w);
        assert_eq!(r2.serviced_by, ServiceLocation::OffChip);
        // A read after the writes still misses (no allocation happened).
        let rd = o.access(
            r2.completion,
            &Access::read(CoreId(0), LineAddr::new(128), 0x44),
        );
        assert_eq!(rd.serviced_by, ServiceLocation::OffChip);
    }
}
