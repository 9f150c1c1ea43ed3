//! The MemCache hybrid organization: stacked DRAM statically partitioned
//! into an OS-visible memory region and a hardware-managed cache region
//! (Bakhshalipour et al. — a direct extension of the paper's design space
//! between "all cache" and "all memory").

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

/// Stacked DRAM split at a configurable ratio: the first `split_percent`
/// of its capacity (page-aligned) is OS-visible fast memory — frames the
/// VMM places like TLM-Static's stacked region — and the remainder is a
/// direct-mapped, line-granularity Alloy-style cache in front of the
/// off-chip region. Both halves live on *one* physical device, so memory
/// traffic and cache traffic contend for the same banks and buses.
#[derive(Clone, Debug)]
pub struct MemCacheOrg<S: TraceSink = NopSink> {
    vmm: Vmm,
    /// The whole stacked die: device lines `0..mem_lines` hold the
    /// OS-visible region, `mem_lines..` host the cache sets.
    stacked: Dram,
    off_chip: Dram,
    mem_lines: u64,
    /// One set per line of the cache region, in front of the off-chip
    /// region's lines.
    directory: AlloyDirectory,
    predictor: HitPredictor,
    name: &'static str,
    hits: u64,
    misses: u64,
    reads_stacked: u64,
    reads_off_chip: u64,
    sink: S,
}

/// Static labels for the sweep's split points, the generic fallback for
/// ad-hoc ratios ([`MemoryOrganization::name`] returns `&'static str`).
fn split_label(split_percent: u8) -> &'static str {
    match split_percent {
        25 => "MemCache@25",
        50 => "MemCache@50",
        75 => "MemCache@75",
        _ => "MemCache",
    }
}

impl MemCacheOrg {
    /// Creates the hybrid: `split_percent`% of `stacked` as OS-visible
    /// memory, the rest as cache over `off_chip`, tracing disabled.
    ///
    /// # Panics
    ///
    /// Panics if `split_percent` is not in `1..=99` or either region
    /// rounds down to zero pages.
    pub fn new(
        stacked: ByteSize,
        off_chip: ByteSize,
        split_percent: u8,
        cores: u16,
        seed: u64,
    ) -> Self {
        Self::with_sink(stacked, off_chip, split_percent, cores, seed, NopSink)
    }
}

impl<S: TraceSink> MemCacheOrg<S> {
    /// Creates the hybrid with trace events emitted into `sink`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MemCacheOrg::new`].
    pub fn with_sink(
        stacked: ByteSize,
        off_chip: ByteSize,
        split_percent: u8,
        cores: u16,
        seed: u64,
        sink: S,
    ) -> Self {
        Self::with_sink_on(
            DramConfig::stacked(stacked),
            DramConfig::off_chip(off_chip),
            split_percent,
            cores,
            seed,
            sink,
        )
    }

    /// Creates the hybrid on explicit device models (e.g. a tiered-latency
    /// TL-DRAM stacked die); capacities are taken from the configs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MemCacheOrg::new`].
    pub fn with_sink_on(
        stacked_dev: DramConfig,
        off_chip_dev: DramConfig,
        split_percent: u8,
        cores: u16,
        seed: u64,
        sink: S,
    ) -> Self {
        assert!(
            (1..=99).contains(&split_percent),
            "split must leave both a memory and a cache region (got {split_percent}%)"
        );
        let stacked = stacked_dev.capacity;
        let off_chip = off_chip_dev.capacity;
        // Page-align the boundary: the OS region must hold whole frames.
        let mem = ByteSize::from_pages(stacked.pages() * u64::from(split_percent) / 100);
        let cache = stacked - mem;
        assert!(mem.pages() > 0, "memory region rounds to zero pages");
        assert!(cache.pages() > 0, "cache region rounds to zero pages");
        Self {
            vmm: Vmm::new(VmmConfig {
                stacked: mem,
                off_chip,
                placement: Placement::Random,
                seed,
            }),
            stacked: Dram::new(stacked_dev),
            off_chip: Dram::new(off_chip_dev),
            mem_lines: mem.lines(),
            directory: AlloyDirectory::new(cache.lines(), off_chip.lines()),
            predictor: HitPredictor::new(cores, 256),
            name: split_label(split_percent),
            hits: 0,
            misses: 0,
            reads_stacked: 0,
            reads_off_chip: 0,
            sink,
        }
    }

    /// Hit rate of the cache region, `None` before any off-chip-region
    /// demand read.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Stacked device line holding cache set `set`.
    #[inline]
    fn set_line(&self, set: u64) -> u64 {
        self.mem_lines + set
    }

    /// Drops cached lines of a recycled off-chip frame (device-local
    /// addressing); their page just went to storage, so no writeback.
    fn invalidate_frame(&mut self, off_first_line: u64) {
        for i in 0..LINES_PER_PAGE as u64 {
            self.directory.invalidate(LineAddr::new(off_first_line + i));
        }
    }

    /// Read of an off-chip-region line through the cache (the Alloy path,
    /// with tags and data in the stacked die's cache region).
    fn cached_read(
        &mut self,
        now: Cycle,
        access: &Access,
        off_line: LineAddr,
    ) -> (Cycle, ServiceLocation) {
        let route = self.predictor.predict(access.core, access.pc);
        let set = self.directory.set_of(off_line);
        let probe_done = self
            .stacked
            .access(now, self.set_line(set), false, TAD_BYTES);
        let hit = self.directory.probe(off_line);
        self.predictor
            .train_traced(access.core, access.pc, hit, now, &mut self.sink);
        if hit {
            self.hits += 1;
            if route == PredictedRoute::Memory {
                // Wasted parallel fetch.
                self.off_chip.read_line(now, off_line.raw());
            }
            return (probe_done, ServiceLocation::Stacked);
        }
        self.misses += 1;
        let fetch_done = match route {
            PredictedRoute::Memory => {
                let parallel = self.off_chip.read_line(now, off_line.raw());
                probe_done.later(parallel)
            }
            PredictedRoute::Cache => self.off_chip.read_line(probe_done, off_line.raw()),
        };
        if let Some(victim) = self.directory.fill(off_line, false) {
            if victim.dirty {
                self.off_chip.write_line(now, victim.line.raw());
            }
        }
        self.stacked
            .access(now, self.set_line(set), true, TAD_BYTES);
        (fetch_done, ServiceLocation::OffChip)
    }

    /// Write of an off-chip-region line: write-hit updates the cached
    /// copy, write-miss goes straight to memory (write-no-allocate).
    fn cached_write(&mut self, now: Cycle, off_line: LineAddr) -> (Cycle, ServiceLocation) {
        let set = self.directory.set_of(off_line);
        let probe_done = self
            .stacked
            .access(now, self.set_line(set), false, TAD_BYTES);
        if self.directory.probe(off_line) {
            self.directory.mark_dirty(off_line);
            let done = self
                .stacked
                .access(probe_done, self.set_line(set), true, TAD_BYTES);
            (done, ServiceLocation::Stacked)
        } else {
            let done = self.off_chip.write_line(probe_done, off_line.raw());
            (done, ServiceLocation::OffChip)
        }
    }

    /// Internal conservation checks, active under `deep-audit` only: the
    /// directory never overflows its region and the service tallies never
    /// disagree with the hit/miss taxonomy.
    #[cfg(feature = "deep-audit")]
    fn audit(&self) {
        assert!(
            self.directory.occupancy() as u64 <= self.directory.sets(),
            "MemCache directory overflowed its cache region: {} > {}",
            self.directory.occupancy(),
            self.directory.sets()
        );
        assert!(
            self.hits + self.misses <= self.reads_stacked + self.reads_off_chip,
            "MemCache cache taxonomy exceeds serviced reads"
        );
    }
}

impl<S: TraceSink> MemoryOrganization for MemCacheOrg<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let is_write = access.kind.is_write();
        let t = self.vmm.translate(access.line.page(), is_write);
        if let Some(fault) = t.fault {
            // The line arrives with the page-in, serviced by the owning
            // device; a recycled off-chip frame drops its cached tags.
            let frame_line = t.phys.first_line().raw();
            let done = if frame_line < self.mem_lines {
                service_fault(&mut self.stacked, now, frame_line, &fault)
            } else {
                let off_first = frame_line - self.mem_lines;
                let done = service_fault(&mut self.off_chip, now, off_first, &fault);
                self.invalidate_frame(off_first);
                done
            };
            return OrgResult {
                completion: done,
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }

        let phys_line = t.phys.line(access.line.offset_in_page()).raw();
        let (completion, serviced_by) = if phys_line < self.mem_lines {
            // OS-visible stacked region: direct access, no metadata.
            let done = self.stacked.access(now, phys_line, is_write, 64);
            (done, ServiceLocation::Stacked)
        } else {
            let off_line = LineAddr::new(phys_line - self.mem_lines);
            if is_write {
                self.cached_write(now, off_line)
            } else {
                self.cached_read(now, access, off_line)
            }
        };

        if !is_write {
            match serviced_by {
                ServiceLocation::Stacked => self.reads_stacked += 1,
                ServiceLocation::OffChip => self.reads_off_chip += 1,
                ServiceLocation::Storage => {}
            }
            if S::ENABLED {
                self.sink.emit(
                    now,
                    TraceEvent::Service {
                        stacked: serviced_by == ServiceLocation::Stacked,
                    },
                );
            }
        }
        #[cfg(feature = "deep-audit")]
        self.audit();
        OrgResult {
            completion,
            serviced_by,
            faulted: false,
        }
    }

    fn visible_capacity(&self) -> ByteSize {
        self.vmm.config().stacked + self.vmm.config().off_chip
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
        (self.reads_stacked, self.reads_off_chip)
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
        self.reads_stacked = 0;
        self.reads_off_chip = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::CoreId;

    fn org(split: u8) -> MemCacheOrg {
        MemCacheOrg::new(ByteSize::from_mib(1), ByteSize::from_mib(3), split, 2, 5)
    }

    #[test]
    fn visible_capacity_includes_memory_region_only() {
        // 50% of 1 MiB is OS-visible stacked memory + 3 MiB off-chip.
        assert_eq!(
            org(50).visible_capacity(),
            ByteSize::from_kib(512) + ByteSize::from_mib(3)
        );
        assert_eq!(
            org(25).visible_capacity(),
            ByteSize::from_kib(256) + ByteSize::from_mib(3)
        );
    }

    #[test]
    fn labels_cover_sweep_splits() {
        assert_eq!(org(25).name(), "MemCache@25");
        assert_eq!(org(50).name(), "MemCache@50");
        assert_eq!(org(75).name(), "MemCache@75");
        assert_eq!(org(40).name(), "MemCache");
    }

    #[test]
    fn off_chip_region_reads_fill_the_cache() {
        let mut o = org(50);
        // Touch enough distinct pages that some land in the off-chip
        // region, then re-read: second reads of off-chip pages must start
        // hitting the cache region.
        let mut now = Cycle::ZERO;
        for round in 0..3 {
            let _ = round;
            for p in 0..300u64 {
                let a = Access::read(CoreId(0), LineAddr::new(p * 64), 0x40);
                now = o.access(now, &a).completion;
            }
        }
        assert!(o.hit_rate().is_some_and(|r| r > 0.0));
        let (stacked, off) = o.service_counts();
        assert!(stacked > 0 && off > 0);
    }

    #[test]
    fn memory_region_line_stays_stacked() {
        let mut o = org(75);
        let a = Access::read(CoreId(0), LineAddr::new(500), 0x40);
        // Fault the page in, then retry until placement is known; pages in
        // the stacked region service from stacked with no cache metadata.
        let r1 = o.access(Cycle::ZERO, &a);
        assert!(r1.faulted);
        let r2 = o.access(r1.completion, &a);
        assert!(!r2.faulted);
        let r3 = o.access(r2.completion, &a);
        assert_eq!(r3.serviced_by, r2.serviced_by);
    }

    #[test]
    fn writes_do_not_allocate_in_cache_region() {
        let mut o = org(50);
        let mut now = Cycle::ZERO;
        // Prefill many pages so some map to the off-chip region, then
        // write without reading: the cache must stay cold.
        for p in 0..200u64 {
            let w = Access::write(CoreId(0), LineAddr::new(p * 64), 0x44);
            now = o.access(now, &w).completion;
            now = o.access(now, &w).completion;
        }
        assert_eq!(o.hit_rate(), None, "no demand reads, no fills");
    }

    #[test]
    #[should_panic(expected = "split must leave")]
    fn degenerate_split_rejected() {
        org(0);
    }

    #[test]
    fn tiered_stacked_device_composes() {
        let stacked = ByteSize::from_mib(1);
        let o: MemCacheOrg = MemCacheOrg::with_sink_on(
            DramConfig::stacked_tiered(stacked),
            DramConfig::off_chip(ByteSize::from_mib(3)),
            50,
            2,
            5,
            NopSink,
        );
        assert_eq!(o.name(), "MemCache@50");
    }
}
