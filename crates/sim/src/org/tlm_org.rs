//! Two-Level Memory organizations: stacked DRAM as OS-visible fast memory
//! (paper Sections II-B/C and VI-D).

use cameo_memsim::{Dram, DramConfig};
use cameo_types::{
    Access, ByteSize, Cycle, Divisor, NopSink, PageAddr, ServiceLocation, TraceEvent, TraceSink,
    PAGE_BYTES,
};
use cameo_vmem::tlm::{DynamicMigrator, FreqMigrator, MigrationTraffic, OracleProfile};
use cameo_vmem::{Placement, Vmm, VmmConfig};

use crate::org::paging::service_fault;
use crate::org::{MemoryOrganization, OrgResult};
use crate::stats::BandwidthReport;

/// The OS page-placement policy of a TLM system.
#[derive(Clone, Debug)]
pub enum TlmPolicy {
    /// Locality-oblivious random placement across both regions.
    Static,
    /// Swap-on-touch page migration into stacked memory.
    Dynamic(DynamicMigrator),
    /// Epoch-based promotion of the hottest pages.
    Freq(FreqMigrator),
    /// Profiled placement: hot pages are faulted straight into stacked
    /// frames and never migrate.
    Oracle(OracleProfile),
}

impl TlmPolicy {
    fn label(&self) -> &'static str {
        match self {
            TlmPolicy::Static => "TLM-Static",
            TlmPolicy::Dynamic(_) => "TLM-Dynamic",
            TlmPolicy::Freq(_) => "TLM-Freq",
            TlmPolicy::Oracle(_) => "TLM-Oracle",
        }
    }
}

/// A Two-Level Memory system: both device capacities are OS-visible;
/// frames `0..stacked_pages` live in stacked DRAM.
#[derive(Clone, Debug)]
pub struct TlmOrg<S: TraceSink = NopSink> {
    vmm: Vmm,
    stacked: Dram,
    off_chip: Dram,
    stacked_lines: u64,
    /// Each device's line count (at least one), preprocessed so that
    /// wrapping a migration address onto the device takes no divide.
    stacked_span: Divisor,
    off_chip_span: Divisor,
    policy: TlmPolicy,
    reads_stacked: u64,
    reads_off_chip: u64,
    migrated_pages: u64,
    /// Migration bytes awaiting issue on each device (drained a chunk at a
    /// time so a large rebalance batch spreads over the epoch instead of
    /// monopolizing a bus at one instant).
    pending_stacked_bytes: u64,
    pending_off_bytes: u64,
    /// Rotates the addresses migration chunks are charged to, spreading
    /// them over channels and banks.
    migration_cursor: u64,
    sink: S,
}

impl TlmOrg {
    /// Creates a TLM system with the given policy, tracing disabled.
    pub fn new(stacked: ByteSize, off_chip: ByteSize, policy: TlmPolicy, seed: u64) -> Self {
        Self::with_sink(stacked, off_chip, policy, seed, NopSink)
    }
}

impl<S: TraceSink> TlmOrg<S> {
    /// Creates a TLM system emitting trace events into `sink`.
    pub fn with_sink(
        stacked: ByteSize,
        off_chip: ByteSize,
        policy: TlmPolicy,
        seed: u64,
        sink: S,
    ) -> Self {
        Self::with_sink_on(
            DramConfig::stacked(stacked),
            DramConfig::off_chip(off_chip),
            policy,
            seed,
            sink,
        )
    }

    /// Creates a TLM system on explicit device models (e.g. a
    /// tiered-latency TL-DRAM stacked die); capacities are taken from the
    /// configs.
    pub fn with_sink_on(
        stacked_dev: DramConfig,
        off_chip_dev: DramConfig,
        policy: TlmPolicy,
        seed: u64,
        sink: S,
    ) -> Self {
        let stacked = stacked_dev.capacity;
        let off_chip = off_chip_dev.capacity;
        let placement = match policy {
            // Oracle decides per page at fault time; others place randomly.
            TlmPolicy::Oracle(_) => Placement::OffChipFirst,
            _ => Placement::Random,
        };
        Self {
            vmm: Vmm::new(VmmConfig {
                stacked,
                off_chip,
                placement,
                seed,
            }),
            stacked: Dram::new(stacked_dev),
            off_chip: Dram::new(off_chip_dev),
            stacked_lines: stacked.lines(),
            stacked_span: Divisor::new(stacked.lines().max(1)),
            off_chip_span: Divisor::new(off_chip.lines().max(1)),
            policy,
            reads_stacked: 0,
            reads_off_chip: 0,
            migrated_pages: 0,
            pending_stacked_bytes: 0,
            pending_off_bytes: 0,
            migration_cursor: 0,
            sink,
        }
    }

    /// Routes a physical line to its device and performs the access.
    fn device_access(
        &mut self,
        now: Cycle,
        phys_line: u64,
        is_write: bool,
    ) -> (Cycle, ServiceLocation) {
        if phys_line < self.stacked_lines {
            let done = self.stacked.access(now, phys_line, is_write, 64);
            (done, ServiceLocation::Stacked)
        } else {
            let done = self
                .off_chip
                .access(now, phys_line - self.stacked_lines, is_write, 64);
            (done, ServiceLocation::OffChip)
        }
    }

    /// Charges a swap-on-touch migration immediately: TLM-Dynamic's page
    /// swap is demand-coupled ("both memory modules must read and write the
    /// respective 4 KB pages"), so its traffic contends with the access
    /// stream right away.
    fn charge_migration_now(&mut self, now: Cycle, traffic: &MigrationTraffic, page: PageAddr) {
        self.migrated_pages += u64::from(traffic.pages_moved);
        let stacked_line = self.stacked_span.remainder(page.first_line().raw());
        let mut remaining = traffic.stacked_bytes;
        let mut write = true;
        while remaining > 0 {
            let chunk = remaining.min(PAGE_BYTES as u64) as u32;
            self.stacked.access(now, stacked_line, write, chunk);
            write = !write;
            remaining -= u64::from(chunk);
        }
        let off_line = self.off_chip_span.remainder(page.first_line().raw());
        let mut remaining = traffic.off_chip_bytes;
        let mut write = false;
        while remaining > 0 {
            let chunk = remaining.min(PAGE_BYTES as u64) as u32;
            self.off_chip.access(now, off_line, write, chunk);
            write = !write;
            remaining -= u64::from(chunk);
        }
    }

    /// Queues epoch-rebalance traffic; it is drained in page-sized chunks
    /// by [`TlmOrg::drain_migration`] on subsequent accesses, so a large
    /// TLM-Freq batch spreads over the epoch the way an OS migration daemon
    /// would, instead of monopolizing a bus at one instant.
    fn charge_migration(&mut self, now: Cycle, traffic: &MigrationTraffic, page: PageAddr) {
        let _ = page;
        self.migrated_pages += u64::from(traffic.pages_moved);
        self.pending_stacked_bytes += traffic.stacked_bytes;
        self.pending_off_bytes += traffic.off_chip_bytes;
        self.drain_migration(now);
    }

    /// Issues at most one page-sized chunk of pending migration traffic per
    /// device, alternating read/write and rotating addresses across rows so
    /// the load spreads over channels and banks.
    fn drain_migration(&mut self, now: Cycle) {
        self.migration_cursor = self.migration_cursor.wrapping_add(1);
        // 32-line stride = one DRAM row: consecutive chunks land on
        // different channels under the row-interleaved mapping.
        let stride = self.migration_cursor * 32;
        if self.pending_stacked_bytes > 0 {
            let chunk = self.pending_stacked_bytes.min(PAGE_BYTES as u64) as u32;
            let line = self.stacked_span.remainder(stride);
            let write = self.migration_cursor.is_multiple_of(2);
            self.stacked.access(now, line, write, chunk);
            self.pending_stacked_bytes -= u64::from(chunk);
        }
        if self.pending_off_bytes > 0 {
            let chunk = self.pending_off_bytes.min(PAGE_BYTES as u64) as u32;
            let line = self.off_chip_span.remainder(stride);
            let write = self.migration_cursor % 2 == 1;
            self.off_chip.access(now, line, write, chunk);
            self.pending_off_bytes -= u64::from(chunk);
        }
    }
}

impl<S: TraceSink> MemoryOrganization for TlmOrg<S> {
    fn name(&self) -> &'static str {
        self.policy.label()
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let page = access.line.page();
        let is_write = access.kind.is_write();
        // Oracle steers hot pages into stacked frames at fault time.
        let t = match &self.policy {
            TlmPolicy::Oracle(profile) => {
                let region = profile.region_for(page);
                self.vmm.translate_in(page, is_write, region)
            }
            _ => self.vmm.translate(page, is_write),
        };
        if let Some(fault) = t.fault {
            // The line arrives with the page-in; the OS placement at fault
            // time stands in for migration on this touch.
            let frame_line = t.phys.first_line().raw();
            let done = if frame_line < self.stacked_lines {
                service_fault(&mut self.stacked, now, frame_line, &fault)
            } else {
                service_fault(
                    &mut self.off_chip,
                    now,
                    frame_line - self.stacked_lines,
                    &fault,
                )
            };
            return OrgResult {
                completion: done,
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }

        let phys_line = t.phys.line(access.line.offset_in_page()).raw();
        let (completion, serviced_by) = self.device_access(now, phys_line, is_write);
        self.drain_migration(now);

        // Post-access migration (uses the *post-translation* frame). The
        // policy is temporarily moved out so it can borrow the VMM and the
        // devices independently.
        let mut policy = std::mem::replace(&mut self.policy, TlmPolicy::Static);
        match &mut policy {
            TlmPolicy::Static | TlmPolicy::Oracle(_) => {}
            TlmPolicy::Dynamic(migrator) => {
                if let Some(traffic) =
                    migrator.on_access_traced(&mut self.vmm, page, t.frame, now, &mut self.sink)
                {
                    self.charge_migration_now(now, &traffic, page);
                }
            }
            TlmPolicy::Freq(migrator) => {
                if let Some(report) =
                    migrator.on_access_traced(&mut self.vmm, page, now, &mut self.sink)
                {
                    self.charge_migration(now, &report.traffic, page);
                }
            }
        }
        self.policy = policy;

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

    fn migrated_pages(&self) -> u64 {
        self.migrated_pages
    }

    fn prefill(&mut self, page: cameo_types::PageAddr) {
        // Route through the same placement policy the timed path uses.
        match &self.policy {
            TlmPolicy::Oracle(profile) => {
                let region = profile.region_for(page);
                self.vmm.translate_in(page, false, region);
            }
            _ => {
                self.vmm.translate(page, false);
            }
        }
    }

    fn reset_stats(&mut self) {
        self.stacked.reset_stats();
        self.off_chip.reset_stats();
        self.vmm.reset_stats();
        self.reads_stacked = 0;
        self.reads_off_chip = 0;
        self.migrated_pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::{CoreId, LineAddr};

    fn mk(policy: TlmPolicy) -> TlmOrg {
        TlmOrg::new(ByteSize::from_mib(1), ByteSize::from_mib(3), policy, 7)
    }

    #[test]
    fn static_capacity_is_full_sum() {
        let o = mk(TlmPolicy::Static);
        assert_eq!(o.visible_capacity(), ByteSize::from_mib(4));
        assert_eq!(o.name(), "TLM-Static");
    }

    #[test]
    fn dynamic_promotes_touched_pages() {
        let mut o = mk(TlmPolicy::Dynamic(DynamicMigrator::new()));
        let a = Access::read(CoreId(0), LineAddr::new(12345), 0x40);
        let r1 = o.access(Cycle::ZERO, &a);
        assert!(r1.faulted);
        // Wherever the fault placed the page, the first post-fault touch
        // promotes it (or finds it already stacked): the next read must hit
        // stacked memory.
        let r2 = o.access(r1.completion, &a);
        let r3 = o.access(r2.completion, &a);
        assert_eq!(r3.serviced_by, ServiceLocation::Stacked);
    }

    #[test]
    fn dynamic_migration_consumes_bandwidth() {
        let mut o = mk(TlmPolicy::Dynamic(DynamicMigrator::new()));
        let mut now = Cycle::ZERO;
        // Touch enough distinct pages twice: the first touch faults the
        // page in, the second promotes it (swapping once stacked is full).
        for round in 0..2 {
            let _ = round;
            for p in 0..600u64 {
                let a = Access::read(CoreId(0), LineAddr::new(p * 64), 0x40);
                now = o.access(now, &a).completion;
            }
        }
        assert!(o.migrated_pages() > 0);
        let bw = o.bandwidth();
        assert!(bw.stacked_bytes > 0 && bw.off_chip_bytes > 0);
    }

    #[test]
    fn oracle_places_profiled_hot_pages_in_stacked() {
        let profile = OracleProfile::from_counts(vec![(PageAddr::new(5), 100)], 256);
        let mut o = mk(TlmPolicy::Oracle(profile));
        let hot = Access::read(CoreId(0), LineAddr::new(5 * 64), 0x40);
        let r1 = o.access(Cycle::ZERO, &hot);
        let r2 = o.access(r1.completion, &hot);
        assert_eq!(r2.serviced_by, ServiceLocation::Stacked);
        // An unprofiled page lands off-chip.
        let cold = Access::read(CoreId(0), LineAddr::new(99 * 64), 0x40);
        let r3 = o.access(r2.completion, &cold);
        let r4 = o.access(r3.completion, &cold);
        assert_eq!(r4.serviced_by, ServiceLocation::OffChip);
        assert_eq!(o.migrated_pages(), 0);
    }

    #[test]
    fn freq_policy_labels() {
        let o = mk(TlmPolicy::Freq(FreqMigrator::new(100)));
        assert_eq!(o.name(), "TLM-Freq");
    }
}
