//! Two-Level Memory (TLM) page-placement policies (paper Sections II-B,
//! II-C and VI-D).
//!
//! All three dynamic policies operate on a [`Vmm`] whose frame pool is split
//! into a stacked and an off-chip region:
//!
//! * [`DynamicMigrator`] — **TLM-Dynamic**: on an access to an off-chip
//!   page, swap it with a victim page in stacked memory. A 4 KiB swap costs
//!   16 KiB of memory activity (both modules read and write a page), which
//!   is exactly the bandwidth bloat the paper attributes to
//!   coarse-granularity migration.
//! * [`FreqMigrator`] — **TLM-Freq**: per-page access counters, and an
//!   epoch-based rebalance that promotes the hottest pages into stacked
//!   frames (software overheads ignored, transfer bandwidth modeled, as in
//!   the paper).
//! * [`OracleProfile`] — **TLM-Oracle**: given profiled access counts,
//!   place the hottest pages in stacked memory at fault-in time and never
//!   migrate.

use std::collections::HashSet;

use cameo_types::{Cycle, DetHashMap, PageAddr, TraceEvent, TraceSink, PAGE_BYTES};

use crate::frames::{FrameId, Region};
use crate::vmm::Vmm;

/// Bandwidth cost of one page move, per device, in bytes.
///
/// A one-way move reads 4 KiB from the source device and writes 4 KiB to the
/// destination; a swap does both in each direction (the paper's "total
/// memory activity of 16 KB").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MigrationTraffic {
    /// Bytes read + written on the stacked device.
    pub stacked_bytes: u64,
    /// Bytes read + written on the off-chip device.
    pub off_chip_bytes: u64,
    /// Number of page moves performed (1 = fill, 2 = swap).
    pub pages_moved: u32,
}

impl MigrationTraffic {
    fn one_way() -> Self {
        Self {
            stacked_bytes: PAGE_BYTES as u64,
            off_chip_bytes: PAGE_BYTES as u64,
            pages_moved: 1,
        }
    }

    fn swap() -> Self {
        Self {
            stacked_bytes: 2 * PAGE_BYTES as u64,
            off_chip_bytes: 2 * PAGE_BYTES as u64,
            pages_moved: 2,
        }
    }

    /// Accumulates another migration's traffic.
    pub fn merge(&mut self, other: &MigrationTraffic) {
        self.stacked_bytes += other.stacked_bytes;
        self.off_chip_bytes += other.off_chip_bytes;
        self.pages_moved += other.pages_moved;
    }

    /// Zero traffic.
    pub fn zero() -> Self {
        Self {
            stacked_bytes: 0,
            off_chip_bytes: 0,
            pages_moved: 0,
        }
    }
}

/// TLM-Dynamic: swap-on-touch page migration.
///
/// # Examples
///
/// ```
/// use cameo_vmem::tlm::DynamicMigrator;
/// use cameo_vmem::{Placement, Vmm, VmmConfig};
/// use cameo_types::{ByteSize, PageAddr};
///
/// let mut vmm = Vmm::new(VmmConfig {
///     stacked: ByteSize::from_pages(1),
///     off_chip: ByteSize::from_pages(3),
///     placement: Placement::OffChipFirst,
///     seed: 5,
/// });
/// let mut dynamic = DynamicMigrator::new();
/// let out = vmm.translate(PageAddr::new(0), false);
/// let migration = dynamic.on_access(&mut vmm, PageAddr::new(0), out.frame);
/// assert!(migration.is_some()); // page started off-chip, got promoted
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicMigrator {
    /// Next victim frame, below the stacked frame count.
    hand: u64,
}

impl DynamicMigrator {
    /// Creates the migrator with its victim hand at frame 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called after each translated access; if the page is off-chip it is
    /// promoted into stacked memory, swapping with a victim when stacked is
    /// full. Returns the migration traffic, or `None` if the page was
    /// already in stacked memory.
    pub fn on_access(
        &mut self,
        vmm: &mut Vmm,
        page: PageAddr,
        frame: FrameId,
    ) -> Option<MigrationTraffic> {
        if vmm.frames().region_of(frame) == Region::Stacked {
            return None;
        }
        if let Some(free) = vmm.frames().find_free(Region::Stacked) {
            let moved = vmm.move_resident(page, free);
            debug_assert!(moved, "resident page must move into a free frame");
            #[cfg(feature = "deep-audit")]
            vmm.assert_consistent();
            return Some(MigrationTraffic::one_way());
        }
        let stacked = vmm.frames().stacked_frames();
        debug_assert!(stacked > 0, "TLM-Dynamic requires stacked frames");
        // Round-robin victim over stacked frames; resident is guaranteed
        // because there were no free stacked frames. The hand wraps by a
        // compare, not a divide.
        debug_assert!(self.hand < stacked, "victim hand left the stacked region");
        let victim = FrameId(self.hand);
        self.hand = if self.hand + 1 >= stacked {
            0
        } else {
            self.hand + 1
        };
        vmm.swap_resident(victim, frame);
        #[cfg(feature = "deep-audit")]
        vmm.assert_consistent();
        Some(MigrationTraffic::swap())
    }

    /// Like [`DynamicMigrator::on_access`], but with tracing armed every
    /// page move emits a [`TraceEvent::PageMigration`] into `sink`.
    pub fn on_access_traced<S: TraceSink>(
        &mut self,
        vmm: &mut Vmm,
        page: PageAddr,
        frame: FrameId,
        now: Cycle,
        sink: &mut S,
    ) -> Option<MigrationTraffic> {
        let traffic = self.on_access(vmm, page, frame);
        if S::ENABLED {
            if let Some(t) = &traffic {
                if t.pages_moved > 0 {
                    sink.emit(
                        now,
                        TraceEvent::PageMigration {
                            pages: t.pages_moved,
                        },
                    );
                }
            }
        }
        traffic
    }
}

/// Report of one TLM-Freq epoch rebalance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RebalanceReport {
    /// Total migration traffic incurred this epoch.
    pub traffic: MigrationTraffic,
    /// Pages promoted into stacked memory.
    pub promotions: u64,
}

/// TLM-Freq: epoch-based, frequency-driven page placement (paper
/// Section VI-D, after Loh et al.'s hardware-assisted scheme).
///
/// Two dampers keep the policy from thrashing: pages need a minimum access
/// count in the epoch to be promotion candidates (ranking noise below that
/// is not evidence of heat), and promotions per epoch are capped at a
/// fraction of the stacked frames (an OS would bound migration batches).
#[derive(Clone, Debug)]
pub struct FreqMigrator {
    epoch_accesses: u64,
    seen: u64,
    // Updated on every access in the Freq organization — deterministic
    // fast hasher, and rebalance sorts with a full (count, page) order so
    // iteration order never reaches simulated behaviour.
    counts: DetHashMap<PageAddr, u64>,
    min_count: u64,
    promotion_cap_divisor: u64,
}

impl FreqMigrator {
    /// Creates a migrator that rebalances every `epoch_accesses` accesses,
    /// promoting pages with at least 2 epoch accesses, at most
    /// `stacked/8` pages per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_accesses` is zero.
    pub fn new(epoch_accesses: u64) -> Self {
        assert!(epoch_accesses > 0, "epoch must be non-empty");
        Self {
            epoch_accesses,
            seen: 0,
            counts: DetHashMap::default(),
            min_count: 2,
            promotion_cap_divisor: 8,
        }
    }

    /// Records one access and, at an epoch boundary, rebalances: the
    /// hottest pages are promoted into stacked frames by swapping with the
    /// coldest stacked residents.
    pub fn on_access(&mut self, vmm: &mut Vmm, page: PageAddr) -> Option<RebalanceReport> {
        *self.counts.entry(page).or_insert(0) += 1;
        self.seen += 1;
        if self.seen < self.epoch_accesses {
            return None;
        }
        self.seen = 0;
        let report = self.rebalance(vmm);
        // Exponential decay keeps hotness responsive across epochs.
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        Some(report)
    }

    /// Like [`FreqMigrator::on_access`], but with tracing armed an epoch
    /// rebalance that moved pages emits a [`TraceEvent::PageMigration`]
    /// into `sink`.
    pub fn on_access_traced<S: TraceSink>(
        &mut self,
        vmm: &mut Vmm,
        page: PageAddr,
        now: Cycle,
        sink: &mut S,
    ) -> Option<RebalanceReport> {
        let report = self.on_access(vmm, page);
        if S::ENABLED {
            if let Some(r) = &report {
                if r.traffic.pages_moved > 0 {
                    sink.emit(
                        now,
                        TraceEvent::PageMigration {
                            pages: r.traffic.pages_moved,
                        },
                    );
                }
            }
        }
        report
    }

    /// Promotes the hottest pages into stacked memory immediately.
    pub fn rebalance(&mut self, vmm: &mut Vmm) -> RebalanceReport {
        let stacked_frames = vmm.frames().stacked_frames();
        let mut hottest: Vec<(PageAddr, u64)> = self
            .counts
            .iter()
            .filter(|(p, c)| **c >= self.min_count && vmm.frame_of(**p).is_some())
            .map(|(p, c)| (*p, *c))
            .collect();
        hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hottest.truncate(stacked_frames as usize);
        let hot_set: HashSet<PageAddr> = hottest.iter().map(|(p, _)| *p).collect();
        let promotion_cap = (stacked_frames / self.promotion_cap_divisor).max(1) as usize;

        let mut traffic = MigrationTraffic::zero();
        let mut promotions = 0;
        // Cold stacked residents are swap candidates.
        let mut cold_victims: Vec<FrameId> = (0..stacked_frames)
            .map(FrameId)
            .filter(|f| {
                vmm.frames()
                    .resident(*f)
                    .is_none_or(|p| !hot_set.contains(&p))
            })
            .collect();

        for (page, _) in hottest {
            if promotions as usize >= promotion_cap {
                break;
            }
            let Some(frame) = vmm.frame_of(page) else {
                continue;
            };
            if vmm.frames().region_of(frame) == Region::Stacked {
                continue;
            }
            let Some(victim) = cold_victims.pop() else {
                break;
            };
            if vmm.frames().resident(victim).is_some() {
                vmm.swap_resident(victim, frame);
                traffic.merge(&MigrationTraffic::swap());
            } else {
                let moved = vmm.move_resident(page, victim);
                debug_assert!(moved, "cold victim frame was free");
                traffic.merge(&MigrationTraffic::one_way());
            }
            promotions += 1;
        }
        #[cfg(feature = "deep-audit")]
        vmm.assert_consistent();
        RebalanceReport {
            traffic,
            promotions,
        }
    }
}

/// TLM-Oracle: profiled page placement with no runtime migration.
///
/// Build it from a first-pass profile of per-page access counts; at fault-in
/// time, [`OracleProfile::region_for`] steers hot pages into stacked frames.
#[derive(Clone, Debug)]
pub struct OracleProfile {
    hot: HashSet<PageAddr>,
}

impl OracleProfile {
    /// Selects the `stacked_pages` most-accessed pages as the hot set.
    pub fn from_counts<I>(counts: I, stacked_pages: u64) -> Self
    where
        I: IntoIterator<Item = (PageAddr, u64)>,
    {
        let mut ranked: Vec<(PageAddr, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(stacked_pages as usize);
        Self {
            hot: ranked.into_iter().map(|(p, _)| p).collect(),
        }
    }

    /// Number of pages in the hot set.
    pub fn hot_pages(&self) -> usize {
        self.hot.len()
    }

    /// Region a page should be faulted into.
    pub fn region_for(&self, page: PageAddr) -> Region {
        if self.hot.contains(&page) {
            Region::Stacked
        } else {
            Region::OffChip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmm::{Placement, VmmConfig};
    use cameo_types::ByteSize;

    fn vmm(stacked: u64, off: u64, placement: Placement) -> Vmm {
        Vmm::new(VmmConfig {
            stacked: ByteSize::from_pages(stacked),
            off_chip: ByteSize::from_pages(off),
            placement,
            seed: 11,
        })
    }

    #[test]
    fn dynamic_promotes_into_free_stacked() {
        let mut v = vmm(2, 2, Placement::OffChipFirst);
        let mut d = DynamicMigrator::new();
        let out = v.translate(PageAddr::new(0), false);
        assert_eq!(v.frames().region_of(out.frame), Region::OffChip);
        let t = d.on_access(&mut v, PageAddr::new(0), out.frame).unwrap();
        assert_eq!(t.pages_moved, 1);
        let f = v.frame_of(PageAddr::new(0)).unwrap();
        assert_eq!(v.frames().region_of(f), Region::Stacked);
    }

    #[test]
    fn dynamic_swaps_when_stacked_full() {
        let mut v = vmm(1, 2, Placement::OffChipFirst);
        let mut d = DynamicMigrator::new();
        // Fill stacked with page 0.
        let a = v.translate(PageAddr::new(0), false);
        d.on_access(&mut v, PageAddr::new(0), a.frame);
        // Touch page 1 off-chip: must swap with page 0.
        let b = v.translate(PageAddr::new(1), false);
        let t = d.on_access(&mut v, PageAddr::new(1), b.frame).unwrap();
        assert_eq!(t.pages_moved, 2);
        assert_eq!(t.stacked_bytes + t.off_chip_bytes, 16 * 1024);
        let f1 = v.frame_of(PageAddr::new(1)).unwrap();
        assert_eq!(v.frames().region_of(f1), Region::Stacked);
        let f0 = v.frame_of(PageAddr::new(0)).unwrap();
        assert_eq!(v.frames().region_of(f0), Region::OffChip);
    }

    #[test]
    fn dynamic_noop_for_stacked_resident() {
        let mut v = vmm(2, 2, Placement::PreferStacked);
        let mut d = DynamicMigrator::new();
        let out = v.translate(PageAddr::new(0), false);
        assert!(d.on_access(&mut v, PageAddr::new(0), out.frame).is_none());
    }

    #[test]
    fn freq_promotes_hottest() {
        let mut v = vmm(1, 3, Placement::OffChipFirst);
        let mut f = FreqMigrator::new(10);
        // Pages 0,1,2 resident off-chip; page 2 is hottest.
        for p in 0..3u64 {
            v.translate(PageAddr::new(p), false);
        }
        let mut report = None;
        for i in 0..10 {
            let p = if i < 6 { 2 } else { i % 2 };
            v.translate(PageAddr::new(p), false);
            report = f.on_access(&mut v, PageAddr::new(p)).or(report);
        }
        let report = report.expect("epoch boundary reached");
        assert_eq!(report.promotions, 1);
        let frame = v.frame_of(PageAddr::new(2)).unwrap();
        assert_eq!(v.frames().region_of(frame), Region::Stacked);
    }

    #[test]
    fn freq_respects_stacked_capacity() {
        let mut v = vmm(2, 4, Placement::OffChipFirst);
        let mut f = FreqMigrator::new(1_000_000);
        for p in 0..4u64 {
            v.translate(PageAddr::new(p), false);
            for _ in 0..(p + 1) * 3 {
                *f.counts.entry(PageAddr::new(p)).or_insert(0) += 1;
            }
        }
        // The per-epoch cap is stacked/8 (at least 1): two rebalances move
        // both hot pages in, hottest first.
        let first = f.rebalance(&mut v);
        assert_eq!(first.promotions, 1);
        let second = f.rebalance(&mut v);
        assert_eq!(second.promotions, 1);
        for hot in [3u64, 2] {
            let fr = v.frame_of(PageAddr::new(hot)).unwrap();
            assert_eq!(v.frames().region_of(fr), Region::Stacked, "page {hot}");
        }
        // A third rebalance has nothing left to promote.
        assert_eq!(f.rebalance(&mut v).promotions, 0);
    }

    #[test]
    fn oracle_places_hot_pages_fast() {
        let profile = OracleProfile::from_counts(
            vec![
                (PageAddr::new(0), 100),
                (PageAddr::new(1), 5),
                (PageAddr::new(2), 50),
            ],
            1,
        );
        assert_eq!(profile.hot_pages(), 1);
        assert_eq!(profile.region_for(PageAddr::new(0)), Region::Stacked);
        assert_eq!(profile.region_for(PageAddr::new(2)), Region::OffChip);
        let mut v = vmm(1, 2, Placement::OffChipFirst);
        let out = v.translate_in(
            PageAddr::new(0),
            false,
            profile.region_for(PageAddr::new(0)),
        );
        assert_eq!(v.frames().region_of(out.frame), Region::Stacked);
    }

    #[test]
    fn traced_migrations_emit_page_counts() {
        use cameo_types::VecSink;
        let mut v = vmm(1, 2, Placement::OffChipFirst);
        let mut d = DynamicMigrator::new();
        let mut sink = VecSink::default();
        // Promotion into a free stacked frame: one page moved.
        let a = v.translate(PageAddr::new(0), false);
        d.on_access_traced(&mut v, PageAddr::new(0), a.frame, Cycle::new(3), &mut sink);
        // Swap with the resident victim: two pages moved.
        let b = v.translate(PageAddr::new(1), false);
        d.on_access_traced(&mut v, PageAddr::new(1), b.frame, Cycle::new(7), &mut sink);
        // Stacked-resident access: no event.
        let f = v.frame_of(PageAddr::new(1)).unwrap();
        d.on_access_traced(&mut v, PageAddr::new(1), f, Cycle::new(9), &mut sink);
        assert_eq!(
            sink.events,
            vec![
                (Cycle::new(3), TraceEvent::PageMigration { pages: 1 }),
                (Cycle::new(7), TraceEvent::PageMigration { pages: 2 }),
            ]
        );
    }

    #[test]
    fn traffic_merge() {
        let mut t = MigrationTraffic::zero();
        t.merge(&MigrationTraffic::one_way());
        t.merge(&MigrationTraffic::swap());
        assert_eq!(t.pages_moved, 3);
        assert_eq!(t.stacked_bytes, 3 * 4096);
        assert_eq!(t.off_chip_bytes, 3 * 4096);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_epoch_rejected() {
        FreqMigrator::new(0);
    }
}
