//! The virtual memory manager: page table, demand paging, fault accounting.

use cameo_types::{ByteSize, PageAddr, PhysPageAddr, PAGE_BYTES};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::frames::{FrameAllocator, FrameId, Region};
use crate::page_table::PageTable;

/// Frame placement policy for newly faulted-in pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// A random free frame anywhere in visible memory (the paper's
    /// TLM-Static mapping, also used as the CAMEO default).
    Random,
    /// Prefer stacked frames while they last, then off-chip.
    PreferStacked,
    /// Off-chip frames only (keeps stacked frames for a policy that places
    /// pages there explicitly, e.g. TLM-Oracle).
    OffChipFirst,
}

/// Configuration of the visible memory space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VmmConfig {
    /// OS-visible stacked capacity (zero when stacked DRAM is a cache).
    pub stacked: ByteSize,
    /// OS-visible off-chip capacity.
    pub off_chip: ByteSize,
    /// Frame placement policy.
    pub placement: Placement,
    /// Seed for the random placement / random-probe victim selection.
    pub seed: u64,
}

/// Paging activity counters (feeds the paper's storage-bandwidth rows in
/// Table IV and the page-fault component of execution time).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VmmStats {
    /// Page faults serviced from storage.
    pub faults: u64,
    /// Dirty pages written back to storage on eviction.
    pub dirty_writebacks: u64,
    /// Bytes read from storage (faults × page size).
    pub bytes_from_storage: u64,
    /// Bytes written to storage (dirty writebacks × page size).
    pub bytes_to_storage: u64,
}

impl VmmStats {
    /// Total storage-bus traffic in bytes.
    #[inline]
    pub fn storage_bytes(&self) -> u64 {
        self.bytes_from_storage + self.bytes_to_storage
    }
}

/// Details of a page fault raised by [`Vmm::translate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultInfo {
    /// Page evicted to make room, with its dirtiness, if memory was full.
    pub evicted: Option<(PageAddr, bool)>,
}

/// Result of translating a virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TranslateOutcome {
    /// Physical page the virtual page maps to.
    pub phys: PhysPageAddr,
    /// Backing frame.
    pub frame: FrameId,
    /// Present on a page fault (the page was not resident).
    pub fault: Option<FaultInfo>,
}

/// The virtual memory manager: translates virtual pages to physical frames,
/// faulting pages in from storage on first touch or after eviction.
///
/// # Examples
///
/// ```
/// use cameo_vmem::{Placement, Vmm, VmmConfig};
/// use cameo_types::{ByteSize, PageAddr};
///
/// let mut vmm = Vmm::new(VmmConfig {
///     stacked: ByteSize::from_pages(4),
///     off_chip: ByteSize::from_pages(12),
///     placement: Placement::Random,
///     seed: 1,
/// });
/// let out = vmm.translate(PageAddr::new(0), true);
/// assert!(out.fault.is_some());
/// assert_eq!(vmm.stats().faults, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Vmm {
    config: VmmConfig,
    allocator: FrameAllocator,
    /// Probed on every simulated access: a radix table, with no hashing,
    /// for the pages below 2^32 that every workload produces.
    table: PageTable,
    rng: SmallRng,
    stats: VmmStats,
}

impl Vmm {
    /// Creates a VMM over the given visible capacities.
    ///
    /// # Panics
    ///
    /// Panics if total visible memory is zero pages, or more than
    /// `u32::MAX` pages (16 TiB; the page table stores frame numbers in
    /// 32 bits).
    pub fn new(config: VmmConfig) -> Self {
        assert!(
            config.stacked.pages() + config.off_chip.pages() <= u64::from(u32::MAX),
            "visible memory exceeds u32::MAX pages"
        );
        let allocator = FrameAllocator::new(config.stacked.pages(), config.off_chip.pages());
        Self {
            config,
            allocator,
            table: PageTable::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            stats: VmmStats::default(),
        }
    }

    /// Returns the configuration.
    #[inline]
    pub fn config(&self) -> &VmmConfig {
        &self.config
    }

    /// Returns paging counters.
    #[inline]
    pub fn stats(&self) -> &VmmStats {
        &self.stats
    }

    /// Resets paging counters, keeping all residency state (used when the
    /// measured region starts after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = VmmStats::default();
    }

    /// Read access to the frame pool (for policies that inspect regions).
    #[inline]
    pub fn frames(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Frame currently backing `page`, if resident.
    #[inline]
    pub fn frame_of(&self, page: PageAddr) -> Option<FrameId> {
        self.table.get(page)
    }

    /// Number of resident pages.
    #[inline]
    pub fn resident_pages(&self) -> usize {
        self.table.len()
    }

    /// Translates a virtual page, faulting it in if necessary. Marks the
    /// frame referenced (and dirty on writes) for the clock algorithm.
    pub fn translate(&mut self, page: PageAddr, is_write: bool) -> TranslateOutcome {
        let region = match self.config.placement {
            Placement::Random => Region::Any,
            Placement::PreferStacked => Region::Stacked,
            Placement::OffChipFirst => Region::OffChip,
        };
        self.translate_in(page, is_write, region)
    }

    /// Translates a batch of virtual pages in slice order, faulting each
    /// in if necessary, and returns the number of faults taken — the
    /// prefill transient translates every page of every core's footprint
    /// this way. Per-page side effects (placement RNG draws, touch order,
    /// eviction choices, counters) are identical to calling
    /// [`Vmm::translate`] on each page in turn.
    pub fn translate_batch(&mut self, pages: &[PageAddr], is_write: bool) -> u64 {
        let before = self.stats.faults;
        for &page in pages {
            self.translate(page, is_write);
        }
        self.stats.faults - before
    }

    /// Like [`Vmm::translate`] but with an explicit region preference for
    /// the fault-in path (used by TLM-Oracle's profiled placement).
    pub fn translate_in(
        &mut self,
        page: PageAddr,
        is_write: bool,
        region: Region,
    ) -> TranslateOutcome {
        if let Some(frame) = self.table.get(page) {
            self.allocator.touch(frame, is_write);
            return TranslateOutcome {
                phys: frame.phys_page(),
                frame,
                fault: None,
            };
        }

        // Fall back to any region if the preferred one is exhausted: an OS
        // does not fault just because fast memory is full.
        let took = self.allocator.take(page, region, &mut self.rng);
        if let Some((victim, dirty)) = took.evicted {
            self.table.remove(victim);
            if dirty {
                self.stats.dirty_writebacks += 1;
                self.stats.bytes_to_storage += PAGE_BYTES as u64;
            }
        }
        self.table.insert(page, took.frame);
        self.allocator.touch(took.frame, is_write);
        self.stats.faults += 1;
        self.stats.bytes_from_storage += PAGE_BYTES as u64;
        TranslateOutcome {
            phys: took.frame.phys_page(),
            frame: took.frame,
            fault: Some(FaultInfo {
                evicted: took.evicted,
            }),
        }
    }

    /// Exchanges the frames of two *resident* pages (TLM page migration),
    /// updating the page table.
    ///
    /// # Panics
    ///
    /// Panics if either frame has no resident page.
    pub fn swap_resident(&mut self, a: FrameId, b: FrameId) {
        let pa = self
            .allocator
            .resident(a)
            .expect("swap_resident: frame a is empty");
        let pb = self
            .allocator
            .resident(b)
            .expect("swap_resident: frame b is empty");
        self.allocator.swap_frames(a, b);
        self.table.insert(pa, b);
        self.table.insert(pb, a);
    }

    /// Moves a resident page into a specific free frame (one-way migration),
    /// releasing its old frame.
    ///
    /// Returns `false` (and changes nothing) if `page` is not resident or
    /// `to` is occupied.
    pub fn move_resident(&mut self, page: PageAddr, to: FrameId) -> bool {
        let Some(from) = self.table.get(page) else {
            return false;
        };
        if self.allocator.resident(to).is_some() {
            return false;
        }
        let dirty = self.allocator.is_dirty(from);
        self.allocator.release(from);
        let placed = self.allocator.place_into(page, to);
        debug_assert!(placed, "target frame was checked free");
        self.allocator.touch(to, dirty);
        self.table.insert(page, to);
        true
    }

    /// Verifies page-table ↔ frame-allocator consistency: every mapped
    /// page's frame must report that page resident, and the number of
    /// occupied frames must equal the number of mapped pages (no orphaned
    /// residents, no double mappings).
    #[cfg(feature = "deep-audit")]
    pub fn audit_page_table(&self) -> Result<(), String> {
        for (page, frame) in self.table.iter() {
            let resident = self.allocator.resident(frame);
            if resident != Some(page) {
                return Err(format!(
                    "page {page:?} maps to frame {frame:?}, but that frame \
                     reports resident {resident:?}"
                ));
            }
        }
        let occupied = (0..self.allocator.total_frames())
            .filter(|&f| self.allocator.resident(FrameId(f)).is_some())
            .count();
        if occupied != self.table.len() {
            return Err(format!(
                "{occupied} occupied frames vs {} mapped pages — orphaned \
                 resident or double mapping",
                self.table.len()
            ));
        }
        Ok(())
    }

    /// Panics with the violation if [`Vmm::audit_page_table`] fails. The
    /// TLM migrators call this after every page move under `deep-audit`.
    #[cfg(feature = "deep-audit")]
    pub fn assert_consistent(&self) {
        if let Err(violation) = self.audit_page_table() {
            panic!("deep-audit: page table inconsistent: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vmm(stacked_pages: u64, off_pages: u64) -> Vmm {
        Vmm::new(VmmConfig {
            stacked: ByteSize::from_pages(stacked_pages),
            off_chip: ByteSize::from_pages(off_pages),
            placement: Placement::Random,
            seed: 3,
        })
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut v = vmm(2, 2);
        let p = PageAddr::new(7);
        let a = v.translate(p, false);
        assert!(a.fault.is_some());
        let b = v.translate(p, true);
        assert!(b.fault.is_none());
        assert_eq!(a.phys, b.phys);
        assert_eq!(v.stats().faults, 1);
        assert_eq!(v.stats().bytes_from_storage, 4096);
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut v = vmm(1, 1);
        v.translate(PageAddr::new(0), true);
        v.translate(PageAddr::new(1), false);
        let out = v.translate(PageAddr::new(2), false);
        let fault = out.fault.expect("must fault");
        let (victim, _) = fault.evicted.expect("memory was full");
        assert!(v.frame_of(victim).is_none(), "victim still mapped");
        assert_eq!(v.resident_pages(), 2);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut v = vmm(1, 0);
        v.translate(PageAddr::new(0), true); // dirty
        v.translate(PageAddr::new(1), false); // evicts page 0
        assert_eq!(v.stats().dirty_writebacks, 1);
        assert_eq!(v.stats().bytes_to_storage, 4096);
    }

    #[test]
    fn region_preference_falls_back() {
        let mut v = vmm(1, 1);
        // Ask for stacked twice; second must fall back to off-chip rather
        // than evicting while a free frame exists.
        let a = v.translate_in(PageAddr::new(0), false, Region::Stacked);
        let b = v.translate_in(PageAddr::new(1), false, Region::Stacked);
        assert!(b.fault.expect("fault").evicted.is_none());
        assert_ne!(a.frame, b.frame);
    }

    #[test]
    fn swap_resident_updates_table() {
        let mut v = vmm(1, 1);
        let a = v.translate_in(PageAddr::new(0), false, Region::Stacked);
        let b = v.translate_in(PageAddr::new(1), false, Region::OffChip);
        v.swap_resident(a.frame, b.frame);
        assert_eq!(v.frame_of(PageAddr::new(0)), Some(b.frame));
        assert_eq!(v.frame_of(PageAddr::new(1)), Some(a.frame));
        // Subsequent translation reflects the new physical location.
        assert_eq!(v.translate(PageAddr::new(0), false).frame, b.frame);
    }

    #[test]
    fn move_resident_one_way() {
        let mut v = vmm(2, 0);
        let a = v.translate(PageAddr::new(0), true);
        let free = FrameId(if a.frame.0 == 0 { 1 } else { 0 });
        assert!(v.move_resident(PageAddr::new(0), free));
        assert_eq!(v.frame_of(PageAddr::new(0)), Some(free));
        // Dirtiness travels with the page.
        assert!(v.frames().is_dirty(free));
        // Old frame is free again.
        assert_eq!(v.frames().free_frames(), 1);
        // Moving a non-resident page fails.
        assert!(!v.move_resident(PageAddr::new(9), a.frame));
    }

    #[test]
    fn translate_batch_matches_per_page_translation() {
        // Same pages, same order, same seed: the batch path must leave
        // the VMM in a state indistinguishable from the loop it replaces
        // (mappings, counters, and the RNG stream consumed by placement).
        let pages: Vec<PageAddr> = [7u64, 3, 7, 11, 0, 3, 5, 9, 2, 7]
            .iter()
            .map(|&p| PageAddr::new(p))
            .collect();
        let mut looped = vmm(2, 4);
        for &page in &pages {
            looped.translate(page, false);
        }
        let mut batched = vmm(2, 4);
        let faults = batched.translate_batch(&pages, false);
        assert_eq!(faults, looped.stats().faults);
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(batched.resident_pages(), looped.resident_pages());
        for &page in &pages {
            assert_eq!(batched.frame_of(page), looped.frame_of(page));
        }
        // The RNG streams stayed in lockstep: the next placement draws
        // the same frame on both sides.
        assert_eq!(
            batched.translate(PageAddr::new(99), false).frame,
            looped.translate(PageAddr::new(99), false).frame
        );
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX pages")]
    fn pool_beyond_u32_frame_numbers_rejected() {
        vmm(1, u64::from(u32::MAX));
    }

    #[test]
    fn stats_storage_totals() {
        let mut v = vmm(1, 0);
        v.translate(PageAddr::new(0), true);
        v.translate(PageAddr::new(1), false);
        assert_eq!(v.stats().storage_bytes(), 4096 * 3); // 2 in, 1 out
    }
}
